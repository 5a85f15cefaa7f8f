"""Pinned SHA-256 digests of emitted trial files, counts tables and reports.

A change to the random stream, the Born sampler, the LHV sampler or
responses, the tally or the trial CSV writer changes these digests, even
when every statistical test still passes.  200000 trials are four blocks
of ``harness.BLOCK_SIZE``, the last one partial.

Each state runs at its default angles: the spin optimum, halved for
photons.  A photon state there has the joint distributions of the spin
state of the same sign, so the two share a counts digest; their trial
files differ in the angles header.  The LHV models run at the spin
optimum, whose response thresholds lie on multiples of 45 degrees, where
the mimic model's CDF takes the uniform one's values (k/8); the mimic and
sign models therefore give the same outcomes from the same uniform
draws.  The mimic sampler is pinned by the lhv-sim report at 22.5
degrees, and by chsh-sim runs at the spin optimum turned by 22.5
degrees, whose thresholds lie off those multiples.

The ``draw`` field of each pin names the settings draw of the run,
``uniform``: every trial picks its pair uniformly at random from its
block's substream.  It is part of each pin's test id.
"""

import contextlib
import hashlib
import io

import pytest

from bellsim import cli, harness

PINNED = [
    ("spin-anticorrelated", "uniform",
     "85f36d07e590a923a8d00d6c0cb8d0d2e7482a42fb9095eff9e7aad76480d50d",
     "83b9f7238cf4eaaa4c1e9e7d1f51c40510cdf7720e118385d97692dca12ebfbb"),
    ("spin-correlated", "uniform",
     "fe53ea43f8724e5575bf3eb4c465e0936bc2c216dfd2c4e3c3cf95ded2f8fc3f",
     "2b4b71870bff30b97198578f3e021c530dc37566983079745f21685700691742"),
    ("photon-correlated", "uniform",
     "66085476a244866e3f8ca6ad5e0cbcc4dbb22eebcd196baeae47e3af1b3a5268",
     "2b4b71870bff30b97198578f3e021c530dc37566983079745f21685700691742"),
    ("photon-anticorrelated", "uniform",
     "b1ac10b57f88a05fc35d11dffc6767e1809bf8fd8234cd252b296b5a3cfc1f19",
     "83b9f7238cf4eaaa4c1e9e7d1f51c40510cdf7720e118385d97692dca12ebfbb"),
]


LHV_PINNED = [
    ("sign_model", "uniform",
     "80a27f7c7ac700a350f63830d340e53bf3e0e5e356d911cefce2fbec4af78215",
     "d8b638b419c0b99dda93affaf2eaced1379a14f772cacb0e9b1c1cf0b546efe4"),
    ("constant_model", "uniform",
     "6ce70d8be899701a363fa8c39110e64db8670a1062b9ef3240bc832f3daf5b81",
     "e29cfa554ace51f89c00b8fd4e0cd165137c842f7367a7ef3c105f3fe1bb68b6"),
    ("quantum_mimic_attempt", "uniform",
     "80a27f7c7ac700a350f63830d340e53bf3e0e5e356d911cefce2fbec4af78215",
     "d8b638b419c0b99dda93affaf2eaced1379a14f772cacb0e9b1c1cf0b546efe4"),
]

# the spin optimum turned by 22.5 degrees
MIMIC_ANGLES = "22.5,-67.5,157.5,-112.5"

MIMIC_PINNED = [
    ("uniform",
     "91aa6493250f914e8a018beeb9abd1bbde1ccaffda5e7e0bee11e95b78dbe14c",
     "62d1ff105f1e48f48c25c44825706c0c6e616d519fa6158e8007c03cecc8f103"),
]

LHV_SIM_REPORT_SHA256 = (
    "9aa15a408bacdc006a93cee133ebe9017e206d9259fff2e81c706cb5f399608b"
)


def _chsh_sim_digests(tmp_path, monkeypatch, source_args):
    """SHA-256 of the emitted trial CSV and of the tabulated counts."""
    tables = []
    tabulate = harness.tabulate

    def recording_tabulate(log):
        table = tabulate(log)
        tables.append(table.counts)
        return table

    monkeypatch.setattr(harness, "tabulate", recording_tabulate)
    path = tmp_path / "trials.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "chsh-sim", *source_args,
            "--trials", "200000", "--seed", "7", "--emit-trials", str(path),
        ])
    assert code == 0
    assert len(tables) == 1
    counts = tables[0].astype("<i8").tobytes()
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(counts).hexdigest(),
    )


@pytest.mark.parametrize("state,draw,csv_sha256,counts_sha256", PINNED)
def test_emitted_trials_and_counts_are_pinned(
    tmp_path, monkeypatch, state, draw, csv_sha256, counts_sha256
):
    digests = _chsh_sim_digests(tmp_path, monkeypatch, ["--state", state])
    assert digests == (csv_sha256, counts_sha256)


@pytest.mark.parametrize("model,draw,csv_sha256,counts_sha256", LHV_PINNED)
def test_lhv_trials_and_counts_are_pinned(
    tmp_path, monkeypatch, model, draw, csv_sha256, counts_sha256
):
    digests = _chsh_sim_digests(tmp_path, monkeypatch, ["--model", model])
    assert digests == (csv_sha256, counts_sha256)


@pytest.mark.parametrize("draw,csv_sha256,counts_sha256", MIMIC_PINNED)
def test_mimic_density_is_pinned(
    tmp_path, monkeypatch, draw, csv_sha256, counts_sha256
):
    # off the multiples of 45 degrees the mimic density decides outcomes:
    # the same draws give other trials than the sign model's
    digests = _chsh_sim_digests(
        tmp_path, monkeypatch,
        ["--model", "quantum_mimic_attempt", "--angles", MIMIC_ANGLES],
    )
    assert digests == (csv_sha256, counts_sha256)
    sign = _chsh_sim_digests(
        tmp_path, monkeypatch, ["--model", "sign_model", "--angles", MIMIC_ANGLES],
    )
    assert sign[0] != csv_sha256 and sign[1] != counts_sha256


def test_lhv_sim_report_is_pinned(tmp_path):
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "lhv-sim", "--model", "quantum_mimic_attempt", "--gamma", "22.5",
            "--trials", "100000", "--seed", "7", "--out", str(path),
        ])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LHV_SIM_REPORT_SHA256
