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
    ("spin-anticorrelated", "round-robin",
     "5313897d5676943261f34d6423e3ebd8eed1199074ab5ffc21173bdc7fc8ba12",
     "9bbdcb6f81cc598c723773974e8907291e740b9cbb869feb33313cb1d7b3f9aa"),
    ("spin-correlated", "uniform",
     "fe53ea43f8724e5575bf3eb4c465e0936bc2c216dfd2c4e3c3cf95ded2f8fc3f",
     "2b4b71870bff30b97198578f3e021c530dc37566983079745f21685700691742"),
    ("spin-correlated", "round-robin",
     "f4c8f639b0c37f9801b23efd7e8aa939b76bcd315f90ef34af168215e2f94dee",
     "0ab5fc8ccca3d3ed5bff914a496c7649816e6d10bda60ff1176f41f2b95a95c5"),
    ("photon-correlated", "uniform",
     "66085476a244866e3f8ca6ad5e0cbcc4dbb22eebcd196baeae47e3af1b3a5268",
     "2b4b71870bff30b97198578f3e021c530dc37566983079745f21685700691742"),
    ("photon-correlated", "round-robin",
     "51251e717e7629c50dadd814a0574aed3d0085962f941eea80d1ff8661e0a825",
     "0ab5fc8ccca3d3ed5bff914a496c7649816e6d10bda60ff1176f41f2b95a95c5"),
    ("photon-anticorrelated", "uniform",
     "b1ac10b57f88a05fc35d11dffc6767e1809bf8fd8234cd252b296b5a3cfc1f19",
     "83b9f7238cf4eaaa4c1e9e7d1f51c40510cdf7720e118385d97692dca12ebfbb"),
    ("photon-anticorrelated", "round-robin",
     "a8d0e65ca8c0cc2df0548b73ad2567b1e93f56d300402d07a53486cb666aeb3d",
     "9bbdcb6f81cc598c723773974e8907291e740b9cbb869feb33313cb1d7b3f9aa"),
]


LHV_PINNED = [
    ("sign_model", "uniform",
     "80a27f7c7ac700a350f63830d340e53bf3e0e5e356d911cefce2fbec4af78215",
     "d8b638b419c0b99dda93affaf2eaced1379a14f772cacb0e9b1c1cf0b546efe4"),
    ("sign_model", "round-robin",
     "65cefc5539df02b0fbbaee694dfa73443e21d94f07f31bb6daf84d937d12e3f7",
     "53fbc22323c8e3555def63f1270cf6cd89c7f89309186b2772e2d03a462b48f4"),
    ("constant_model", "uniform",
     "6ce70d8be899701a363fa8c39110e64db8670a1062b9ef3240bc832f3daf5b81",
     "e29cfa554ace51f89c00b8fd4e0cd165137c842f7367a7ef3c105f3fe1bb68b6"),
    ("constant_model", "round-robin",
     "3ee4fbe7ab8925c04b4efe7fc1b8c47b46c57840ea71df1c06508756e2d3731a",
     "87bc77b6c64950eb2614f9f824ca89bef58f9f35bd0d8f25d321b7171e35406a"),
    ("quantum_mimic_attempt", "uniform",
     "80a27f7c7ac700a350f63830d340e53bf3e0e5e356d911cefce2fbec4af78215",
     "d8b638b419c0b99dda93affaf2eaced1379a14f772cacb0e9b1c1cf0b546efe4"),
    ("quantum_mimic_attempt", "round-robin",
     "65cefc5539df02b0fbbaee694dfa73443e21d94f07f31bb6daf84d937d12e3f7",
     "53fbc22323c8e3555def63f1270cf6cd89c7f89309186b2772e2d03a462b48f4"),
]

# the spin optimum turned by 22.5 degrees
MIMIC_ANGLES = "22.5,-67.5,157.5,-112.5"

MIMIC_PINNED = [
    ("uniform",
     "91aa6493250f914e8a018beeb9abd1bbde1ccaffda5e7e0bee11e95b78dbe14c",
     "62d1ff105f1e48f48c25c44825706c0c6e616d519fa6158e8007c03cecc8f103"),
    ("round-robin",
     "5527bd42f8afe13db361ca16f61d1b625c65b38895d01a51f84df7e027d9cbbd",
     "c41cf26bb06aea253b15abbc46607a2ef53e7a8167464e0a51491495a99b74fc"),
]

LHV_SIM_REPORT_SHA256 = (
    "9aa15a408bacdc006a93cee133ebe9017e206d9259fff2e81c706cb5f399608b"
)


def _chsh_sim_digests(tmp_path, monkeypatch, source_args, schedule):
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
            "chsh-sim", *source_args, "--schedule", schedule,
            "--trials", "200000", "--seed", "7", "--emit-trials", str(path),
        ])
    assert code == 0
    assert len(tables) == 1
    counts = tables[0].astype("<i8").tobytes()
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(counts).hexdigest(),
    )


@pytest.mark.parametrize("state,schedule,csv_sha256,counts_sha256", PINNED)
def test_emitted_trials_and_counts_are_pinned(
    tmp_path, monkeypatch, state, schedule, csv_sha256, counts_sha256
):
    digests = _chsh_sim_digests(tmp_path, monkeypatch, ["--state", state], schedule)
    assert digests == (csv_sha256, counts_sha256)


@pytest.mark.parametrize("model,schedule,csv_sha256,counts_sha256", LHV_PINNED)
def test_lhv_trials_and_counts_are_pinned(
    tmp_path, monkeypatch, model, schedule, csv_sha256, counts_sha256
):
    digests = _chsh_sim_digests(tmp_path, monkeypatch, ["--model", model], schedule)
    assert digests == (csv_sha256, counts_sha256)


@pytest.mark.parametrize("schedule,csv_sha256,counts_sha256", MIMIC_PINNED)
def test_mimic_density_is_pinned(
    tmp_path, monkeypatch, schedule, csv_sha256, counts_sha256
):
    # off the multiples of 45 degrees the mimic density decides outcomes:
    # the same draws give other trials than the sign model's
    digests = _chsh_sim_digests(
        tmp_path, monkeypatch,
        ["--model", "quantum_mimic_attempt", "--angles", MIMIC_ANGLES], schedule,
    )
    assert digests == (csv_sha256, counts_sha256)
    sign = _chsh_sim_digests(
        tmp_path, monkeypatch, ["--model", "sign_model", "--angles", MIMIC_ANGLES],
        schedule,
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
