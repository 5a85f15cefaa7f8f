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

The ``draw`` field of each pin names the draw of the run, ``word``:
every trial takes one raw 64-bit word from its block's substream, whose
top two bits are its settings pair; a Born trial's outcome comes from
the next 53 bits of the same word, and an LHV block samples lam after
its words.  It is part of each pin's test id.  A one-pair run draws no
pair bits, so the ``lhv-sim`` stream is its lam draws alone.
"""

import contextlib
import hashlib
import io

import pytest

from bellsim import cli, harness

PINNED = [
    ("spin-anticorrelated", "word",
     "288355f08bb93a6313da8120688c2b9dcd37bd653d7777c76b1e0e93b4928d09",
     "834f54fa0095c5d355ebd5eaea66241afccfbbf818506069dd01a59e3d56cbf3"),
    ("spin-correlated", "word",
     "f3319aabf8397f74c2ee043e50e002ef5ca104f2629290de2331c89a6ee9cf08",
     "147cf3febfa33ca8348c87552d40eb8f475cb1ffbb71b54a56696f9b2dade217"),
    ("photon-correlated", "word",
     "403d9e802f20cbf0b84bd2f076f5380bf0abc1b0d10872b1897ea8025905f12b",
     "147cf3febfa33ca8348c87552d40eb8f475cb1ffbb71b54a56696f9b2dade217"),
    ("photon-anticorrelated", "word",
     "f29cfc4fa1e8a550f15da6cf70f9acfa00f2bc7d974a55992587addddc2aec6d",
     "834f54fa0095c5d355ebd5eaea66241afccfbbf818506069dd01a59e3d56cbf3"),
]


LHV_PINNED = [
    ("sign_model", "word",
     "88e53f486dbc4588029ee34c95dc73fbaefa36cd8794e378f68bdf8956df291f",
     "90f0c0a59433d3f5f86232f92896da5c853c42776f6204af913ae6a45b698387"),
    ("constant_model", "word",
     "aef0a829d7cf4251006385598a6a8677b92aca0ec4ca88c2a5823cc100dd81ac",
     "f5267fff0a83b87faf666e880d4564f7cb7f861e097d932ae92b971386e215cb"),
    ("quantum_mimic_attempt", "word",
     "88e53f486dbc4588029ee34c95dc73fbaefa36cd8794e378f68bdf8956df291f",
     "90f0c0a59433d3f5f86232f92896da5c853c42776f6204af913ae6a45b698387"),
]

# the spin optimum turned by 22.5 degrees
MIMIC_ANGLES = "22.5,-67.5,157.5,-112.5"

MIMIC_PINNED = [
    ("word",
     "2d458958330c94122d80a019c341d48b68c679f22ada72ebed05262277757e8e",
     "5a3d6dc7d3c34f5f14edd9b17a01167d7a20081fb2ee14a1de4a901645fd66c7"),
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
