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

The ``draw`` field of each pin names the draw of the run, ``lane``:
every trial takes one 16-bit lane of its block's raw 64-bit words, four
lanes to a word, whose top two bits are its settings pair; a Born
trial's outcome comes from the rest of its lane, and a draw whose bucket
holds a threshold takes one more raw word after the lane words.  An
LHV block samples lam after its lane words.  The field is part of each
pin's test id.  A one-pair run draws no lanes, so the ``lhv-sim``
stream is its lam draws alone.
"""

import contextlib
import hashlib
import io

import pytest

from bellsim import cli, harness

PINNED = [
    ("spin-anticorrelated", "lane",
     "25c10202b972af94cc1bee964afa361c33525d1e9604c2b7f09db9a6a7ab44cc",
     "6442585580e8860d2f5357ee88eb5fbfc5214ed61bcc212bf27eaa0562db29c0"),
    ("spin-correlated", "lane",
     "07d9d1e5837ff5cb142162a105d293c5a9242622a68027a94b95573f8f392814",
     "1d8d40311762adbcb3511cce2cfe01f38893cca383743860d3084641de956fef"),
    ("photon-correlated", "lane",
     "199eb5e23419ab6a87f9c2e8e5c1afdbe630bb16f1e3eed59a4379163d8b65ac",
     "1d8d40311762adbcb3511cce2cfe01f38893cca383743860d3084641de956fef"),
    ("photon-anticorrelated", "lane",
     "17c1944e804ba1cf4cf04896fcadbeae03fba24a7ae45aafeb2f51ac4f99735b",
     "6442585580e8860d2f5357ee88eb5fbfc5214ed61bcc212bf27eaa0562db29c0"),
]


LHV_PINNED = [
    ("sign_model", "lane",
     "b0700a94c5b63909b10723210774149641caaa22d1a7a3703ee6c14a9558140d",
     "0fa58249344c4c4d53648e4b9ca0c4b5ca65aea9a480443a46932d12081d7e35"),
    ("constant_model", "lane",
     "021958f9197b1009fb9364b20f0b46462e3e19902c26aff84424dba193dab696",
     "6d64e1bc00e6cb8a1fdac1f9151635510353ea6ac5cf2ff099bd10ceab77d6b9"),
    ("quantum_mimic_attempt", "lane",
     "b0700a94c5b63909b10723210774149641caaa22d1a7a3703ee6c14a9558140d",
     "0fa58249344c4c4d53648e4b9ca0c4b5ca65aea9a480443a46932d12081d7e35"),
]

# the spin optimum turned by 22.5 degrees
MIMIC_ANGLES = "22.5,-67.5,157.5,-112.5"

MIMIC_PINNED = [
    ("lane",
     "8876bf53d48348700d4f93ff463ecf651d1ea4293418e78fc655a088a7e19313",
     "8157caf1f61e8721ff2a32883e88c39f0af1e64a62b4460901c3c76c9b0345d0"),
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
