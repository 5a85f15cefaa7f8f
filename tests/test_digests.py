"""Pinned SHA-256 digests of emitted trial files and counts tables.

A change to the random stream, the Born sampler, the tally or the trial
CSV writer changes these digests, even when every statistical test still
passes.  200000 trials are four blocks of ``harness.BLOCK_SIZE``, the last
one partial.  At the default (spin-optimal) angles every photon E is 0,
so both photon states draw from the same uniform joint distribution and
share their digests.
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
     "80fdd5e65dc29b7cbeacb4117230d962ed91a8885d61ef27a392d015add7ab8f",
     "057a0fa10915aca2b178d088855db96972bfda8a205f7727de89d4b302279115"),
    ("photon-correlated", "round-robin",
     "079a8c012e97011871afb904f79453fbfda10997ab26bec2eb5d5600ac84f091",
     "da7063b45e8d5896923e4446cccaae7dbfe8e117988b858f1f7b46bd0fe74173"),
    ("photon-anticorrelated", "uniform",
     "80fdd5e65dc29b7cbeacb4117230d962ed91a8885d61ef27a392d015add7ab8f",
     "057a0fa10915aca2b178d088855db96972bfda8a205f7727de89d4b302279115"),
    ("photon-anticorrelated", "round-robin",
     "079a8c012e97011871afb904f79453fbfda10997ab26bec2eb5d5600ac84f091",
     "da7063b45e8d5896923e4446cccaae7dbfe8e117988b858f1f7b46bd0fe74173"),
]


@pytest.mark.parametrize("state,schedule,csv_sha256,counts_sha256", PINNED)
def test_emitted_trials_and_counts_are_pinned(
    tmp_path, monkeypatch, state, schedule, csv_sha256, counts_sha256
):
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
            "chsh-sim", "--state", state, "--schedule", schedule,
            "--trials", "200000", "--seed", "7", "--emit-trials", str(path),
        ])
    assert code == 0
    assert len(tables) == 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256
    counts = tables[0].astype("<i8").tobytes()
    assert hashlib.sha256(counts).hexdigest() == counts_sha256
