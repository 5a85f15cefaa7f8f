"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured quantity.  Run with

    pytest -v -s tests/test_acceptance.py
"""

import itertools
import json
import math

import numpy as np

from bellsim import _kernels, harness
from bellsim.cli import main
from bellsim.inequalities import (
    CorrelationSign,
    LhvSource,
    QuantumClosedFormSource,
    SextetMixtureSource,
    bell_d1,
    chsh_variants,
    enumerate_quartets,
    quartet_mixture_s,
    wigner_check,
)
from bellsim.lhv import builtin_models
from bellsim.qstate import ParticleKind, StateKind, make_state

SQRT2 = math.sqrt(2.0)
TWO_SQRT2 = 2.0 * SQRT2

SINGLET_CF = QuantumClosedFormSource(StateKind.SPIN_ANTICORRELATED)


def report(number, title, detail):
    print(f"ACCEPTANCE {number} ({title}): PASS  [{detail}]")


def test_criterion_1_bell_counterexample():
    result = bell_d1(
        SINGLET_CF, 0.0, math.pi / 2, 3 * math.pi / 4, CorrelationSign.ANTICORRELATED
    )
    assert abs(result.lhs - SQRT2) <= 1e-12
    assert result.violated
    report(1, "three-correlation counterexample", f"lhs={result.lhs:.15f}")


def test_criterion_2_quartet_table_fidelity():
    expected_d = (1,) * 8 + (-1,) * 8
    expected_g = ((1,) * 4 + (-1,) * 4) * 2
    expected_dp = ((1, 1, -1, -1)) * 4
    expected_gp = (1, -1) * 8
    expected_s = (2, 2, 2, -2, -2, -2, 2, -2, -2, 2, -2, -2, -2, 2, 2, 2)
    quartets = enumerate_quartets()
    assert len(quartets) == 16
    assert tuple(q.d_delta for q in quartets) == expected_d
    assert tuple(q.g_gamma for q in quartets) == expected_g
    assert tuple(q.d_delta_prime for q in quartets) == expected_dp
    assert tuple(q.g_gamma_prime for q in quartets) == expected_gp
    assert tuple(q.s_value for q in quartets) == expected_s
    assert all(q.s_value in (2, -2) for q in quartets)
    report(2, "quartet table fidelity", "64 outcomes + 16 S values exact")


def test_criterion_3_quartet_mixture_bound():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for w in rng.dirichlet(np.ones(16), size=10_000):
        worst = max(worst, abs(quartet_mixture_s(w)))
    assert worst <= 2.0 + 1e-12
    report(3, "quartet mixture bound", f"max |<S>| = {worst:.15f}")


def test_criterion_4_quantum_chsh_maximum():
    angles, s_star = harness.maximize_chsh(StateKind.SPIN_ANTICORRELATED)
    assert abs(s_star - TWO_SQRT2) <= 1e-6

    schedule = harness.chsh_schedule(*angles)
    log = harness.run_trials(
        make_state(StateKind.SPIN_ANTICORRELATED), schedule, 1_000_000, seed=40
    )
    analysis = harness.analyze_chsh(harness.tabulate(log))
    assert abs(analysis.s_mean - TWO_SQRT2) <= 5.0 * analysis.s_std_error
    assert analysis.violated_5sigma
    report(
        4,
        "quantum CHSH maximum",
        f"s_star={s_star:.9f}, simulated S={analysis.s_mean:.5f}"
        f"+-{analysis.s_std_error:.5f}",
    )


def test_criterion_5_wigner_violation_curve():
    # each state in its own sign form, scanned from 0 to the outer angle at
    # which its curve matches the singlet's: 90 degrees for spin pairs, 45
    # for photon pairs, whose correlation law has half the period
    peaks = []
    for kind in StateKind:
        theta3 = math.pi / 2 if kind.particle is ParticleKind.SPIN_HALF else math.pi / 4
        points = harness.wigner_scan(0.0, theta3, 19, kind)
        interior = points[1:-1]
        assert all(p.margin > 0.0 for p in interior), kind
        best = max(points, key=lambda p: p.margin)
        assert abs(best.theta2 - theta3 / 2) <= theta3 / 18 + 1e-12, kind
        mid = points[9]
        assert abs(mid.theta2 - theta3 / 2) <= 1e-12, kind
        assert abs(mid.margin - 0.103553) <= 1e-6, kind
        peaks.append(f"{kind.value}@{math.degrees(mid.theta2):g}deg={mid.margin:.9f}")
    report(5, "wigner violation curve", ", ".join(peaks))


def test_criterion_6_sextet_soundness():
    rng = np.random.default_rng(2025)
    thetas = (0.0, math.pi / 4, math.pi / 2)
    worst = -1.0
    for sign in CorrelationSign:
        for w in rng.dirichlet(np.ones(8), size=10_000):
            source = SextetMixtureSource(w, sign, thetas)
            result = wigner_check(source, *thetas, sign)
            worst = max(worst, result.margin)
            assert result.margin <= 1e-12
    report(6, "sextet mixture soundness", f"max margin, both signs = {worst:.3e}")


def test_criterion_7_lhv_ceiling():
    # all eight CHSH inequalities |S_k| <= 2, from one read of the four
    # quadrature correlations per angle set
    rng = np.random.default_rng(2026)
    sweeps = rng.uniform(-math.pi, math.pi, size=(1000, 4))
    worst_s = 0.0
    for model in builtin_models():
        source = LhvSource(model, nodes=2048)
        for a, ap, b, bp in [harness.SINGLET_CHSH_ANGLES, *sweeps]:
            e = [source.correlation(d, g) for d in (a, ap) for g in (b, bp)]
            s_max = float(np.max(np.abs(chsh_variants(e))))
            d1 = bell_d1(source, a, b, bp, CorrelationSign.ANTICORRELATED)
            worst_s = max(worst_s, s_max)
            assert s_max <= 2.0 + 1e-6
            assert d1.lhs <= 1.0 + 1e-6
    report(7, "LHV ceiling", f"max quadrature |S_k| over sweep = {worst_s:.9f}")


def test_criterion_8_strict_anticorrelation():
    checked = []
    for kind in StateKind:
        state = make_state(kind)
        schedule = harness.SettingsSchedule(pairs=((0.61, 0.61),))
        log = harness.run_trials(state, schedule, 10_000, seed=81)
        same = int(np.sum(log.outcome_d == log.outcome_g))
        opposite = int(np.sum(log.outcome_d == -log.outcome_g))
        if kind.sign is CorrelationSign.ANTICORRELATED:
            assert same == 0
        else:
            assert opposite == 0
        checked.append(kind.value)
    report(8, "strict (anti)correlation", f"states checked: {', '.join(checked)}")


def test_criterion_9_round_trip_determinism(tmp_path, capsys):
    trials = tmp_path / "trials.csv"
    sim_report = tmp_path / "sim.json"
    analyzed_report = tmp_path / "analyzed.json"
    argv = [
        "chsh-sim",
        "--state",
        "spin-anticorrelated",
        "--angles",
        "0,-90,135,-135",
        "--trials",
        "250000",
        "--seed",
        "90",
        "--emit-trials",
        str(trials),
        "--out",
        str(sim_report),
    ]
    assert main(list(argv)) == 0
    assert main(["analyze", str(trials), "--out", str(analyzed_report)]) == 0
    capsys.readouterr()
    a = json.loads(sim_report.read_text())
    b = json.loads(analyzed_report.read_text())
    assert a["s_mean"] == b["s_mean"]

    first_bytes = trials.read_bytes()
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert trials.read_bytes() == first_bytes

    # block-substream design: blocks computed out of order reproduce the
    # same log, so the result cannot depend on worker scheduling
    state = make_state(StateKind.SPIN_ANTICORRELATED)
    rad = tuple(math.radians(x) for x in (0.0, -90.0, 135.0, -135.0))
    schedule = harness.chsh_schedule(*rad)
    n = 250_000
    log = harness.run_trials(state, schedule, n, seed=90)
    born = harness._born_tables(state, schedule.pairs)
    children = np.random.SeedSequence(90).spawn(math.ceil(n / harness.BLOCK_SIZE))
    blocks = list(enumerate(harness._block_slices(n)))
    out_of_order = np.empty(n, dtype=np.int8)
    for block, (start, stop) in reversed(blocks):
        code = harness._generate_block(
            state, schedule, born, children[block], stop - start
        )
        out_of_order[start:stop] = _kernels.trial_outcomes(code)[0]
    assert np.array_equal(out_of_order, log.outcome_d)
    report(9, "round-trip determinism", f"s_mean={a['s_mean']!r} reproduced bit-for-bit")
