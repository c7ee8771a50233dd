"""Acceptance suite: one test per release gate, one printed line per gate.

Each test prints `[PASS]`/`[FAIL]` with the measured values before asserting,
and appends the same line to acceptance_results.txt next to this file, so the
full record survives pytest's output capture.

Gates 1, 4 and 5 check the room-temperature study against oracles that share
no code with the program.  Three values the study prints contradict its own
definitions; each is kept in its gate's record line as a documented
discrepancy, never as an expectation:

* gate 1 asserts the prior sample bound equals the minimal N found with
  `scipy.stats.binom.cdf` (2758749 at dim=13).  The study prints 2733296,
  whose tail is 0.0542 > beta = 0.05;
* gate 4 asserts every desk-scale margin respects the slack floor
  L * Uinv(1 - kappa(20000, 10000, 1, 0)), about 0.3653, solved by direct
  summation and Brent's method, and that the verdict is "certified" exactly
  when the margin is <= 0.  The study expects half the seeds to certify at
  N=20000, which no optimum near its own -0.149 can do; margins measure
  +0.050 to +0.134 and no seed certifies;
* gate 5 asserts the full-scale optimum equals HiGHS within 1e-7 and is no
  worse than the study's printed -0.149 (HiGHS finds about -0.3548), and runs
  the ground-truth safety checks on every certified run.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq, linprog
from scipy.stats import binom

from safesynth.bounds import PosteriorInputs, binom_tail, posterior_g, solve_kappa
from safesynth.cli import main
from safesynth.geometry import u_inverse
from safesynth.lp import LpStatus, solve_dense_lp
from safesynth.pipeline import (
    repeat_experiment,
    room_casestudy_config,
    synthesize,
    validate_config,
)
from safesynth.plant import RoomTemperaturePlant
from safesynth.scp import CertificateValues, count_active_g3
from safesynth.verify import check_cbf_conditions, empirical_safety

from .conftest import ROOM_STUDY, dense_g3_rows, exact_support_count, scenario_problem
from .test_bounds import dense_scan_root
from .test_lp import random_bounded_lp, vertex_enumeration_optimum

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "acceptance_results.txt")


def record(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    with open(RESULTS_PATH, "a") as fh:
        fh.write(line + "\n")


@pytest.fixture(scope="module", autouse=True)
def _fresh_results_file():
    # one results file per suite invocation
    if os.path.exists(RESULTS_PATH):
        os.unlink(RESULTS_PATH)
    yield


def desk_config(seed_pair):
    raw = room_casestudy_config(
        n_scenario=20_000, n_validation=10_000,
        seed_scenario=seed_pair[0], seed_validation=seed_pair[1],
    )
    return validate_config(raw)


def scipy_minimal_prior_n(eps: float, beta: float, dim: int) -> int:
    """Least N with P[Binomial(N, eps) <= dim] <= beta, by scipy's binomial cdf."""
    lo, hi = dim, dim + 1
    while binom.cdf(dim, hi, eps) > beta:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom.cdf(dim, mid, eps) <= beta:
            hi = mid
        else:
            lo = mid
    return hi


def test_gate_1_prior_sample_bound(capsys):
    eps, beta, dim = ROOM_STUDY["prior_eps"], ROOM_STUDY["beta"], 13
    t0 = time.perf_counter()
    rc = main(["bounds", "prior", "--eps", "7.492e-6", "--beta", "0.05", "--dim", "13"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.strip()
    value = int(out)
    oracle = scipy_minimal_prior_n(eps, beta, dim)
    printed = ROOM_STUDY["prior_n"]
    ok = rc == 0 and elapsed < 1.0 and value == oracle
    record(
        "prior sample bound equals the minimal N by scipy.stats.binom.cdf",
        ok,
        f"got {value}, oracle {oracle} (cdf {binom.cdf(dim, oracle, eps):.9f} <= "
        f"{beta} < {binom.cdf(dim, oracle - 1, eps):.9f} at N-1), {elapsed:.3f}s; "
        f"study prints {printed} (cdf {binom.cdf(dim, printed, eps):.4f} > {beta}, "
        "documented discrepancy)",
    )
    assert rc == 0 and elapsed < 1.0
    assert value == oracle


def test_gate_2_posterior_root(capsys):
    t0 = time.perf_counter()
    rc = main([
        "bounds", "kappa", "--N", "140000", "--N0", "70000",
        "--Nstar", "1", "--R", "0", "--beta", "0.05",
    ])
    elapsed = time.perf_counter() - t0
    value = float(capsys.readouterr().out.strip())
    ok = rc == 0 and elapsed < 1.0 and abs(value - ROOM_STUDY["kappa"]) <= 1e-6
    record(
        "posterior confidence root matches study value within 1e-6",
        ok,
        f"got {value:.7f}, expected {ROOM_STUDY['kappa']}, {elapsed:.3f}s",
    )
    assert ok


def test_gate_3_geometry_cross_checks(room_space):
    t0 = time.perf_counter()
    slack_prior = ROOM_STUDY["lipschitz"] * u_inverse(7.492e-6, room_space)
    slack_post = ROOM_STUDY["lipschitz"] * u_inverse(1 - 0.9999723, room_space)
    margin = ROOM_STUDY["objective"] + slack_post
    elapsed = time.perf_counter() - t0
    ok = (
        abs(slack_prior - 0.0718) <= 1e-3
        and abs(margin - (-0.011)) <= 2e-3
        and elapsed < 1.0
    )
    record(
        "ball-mass slack and margin arithmetic match the study",
        ok,
        f"L*Uinv(eps)={slack_prior:.4f} (want 0.0718+-1e-3), "
        f"margin={margin:.4f} (want -0.011+-2e-3), {elapsed:.3f}s",
    )
    assert ok


def ground_truth_failures(k, config, report):
    """Where a certified run fails empirical safety or the CBF conditions."""
    plant = RoomTemperaturePlant()
    cert = report.certificate
    safety = empirical_safety(
        plant, cert, config.initial_region, config.unsafe_region,
        config.input_box, config.horizon, grid_points=401,
    )
    conditions = check_cbf_conditions(
        cert, plant, config.initial_region, config.unsafe_region,
        config.state_box, config.input_box, config.horizon,
        region_points=2003, step_points=201,
    )
    failures = []
    if safety.fraction_safe != 1.0:
        failures.append((k, "fraction", safety.fraction_safe))
    for name, worst in (
        ("initial", conditions.worst_initial),
        ("unsafe", conditions.worst_unsafe),
        ("step", conditions.worst_step),
        ("budget", conditions.worst_budget),
    ):
        if worst > 0.0:
            failures.append((k, name, worst))
    return failures


def posterior_slack_floor(n, n0, beta, lipschitz, space):
    """L * Uinv(1 - kappa) at N* = 1, R = 0, the least slack any run can get.

    The root equation there reads beta/(N+1) * sum_{i=1}^{N} i kappa^(i-N)
    = N kappa^N0.  Near the root (N - i) ln(1/kappa) stays below about 4 at
    desk size, so plain float summation is exact enough; Brent's method
    solves it.  kappa falls as N* or R grows, so the slack only rises.
    """
    i = np.arange(1, n + 1, dtype=float)

    def excess(kappa):
        return beta / (n + 1) * np.sum(i * kappa ** (i - n)) - n * kappa**n0

    kappa = brentq(excess, 0.999, 1.0 - 1e-9, xtol=1e-15)
    return lipschitz * u_inverse(1.0 - kappa, space)


# solve_kappa stops at a 1e-10 kappa interval; at N* = 1, R = 0 and desk
# size that moves the slack by up to about 5e-8.
SLACK_FLOOR_TOL = 1e-7


def test_gate_4_desk_scale_end_to_end(room_space):
    floor = posterior_slack_floor(
        20_000, 10_000, ROOM_STUDY["beta"], ROOM_STUDY["lipschitz"], room_space
    )
    reports = []
    safety_failures = []
    times = []
    for k in range(10):
        config = desk_config((9100 + k, 77100 + k))
        t0 = time.perf_counter()
        report = synthesize(config)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        assert elapsed < 120.0, f"desk run {k} took {elapsed:.1f}s"
        reports.append(report)
        if report.certified:
            safety_failures += ground_truth_failures(k, config, report)
    certified = sum(r.certified for r in reports)
    margins = [r.margin for r in reports]
    supports = [r.support_bound for r in reports]
    ok_floor = floor > -ROOM_STUDY["objective"]
    ok_support = all(s is not None and s >= 1 for s in supports)
    ok_slack = all(
        r.margin is not None
        and r.margin >= r.margin_objective + floor - SLACK_FLOOR_TOL
        for r in reports
    )
    ok_verdict = all(
        r.margin is not None and r.certified == (r.margin <= 0.0) for r in reports
    )
    ok_safety = not safety_failures
    record(
        "desk-scale margins respect the slack floor; verdicts follow the margin",
        ok_floor and ok_support and ok_slack and ok_verdict and ok_safety,
        f"slack floor {floor:.4f} (> {-ROOM_STUDY['objective']}), "
        f"N*={supports} (>=1), margins "
        f"{min(margins):+.3f}..{max(margins):+.3f}, {certified}/10 certified "
        f"(study expects >=5, documented discrepancy), max run {max(times):.1f}s, "
        f"safety check failures: {safety_failures or 'none'}",
    )
    # build-breaking: a certified run must never fail the ground-truth checks
    assert ok_safety, safety_failures
    assert ok_floor, floor
    assert ok_support, supports
    assert ok_slack, [(r.margin, r.margin_objective) for r in reports]
    assert ok_verdict, [(r.verdict, r.margin) for r in reports]


def highs_optimum(config) -> float:
    """The config's scenario LP, rebuilt from its seed and solved by HiGHS."""
    _, problem = scenario_problem(config)
    ref = linprog(
        problem.cost, A_ub=problem.G, b_ub=problem.h, bounds=(None, None),
        method="highs",
    )
    assert ref.status == 0, ref.message
    return float(ref.fun)


def test_gate_5_full_scale_posterior():
    objectives = []
    references = []
    active_counts = []
    verdicts = []
    safety_failures = []
    for k in range(3):
        raw = room_casestudy_config(
            seed_scenario=55_000 + k, seed_validation=88_000 + k
        )
        config = validate_config(raw)
        t0 = time.perf_counter()
        report = synthesize(config)
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0, f"full-scale run {k} took {elapsed:.0f}s"
        objectives.append(report.margin_objective)
        references.append(highs_optimum(config))
        active_counts.append(report.support_bound)
        verdicts.append(report.verdict)
        if report.certified:
            safety_failures += ground_truth_failures(k, config, report)
    certified = sum(1 for v in verdicts if v == "certified")
    study = ROOM_STUDY["objective"]
    ok_active = all(a <= 2 for a in active_counts)
    ok_cert = certified >= 2
    gap = max(abs(o - h) for o, h in zip(objectives, references))
    ok_highs = gap <= 1e-7
    ok_study = all(o <= study + 0.01 for o in objectives)
    ok_safety = not safety_failures
    record(
        "full-scale optimum matches HiGHS; activity, certification, ground truth",
        ok_active and ok_cert and ok_highs and ok_study and ok_safety,
        f"K*={['%.8f' % o for o in objectives]}, "
        f"HiGHS={['%.8f' % h for h in references]}, max gap {gap:.1e} (<=1e-7), "
        f"K* <= {study}+0.01 (study prints {study}, documented discrepancy), "
        f"active={active_counts} (<=2), certified {certified}/3 (>=2), "
        f"safety check failures: {safety_failures or 'none'}",
    )
    assert ok_safety, safety_failures
    assert ok_active, active_counts
    assert ok_cert, verdicts
    assert ok_highs, list(zip(objectives, references))
    assert ok_study, objectives


def test_gate_6_violation_frequency_mode():
    raw = room_casestudy_config(
        n_scenario=20_000, n_validation=10_000,
        seed_scenario=31_000, seed_validation=64_000,
    )
    config = validate_config(raw)
    result = repeat_experiment(config, runs=50)
    histogram = result.histogram
    mode = result.modal_violations
    ok = mode in (0, 1)
    record(
        "violation-frequency histogram mode over 50 desk-scale runs",
        ok,
        f"histogram {dict(sorted(histogram.items()))}, mode {mode} (gate: mode in {{0,1}})",
    )
    assert ok


def test_gate_7_oracle_equivalence_suites():
    t0 = time.perf_counter()
    details = []

    # LP solver vs vertex enumeration: 200 random 3-var/30-row programs
    rng = np.random.default_rng(424242)
    worst_gap = 0.0
    for _ in range(200):
        cost, G, h = random_bounded_lp(rng, nv=3, extra_rows=30)
        res = solve_dense_lp(cost, G, h)
        assert res.status is LpStatus.OPTIMAL
        oracle = vertex_enumeration_optimum(cost, G, h)
        worst_gap = max(worst_gap, abs(res.objective - oracle))
    details.append(f"lp-vs-vertex worst gap {worst_gap:.2e}")
    assert worst_gap <= 1e-8

    # binomial tail vs exact rational summation, every N <= 60 and m
    worst_rel = 0.0
    ts = [Fraction(i, 10) for i in range(1, 10)]
    for n in range(1, 61):
        for t in ts:
            terms = [math.comb(n, i) * t**i * (1 - t) ** (n - i) for i in range(n + 1)]
            running = Fraction(0)
            for m in range(0, n + 1):
                running += terms[m]
                exact = float(running)
                got = binom_tail(n, m, float(t))
                worst_rel = max(worst_rel, abs(got - exact) / exact)
    details.append(f"tail-vs-rational worst rel {worst_rel:.2e}")
    assert worst_rel <= 1e-12

    # active-row count upper-bounds the exact support count on 100 small SCPs
    from safesynth.geometry import Box, RegionUnion, SampleSpace
    from safesynth.plant import collect
    from safesynth.polynomial import build_basis
    from safesynth.scp import (
        DecisionLayout, GridSpec, box_to_polytope, build_problem, solve_lp,
    )

    layout = DecisionLayout.build(build_basis(1, 4), [build_basis(1, 4)], 0.1, [0.05])
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    initial = RegionUnion.from_intervals([[[24, 25]]])
    unsafe = RegionUnion.from_intervals([[[22.5, 23]], [[26, 26.5]]])
    state = Box.from_intervals([[22.5, 26.5]])
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    violations = 0
    for k in range(100):
        data = collect(RoomTemperaturePlant(), space, 15, 10_000 + k)
        problem = build_problem(
            layout, data, initial, unsafe, state, A, b, 5,
            GridSpec(21, 11, 41), 1e-6, False,
        )
        solution = solve_lp(problem)
        assert solution.status is LpStatus.OPTIMAL
        active = count_active_g3(problem, solution)
        support = exact_support_count(problem, solution)
        if active < support:
            violations += 1
    details.append(f"active>=support violations {violations}/100")
    assert violations == 0

    # posterior root function vs direct small-case summation
    worst_post = 0.0
    for n, n0, ns, r, beta in ((3, 2, 1, 0, 0.1), (6, 4, 2, 1, 0.05), (9, 3, 0, 2, 0.2)):
        for kappa in (0.3, 0.6, 0.9, 0.99):
            lhs = beta / (n + 1) * sum(
                math.comb(i, ns) * kappa ** (i - n) for i in range(ns, n + 1)
            )
            rhs = math.comb(n, ns) * sum(
                math.comb(n0, i) * (1 - kappa) ** i * kappa ** (n0 - i)
                for i in range(r + 1)
            )
            value = posterior_g(kappa, PosteriorInputs(n, n0, ns, r, beta))
            worst_post = max(
                worst_post,
                abs(math.exp(value.log_lhs) - lhs) / lhs,
                abs(math.exp(value.log_rhs) - rhs) / rhs,
            )
    details.append(f"posterior-vs-direct worst rel {worst_post:.2e}")
    assert worst_post <= 1e-12

    # bisected root vs dense scan on small inputs
    worst_root = 0.0
    for inputs in (
        PosteriorInputs(3, 2, 1, 0, 0.1),
        PosteriorInputs(8, 4, 2, 1, 0.05),
        PosteriorInputs(20, 10, 3, 2, 0.1),
    ):
        worst_root = max(
            worst_root, abs(solve_kappa(inputs) - dense_scan_root(inputs))
        )
    details.append(f"root-vs-scan worst gap {worst_root:.2e}")
    assert worst_root <= 1e-8

    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    record(
        "oracle equivalence suites",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s (budget 30s)",
    )
    assert ok, f"oracle suites took {elapsed:.1f}s"


def test_gate_8_transcription_property(room_space):
    from safesynth.plant import collect
    from safesynth.polynomial import build_basis, eval_poly_many
    from safesynth.scp import DecisionLayout

    rng = np.random.default_rng(515151)
    layout = DecisionLayout.build(build_basis(1, 4), [build_basis(1, 4)], 0.1, [0.05])
    data = collect(RoomTemperaturePlant(), room_space, 20, 999)
    block, rhs = dense_g3_rows(layout, data)
    # coefficient draws stay inside the template's norm caps, as in any run
    q_cap = 0.1 * np.asarray(layout.barrier_scheme.scale)
    p_cap = 0.05 * np.asarray(layout.controller_schemes[0].scale)
    worst = 0.0
    for _ in range(50):  # 50 random d over 20 samples = 1000 pairs
        d = np.zeros(layout.n_total)
        d[layout.OBJECTIVE] = rng.normal()
        d[layout.FLOOR] = rng.normal(scale=50.0)
        d[layout.CAP] = rng.normal(scale=50.0)
        d[layout.BUDGET] = abs(rng.normal())
        d[layout.q_slice] = rng.uniform(-q_cap, q_cap)
        d[layout.p_slice(0)] = rng.uniform(-p_cap, p_cap)
        cert = CertificateValues.from_vector(layout, d)
        direct = (
            eval_poly_many(cert.barrier, data.x_nexts)
            - eval_poly_many(cert.barrier, data.xs)
            + np.sum(
                data.us
                - np.column_stack(
                    [eval_poly_many(c, data.xs) for c in cert.controllers]
                ),
                axis=1,
            )
            - cert.growth_budget
            - cert.objective
        )
        worst = max(worst, float(np.max(np.abs(block @ d - rhs - direct))))
    ok = worst <= 1e-10
    record(
        "sampled-row transcription equals direct evaluation",
        ok,
        f"worst abs gap {worst:.2e} over 1000 (d, sample) pairs (gate 1e-10)",
    )
    assert ok
