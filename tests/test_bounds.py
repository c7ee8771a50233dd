import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from safesynth import bounds
from safesynth.bounds import (
    PosteriorInputs,
    PriorInputs,
    binom_tail,
    plan_sample_sizes,
    posterior_g,
    prior_sample_size,
    round_half_down,
    solve_kappa,
)
from safesynth.errors import BoundsDomainError, PlannerError
from .conftest import ROOM_STUDY


def exact_tail(n: int, m: int, t: Fraction) -> float:
    return float(sum(math.comb(n, i) * t**i * (1 - t) ** (n - i) for i in range(m + 1)))


def test_binom_tail_full_sum_is_one():
    for t in (0.0, 0.3, 1.0):
        assert binom_tail(10, 10, t) == 1.0


def test_binom_tail_single_trial():
    for t in (0.2, 0.5, 0.9):
        assert binom_tail(1, 0, t) == pytest.approx(1 - t, rel=1e-14)


def test_binom_tail_direct_small_case():
    assert binom_tail(5, 2, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_binom_tail_matches_exact_rationals_small():
    for n in (7, 23, 40):
        for m in range(0, n + 1, 3):
            for t in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                assert binom_tail(n, m, float(t)) == pytest.approx(
                    exact_tail(n, m, t), rel=1e-12
                )


def test_binom_tail_monotone_in_m_and_t():
    n = 30
    values = [binom_tail(n, m, 0.4) for m in range(n + 1)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    ts = np.linspace(0.01, 0.99, 50)
    tails = [binom_tail(n, 10, t) for t in ts]
    assert all(b < a for a, b in zip(tails, tails[1:]))


def test_binom_tail_domain_checks():
    with pytest.raises(BoundsDomainError):
        binom_tail(5, 6, 0.5)
    with pytest.raises(BoundsDomainError):
        binom_tail(5, 2, 1.5)


def test_prior_sample_size_closed_form_dim0():
    # dim=0: minimal N with (1-eps)^N <= beta
    n = prior_sample_size(PriorInputs(0.1, 0.5, 0))
    assert n == 7
    assert n == math.ceil(math.log(0.5) / math.log(0.9))


def test_prior_sample_size_minimality_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        eps = float(rng.uniform(0.01, 0.2))
        beta = float(rng.uniform(0.01, 0.5))
        dim = int(rng.integers(0, 6))
        n = prior_sample_size(PriorInputs(eps, beta, dim))
        assert binom_tail(n, dim, eps) <= beta
        if n - 1 > dim:
            assert binom_tail(n - 1, dim, eps) > beta


def test_prior_sample_size_case_study_inputs():
    # Exact evaluation of the stated bound at the case-study inputs; the
    # value printed in the study (2733296) has tail 0.0542 > beta and is
    # therefore NOT the minimum of its own defining inequality.
    n = prior_sample_size(
        PriorInputs(ROOM_STUDY["prior_eps"], ROOM_STUDY["beta"], 13)
    )
    assert n == 2758749
    assert binom_tail(n, 13, ROOM_STUDY["prior_eps"]) <= 0.05
    assert binom_tail(n - 1, 13, ROOM_STUDY["prior_eps"]) > 0.05
    assert binom_tail(2733296, 13, ROOM_STUDY["prior_eps"]) > 0.05


def test_posterior_g_small_case_oracle():
    # direct float arithmetic of the root function at N=3, N0=2
    inputs = PosteriorInputs(3, 2, 1, 0, 0.1)
    kappa = 0.9
    lhs = 0.1 / 4 * sum(math.comb(i, 1) * kappa ** (i - 3) for i in range(1, 4))
    rhs = math.comb(3, 1) * sum(
        math.comb(2, i) * (1 - kappa) ** i * kappa ** (2 - i) for i in range(0 + 1)
    )
    value = posterior_g(kappa, inputs)
    assert math.exp(value.log_lhs) == pytest.approx(lhs, rel=1e-12)
    assert math.exp(value.log_rhs) == pytest.approx(rhs, rel=1e-12)
    assert value.sign == (1 if lhs > rhs else -1)


def test_posterior_g_limit_signs():
    # support=0, all validation samples violated: near kappa -> 1 the left
    # side tends to beta < 1 while the right side is exactly 1.
    inputs = PosteriorInputs(50, 20, 0, 20, 0.2)
    assert posterior_g(1 - 1e-12, inputs).sign == -1
    assert posterior_g(1e-12, inputs).sign == 1


def test_posterior_g_decreasing_in_kappa():
    inputs = PosteriorInputs(200, 100, 2, 1, 0.05)
    grid = np.linspace(1e-6, 1 - 1e-6, 200)
    diffs = [posterior_g(k, inputs).log_lhs - posterior_g(k, inputs).log_rhs for k in grid]
    assert all(b <= a + 1e-9 for a, b in zip(diffs, diffs[1:]))


def test_posterior_g_domain():
    inputs = PosteriorInputs(10, 5, 1, 0, 0.1)
    with pytest.raises(BoundsDomainError):
        posterior_g(0.0, inputs)
    with pytest.raises(BoundsDomainError):
        posterior_g(1.0, inputs)


def test_posterior_inputs_validation():
    with pytest.raises(BoundsDomainError):
        PosteriorInputs(10, 5, 11, 0, 0.1)
    with pytest.raises(BoundsDomainError):
        PosteriorInputs(10, 5, 1, 6, 0.1)
    with pytest.raises(BoundsDomainError):
        PosteriorInputs(10, 5, 1, 0, 1.0)


def test_solve_kappa_case_study():
    kappa = solve_kappa(PosteriorInputs(140000, 70000, 1, 0, 0.05))
    assert kappa == pytest.approx(ROOM_STUDY["kappa"], abs=1e-6)


def uncached_kappa_series(n, support, log_kappa):
    """The kappa series with every term recomputed (the coefficient column in
    one piece), summed in the same chunks and order."""
    pieces = []
    column = bounds._log_binom_column(support, support, n)
    for start in range(support, n + 1, bounds._CHUNK):
        i = np.arange(start, min(start + bounds._CHUNK, n + 1))
        pieces.append(bounds.logsumexp(column[i - support] + (i - n) * log_kappa))
    return pieces[0] if len(pieces) == 1 else bounds.logsumexp(np.asarray(pieces))


@pytest.mark.parametrize("n, support", [(50, 0), (140_000, 2), (1_500_000, 3)])
def test_memoised_kappa_series_is_bit_identical(n, support):
    kappas = list(np.random.default_rng(n).uniform(0.9, 1.0, 20)) + [1e-12, 1.0 - 1e-12]
    for kappa in kappas:
        log_kappa = math.log(kappa)
        assert bounds._log_kappa_series(n, support, log_kappa) == uncached_kappa_series(
            n, support, log_kappa
        )
    terms = bounds._kappa_series_terms(n, support)
    assert len(terms) == -(-(n + 1 - support) // bounds._CHUNK)
    assert not any(a.flags.writeable for chunk in terms for a in chunk)


def exact_log_comb(n: int, k: int) -> float:
    return math.log(math.comb(n, k))


def assert_log_close(got: float, exact: float) -> None:
    # relative 1e-12; log C = 0 (C = 1) must come out within 1e-12 of zero
    assert abs(got - exact) <= 1e-12 * max(abs(exact), 1.0), (got, exact)


@pytest.mark.parametrize("n", [10, 1000, 70_000, 140_000, 2_758_749])
def test_log_binom_row_matches_exact_integers(n):
    m = min(n, 40)
    row = bounds._log_binom_row(n, m)
    assert row.shape == (m + 1,) and row[0] == 0.0
    for k in range(m + 1):
        assert_log_close(row[k], exact_log_comb(n, k))


@pytest.mark.parametrize("n, s", [(140_000, 2), (140_000, 5), (1_500_000, 3)])
def test_log_binom_column_matches_exact_integers(n, s):
    column = bounds._log_binom_column(s, s, n)
    assert column.shape == (n - s + 1,) and column[0] == 0.0
    sampled = np.r_[s, s + 1, s + 2, np.random.default_rng(n + s).integers(s, n + 1, 40), n]
    for i in sampled:
        assert_log_close(column[i - s], exact_log_comb(int(i), s))


def test_log_binom_column_in_pieces_has_the_bits_of_the_whole():
    whole = bounds._log_binom_column(3, 3, 1000)
    first = bounds._log_binom_column(3, 3, 400)
    rest = bounds._log_binom_column(3, 400, 1000, first[-1])
    assert np.array_equal(np.r_[first[:-1], rest], whole)


# kappa at sweep points, as float.hex, computed before the binomial
# coefficients became running sums of logs: the root keeps every bit
PINNED_KAPPAS = [
    ((3, 2, 1, 0, 0.1), "0x1.75bfeac181302p-2"),
    ((200, 100, 2, 1, 0.05), "0x1.f073d0d13def4p-1"),
    ((2000, 1000, 1, 3, 0.05), "0x1.fe6af3493dd08p-1"),
    ((2000, 1000, 4, 0, 0.01), "0x1.fdf96d5ebdd18p-1"),
    ((20000, 10000, 1, 0, 0.05), "0x1.ffe69cf7bdcd6p-1"),
    ((140000, 70000, 1, 0, 0.05), "0x1.fffc5f7f3dcd2p-1"),
    ((140000, 70000, 5, 10, 0.001), "0x1.ffedcbfe3dcd4p-1"),
    ((1500000, 700000, 3, 2, 0.05), "0x1.ffff45133dcd2p-1"),
]


@pytest.mark.parametrize("args, kappa_hex", PINNED_KAPPAS)
def test_solve_kappa_keeps_pinned_bits(args, kappa_hex):
    assert solve_kappa(PosteriorInputs(*args)).hex() == kappa_hex


_NO_SCIPY = """
import sys
import safesynth
import safesynth.cli
from safesynth.cli import main
assert main(["bounds", "prior", "--eps", "0.01", "--beta", "0.05", "--dim", "13"]) == 0
assert main(["bounds", "kappa", "--N", "2000", "--N0", "1000", "--Nstar", "2", "--R", "1",
             "--beta", "0.05"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_package_never_imports_scipy():
    # a fresh interpreter: the test suite itself imports scipy for its oracles
    src = os.path.dirname(os.path.dirname(os.path.abspath(bounds.__file__)))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.splitlines()[-1] == "[]"


def test_solve_kappa_memoised_series_keeps_pinned_root():
    assert solve_kappa(PosteriorInputs(140000, 70000, 2, 1, 0.05)) == 0.9999561562716741


def dense_scan_root(inputs, stages=3, points=4001):
    """Sign-flip location by repeated grid refinement; resolution ~1e-9."""
    lo, hi = 1e-6, 1 - 1e-6
    for _ in range(stages):
        grid = np.linspace(lo, hi, points)
        signs = np.array([posterior_g(k, inputs).sign for k in grid])
        flip = np.flatnonzero(signs[:-1] != signs[1:])
        assert flip.size == 1  # unique root
        lo, hi = grid[flip[0]], grid[flip[0] + 1]
    return 0.5 * (lo + hi)


def test_solve_kappa_matches_dense_scan_small():
    inputs = PosteriorInputs(3, 2, 1, 0, 0.1)
    assert solve_kappa(inputs) == pytest.approx(dense_scan_root(inputs), abs=1e-8)


def test_solve_kappa_monotone_in_violations():
    kappas = [
        solve_kappa(PosteriorInputs(2000, 1000, 1, r, 0.05)) for r in range(6)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(kappas, kappas[1:]))


def test_solve_kappa_monotone_in_support():
    kappas = [
        solve_kappa(PosteriorInputs(2000, 1000, s, 0, 0.05)) for s in range(0, 5)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(kappas, kappas[1:]))


def test_solve_kappa_monotone_in_samples():
    kappas = [
        solve_kappa(PosteriorInputs(n, n // 2, 1, 0, 0.05))
        for n in (1000, 2000, 4000, 8000)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(kappas, kappas[1:]))


def test_solve_kappa_collapses_at_full_violation(room_space):
    # every validation sample violated: the root drops far below the
    # near-one regime and the induced slack dwarfs any achievable optimum
    from safesynth.geometry import u_inverse

    kappa_clean = solve_kappa(PosteriorInputs(2000, 1000, 1, 0, 0.05))
    kappa_full = solve_kappa(PosteriorInputs(2000, 1000, 1, 1000, 0.05))
    assert kappa_full < kappa_clean
    slack = ROOM_STUDY["lipschitz"] * u_inverse(1 - kappa_full, room_space)
    assert slack > 1.0


def test_round_half_down():
    assert round_half_down(0.5) == 0
    assert round_half_down(1.5) == 1
    assert round_half_down(0.51) == 1
    assert round_half_down(2.4) == 2
    assert round_half_down(2.6) == 3


def test_planner_case_study_pair_passes(room_space):
    plan = plan_sample_sizes(
        khat=-0.149, nstar_hat=1, lipschitz=11.63, space=room_space,
        beta=0.05, n_start=140000, n0_start=70000,
    )
    assert (plan.n_scenario, plan.n_validation) == (140000, 70000)
    assert plan.steps[-1].sign >= 0


def test_planner_growth_reaches_passing_pair(room_space):
    from safesynth.geometry import u_of_r

    plan = plan_sample_sizes(
        khat=-0.149, nstar_hat=1, lipschitz=11.63, space=room_space,
        beta=0.05, n_start=1000, n0_start=500,
    )
    assert plan.n_scenario > 1000
    assert all(s.sign < 0 for s in plan.steps[:-1])
    # doubling a passing pair keeps it passing
    kappa_target = 1 - u_of_r(0.149 / 11.63, room_space)
    n, n0 = plan.n_scenario * 2, plan.n_validation * 2
    est = round_half_down(n0 * 1 / n)
    assert posterior_g(kappa_target, PosteriorInputs(n, n0, 1, est, 0.05)).sign >= 0


def test_planner_huge_margin_immediate(room_space):
    plan = plan_sample_sizes(
        khat=-1e6, nstar_hat=1, lipschitz=11.63, space=room_space,
        beta=0.05, n_start=50, n0_start=25,
    )
    assert (plan.n_scenario, plan.n_validation) == (50, 25)


def test_planner_rejects_nonnegative_estimate(room_space):
    with pytest.raises(PlannerError, match="not strictly negative"):
        plan_sample_sizes(
            khat=0.0, nstar_hat=1, lipschitz=11.63, space=room_space,
            beta=0.05, n_start=100, n0_start=50,
        )
