"""Probabilistic machinery: binomial tails, sample bounds, posterior root.

Everything is computed in log space so the binomial coefficients at
N ~ 1e6..1e7 never overflow.  Every coefficient needed lies along one row
(C(n, k), k = 0..m) or one column (C(i, s), i = s..n) of Pascal's triangle,
so each is a running sum of logs of the ratio between neighbours, which
needs NumPy only.  The two central objects:

* the prior sample bound: the minimal N whose binomial lower tail at the
  requested violation level drops below the confidence budget beta, with the
  tail truncated at the template dimension;

* the posterior root equation, combining the scenario count N, the validation
  count N0, the support-constraint bound N* and the observed violation
  frequency R into the unique kappa in (0, 1) solving

      beta/(N+1) * sum_{i=N*}^{N} C(i, N*) kappa^(i-N)
          = C(N, N*) * B_{N0}(1 - kappa; R),

  where B_N(t; m) = sum_{i<=m} C(N,i) t^i (1-t)^(N-i).  Both sides can exceed
  double range on their own, so the evaluation returns the sign plus the two
  log magnitudes and the bisection consumes only the sign.

All functions here are pure and safe for concurrent use.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundsDomainError, KappaBracketError, PlannerError
from .geometry import SampleSpace, check_entries, u_of_r

_CHUNK = 1_000_000
KAPPA_INTERVAL_TOL = 1e-10  # solve_kappa bisects until the bracket is this narrow
KAPPA_MAX_ITER = 200        # ... or for this many halvings
PLAN_MAX_ROUNDS = 60        # plan_sample_sizes' growth rounds before it gives up


@dataclass(frozen=True)
class PriorInputs:
    """Inputs of the prior (no-validation) sample bound."""

    eps: float
    beta: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise BoundsDomainError(f"eps must lie in (0, 1), got {self.eps}")
        if not 0.0 < self.beta < 1.0:
            raise BoundsDomainError(f"beta must lie in (0, 1), got {self.beta}")
        if self.dim < 0:
            raise BoundsDomainError(f"dim must be non-negative, got {self.dim}")
        check_entries("dim", self.dim + 1, BoundsDomainError)  # the tail's terms


@dataclass(frozen=True)
class PosteriorInputs:
    """Inputs of the posterior (validation-test) confidence root."""

    n_scenario: int
    n_validation: int
    support_bound: int
    violations: int
    beta: float

    def __post_init__(self):
        if self.n_scenario < 1 or self.n_validation < 1:
            raise BoundsDomainError("both sample counts must be >= 1")
        # the kappa series and the validation tail have up to count + 1 terms
        check_entries("scenario count", self.n_scenario + 1, BoundsDomainError)
        check_entries("validation count", self.n_validation + 1, BoundsDomainError)
        if not 0 <= self.support_bound <= self.n_scenario:
            raise BoundsDomainError(
                f"support bound {self.support_bound} outside [0, {self.n_scenario}]"
            )
        if not 0 <= self.violations <= self.n_validation:
            raise BoundsDomainError(
                f"violation count {self.violations} outside [0, {self.n_validation}]"
            )
        if not 0.0 < self.beta < 1.0:
            raise BoundsDomainError(f"beta must lie in (0, 1), got {self.beta}")


def _log_binom_row(n: int, m: int) -> np.ndarray:
    """log C(n, k) for k = 0..m: the running sum of log(n - k + 1) - log(k)."""
    k = np.arange(1, m + 1, dtype=float)
    return np.cumsum(np.concatenate(([0.0], np.log(n - k + 1.0) - np.log(k))))


def _log_binom_column(s: int, lo: int, hi: int, log_at_lo: float = 0.0) -> np.ndarray:
    """log C(i, s) for i = lo..hi (lo >= s), given log C(lo, s) = `log_at_lo`.

    The running sum of log(i / (i - s)) = log1p(s / (i - s)), added in index
    order, so a column computed in pieces, each started from the last value
    of the one before, has the same bits as the whole column.
    """
    steps = np.log1p(s / np.arange(lo + 1 - s, hi + 1 - s, dtype=float))
    return np.cumsum(np.concatenate(([log_at_lo], steps)))


def logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty 1-D float array.

    Same arithmetic as scipy.special.logsumexp (the maximal terms are split
    off and the rest summed through log1p), so results agree bit for bit,
    without its per-call array-API dispatch, which dominates on short arrays.
    """
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    with np.errstate(invalid="ignore"):
        s = np.where(top, 0.0, np.exp(a - a_max)).sum()
    out = np.log1p(s / m) + np.log(m) + a_max
    if math.isfinite(out):
        return float(out)
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.log(np.exp(a).sum()))


def _log_binom_tail(n: int, m: int, t: float) -> float:
    """log of sum_{i=0}^{m} C(n,i) t^i (1-t)^(n-i), with exact 0/1 edges."""
    if not 0 <= m <= n:
        raise BoundsDomainError(f"m={m} outside [0, {n}]")
    if not 0.0 <= t <= 1.0:
        raise BoundsDomainError(f"t={t} outside [0, 1]")
    if m == n or t == 0.0:
        return 0.0
    if t == 1.0:
        return -math.inf
    i = np.arange(0, m + 1)
    terms = _log_binom_row(n, m) + i * math.log(t) + (n - i) * math.log1p(-t)
    return logsumexp(terms)


def binom_tail(n: int, m: int, t: float) -> float:
    """Binomial lower-tail probability P[X <= m], X ~ Binomial(n, t)."""
    return min(1.0, math.exp(_log_binom_tail(n, m, t)))


def prior_sample_size(inputs: PriorInputs) -> int:
    """Minimal N whose dim-truncated tail at eps is within the beta budget.

    This is the scenario bound of Campi & Garatti (SIAM J. Optim. 2008):
    the least N with sum_{i=0}^{dim} C(N,i) eps^i (1-eps)^(N-i) <= beta.
    `dim` is the upper summation index, that is, the number of decision
    variables minus one; the room template has 14 core variables (K, lambda,
    gamma, c, q0..q4, p0..p4) and uses 13.  dim=0 gives (1-eps)^N <= beta.

    The tail is strictly decreasing in N, so exponential growth followed by
    binary search finds the minimum; minimality is asserted on every call.
    """
    eps, beta, dim = inputs.eps, inputs.beta, inputs.dim

    def small_enough(n: int) -> bool:
        return binom_tail(n, dim, eps) <= beta

    lo = dim  # tail is exactly 1 here, never small enough for beta < 1
    hi = max(2 * (dim + 1), 16)
    while not small_enough(hi):
        lo = hi
        hi *= 2
        if hi > 2**62:
            raise BoundsDomainError("prior sample bound search exceeded 2^62")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if small_enough(mid):
            hi = mid
        else:
            lo = mid
    if not small_enough(hi) or small_enough(hi - 1):
        raise BoundsDomainError(f"minimality check failed at N={hi}")
    return hi


@dataclass(frozen=True)
class PosteriorValue:
    """Sign and log magnitudes of the two sides of the posterior root equation."""

    sign: int
    log_lhs: float
    log_rhs: float


@functools.lru_cache(maxsize=1)
def _kappa_series_terms(n: int, support: int) -> tuple:
    """Per-chunk read-only (log C(i, support), i - n) for i = support..n.

    These are the kappa-independent parts of `_log_kappa_series`; a root
    search evaluates the series at one (n, support) many times, and one
    entry suffices because it never interleaves two of them.
    """
    chunks = []
    log_at_start = 0.0  # log C(support, support)
    for start in range(support, n + 1, _CHUNK):
        stop = min(start + _CHUNK, n + 1)
        # one value past the chunk: the next chunk starts from it
        column = _log_binom_column(support, start, stop, log_at_start)
        coeff, log_at_start = column[:-1], column[-1]
        offset = np.arange(start - n, stop - n)
        coeff.flags.writeable = offset.flags.writeable = False
        chunks.append((coeff, offset))
    return tuple(chunks)


def _log_kappa_series(n: int, support: int, log_kappa: float) -> float:
    """log sum_{i=support}^{n} C(i, support) kappa^(i-n), chunked for huge n."""
    pieces = [logsumexp(coeff + offset * log_kappa)
              for coeff, offset in _kappa_series_terms(n, support)]
    return pieces[0] if len(pieces) == 1 else logsumexp(np.asarray(pieces))


def posterior_g(kappa: float, inputs: PosteriorInputs) -> PosteriorValue:
    """Evaluate the posterior root function at kappa, in log space.

    The exponents (n - i) * ln(1/kappa) can reach thousands, so both sides are
    kept as log magnitudes; root finding only ever needs the sign of their
    difference and therefore never underflows.
    """
    if not 0.0 < kappa < 1.0:
        raise BoundsDomainError(f"kappa must lie in (0, 1), got {kappa}")
    n, n0 = inputs.n_scenario, inputs.n_validation
    support, viol = inputs.support_bound, inputs.violations
    log_lhs = (
        math.log(inputs.beta)
        - math.log(n + 1.0)
        + _log_kappa_series(n, support, math.log(kappa))
    )
    log_rhs = float(_log_binom_row(n, support)[-1]) + _log_binom_tail(n0, viol, 1.0 - kappa)
    if log_lhs > log_rhs:
        sign = 1
    elif log_lhs < log_rhs:
        sign = -1
    else:
        sign = 0
    return PosteriorValue(sign, log_lhs, log_rhs)


def solve_kappa(inputs: PosteriorInputs) -> float:
    """Bisect the posterior root function on (0, 1) down to KAPPA_INTERVAL_TOL.

    The function is decreasing in kappa, positive near 0 and negative near 1;
    if the numerical endpoint signs do not bracket a root the posterior bound
    is vacuous for these inputs and that is reported rather than extrapolated.
    """
    lo, hi = 1e-12, 1.0 - 1e-12
    sign_lo = posterior_g(lo, inputs).sign
    sign_hi = posterior_g(hi, inputs).sign
    if sign_lo <= 0 or sign_hi >= 0:
        raise KappaBracketError(
            "posterior bound vacuous for these inputs "
            f"(sign at {lo:g} is {sign_lo:+d}, sign at {hi:g} is {sign_hi:+d})"
        )
    iters = 0
    while hi - lo > KAPPA_INTERVAL_TOL and iters < KAPPA_MAX_ITER:
        mid = 0.5 * (lo + hi)
        sign = posterior_g(mid, inputs).sign
        if sign == 0:
            return mid
        if sign > 0:
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi)


def round_half_down(x: float) -> int:
    """Nearest integer with exact .5 ties rounded down (0.5 -> 0, 1.5 -> 1)."""
    return int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class PlanStep:
    n_scenario: int
    n_validation: int
    est_violations: int
    sign: int


@dataclass(frozen=True)
class PlanResult:
    n_scenario: int
    n_validation: int
    steps: tuple[PlanStep, ...]


def plan_sample_sizes(
    khat: float,
    nstar_hat: int,
    lipschitz: float,
    space: SampleSpace,
    beta: float,
    n_start: int,
    n0_start: int,
    growth: float = 1.5,
) -> PlanResult:
    """Grow (N, N0) until the posterior check passes at the estimated optimum.

    The target kappa is 1 - U(-khat / L); the expected violation frequency at
    each candidate is N0 * nstar_hat / N rounded to the nearest integer (ties
    down, matching the tail-truncation semantics of a fractional count).  A
    non-negative estimate khat can never certify and is rejected.
    """
    if khat >= 0:
        raise PlannerError(f"estimated optimum not strictly negative (khat={khat})")
    if lipschitz <= 0:
        raise PlannerError(f"Lipschitz bound must be positive, got {lipschitz}")
    if n_start < 1 or n0_start < 1:
        raise PlannerError("starting sample counts must be >= 1")
    if growth <= 1.0:
        raise PlannerError(f"growth factor must exceed 1, got {growth}")
    mass = u_of_r(-khat / lipschitz, space)
    if mass >= 1.0:
        # The whole space fits inside the slack ball: any kappa passes.
        return PlanResult(n_start, n0_start, (PlanStep(n_start, n0_start, 0, 1),))
    kappa_target = 1.0 - mass
    ratio = n0_start / n_start
    n, n0 = int(n_start), int(n0_start)
    steps: list[PlanStep] = []
    for _ in range(PLAN_MAX_ROUNDS):
        nstar = min(nstar_hat, n)
        est_viol = min(max(round_half_down(n0 * nstar / n), 0), n0)
        value = posterior_g(
            kappa_target,
            PosteriorInputs(n, n0, nstar, est_viol, beta),
        )
        steps.append(PlanStep(n, n0, est_viol, value.sign))
        if value.sign >= 0:
            return PlanResult(n, n0, tuple(steps))
        grown = n * growth  # inf past the double range
        check_entries(f"growth {growth}: round {len(steps) + 1}'s N", grown + 1, PlannerError)
        n = int(math.ceil(grown))
        n0 = max(1, int(round(n * ratio)))
    raise PlannerError(
        f"no passing (N, N0) within {PLAN_MAX_ROUNDS} growth rounds; "
        f"last tried N={steps[-1].n_scenario}, N0={steps[-1].n_validation}"
    )
