"""Truncated-total-degree monomial bases and linear-in-coefficient evaluation.

Both the barrier candidate and every controller component share this layout:
a basis of monomials x1^a1 ... xn^an with a1 + ... + an <= k, ordered by total
degree then lexicographically, and a coefficient vector aligned with it.  That
ordering is part of the on-disk certificate format, so it must never change.

No polynomial arithmetic lives here: the synthesis program only ever needs
evaluation and per-term derivative bounds, both linear in the coefficients.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import PolynomialError
from .geometry import Box


@dataclass(frozen=True)
class PolyBasis:
    """Monomial multi-degrees with total degree <= `degree`, canonical order."""

    nvars: int
    degree: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.nvars < 1 or self.degree < 0:
            raise PolynomialError(
                f"basis needs nvars >= 1 and degree >= 0, got {self.nvars}, {self.degree}"
            )
        expected = math.comb(self.nvars + self.degree, self.degree)
        if len(self.terms) != expected:
            raise PolynomialError(
                f"basis over {self.nvars} vars at degree {self.degree} must have "
                f"{expected} terms, got {len(self.terms)}"
            )

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def exponents(self) -> np.ndarray:
        return np.asarray(self.terms, dtype=int)

    @cached_property
    def factors(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per variable, each distinct non-zero exponent, ascending, with the
        terms it multiplies: what `eval_basis_many` loops over."""
        return tuple(
            tuple((e, tuple(t for t, term in enumerate(self.terms) if term[j] == e))
                  for e in sorted({term[j] for term in self.terms} - {0}))
            for j in range(self.nvars)
        )


def build_basis(nvars: int, degree: int) -> PolyBasis:
    """Enumerate all multi-degrees with total degree <= k in canonical order."""
    if nvars < 1 or degree < 0:
        raise PolynomialError(f"invalid basis parameters nvars={nvars}, degree={degree}")
    terms = [
        t
        for t in itertools.product(range(degree + 1), repeat=nvars)
        if sum(t) <= degree
    ]
    terms.sort(key=lambda t: (sum(t), t))
    return PolyBasis(nvars, degree, tuple(terms))


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector over a PolyBasis."""

    basis: PolyBasis
    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != len(self.basis):
            raise PolynomialError(
                f"{len(coeffs)} coefficients for a basis of size {len(self.basis)}"
            )

    @property
    def coeff_arr(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def __call__(self, x: Sequence[float]) -> float:
        return eval_poly(self, x)

    def to_dict(self) -> dict:
        return {
            "nvars": self.basis.nvars,
            "degree": self.basis.degree,
            "coeffs": list(self.coeffs),
        }

    @classmethod
    def from_dict(cls, data: dict, basis: PolyBasis | None = None) -> "Polynomial":
        """Inverse of `to_dict`, over `basis` if the caller has checked it."""
        if basis is None:
            basis = build_basis(int(data["nvars"]), int(data["degree"]))
        return cls(basis, tuple(data["coeffs"]))


def eval_basis(basis: PolyBasis, x: Sequence[float]) -> np.ndarray:
    """Monomial values at a single point, in basis order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.nvars,):
        raise PolynomialError(
            f"point of shape {x.shape} for a basis over {basis.nvars} variables"
        )
    return eval_basis_many(basis, x[None, :])[0]


def power(col: np.ndarray, e: int) -> np.ndarray:
    """col ** e for a 1-D array, elementwise: each entry has the bits of the
    broadcast `col[:, None] ** exps[None, :]` for it, whichever entries are
    taken together (pinned by tests), so `scp.g3_rows` writes the same
    entry for a sample in any chunk or subset of samples, stored or made.
    The scalar `col ** 2.0` is col * col, which rounds differently, so 2
    takes an array exponent."""
    if e == 1:
        return col
    if e == 2:
        return np.power(col, np.full(len(col), 2.0))
    return col ** float(e)


def eval_basis_many(basis: PolyBasis, points: np.ndarray, order: str = "C") -> np.ndarray:
    """Monomial values at many points; shape (npoints, nterms), in memory
    order `order` ("F" keeps each monomial's values contiguous).

    Each monomial is the product of its variables' powers (`power`, each
    distinct one taken once) in variable order, starting from 1.0."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != basis.nvars:
        raise PolynomialError(
            f"points of shape {points.shape} for a basis over {basis.nvars} variables"
        )
    out = np.ones((points.shape[0], len(basis)), dtype=float, order=order)
    for j, factors in enumerate(basis.factors):
        for e, terms in factors:
            p = power(points[:, j], e)
            for t in terms:
                out[:, t] *= p
    return out


def eval_poly(p: Polynomial, x: Sequence[float]) -> float:
    return float(eval_basis(p.basis, x) @ p.coeff_arr)


def eval_poly_many(p: Polynomial, points: np.ndarray) -> np.ndarray:
    return eval_basis_many(p.basis, points) @ p.coeff_arr


def monomial_gradient_bound(basis: PolyBasis, box: Box) -> np.ndarray:
    """Per-term bound on |d monomial / dx_j| over the box, maximised over j.

    Interval arithmetic on the derivative monomials: each factor |x_l|^a is
    bounded by max(|lo_l|, |up_l|)^a, so the result is a sound (if loose,
    cancellation-free) slope bound used by grid tightening.
    """
    if box.dim != basis.nvars:
        raise PolynomialError(
            f"box of dimension {box.dim} for a basis over {basis.nvars} variables"
        )
    mabs = np.maximum(np.abs(box.lower_arr), np.abs(box.upper_arr))
    bounds = np.zeros(len(basis))
    for t, exps in enumerate(basis.terms):
        best = 0.0
        for j, aj in enumerate(exps):
            if aj == 0:
                continue
            val = float(aj) * mabs[j] ** (aj - 1)
            for l, al in enumerate(exps):
                if l != j:
                    val *= mabs[l] ** al
            best = max(best, val)
        bounds[t] = best
    return bounds
