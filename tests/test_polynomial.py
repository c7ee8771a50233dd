import math

import numpy as np
import pytest

from safesynth.errors import PolynomialError
from safesynth.geometry import Box
from safesynth.polynomial import (
    Polynomial,
    build_basis,
    eval_basis,
    eval_basis_many,
    eval_poly,
    eval_poly_many,
    monomial_gradient_bound,
    power,
)
from .conftest import ROOM_STUDY


def test_basis_sizes_for_case_study():
    assert len(build_basis(1, 4)) == 5
    assert len(build_basis(1, 0)) == 1
    assert len(build_basis(2, 2)) == 6


def test_basis_size_formula_exhaustive():
    for nvars in range(1, 5):
        for degree in range(0, 7):
            basis = build_basis(nvars, degree)
            assert len(basis) == math.comb(nvars + degree, degree)


def test_basis_order_univariate():
    assert build_basis(1, 4).terms == ((0,), (1,), (2,), (3,), (4,))


def test_basis_order_bivariate():
    assert build_basis(2, 2).terms == (
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
    )


def test_basis_order_stable_roundtrip():
    basis = build_basis(3, 3)
    rebuilt = build_basis(3, 3)
    assert basis.terms == rebuilt.terms


def test_eval_basis_at_zero():
    basis = build_basis(1, 4)
    assert np.array_equal(eval_basis(basis, [0.0]), [1, 0, 0, 0, 0])


def test_eval_basis_powers_of_two():
    basis = build_basis(1, 4)
    assert np.array_equal(eval_basis(basis, [2.0]), [1, 2, 4, 8, 16])


def test_eval_basis_dimension_mismatch():
    with pytest.raises(PolynomialError):
        eval_basis(build_basis(2, 2), [1.0])


def test_eval_basis_matches_naive_power_oracle():
    rng = np.random.default_rng(77)
    for nvars, degree in ((1, 4), (2, 3), (3, 2)):
        basis = build_basis(nvars, degree)
        pts = rng.uniform(-2, 2, size=(100, nvars))
        vals = eval_basis_many(basis, pts)
        for i, x in enumerate(pts):
            for t, exps in enumerate(basis.terms):
                naive = 1.0
                for j, a in enumerate(exps):
                    for _ in range(a):
                        naive *= x[j]
                assert vals[i, t] == pytest.approx(naive, rel=1e-12, abs=1e-12)


def test_eval_poly_zero_coeffs():
    basis = build_basis(2, 2)
    p = Polynomial(basis, (0.0,) * len(basis))
    assert eval_poly(p, [3.0, -4.0]) == 0.0


def test_case_study_barrier_vanishes_at_origin():
    assert eval_poly(ROOM_STUDY["barrier"], [0.0]) == 0.0


def test_case_study_controller_feasible_at_band_center():
    value = eval_poly(ROOM_STUDY["controller"], [25.0])
    assert 0.0 <= value <= 1.0


def test_eval_poly_linear_in_coeffs():
    rng = np.random.default_rng(3)
    basis = build_basis(2, 3)
    for _ in range(25):
        a, b = rng.normal(size=2)
        ca = rng.normal(size=len(basis))
        cb = rng.normal(size=len(basis))
        x = rng.uniform(-1.5, 1.5, size=2)
        combo = Polynomial(basis, tuple(a * ca + b * cb))
        separate = a * eval_poly(Polynomial(basis, tuple(ca)), x) + b * eval_poly(
            Polynomial(basis, tuple(cb)), x
        )
        assert eval_poly(combo, x) == pytest.approx(separate, rel=1e-12, abs=1e-12)


def test_polynomial_serialisation_roundtrip():
    p = ROOM_STUDY["controller"]
    q = Polynomial.from_dict(p.to_dict())
    assert q.basis.terms == p.basis.terms
    assert q.coeffs == p.coeffs


def test_gradient_bound_constant_term():
    basis = build_basis(1, 2)
    bounds = monomial_gradient_bound(basis, Box.from_intervals([[0, 2]]))
    assert bounds[0] == 0.0


def test_gradient_bound_square_on_0_2():
    basis = build_basis(1, 2)
    bounds = monomial_gradient_bound(basis, Box.from_intervals([[0, 2]]))
    assert bounds[2] == pytest.approx(4.0)


def test_gradient_bound_cube_on_room_band():
    basis = build_basis(1, 4)
    bounds = monomial_gradient_bound(basis, Box.from_intervals([[22.5, 26.5]]))
    assert bounds[3] == pytest.approx(3 * 26.5**2)


def test_gradient_bound_is_sound_on_random_pairs():
    rng = np.random.default_rng(11)
    basis = build_basis(2, 3)
    box = Box.from_intervals([[-1.5, 2.0], [0.5, 3.0]])
    bounds = monomial_gradient_bound(basis, box)
    coeffs = rng.normal(size=len(basis))
    poly = Polynomial(basis, tuple(coeffs))
    slope_cap = float(np.abs(coeffs) @ bounds)
    pts = box.lower_arr + rng.random((300, 2)) * box.sides()
    steps = pts + rng.normal(scale=1e-4, size=pts.shape)
    steps = np.clip(steps, box.lower_arr, box.upper_arr)
    lhs = np.abs(eval_poly_many(poly, pts) - eval_poly_many(poly, steps))
    rhs = slope_cap * np.abs(pts - steps).sum(axis=1)
    assert np.all(lhs <= rhs + 1e-12)


@pytest.mark.parametrize("nvars", [1, 2])
def test_fast_powers_equal_the_broadcast_power_bit_for_bit(nvars):
    # each exponent's fast form must round exactly as the broadcast `**`
    # did, and a 2-variable monomial multiply its powers in variable order
    rng = np.random.default_rng(41 + nvars)
    basis = build_basis(nvars, 4)
    points = np.concatenate([
        rng.uniform(22.5, 26.5, size=(400_000, nvars)),
        rng.uniform(-1e3, 1e3, size=(300_000, nvars)),
        rng.normal(size=(300_000, nvars)) * 10.0 ** rng.integers(-60, 60, size=(300_000, nvars)),
    ])
    broadcast = np.ones((len(points), len(basis)))
    for j in range(nvars):
        broadcast *= points[:, j][:, None] ** basis.exponents[:, j][None, :]
    assert eval_basis_many(basis, points).tobytes() == broadcast.tobytes()
    assert eval_basis_many(basis, points, "F").tobytes() == np.asfortranarray(broadcast).tobytes()
    assert eval_basis_many(basis, points, "F").flags.f_contiguous


def test_powers_are_elementwise_and_the_broadcast_power_at_degree_six():
    # `scp.g3_rows` takes each power of a chunk of the samples, or, for
    # made rows (`lp.PolyRows`), of a subset: every entry must have the bits
    # of the same entry of the whole column, and of the broadcast `**` that
    # evaluates a degree-6 basis
    rng = np.random.default_rng(43)
    x = np.concatenate([rng.uniform(22.5, 26.5, size=200_001),
                        rng.normal(size=100_000) * 10.0 ** rng.integers(-40, 40, size=100_000)])
    basis = build_basis(1, 6)
    broadcast = x[:, None] ** basis.exponents[:, 0][None, :]
    assert eval_basis_many(basis, x[:, None]).tobytes() == broadcast.tobytes()
    ids = rng.integers(0, len(x), size=4097)
    for e in range(1, 7):
        whole = power(x, e)
        assert whole.tobytes() == broadcast[:, e].tobytes()
        assert power(x[ids], e).tobytes() == whole[ids].tobytes()
        assert power(x[1::3], e).tobytes() == whole[1::3].tobytes()
        for i in ids[:5]:
            assert power(x[[i]], e).tobytes() == whole[[i]].tobytes()
