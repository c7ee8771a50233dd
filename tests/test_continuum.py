"""Exact check of the grid-enforced conditions on the continuum.

The g1, g2 and g4 rows hold a certificate's barrier B and controller F at
grid points, tightened so that they hold everywhere in their boxes (see the
`scp` docstring).  For one state variable each condition is "P(x) <= r for
every x in [a, b]" with P a univariate polynomial, and this module decides
it in exact arithmetic: the certificate's floats become `Fraction`s (every
float is a dyadic rational), and Sturm sequences count the distinct real
roots of P - r on sub-intervals until each is proven free of a positive
value.  It uses only the report's certificate and the configuration's
boxes; no code of `scp`, `polynomial` or `verify`, no slope bound and no
grid, so it checks whatever scheme enforced the rows.
"""

from fractions import Fraction

from safesynth.pipeline import room_casestudy_config, synthesize, validate_config

# bisection depth after which a sub-interval with a root inside and no
# positive value found is undecided: a root of even multiplicity where p
# touches zero from below
_MAX_DEPTH = 200


def _value(p, x):
    """p(x) by Horner's rule; p lists coefficients by ascending power."""
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _remainder(p, q):
    p = list(p)
    while len(p) >= len(q):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p = _trim(p[:-1])
    return p


def _sturm(p):
    """The Sturm sequence p, p', -rem(p, p'), ... of a non-zero polynomial."""
    chain = [_trim(list(p)), _trim([k * c for k, c in enumerate(p)][1:])]
    while chain[-1]:
        chain.append([-c for c in _remainder(chain[-2], chain[-1])])
    return chain[:-1]


def _sign_changes(chain, x):
    signs = [v > 0 for v in (_value(p, x) for p in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _nonpositive(p, lo, hi, chain=None, depth=0):
    """Whether p(x) <= 0 for every x in [lo, hi], decided exactly.

    The distinct roots in (lo, hi] number the sign changes of the Sturm
    chain at lo minus those at hi (Sturm's theorem; a root at lo is not
    counted, one at hi is).  With no root inside, p keeps the sign of its
    midpoint there; otherwise the interval is halved."""
    chain = _sturm(p) if chain is None else chain
    at_lo, at_hi = _value(p, lo), _value(p, hi)
    if at_lo > 0 or at_hi > 0:
        return False
    mid = (lo + hi) / 2
    if _sign_changes(chain, lo) - _sign_changes(chain, hi) == (at_hi == 0):
        return _value(p, mid) < 0
    if depth == _MAX_DEPTH:
        raise AssertionError(f"undecided on [{float(lo)}, {float(hi)}]")
    return (_nonpositive(p, lo, mid, chain, depth + 1)
            and _nonpositive(p, mid, hi, chain, depth + 1))


def _holds(coeffs, scale, bound, interval) -> bool:
    """scale * P(x) <= bound for every x in the closed interval."""
    p = [scale * Fraction(c) for c in coeffs]
    p[0] -= Fraction(bound)
    return _nonpositive(p, *(Fraction(end) for end in interval))


def _conditions(raw, cert, shift=0.0):
    """Whether each grid-enforced family of the room study holds for the
    certificate, with every bound tightened by `shift`: g1 B <= cap - eta
    on the initial set, g2 B >= floor on each unsafe part, g4 0 <= F <= 1
    on the state box."""
    barrier = cert["barrier"]["coeffs"]
    (controller,) = (c["coeffs"] for c in cert["controllers"])
    ((u_lo, u_hi),) = raw["input_box"]
    (state,) = raw["state_space"]
    shift = Fraction(shift)
    cap = Fraction(cert["initial_cap"]) - Fraction(raw["strict_margin"])
    return {
        "g1": all(_holds(barrier, 1, cap - shift, part) for (part,) in raw["initial_set"]),
        "g2": all(_holds(barrier, -1, -Fraction(cert["unsafe_floor"]) - shift, part)
                  for (part,) in raw["unsafe_set"]),
        "g4": (_holds(controller, 1, Fraction(u_hi) - shift, state)
               and _holds(controller, -1, -Fraction(u_lo) - shift, state)),
    }


def _certificate(**overrides):
    """The echoed configuration and the certificate of a 20k-sample run of
    the bundled study, scenario seed 2025."""
    config = validate_config(room_casestudy_config(
        n_scenario=20_000, n_validation=10_000, seed_scenario=2025, seed_validation=9090,
        **overrides))
    cert = synthesize(config).to_json_dict()["certificate"]
    assert cert["barrier"]["nvars"] == 1
    return config.raw, cert


def test_sturm_oracle_on_known_polynomials():
    # (x - 1)(x - 2) <= 0 on [1, 2], zero at both ends; -(x - 1/3)^2 -+ 1e-30
    # peaks between dyadic points; x^3 - x is negative at -3/2 and 1/2 and
    # positive on (-1, 0); -(x - 1/2)^2 touches zero at a bisection point
    third = Fraction(1, 3)
    assert _nonpositive([Fraction(2), Fraction(-3), Fraction(1)], Fraction(1), Fraction(2))
    assert not _nonpositive([Fraction(2), Fraction(-3), Fraction(1)], Fraction(1), Fraction(3))
    assert _nonpositive([-third ** 2 - Fraction(1, 10 ** 30), 2 * third, Fraction(-1)],
                        Fraction(0), Fraction(1))
    assert not _nonpositive([-third ** 2 + Fraction(1, 10 ** 30), 2 * third, Fraction(-1)],
                            Fraction(0), Fraction(1))
    assert not _nonpositive([0, Fraction(-1), 0, Fraction(1)], Fraction(-3, 2), Fraction(1, 2))
    assert _nonpositive([Fraction(-1, 4), Fraction(1), Fraction(-1)], Fraction(0), Fraction(1))
    assert len(_sturm([0, Fraction(-1), 0, Fraction(1)])) == 4


def test_grid_conditions_hold_on_the_continuum_exactly():
    # the 20k seed-2025 certificate of the bundled study: every family holds
    # on its whole intervals, with the continuum slack a float scan of 1e6
    # points per interval measured (g1 -0.00726, g2 -0.00598, g4 -2.2e-5):
    # each family holds with its bounds tightened by 97% of its slack and
    # fails with them tightened by 103%
    raw, cert = _certificate()
    assert _conditions(raw, cert) == {"g1": True, "g2": True, "g4": True}
    for family, slack in (("g1", 0.00726), ("g2", 0.00598), ("g4", 2.2e-5)):
        assert _conditions(raw, cert, 0.97 * slack)[family], family
        assert not _conditions(raw, cert, 1.03 * slack)[family], family


def test_untightened_grid_certificate_fails_between_grid_points():
    # mutation: with 11/6/41-point grids and no tightening the rows hold at
    # the grid points only, and F exceeds the input box's 1 by 7.9e-7
    # between two of the 41 state points; the oracle must see it
    raw, cert = _certificate(grid_points={"initial": 11, "unsafe": 6, "state": 41},
                             tighten=False)
    assert not _conditions(raw, cert)["g4"]
    coeffs = cert["controllers"][0]["coeffs"]
    ((lo, hi),) = raw["state_space"]
    grid = [Fraction(lo) + (Fraction(hi) - Fraction(lo)) * i / 40 for i in range(41)]
    assert max(_value([Fraction(c) for c in coeffs], x) for x in grid) < 1 + Fraction(1, 10 ** 8)
    assert not _holds(coeffs, 1, 1 + 7.8e-7, (lo, hi)) and _holds(coeffs, 1, 1 + 7.9e-7, (lo, hi))
