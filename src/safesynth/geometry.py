"""Axis-aligned boxes, region unions, uniform sampling, and ball-mass geometry.

The sampling geometry is deliberately restricted to hyper-rectangles carrying
the uniform distribution.  For that case the probability mass that sampling
places inside a Euclidean ball of radius r has the closed form

    U(r) = pi^(n/2) * r^n / (2^n * Gamma(n/2 + 1) * Vol(box)),

and its analytic inverse converts certified violation levels into Lipschitz
slack radii.  Non-rectangular spaces or non-uniform distributions are rejected
rather than approximated.

All values are immutable after construction and every operation is pure.
Sampling is reproducible per (seed, index): the PCG64 stream of a given seed
always assigns the same coordinates to sample index i, independent of how
many samples are drawn.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GeometryError

GENERATOR_NAME = "pcg64"


def _as_float_tuple(values: Iterable[float]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyper-rectangle with closed boundaries."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lower = _as_float_tuple(self.lower)
        upper = _as_float_tuple(self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) == 0 or len(lower) != len(upper):
            raise GeometryError(
                f"box needs matching non-empty bounds, got {len(lower)} lower / "
                f"{len(upper)} upper entries"
            )
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise GeometryError(f"box bound on axis {i} is not finite")
            if lo > hi:
                raise GeometryError(f"box axis {i} has lower {lo} > upper {hi}")

    @classmethod
    def from_intervals(cls, intervals: Sequence[Sequence[float]]) -> "Box":
        """Build from [[lo, hi], ...] as written in configuration files."""
        for pair in intervals:
            if len(pair) != 2:
                raise GeometryError(f"interval {pair!r} is not a [lower, upper] pair")
        return cls(tuple(p[0] for p in intervals), tuple(p[1] for p in intervals))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def lower_arr(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_arr(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    def sides(self) -> np.ndarray:
        return self.upper_arr - self.lower_arr

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower_arr + self.upper_arr)

    def contains_subbox(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise GeometryError("dimension mismatch between boxes")
        return bool(
            np.all(other.lower_arr >= self.lower_arr)
            and np.all(other.upper_arr <= self.upper_arr)
        )

    def intersects(self, other: "Box") -> bool:
        """Closed-set intersection test (touching boundaries do intersect)."""
        if other.dim != self.dim:
            raise GeometryError("dimension mismatch between boxes")
        return bool(
            np.all(self.lower_arr <= other.upper_arr)
            and np.all(other.lower_arr <= self.upper_arr)
        )

    def intervals(self) -> list[list[float]]:
        return [[lo, hi] for lo, hi in zip(self.lower, self.upper)]


@dataclass(frozen=True)
class RegionUnion:
    """Finite union of same-dimension boxes (initial and unsafe sets)."""

    parts: tuple[Box, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise GeometryError("region union needs at least one box")
        dim = parts[0].dim
        if any(p.dim != dim for p in parts):
            raise GeometryError("region union mixes boxes of different dimensions")

    @classmethod
    def from_intervals(cls, boxes: Sequence[Sequence[Sequence[float]]]) -> "RegionUnion":
        return cls(tuple(Box.from_intervals(b) for b in boxes))

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def intersects_box(self, box: Box) -> bool:
        return any(p.intersects(box) for p in self.parts)

    def intersects(self, other: "RegionUnion") -> bool:
        return any(self.intersects_box(p) for p in other.parts)

    def intervals(self) -> list[list[list[float]]]:
        return [p.intervals() for p in self.parts]


@dataclass(frozen=True)
class SampleSpace:
    """The product box the data is drawn from, with its dimension and volume."""

    box: Box

    def __post_init__(self):
        if self.volume <= 0.0:
            raise GeometryError("sample space must have positive volume")

    @classmethod
    def product(cls, state_box: Box, input_box: Box) -> "SampleSpace":
        return cls(Box(state_box.lower + input_box.lower, state_box.upper + input_box.upper))

    @property
    def n(self) -> int:
        return self.box.dim

    @property
    def volume(self) -> float:
        return volume(self.box)


def volume(box: Box) -> float:
    """Product of side lengths; zero for a degenerate box."""
    return float(np.prod(box.sides()))


# the largest n whose Gamma(n/2 + 1) the recurrence below keeps in the float
# range: 171! (n = 342) is past 1.8e308, and at n = 341 the odd product
# passes it before its last factor, 1/2
_GAMMA_MAX_N = 340


def gamma_half_plus_one(n: int) -> float:
    """Gamma(n/2 + 1) by the half-integer recurrence, avoiding a gamma dependency.

    Even n: (n/2)!.  Odd n: (n/2)(n/2 - 1)...(1/2) * sqrt(pi), the sqrt(pi)
    being Gamma(1/2) at the bottom of the recursion.  An n past the float
    range of the recurrence raises GeometryError.
    """
    if n < 0:
        raise GeometryError("dimension must be non-negative")
    if n > _GAMMA_MAX_N:
        raise GeometryError(f"dimension {n} is past {_GAMMA_MAX_N}, the largest whose "
                            f"Gamma(n/2 + 1) is computed in floats")
    if n % 2 == 0:
        return float(math.factorial(n // 2))
    value = math.sqrt(math.pi)
    k = n
    while k > 0:
        value *= k / 2.0
        k -= 2
    return value


def u_of_r(r: float, space: SampleSpace) -> float:
    """Probability mass a radius-r Euclidean ball carries under uniform sampling.

    Clamped to 1 for radii whose ball mass exceeds the whole space
    (probability semantics); negative and NaN radii are rejected.
    """
    if not r >= 0:
        raise GeometryError(f"radius must be non-negative, got {r}")
    n = space.n
    mass = (math.pi ** (n / 2.0)) * (float(r) ** n) / (
        (2.0**n) * gamma_half_plus_one(n) * space.volume
    )
    return min(1.0, mass)


def u_inverse(eps: float, space: SampleSpace) -> float:
    """Radius whose ball mass equals eps; analytic inverse of u_of_r."""
    if not 0.0 <= eps <= 1.0:
        raise GeometryError(f"mass must lie in [0, 1], got {eps}")
    n = space.n
    return (
        eps * (2.0**n) * gamma_half_plus_one(n) * space.volume / (math.pi ** (n / 2.0))
    ) ** (1.0 / n)


_SAMPLE_CHUNK = 4096  # rows of unit draws per call of the generator


def sample_uniform(space: SampleSpace, count: int, seed: int) -> np.ndarray:
    """Draw `count` i.i.d. uniform points, reproducible for the given seed.

    Returns an array of shape (count, n) in column-major order, so that each
    coordinate is contiguous.  The stream is PCG64; sample i of a given seed
    is identical no matter how many samples are requested.  The unit draws
    are taken _SAMPLE_CHUNK rows at a time and scaled straight into place,
    so no other temporary is count long.
    """
    if count < 0:
        raise GeometryError("count must be non-negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    box = space.box
    sides, lower = box.sides()[:, None], box.lower_arr[:, None]
    out = np.empty((space.n, count))
    for lo in range(0, count, _SAMPLE_CHUNK):
        cols = out[:, lo:lo + _SAMPLE_CHUNK]
        np.multiply(rng.random((cols.shape[1], space.n)).T, sides, out=cols)
        cols += lower
    return out.T


MAX_ENTRIES = int(np.iinfo(np.intp).max)  # no array of the program holds this many


def check_entries(what: str, entries: float, error: type[Exception]) -> None:
    """Raise `error` naming `what` unless an array of `entries` entries (a
    number, inf included) is below the largest NumPy index."""
    if not entries < MAX_ENTRIES:
        raise error(f"{what} needs an array of {entries} entries; "
                    f"the program indexes fewer than {MAX_ENTRIES}")


def box_grid(box: Box, points_per_axis: int) -> np.ndarray:
    """Deterministic uniform grid over a box, shape (points^dim, dim), C order."""
    if points_per_axis < 2:
        raise GeometryError("grids need at least 2 points per axis")
    axes = [
        np.linspace(lo, hi, points_per_axis) for lo, hi in zip(box.lower, box.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_halfstep(box: Box, points_per_axis: int) -> float:
    """Half the total per-axis spacing: every point of the box is within this
    distance (summed per axis) of a grid point, which is what grid tightening
    needs."""
    if points_per_axis < 2:
        raise GeometryError("grids need at least 2 points per axis")
    deltas = box.sides() / (points_per_axis - 1)
    return float(0.5 * np.sum(deltas))


def _gaps(points: np.ndarray, region: RegionUnion) -> np.ndarray:
    """Per-axis gaps (parts, ..., n) from points (..., n) to each box of the
    region; a gap is 0 exactly where the point is within that axis' bounds."""
    x = np.asarray(points, dtype=float)
    if x.shape[-1:] != (region.dim,):
        raise GeometryError(f"points of shape {x.shape} vs region dimension {region.dim}")
    shape = (len(region.parts),) + (1,) * (x.ndim - 1) + (region.dim,)
    lower = np.array([p.lower for p in region.parts]).reshape(shape)
    upper = np.array([p.upper for p in region.parts]).reshape(shape)
    return np.maximum(lower - x, 0.0) + np.maximum(x - upper, 0.0)


def in_region(points: np.ndarray, region: RegionUnion) -> np.ndarray:
    """Closed-set membership of points (..., n) in the region, shape (...).

    Decided on the gaps themselves, not on the distance: a norm of gaps
    below about 1e-154 underflows to 0 for a point that lies outside."""
    return np.any(np.all(_gaps(points, region) == 0.0, axis=-1), axis=0)


def distance_to_region(points: np.ndarray, region: RegionUnion) -> np.ndarray:
    """Euclidean distance from points (..., n) to the region, shape (...); 0 inside."""
    return np.min(np.linalg.norm(_gaps(points, region), axis=-1), axis=0)
