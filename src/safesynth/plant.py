"""Black-box plants, the built-in room-temperature system, and datasets.

Every caller queries a plant through `query` (a checked `step_batch`: at each x,
apply its u, observe the next state) and closes it with `with`.  The room model

    x(t+1) = x(t) + tau * (a_env * (T_env - x(t)) + a_heat * (T_heat - x(t)) * u(t))

is the single-room heater loop with an outside temperature of 15 degrees and
a 45-degree heater, sampled every 5 time units.  External plants are driven
over a line-oriented child-process protocol so user models stay opaque; a
child that exits mid-run is a `CollectionError`, never silently restarted.

Datasets are stored as plain CSV, one sample per row
``x1,...,xn,u1,...,um,x'1,...,x'n``, preceded by one metadata comment line
``# n=.. m=.. role=.. seed=.. space=..``.  Each value is printed as C's
``%.17g``, so reloading is lossless.  `save_dataset` produces those bytes
block by block with NumPy (`_format_rows`): exact decimal digits from a
two-product with a power of ten, characters from a lookup table, and the
`%` operator only for rows holding a value outside [1e-4, 1e16).
"""

import contextlib
import enum
import functools
import math
import os
import re
import secrets
import shlex
import subprocess
from typing import Sequence

import numpy as np

from .errors import CollectionError, DatasetFormatError, GeometryError
from .geometry import Box, SampleSpace, sample_uniform

ROOM_T_ENV = 15.0
ROOM_T_HEATER = 45.0
ROOM_ALPHA_ENV = 8e-3
ROOM_ALPHA_HEATER = 3.6e-3
ROOM_TAU = 5.0


def step_room(x: float, u: float):
    """One step of the room-temperature loop; works on scalars and arrays."""
    return x + ROOM_TAU * (
        ROOM_ALPHA_ENV * (ROOM_T_ENV - x) + ROOM_ALPHA_HEATER * (ROOM_T_HEATER - x) * u
    )


class BlackBoxSystem:
    """Deterministic simulate-only system: (x, u) -> x'.

    `step_batch` answers every `query`.  Its default asks `step` for each
    sample in order and stops at the first that raises `CollectionError`,
    returns other than `state_dim` values (a scalar for one state variable
    is one value) or returns a non-finite state, naming that sample.
    `reentrant` declares that the plant may be queried from several
    processes at once; it only decides whether `repeat` runs in worker
    processes.  `with` closes the plant.
    """

    reentrant = False

    def __init__(self, state_dim: int, input_dim: int):
        self.state_dim = int(state_dim)
        self.input_dim = int(input_dim)

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def step_batch(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        out = np.empty_like(np.asarray(xs, dtype=float))
        for i in range(len(xs)):
            try:
                x_next = np.ravel(self.step(xs[i], us[i]))
                if x_next.size != self.state_dim:
                    raise CollectionError(f"step returned {x_next.size} values, expected {self.state_dim}")
            except CollectionError as exc:
                raise CollectionError(f"sample {i}: {exc}") from exc
            out[i] = x_next
            if not np.all(np.isfinite(out[i])):
                raise CollectionError(f"simulator returned non-finite state at sample {i}")
        return out

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class RoomTemperaturePlant(BlackBoxSystem):
    name = "room-temp"  # the configuration's `plant` value
    reentrant = True
    state_dim = input_dim = 1
    lipschitz = 11.63  # the configuration's `lipschitz` when it gives none

    def __init__(self):
        super().__init__(self.state_dim, self.input_dim)

    def step_batch(self, xs, us):
        xs = np.asarray(xs, dtype=float)
        us = np.asarray(us, dtype=float)
        return step_room(xs[:, :1], us[:, :1])


class ExternalProcessPlant(BlackBoxSystem):
    """Child-process plant speaking a line protocol.

    Per query one line ``x1 ... xn u1 ... um`` is written to the child's
    stdin (flushed), and one line of n floats is read back as the next state.
    The process is spawned on first use, and again only after `close`, and
    queried strictly sequentially.  A child that has exited fails every
    later query with a `CollectionError` naming its exit status.
    """

    reentrant = False

    def __init__(self, command: Sequence[str], state_dim: int, input_dim: int):
        super().__init__(state_dim, input_dim)
        if not command:
            raise CollectionError("external plant needs a non-empty command")
        self.command = [str(c) for c in command]
        self._proc: subprocess.Popen | None = None

    def _ensure_proc(self) -> subprocess.Popen:
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        elif self._proc.poll() is not None:
            raise CollectionError(f"external plant {shlex.join(self.command)} exited "
                                  f"with status {self._proc.returncode}")
        return self._proc

    def step(self, x, u):
        proc = self._ensure_proc()
        request = " ".join(f"{v:.17g}" for v in np.concatenate([np.atleast_1d(x), np.atleast_1d(u)]))
        try:
            assert proc.stdin is not None and proc.stdout is not None
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise CollectionError(f"external plant {shlex.join(self.command)} died: {exc}") from exc
        if not line:
            raise CollectionError(
                f"external plant {shlex.join(self.command)} closed its output stream"
            )
        try:
            return np.array([float(v) for v in line.split()])
        except ValueError as exc:
            raise CollectionError(f"external plant returned non-numeric output: {line!r}") from exc

    def close(self):
        if self._proc is not None:
            try:
                if self._proc.stdin is not None:
                    self._proc.stdin.close()
                self._proc.terminate()
                self._proc.wait(timeout=5)
            except Exception:
                self._proc.kill()
                self._proc.wait()
            if self._proc.stdout is not None:
                self._proc.stdout.close()
            self._proc = None


class Role(str, enum.Enum):
    SCENARIO = "scenario"
    VALIDATION = "validation"


class Dataset:
    """I.i.d. transitions drawn from a sample space, with seed/role metadata."""

    def __init__(
        self,
        xs: np.ndarray,
        us: np.ndarray,
        x_nexts: np.ndarray,
        seed: int,
        role: Role,
        space: SampleSpace | None = None,
    ):
        self.xs = np.atleast_2d(np.asarray(xs, dtype=float))
        self.us = np.atleast_2d(np.asarray(us, dtype=float))
        self.x_nexts = np.atleast_2d(np.asarray(x_nexts, dtype=float))
        if not (len(self.xs) == len(self.us) == len(self.x_nexts)):
            raise DatasetFormatError("sample blocks disagree on length")
        if self.xs.shape[1] != self.x_nexts.shape[1]:
            raise DatasetFormatError("state and next-state dimensions disagree")
        self.seed = int(seed)
        self.role = Role(role)
        self.space = space

    @property
    def state_dim(self) -> int:
        return self.xs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.us.shape[1]

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.seed == other.seed
            and self.role == other.role
            and self.xs.shape == other.xs.shape
            and self.us.shape == other.us.shape
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.us, other.us)
            and np.array_equal(self.x_nexts, other.x_nexts)
        )


def query(system: BlackBoxSystem, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """`system.step_batch(xs, us)` as a (len(xs), state_dim) float array; an
    answer that is not numeric, of another shape (both named) or holding a
    non-finite state (the first such sample named) raises CollectionError."""
    answer = system.step_batch(xs, us)  # outside `try`: a plant's own bugs surface as they are
    try:
        x_nexts = np.asarray(answer, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CollectionError(f"simulator answered with non-numeric values: {exc}") from exc
    if x_nexts.shape != (len(xs), system.state_dim):
        raise CollectionError(f"simulator answered with shape {x_nexts.shape}, "
                              f"expected {(len(xs), system.state_dim)}")
    bad = np.flatnonzero(~np.all(np.isfinite(x_nexts), axis=1))
    if bad.size:
        raise CollectionError(f"simulator returned non-finite state at sample {bad[0]}")
    return x_nexts


def collect(
    system: BlackBoxSystem,
    space: SampleSpace,
    count: int,
    seed: int,
    role: Role = Role.SCENARIO,
) -> Dataset:
    """Sample (x, u) uniformly, query the simulator for all pairs in one `query`.

    Deterministic for fixed (space, count, seed); a failed query returns
    nothing partial.
    """
    if count < 1:
        raise GeometryError(f"collect needs count >= 1, got {count}")
    n = system.state_dim
    m = system.input_dim
    if space.n != n + m:
        raise GeometryError(
            f"sample space dimension {space.n} != state {n} + input {m}"
        )
    coords = sample_uniform(space, count, seed).T  # one contiguous row per coordinate
    xs = coords[:n].T
    us = coords[n:].T
    return Dataset(xs, us, query(system, xs, us), seed=seed, role=role, space=space)


_HEADER_RE = re.compile(
    r"^#\s*n=(\d+)\s+m=(\d+)\s+role=(\w+)\s+seed=(-?\d+)(?:\s+space=(\S+))?\s*$"
)


def _space_to_header(space: SampleSpace) -> str:
    return ";".join(f"{lo:.17g},{hi:.17g}" for lo, hi in zip(space.box.lower, space.box.upper))


def _space_from_header(text: str) -> SampleSpace:
    pairs = []
    for chunk in text.split(";"):
        lo, hi = chunk.split(",")
        pairs.append([float(lo), float(hi)])
    return SampleSpace(Box.from_intervals(pairs))


_SAVE_BLOCK = 65_536  # rows formatted per write by save_dataset
_WIDTH = 48  # bytes laid out per value before the kept ones are packed


def _split(a):
    """Veltkamp's split: a == hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _format_tables():
    """Tables of `_format_rows`, built on first use.

    Each value is laid out in `_WIDTH` bytes: at 0 a minus sign, at 1-5
    "0.000", at 7 the leading digit d0 and at 8-23 the digits d1..d16, at 27
    the decimal point and at 28-43 d1..d16 again, at 44 the separator.  Row
    ``(sign, k + 4, last)`` of `keep` marks the bytes printed for a value of
    that sign, decimal exponent k and last non-zero digit.
    """
    powers = np.array([float(10**p) for p in range(23)])  # exact
    q = np.arange(10_000)
    quad = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + 48
    zeros = np.zeros(10_000, dtype=np.intp)  # trailing zeros of a four-digit group
    for z in (1, 2, 3):
        zeros[q % 10**z == 0] = z
    zeros[0] = 4
    template = np.frombuffer(b"-0.000 0" + b"0" * 16 + b"   ." + b"0" * 16 + b",   ", np.uint8)
    sign = np.arange(2)[:, None, None, None]
    k = np.arange(-4, 16)[None, :, None, None]
    last = np.arange(17)[None, None, :, None]
    pos = np.arange(_WIDTH)
    keep = (
        ((pos == 0) & (sign == 1))
        | ((k < 0) & (pos >= 1) & (pos <= 1 - k))  # "0." and -k - 1 zeros
        | ((pos >= 7) & (pos <= 7 + np.where(k < 0, last, k)))  # d0 up to d(last), or d(k)
        | ((k >= 0) & (last > k) & (pos == 27))
        | ((k >= 0) & (pos >= 28 + k) & (pos <= 27 + last))  # d(k+1) up to d(last)
        | (pos == 44)
    ).reshape(-1, _WIDTH)
    return (
        (powers, *_split(powers)),
        quad.astype(np.uint8).view(np.uint32).ravel(),
        zeros,
        template.view(np.uint64),
        keep.view(np.uint64),
        keep.sum(axis=1),
    )


def _scaled(a, a_hi, a_lo, p, powers):
    """(hi, lo) with hi == fl(a * 10**p) and hi + lo == a * 10**p exactly.

    Dekker's two-product of a == a_hi + a_lo and the split 10**p: exact
    without a fused multiply-add, since nothing overflows or underflows here.
    """
    b, b_hi, b_lo = (t.take(p) for t in powers)
    hi = a * b
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _format_rows(block: np.ndarray, line: str):
    """Yield the bytes of ``(line * len(block)) % tuple(block.ravel().tolist())``.

    `line` holds one ``%.17g`` per column of `block`, comma-separated, and
    ends in a newline.
    For 1e-4 <= |x| < 1e16, ``%.17g`` prints D = |x| * 10**(16 - k) rounded
    half to even, in fixed notation with 16 - k fraction digits and trailing
    zeros (and a bare point) stripped, k being the decimal exponent of |x|.
    With 10**p exact for p <= 22, a two-product gives |x| * 10**p = hi + lo
    exactly, and hi >= 1e16 > 2**53 is an even integer, so D = hi + rint(lo).
    D never rounds up to 1e17: the largest double below 10**j, for
    -3 <= j <= 16, lies more than 5e-18 * 10**j below it.  Rows holding any
    other value (0, -0.0, subnormals, |x| < 1e-4 or >= 1e16, inf, nan) are
    formatted by `line` and spliced in order.
    """
    powers, quad, zeros, template, keep, length = _format_tables()
    cols = block.shape[1]
    mag = np.abs(block)
    fast = ((mag >= 1e-4) & (mag < 1e16)).all(axis=1)
    a = mag[fast].ravel()
    a_hi, a_lo = _split(a)
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, a_hi, a_lo, 16 - k, powers)
    # log10 may miss the exponent by one next to a power of ten
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += high[fix].astype(np.intp) - low[fix]
        hi[fix], lo[fix] = _scaled(a[fix], a_hi[fix], a_lo[fix], 16 - k[fix], powers)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    chars = np.tile(template, (len(a) // cols, cols)).view(np.uint8).reshape(len(a), _WIDTH)
    chars.reshape(-1, cols, _WIDTH)[:, -1, 44] = ord("\n")
    lead, rest = np.divmod(digits, 10**16)
    chars[:, 7] += lead.astype(np.uint8)
    groups = np.empty((len(a), 4), dtype=np.int64)
    for g, scale in enumerate((10**12, 10**8, 10**4)):
        groups[:, g], rest = np.divmod(rest, scale)
    groups[:, 3] = rest
    words = chars.view(np.uint32)
    words[:, 2:6] = words[:, 7:11] = quad.take(groups)
    tail = zeros.take(groups)
    tz = tail[:, 0]  # trailing zeros of d1..d16; d0 is never 0
    for g in (1, 2, 3):
        tz = np.where(tail[:, g] == 4, tz + 4, tail[:, g])
    code = (np.signbit(block[fast]).ravel() * 20 + k + 4) * 17 + 16 - tz
    packed = chars[keep.take(code, axis=0).view(bool)]
    ends = np.zeros(len(a) // cols + 1, dtype=np.intp)  # bytes of the first i fast rows
    np.cumsum(length.take(code).reshape(-1, cols).sum(axis=1), out=ends[1:])
    slow = np.flatnonzero(~fast)
    runs = np.flatnonzero(np.diff(slow, prepend=-2) != 1)  # where runs of slow rows start
    start = 0
    for i, j in zip(runs, [*runs[1:], len(slow)]):
        first, stop = slow[i], slow[j - 1] + 1
        end = ends[first - i]  # i slow rows precede row `first`
        yield packed[start:end]
        start = end
        yield ((line * (stop - first)) % tuple(block[first:stop].ravel().tolist())).encode()
    yield packed[start:]


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w", **open_kwargs):
    """Open `path` for writing (`mode` "w" or "wb") through a temporary file beside it.

    The temporary file is made by a plain `open` (exclusive create), so it
    gets the permissions the umask gives any new file.  It is renamed over
    `path` when the block completes and removed when the block raises, so
    `path` either keeps its old content or holds the whole new one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, path: str) -> None:
    """Atomic full-precision CSV dump (see `atomic_write`)."""
    header = f"# n={dataset.state_dim} m={dataset.input_dim} role={dataset.role.value} seed={dataset.seed}"
    if dataset.space is not None:
        header += f" space={_space_to_header(dataset.space)}"
    rows = np.hstack([dataset.xs, dataset.us, dataset.x_nexts])
    with atomic_write(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for lo in range(0, len(rows), _SAVE_BLOCK):
            for piece in _format_rows(rows[lo:lo + _SAVE_BLOCK], line):
                fh.write(piece)


def load_dataset(path: str) -> Dataset:
    """Parse a dataset CSV; malformed or non-finite content fails with its line number."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise DatasetFormatError(f"{path}: line 1: bad or missing metadata header")
    n, m = int(match.group(1)), int(match.group(2))
    role_text, seed = match.group(3), int(match.group(4))
    try:
        role = Role(role_text)
    except ValueError:
        raise DatasetFormatError(f"{path}: line 1: unknown role {role_text!r}") from None
    space = None
    if match.group(5):
        try:
            space = _space_from_header(match.group(5))
        except (ValueError, GeometryError) as exc:
            raise DatasetFormatError(f"{path}: line 1: bad space metadata: {exc}") from exc
        if space.n != n + m:
            raise DatasetFormatError(
                f"{path}: line 1: space dimension {space.n} != n + m = {n + m}"
            )
    want = 2 * n + m
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != want:
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {want} fields, found {len(fields)}"
            )
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise DatasetFormatError(f"{path}: line {lineno}: non-numeric field") from None
        if not all(map(math.isfinite, row)):
            raise DatasetFormatError(f"{path}: line {lineno}: non-finite field")
        data.append(row)
    if not data:
        raise DatasetFormatError(f"{path}: no sample rows")
    arr = np.asarray(data, dtype=float)
    return Dataset(arr[:, :n], arr[:, n : n + m], arr[:, n + m :], seed, role, space)


BUILTIN_PLANTS = {RoomTemperaturePlant.name: RoomTemperaturePlant}


def make_plant(name_or_spec) -> BlackBoxSystem:
    """Resolve the plant declared in configuration: builtin name or command."""
    if isinstance(name_or_spec, str):
        if name_or_spec not in BUILTIN_PLANTS:
            raise CollectionError(f"unknown builtin plant {name_or_spec!r}")
        return BUILTIN_PLANTS[name_or_spec]()
    spec = dict(name_or_spec)
    return ExternalProcessPlant(
        spec["command"], state_dim=spec["state_dim"], input_dim=spec["input_dim"]
    )
