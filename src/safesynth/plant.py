"""Black-box plants, the built-in room-temperature system, and datasets.

Every caller queries a plant through `query` (a checked `step_batch`: at each x,
apply its u, observe the next state) and closes it with `with`.  The room model

    x(t+1) = x(t) + tau * (a_env * (T_env - x(t)) + a_heat * (T_heat - x(t)) * u(t))

is the single-room heater loop with an outside temperature of 15 degrees and
a 45-degree heater, sampled every 5 time units.  External plants are driven
over a line-oriented child-process protocol so user models stay opaque; a
child that exits mid-run is a `CollectionError`, never silently restarted.

Datasets are stored as text, one sample per line
``x1,...,xn,u1,...,um,x'1,...,x'n``, preceded by one metadata comment line
``# n=.. m=.. role=.. seed=.. space=..``.  Each value is the 16 lowercase hex
digits of its big-endian IEEE-754 binary64 bit pattern, so it reads back bit
for bit, -0.0 and subnormals included.
"""

import contextlib
import enum
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
    `with` closes the plant.
    """

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


_HEADER_RE = re.compile(r"^#\s*n=([1-9]\d*)\s+m=([1-9]\d*)\s+role=(scenario|validation)"
                        r"\s+seed=(-?\d+)(?:\s+space=(\S+))?\s*$")


def _space_to_header(space: SampleSpace) -> str:
    return ";".join(f"{lo:.17g},{hi:.17g}" for lo, hi in zip(space.box.lower, space.box.upper))


def _space_from_header(text: str) -> SampleSpace:
    return SampleSpace(Box.from_intervals([[float(v) for v in pair.split(",")] for pair in text.split(";")]))


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


_BLOCK = 4096  # rows encoded per write by save_dataset
_FIELD = 17  # bytes per value: 16 hex digits, then a comma or the line end
_HEX_BYTES = np.frombuffer(bytes(range(256)).hex().encode(), np.uint16)  # a byte's 2 hex digits
_HEX_DIGITS = b"0123456789abcdef"
_NIBBLES = np.full(256, 16, np.uint8)  # the value of each hex digit; 16 for any other byte
_NIBBLES[np.frombuffer(_HEX_DIGITS, np.uint8)] = range(16)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Atomic dump (see `atomic_write`): the header line, then one line per
    sample, each value the 16 hex digits of its big-endian binary64 bits."""
    header = f"# n={dataset.state_dim} m={dataset.input_dim} role={dataset.role.value} seed={dataset.seed}"
    if dataset.space is not None:
        header += f" space={_space_to_header(dataset.space)}"
    rows = np.hstack([dataset.xs, dataset.us, dataset.x_nexts])
    with atomic_write(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(rows), _BLOCK):
            block = rows[lo:lo + _BLOCK]
            text = np.empty((*block.shape, _FIELD), np.uint8)
            digits = _HEX_BYTES.take(block.astype(">f8", order="C").view(np.uint8))
            text[..., :16] = digits.view(np.uint8).reshape(*block.shape, 16)
            text[..., 16] = ord(",")
            text[:, -1, 16] = ord("\n")
            fh.write(text)


def _decode(path: str, body: bytes, want: int) -> np.ndarray:
    """The (rows, want) values of `body`, the lines after the header of the
    file at `path`; the first line that breaks the format fails, named."""
    rows, rest = divmod(len(body), want * _FIELD)
    if rows and not rest:
        text = np.frombuffer(body, np.uint8).reshape(rows, want, _FIELD)
        nibbles = _NIBBLES.take(text[..., :16])
        if ((text[:, :-1, 16] == ord(",")).all() and (text[:, -1, 16] == ord("\n")).all()
                and (nibbles < 16).all()):
            bits = (nibbles[..., 0::2] << 4) | nibbles[..., 1::2]  # (rows, want, 8) big-endian bytes
            return bits.view(">f8")[..., 0].astype(float)
    *lines, _ = body.split(b"\n")
    for lineno, line in enumerate(lines, start=2):
        fields = line.split(b",")
        if len(fields) != want:
            raise DatasetFormatError(f"{path}: line {lineno}: expected {want} fields, found {len(fields)}")
        for j, value in enumerate(fields, start=1):
            if len(value) != 16 or value.translate(None, _HEX_DIGITS):
                raise DatasetFormatError(
                    f"{path}: line {lineno}: field {j} is not 16 lowercase hex digits (a decimal file of "
                    "an earlier version loads with numpy.loadtxt(path, delimiter=','))")
    raise DatasetFormatError(f"{path}: line {len(lines) + 2}: no line end")  # a truncated last line


def load_dataset(path: str) -> Dataset:
    """Read a `save_dataset` file; a malformed header or row, or a value
    that is not finite, fails naming its line."""
    with open(path, "rb") as fh:
        match = _HEADER_RE.match(fh.readline().decode("ascii", "replace"))
        body = fh.read()
    if not match:
        raise DatasetFormatError(f"{path}: line 1: bad or missing metadata header")
    n, m, role, seed = int(match[1]), int(match[2]), Role(match[3]), int(match[4])
    space = None
    if match[5]:
        try:
            space = _space_from_header(match[5])
        except (ValueError, GeometryError) as exc:
            raise DatasetFormatError(f"{path}: line 1: bad space metadata: {exc}") from exc
        if space.n != n + m:
            raise DatasetFormatError(f"{path}: line 1: space dimension {space.n} != n + m = {n + m}")
    if not body:
        raise DatasetFormatError(f"{path}: no sample rows")
    values = _decode(path, body, 2 * n + m)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise DatasetFormatError(f"{path}: line {bad[0] + 2}: non-finite field")
    return Dataset(values[:, :n], values[:, n:n + m], values[:, n + m:], seed, role, space)


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
