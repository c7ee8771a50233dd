import os
import stat
import sys
import textwrap

import numpy as np
import pytest

from safesynth import plant as plant_module
from safesynth.errors import CollectionError, DatasetFormatError, GeometryError
from safesynth.plant import (
    BlackBoxSystem,
    Dataset,
    ExternalProcessPlant,
    Role,
    RoomTemperaturePlant,
    atomic_write,
    collect,
    load_dataset,
    make_plant,
    save_dataset,
    step_room,
)


def test_step_room_cooling():
    assert step_room(25.0, 0.0) == pytest.approx(24.6)


def test_step_room_full_heat():
    assert step_room(25.0, 1.0) == pytest.approx(24.96)


def test_step_room_ambient_fixed_point():
    assert step_room(15.0, 0.0) == 15.0


def test_collect_deterministic(room_space):
    plant = RoomTemperaturePlant()
    a = collect(plant, room_space, 50, 7)
    b = collect(plant, room_space, 50, 7)
    assert a == b
    c = collect(plant, room_space, 50, 8)
    assert a != c


def test_collect_singleton_replayable(room_space):
    plant = RoomTemperaturePlant()
    a = collect(plant, room_space, 1, 99)
    b = collect(plant, room_space, 1, 99)
    assert len(a) == 1 and a == b


def test_collect_next_state_matches_step(room_space):
    plant = RoomTemperaturePlant()
    data = collect(plant, room_space, 200, 21)
    for i in (0, 57, 199):
        assert data.x_nexts[i][0] == pytest.approx(
            step_room(data.xs[i][0], data.us[i][0]), abs=0.0
        )


def test_collect_rejects_zero_count(room_space):
    with pytest.raises(GeometryError):
        collect(RoomTemperaturePlant(), room_space, 0, 1)


def test_dataset_roundtrip(tmp_path, room_space):
    plant = RoomTemperaturePlant()
    data = collect(plant, room_space, 120, 42, Role.VALIDATION)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    loaded = load_dataset(str(path))
    assert loaded == data
    assert loaded.role is Role.VALIDATION
    assert loaded.seed == 42
    assert loaded.space is not None and loaded.space.n == room_space.n
    assert np.array_equal(loaded.space.box.lower_arr, room_space.box.lower_arr)


def test_dataset_values_round_trip_bit_for_bit(tmp_path, monkeypatch):
    # blocks of 7 rows: the values cross block boundaries, and the last
    # block is short
    monkeypatch.setattr(plant_module, "_BLOCK", 7)
    edges = np.array([1e-4, 1e16, 1e17])
    special = np.array([
        0.0, -0.0, 5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
        *edges, *np.nextafter(edges, 0.0), *np.nextafter(edges, np.inf),
    ])
    bits = np.random.default_rng(20).integers(0, 2**64, 60, dtype=np.uint64)
    random = bits.view(np.float64)
    values = np.concatenate([special, -special, random[np.isfinite(random)]])
    values = np.concatenate([values, np.zeros(-len(values) % 15)])
    # one state variable, and two in column-major blocks (as `collect` makes them)
    for state_dim, order in [(1, "C"), (2, "F")]:
        rows = values.reshape(-1, 2 * state_dim + 1)
        assert len(rows) % 7
        blocks = [np.array(rows[:, cols], order=order)
                  for cols in np.split(np.arange(rows.shape[1]), [state_dim, state_dim + 1])]
        path = tmp_path / f"data{state_dim}.csv"
        save_dataset(Dataset(*blocks, 5, Role.SCENARIO), str(path))
        loaded = load_dataset(str(path))
        loaded_rows = np.hstack([loaded.xs, loaded.us, loaded.x_nexts])
        assert loaded_rows.dtype == np.float64
        assert np.array_equal(loaded_rows.view(np.uint64), rows.view(np.uint64))
        first = path.read_text().splitlines()[1].split(",")
        assert first == [f"{b:016x}" for b in rows[0].view(np.uint64)]


def test_atomic_write_keeps_umask_permissions_and_bytes(tmp_path):
    path = tmp_path / "out" / "file.csv"
    old_umask = os.umask(0o022)
    try:
        with atomic_write(str(path), "wb") as fh:
            fh.write(b"a,b\r\n1,2\n")
    finally:
        os.umask(old_umask)
    assert path.read_bytes() == b"a,b\r\n1,2\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


@pytest.mark.parametrize("existing", [None, "old\n"], ids=["new", "replace"])
def test_atomic_write_failure_leaves_no_file(tmp_path, existing):
    path = tmp_path / "report.json"
    if existing is not None:
        path.write_text(existing)
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("formatting failed")
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["report.json"])
    if existing is not None:
        assert path.read_text() == existing


def test_dataset_header_format(tmp_path, room_space):
    data = collect(RoomTemperaturePlant(), room_space, 3, 42)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    header = path.read_text().splitlines()[0]
    assert header.startswith("# n=1 m=1 role=scenario seed=42")


def test_dataset_truncated_row_rejected(tmp_path, room_space):
    data = collect(RoomTemperaturePlant(), room_space, 5, 1)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]  # drop one field
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 4"):
        load_dataset(str(path))


def test_dataset_missing_header_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,0.5,1.1\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(str(path))


def test_dataset_non_numeric_rejected(tmp_path, room_space):
    data = collect(RoomTemperaturePlant(), room_space, 2, 1)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    text = path.read_text().replace(text_first_float(path), "abc", 1)
    path.write_text(text)
    with pytest.raises(DatasetFormatError):
        load_dataset(str(path))


@pytest.mark.parametrize("value", [
    "7ff8000000000000", "7ff0000000000000", "fff0000000000000", "fff0000000000001",
], ids=["nan", "inf", "-inf", "NaN"])
def test_dataset_non_finite_field_rejected(tmp_path, room_space, value):
    # the bits of a quiet NaN, +inf, -inf and a signalling NaN
    data = collect(RoomTemperaturePlant(), room_space, 3, 1)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[1] = value
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 3: non-finite"):
        load_dataset(str(path))


def text_first_float(path):
    return path.read_text().splitlines()[1].split(",")[0]


@pytest.mark.parametrize("field", ["3ff00000000000zz", "3FF0000000000000", "3ff000000000000",
                                   "3ff00000000000000"], ids=["not-hex", "upper-case", "short", "long"])
def test_dataset_field_that_is_not_16_hex_digits_rejected(tmp_path, room_space, field):
    data = collect(RoomTemperaturePlant(), room_space, 3, 1)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    lines = path.read_text().splitlines()
    lines[3] = f"{lines[3].rsplit(',', 1)[0]},{field}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="line 4: field 3 is not 16 lowercase hex digits"):
        load_dataset(str(path))


def test_decimal_dataset_of_an_earlier_version_names_line_2(tmp_path, room_space):
    data = collect(RoomTemperaturePlant(), room_space, 3, 1)
    rows = np.hstack([data.xs, data.us, data.x_nexts])
    path = tmp_path / "data.csv"
    path.write_text("# n=1 m=1 role=scenario seed=1\n"
                    + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    with pytest.raises(DatasetFormatError, match=r"line 2: field 1 .*numpy\.loadtxt"):
        load_dataset(str(path))
    assert np.array_equal(np.loadtxt(path, delimiter=","), rows)


def test_dataset_without_its_last_line_end_rejected(tmp_path, room_space):
    data = collect(RoomTemperaturePlant(), room_space, 3, 1)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(DatasetFormatError, match="line 4: no line end"):
        load_dataset(str(path))


EXTERNAL_PLANT_SCRIPT = textwrap.dedent(
    """
    import sys
    for line in sys.stdin:
        vals = [float(v) for v in line.split()]
        x, u = vals[0], vals[1]
        out = x + 5.0 * (8e-3 * (15.0 - x) + 3.6e-3 * (45.0 - x) * u)
        print(f"{out:.17g}", flush=True)
    """
)


def test_external_process_plant_matches_builtin(tmp_path, room_space):
    script = tmp_path / "plant.py"
    script.write_text(EXTERNAL_PLANT_SCRIPT)
    with ExternalProcessPlant([sys.executable, str(script)], 1, 1) as ext:
        data_ext = collect(ext, room_space, 25, 5)
    data_builtin = collect(RoomTemperaturePlant(), room_space, 25, 5)
    assert np.allclose(data_ext.x_nexts, data_builtin.x_nexts, rtol=0, atol=1e-15)


def test_external_process_plant_failure_names_index(tmp_path, room_space):
    script = tmp_path / "bad_plant.py"
    script.write_text("import sys\nsys.stdin.readline()\n")  # dies after one query
    with ExternalProcessPlant([sys.executable, str(script)], 1, 1) as ext:
        with pytest.raises(CollectionError, match="sample \\d+"):
            collect(ext, room_space, 10, 5)


def test_external_child_that_exits_mid_run_is_not_restarted(tmp_path):
    # a dataset must come from one child: the one that answered first
    script = tmp_path / "three_answers.py"
    script.write_text("import sys\nfor _ in range(3):\n"
                      "    print(sys.stdin.readline().split()[0], flush=True)\n")
    with ExternalProcessPlant([sys.executable, str(script)], 1, 1) as ext:
        for _ in range(3):
            ext.step(np.array([20.0]), np.array([0.5]))
        ext._proc.wait(timeout=10)
        with pytest.raises(CollectionError, match="exited with status 0"):
            ext.step(np.array([20.0]), np.array([0.5]))


def test_with_make_plant_ends_the_external_child(tmp_path):
    script = tmp_path / "plant.py"
    script.write_text(EXTERNAL_PLANT_SCRIPT)
    spec = {"command": [sys.executable, str(script)], "state_dim": 1, "input_dim": 1}
    with make_plant(spec) as ext:
        ext.step(np.array([20.0]), np.array([0.5]))
        child = ext._proc
        assert child.poll() is None
    assert child.poll() is not None


class _BatchOnlyPlant(BlackBoxSystem):
    """A plant with its own `step_batch`, which counts its calls; it has no
    `step`."""

    def __init__(self):
        super().__init__(state_dim=1, input_dim=1)
        self.batches = 0

    def step_batch(self, xs, us):
        self.batches += 1
        return step_room(xs, us)


def test_collect_queries_a_non_reentrant_plant_through_its_step_batch(room_space):
    plant = _BatchOnlyPlant()
    data = collect(plant, room_space, 100, 3)
    assert plant.batches == 1
    assert np.array_equal(data.x_nexts, step_room(data.xs, data.us))


class _FaultyPlant(BlackBoxSystem):
    """A per-sample plant whose query `fault_at` raises or returns NaN."""

    def __init__(self, fault_at: int, fault: str):
        super().__init__(state_dim=1, input_dim=1)
        self.fault_at, self.fault, self.queries = fault_at, fault, 0

    def step(self, x, u):
        self.queries += 1
        if self.queries - 1 == self.fault_at:
            if self.fault == "raise":
                raise CollectionError("simulator crashed")
            return np.array([np.nan])
        return np.atleast_1d(step_room(x[0], u[0]))


@pytest.mark.parametrize("fault, message", [
    ("raise", "^sample 7: simulator crashed$"),
    ("nan", "^simulator returned non-finite state at sample 7$"),
])
def test_collect_stops_a_per_sample_plant_at_its_first_fault(room_space, fault, message):
    plant = _FaultyPlant(7, fault)
    with pytest.raises(CollectionError, match=message):
        collect(plant, room_space, 20, 1)
    assert plant.queries == 8


class _ScalarPlant(BlackBoxSystem):
    """A one-variable plant whose `step` answers with a bare float."""

    def __init__(self):
        super().__init__(state_dim=1, input_dim=1)

    def step(self, x, u):
        return float(step_room(x[0], u[0]))


def test_collect_takes_a_scalar_answer_for_one_state_variable(room_space):
    data = collect(_ScalarPlant(), room_space, 20, 1)
    assert np.array_equal(data.x_nexts, step_room(data.xs, data.us))


def test_make_plant_rejects_unknown_name():
    with pytest.raises(CollectionError):
        make_plant("fusion-reactor")


def test_dataset_dimension_checks():
    with pytest.raises(DatasetFormatError):
        Dataset(np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((3, 1)), 0, Role.SCENARIO)
