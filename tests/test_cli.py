import json
import os
import stat
import sys
import textwrap
import time

import pytest

from safesynth import cli, pipeline
from safesynth.cli import EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_RUNTIME, main
from safesynth.errors import SafesynthError
from safesynth.pipeline import bundled_room_config_path, room_casestudy_config, validate_config
from safesynth.plant import Role, collect, load_dataset, make_plant
from safesynth.scp import CertificateValues

def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def small_raw(**overrides):
    raw = room_casestudy_config(n_scenario=1500, n_validation=700,
                                seed_scenario=11, seed_validation=12)
    raw["grid_points"] = {"initial": 401, "unsafe": 201, "state": 1601}
    raw.update(overrides)
    return raw


def test_bounds_kappa_prints_reference_value(capsys):
    rc = main([
        "bounds", "kappa", "--N", "140000", "--N0", "70000",
        "--Nstar", "1", "--R", "0", "--beta", "0.05",
    ])
    out = capsys.readouterr().out.strip()
    assert rc == EXIT_OK
    assert abs(float(out) - 0.9999723) <= 1e-6


def test_bounds_prior_prints_minimal_count(capsys):
    rc = main(["bounds", "prior", "--eps", "0.1", "--beta", "0.5", "--dim", "0"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "7"


def test_bounds_domain_error_exit_code(capsys):
    rc = main(["bounds", "prior", "--eps", "1.5", "--beta", "0.5", "--dim", "0"])
    assert rc == 4  # runtime failure: domain violation


def test_bounds_plan_table(capsys):
    rc = main(["bounds", "plan", "--khat", "-0.149", "--Nstar", "1",
               "--L", "11.63", "--beta", "0.05", "--ndim", "2", "--volume", "4",
               "--start-N", "140000", "--start-N0", "70000"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "chosen: N=140000 N0=70000" in out


@pytest.mark.parametrize("flags, flag", [
    (["--ndim", "0", "--volume", "4"], "--ndim"),
    (["--ndim", "2", "--volume", "-1"], "--volume"),
    (["--ndim", "2", "--volume", "0"], "--volume"),
], ids=["ndim-zero", "volume-negative", "volume-zero"])
def test_bounds_plan_rejects_a_degenerate_space(capsys, flags, flag):
    # --ndim 0 divided by zero and --volume -1 made a complex side (exit 1)
    rc = main(["bounds", "plan", "--khat", "-0.149", "--L", "11.63", "--beta", "0.05", *flags])
    assert rc == EXIT_RUNTIME
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["prior", "--eps", "0.1", "--beta", "0.5", "--dim", str(10**30)], "dim needs an array"),
    (["kappa", "--N", str(10**30), "--N0", "100", "--Nstar", "1", "--R", "0", "--beta", "0.05"],
     "scenario count needs an array"),
    (["kappa", "--N", "100", "--N0", str(10**30), "--Nstar", "1", "--R", "0", "--beta", "0.05"],
     "validation count needs an array"),
], ids=["prior-dim", "kappa-N", "kappa-N0"])
def test_bounds_count_past_the_index_range_is_runtime_exit(capsys, argv, message):
    # `prior` raised NumPy's ValueError out of `main` (exit 1); `kappa` would
    # build the kappa series a million terms at a time until memory ran out
    start = time.perf_counter()
    assert main(["bounds", *argv]) == EXIT_RUNTIME
    assert time.perf_counter() - start < 5.0
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("growth", [1e300, 1e308])
@pytest.mark.parametrize("command", ["plan", "bounds plan"])
def test_planner_growth_past_the_index_range_is_runtime_exit(tmp_path, capsys, command, growth):
    # 1e308 raised OverflowError from math.ceil (exit 1); 1e300 handed
    # N = 1e302 to posterior_g, whose cost is linear in N
    if command == "plan":
        auto = {"khat": -0.149, "start_scenario": 100, "start_validation": 50, "growth": growth}
        argv = ["plan", "--config", write_config(tmp_path, small_raw(samples={"auto": auto}))]
    else:
        argv = ["bounds", "plan", "--khat", "-0.149", "--L", "11.63", "--beta", "0.05",
                "--ndim", "2", "--volume", "4", "--start-N", "100", "--start-N0", "50",
                "--growth", str(growth)]
    start = time.perf_counter()
    assert main(argv) == EXIT_RUNTIME
    assert time.perf_counter() - start < 5.0
    assert f"growth {growth}: round 2's N needs an array" in capsys.readouterr().err


def test_usage_error_is_config_exit(capsys):
    rc = main(["bounds", "kappa", "--N", "100"])
    assert rc == EXIT_CONFIG


def test_synthesize_inconclusive_run(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw(samples={"scenario": 200, "validation": 100}))
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs"),
               "--no-datasets"])
    assert rc == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "verdict: inconclusive" in out
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    report = json.loads((run_dirs[0] / "report.json").read_text())
    assert report["verdict"] == "inconclusive"
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
    assert manifest["config_sha256"] == report["config_sha256"]
    assert run_dirs[0].name.endswith("-" + report["config_sha256"][:10])
    assert manifest["seeds"] == {"scenario": 11, "validation": 12}


def test_synthesize_certified_exit_zero(tmp_path, capsys):
    raw = small_raw(lipschitz=1.0, samples={"scenario": 3000, "validation": 1500})
    cfg = write_config(tmp_path, raw)
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == EXIT_OK
    run_dir = next((tmp_path / "runs").iterdir())
    report = json.loads((run_dir / "report.json").read_text())
    assert report["verdict"] == "certified"
    assert report["margin"] <= 0
    # datasets written by default
    assert (run_dir / "scenario.csv").exists()
    assert (run_dir / "validation.csv").exists()


def test_synthesize_config_error_exit(tmp_path, capsys):
    raw = small_raw()
    raw["initial_set"] = [[[22.6, 24.5]]]  # overlaps the unsafe band
    cfg = write_config(tmp_path, raw)
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "disjoint" in err


@pytest.mark.parametrize("case, message", [
    ("input_box", "input_box axis 0"),
    ("state_space", "state_space axis 1"),
    ("tiny-widths", "state_space and input_box"),
], ids=["input_box", "state_space", "tiny-widths"])
def test_zero_width_sample_box_is_config_exit(tmp_path, capsys, case, message):
    # the sample space would have no volume: this ended as a runtime
    # failure (exit 4) after the run directory was made
    if case == "input_box":
        raw = small_raw(input_box=[[0.0, 0.0]])
    elif case == "state_space":
        raw = two_state_raw(tmp_path)
        raw["state_space"] = [[-1, 1], [0, 0]]
        raw["initial_set"] = [[[-0.2, 0.2], [0, 0]]]
        raw["unsafe_set"] = [[[0.8, 1.0], [0, 0]], [[-1.0, -0.8], [0, 0]]]
    else:  # each width is positive, their product underflows to 0
        raw = small_raw(state_space=[[0.0, 1e-200]], input_box=[[0.0, 1e-200]])
    rc = main(["synthesize", "--config", write_config(tmp_path, raw),
               "--out", str(tmp_path / "runs")])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_unknown_config_key_exit(tmp_path, capsys):
    raw = small_raw()
    raw["typo_key"] = 1
    cfg = write_config(tmp_path, raw)
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("verify", '{"method": "posterior"}', "lacks required key 'verdict'"),
        ("verify", "[1, 2]", "must be a JSON object"),
        ("verify", "not json", "is not valid JSON"),
        ("synthesize", None, "cannot read configuration"),
        ("verify", json.dumps({
            "method": "posterior", "verdict": "certified", "certificate": 5,
            "n_scenario": 1, "lipschitz": 1.0, "beta": 0.05, "seeds": {}, "solver": {},
            "timings": {}, "config": {}, "config_sha256": "",
        }), "has a malformed field"),
    ],
    ids=["report-missing-key", "report-not-object", "report-not-json", "config-missing",
         "report-certificate-not-object"],
)
def test_bad_input_file_is_config_exit(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    flag = "--report" if command == "verify" else "--config"
    rc = main([command, flag, str(path), "--out", str(tmp_path / "runs")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and message in err


# configuration edit -> the key the error names
MALFORMED_SHAPES = {
    "controller_degrees-not-array": ({"controller_degrees": 4}, "controller_degrees"),
    "controller_bounds-not-array": ({"coeff_bounds": {"barrier": 1.0, "controller": 5}},
                                    "coeff_bounds.controller"),
    "initial_set-flat": ({"initial_set": [1, 2]}, "initial_set"),
    "state_space-strings": ({"state_space": [["a", "b"]]}, "state_space"),
    "controller_degree-negative": ({"controller_degrees": [-2]}, "controller_degrees"),
    "barrier_degree-negative": ({"barrier_degree": -1}, "barrier_degree"),
    "barrier_bound-negative": ({"coeff_bounds": {"barrier": -1, "controller": [0.1]}},
                               "coeff_bounds.barrier"),
    # sizes no array can index: each raised OverflowError or NumPy's
    # "Maximum allowed dimension/size exceeded" out of `main` (exit 1)
    "barrier_degree-1e30": ({"barrier_degree": 10**30}, "barrier_degree"),
    "controller_degree-1e30": ({"controller_degrees": [10**30]}, "controller_degrees[0]"),
    "samples-1e30": ({"samples": {"scenario": 10**30, "validation": 100}}, "samples.scenario"),
    "grid_points-1e30": ({"grid_points": {"initial": 401, "unsafe": 201, "state": 10**30}},
                         "grid_points.state"),
}


@pytest.mark.parametrize("command", ["synthesize", "verify"])
@pytest.mark.parametrize("overrides, key", MALFORMED_SHAPES.values(), ids=MALFORMED_SHAPES)
def test_malformed_config_shape_is_config_exit(tmp_path, capsys, command, overrides, key):
    # a configuration, or a report's echoed one, of the wrong shape or size:
    # these ended in tracebacks (exit 1) or as runtime failures (exit 4)
    raw = small_raw(**overrides)
    if command == "synthesize":
        path = write_config(tmp_path, raw)
    else:
        path = write_report(tmp_path, raw, zero_certificate())
    flag = "--report" if command == "verify" else "--config"
    assert main([command, flag, str(path), "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and f" {key} " in err


def zero_certificate() -> dict:
    """The all-zero certificate of `small_raw()`'s template, as a report holds it."""
    layout = validate_config(small_raw()).layout()
    return CertificateValues.from_vector(layout, [0.0] * layout.n_total).to_dict()


def write_report(tmp_path, raw, certificate) -> str:
    """A report of a certified run of configuration `raw` with `certificate`."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps({
        "method": "posterior", "verdict": "certified", "certificate": certificate,
        "n_scenario": 1, "lipschitz": 1.0, "beta": 0.05, "seeds": {}, "solver": {},
        "timings": {}, "config": raw, "config_sha256": "",
    }))
    return str(path)


def _set(path, value):
    """An edit of a certificate dict that sets the entry at `path` to `value`."""
    def edit(cert):
        *parents, key = path
        for name in parents:
            cert = cert[name]
        cert[key] = value
    return edit


# certificate edit -> the field the error names; each exited 4 or 2
MALFORMED_CERTIFICATES = {
    "coeffs-short-of-own-basis": (lambda c: c["barrier"]["coeffs"].pop(),
                                  "malformed certificate: 4 coefficients"),
    "extra-controller": (lambda c: c["controllers"].append(c["controllers"][0]),
                         "2 controllers, the configuration's template has 1"),
    "barrier-nvars": (_set(["barrier"], {"nvars": 2, "degree": 4, "coeffs": [0.0] * 15}),
                      "barrier.nvars is 2, the configuration's template has 1"),
    "barrier-degree": (_set(["barrier"], {"nvars": 1, "degree": 2, "coeffs": [0.0] * 3}),
                       "barrier.degree is 2, the configuration's template has 4"),
    # each raised OverflowError out of `main` or built 10**18 terms: the
    # template refuses them before any basis is built
    "barrier-degree-1e308": (_set(["barrier", "degree"], 1e308), "barrier.degree is 1e+308"),
    "barrier-degree-infinity": (_set(["barrier", "degree"], float("inf")),
                                "barrier.degree is inf"),
    "controller-degree-1e30": (_set(["controllers", 0, "degree"], 10**30),
                               f"controllers[0].degree is {10**30}"),
    "barrier-nvars-3-degree-1e6": (_set(["barrier"], {"nvars": 3, "degree": 10**6,
                                                      "coeffs": [0.0]}), "barrier.nvars is 3"),
    "controller-nan-coefficient": (_set(["controllers", 0, "coeffs", 1], float("nan")),
                                   "controllers[0] has a non-finite value"),
    "barrier-inf-coefficient": (_set(["barrier", "coeffs", 0], float("inf")),
                                "barrier has a non-finite value"),
    "objective-nan": (_set(["objective"], float("nan")), "objective has a non-finite value"),
    "unsafe_floor-inf": (_set(["unsafe_floor"], float("-inf")),
                         "unsafe_floor has a non-finite value"),
}


@pytest.mark.parametrize("edit, field", MALFORMED_CERTIFICATES.values(), ids=MALFORMED_CERTIFICATES)
def test_verify_malformed_certificate_is_config_exit(tmp_path, capsys, edit, field):
    certificate = zero_certificate()
    edit(certificate)
    path = write_report(tmp_path, small_raw(), certificate)
    start = time.perf_counter()
    rc = main(["verify", "--report", path, "--region-points", "21", "--step-points", "11",
               "--trajectory-grid", "5"])
    assert time.perf_counter() - start < 5.0
    assert rc == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("collect", "--count", "0"),
    ("verify", "--region-points", "1"),
    ("verify", "--step-points", "1"),
    ("verify", "--trajectory-grid", "0"),
    # no array can hold them: NumPy's ValueError ended `main` (exit 1)
    ("collect", "--count", str(10**30)),
    ("verify", "--region-points", str(10**30)),
    ("verify", "--step-points", str(10**30)),
    ("verify", "--trajectory-grid", str(10**30)),
])
def test_out_of_range_usage_flag_is_config_exit(tmp_path, capsys, command, flag, value):
    # the ones below range ended as a GeometryError from `collect` or
    # `box_grid` (exit 4)
    if command == "collect":
        argv = ["--config", write_config(tmp_path, small_raw()), "--count", "5",
                "--output", str(tmp_path / "d.csv")]
    else:
        argv = ["--report", write_report(tmp_path, small_raw(), zero_certificate())]
    assert main([command, *argv, flag, value]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "verify.json").exists()


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.mark.parametrize("overrides, exit_code, cause", [
    ({"lipschitz": 1.0, "samples": {"scenario": 3000, "validation": 1500}}, EXIT_OK, None),
    ({"barrier_degree": 0, "controller_degrees": [0]}, EXIT_INCONCLUSIVE, "lp_infeasible"),
    ({"tolerances": {"max_iterations": 2}}, EXIT_INCONCLUSIVE, "lp_iteration-limit"),
    # one sample, active, and one violated validation sample: no root
    ({"samples": {"scenario": 1, "validation": 1}}, EXIT_INCONCLUSIVE, "kappa_vacuous"),
], ids=["certified", "lp_infeasible", "lp_iteration-limit", "kappa_vacuous"])
def test_report_is_strict_json(tmp_path, capsys, overrides, exit_code, cause):
    # an infeasible solve's max_violation was written as the literal Infinity
    cfg = write_config(tmp_path, small_raw(**overrides))
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs"), "--no-datasets"])
    assert rc == exit_code
    text = next((tmp_path / "runs").iterdir()).joinpath("report.json").read_text()
    report = json.loads(text, parse_constant=_no_constant)
    assert report["failure_cause"] == cause
    if cause == "lp_infeasible":
        assert report["solver"]["max_violation"] is None
    if cause == "lp_iteration-limit":
        # the solve's record survives the SolverError exit
        assert report["solver"]["iterations"] == 2
        assert report["solver"]["error"] == "iteration limit 2 reached in phase 1"


def test_collect_command(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    out_file = tmp_path / "data.csv"
    rc = main(["collect", "--config", cfg, "--count", "25",
               "--role", "validation", "--seed", "9", "--output", str(out_file)])
    assert rc == EXIT_OK
    data = load_dataset(str(out_file))
    assert len(data) == 25
    assert data.seed == 9


def test_collect_seed_is_the_validation_dataset_seed(tmp_path, capsys):
    # the bundled configuration's validation seed is 9090: `--seed` must not
    # become the scenario seed as well, which would make the two collide
    out_file = tmp_path / "validation.csv"
    rc = main(["collect", "--config", bundled_room_config_path(), "--count", "10",
               "--role", "validation", "--seed", "9090", "--output", str(out_file)])
    assert rc == EXIT_OK
    assert out_file.read_text().splitlines()[0].split()[3:5] == ["role=validation", "seed=9090"]


@pytest.mark.parametrize("overrides, argv, key", [
    ({"seeds": {"scenario": -1, "validation": 12}}, ["synthesize"], "seeds.scenario"),
    ({}, ["synthesize", "--seed-validation", "-2"], "seeds.validation"),
    ({}, ["collect", "--seed", "-3", "--count", "5", "--output", "data.csv"], "--seed"),
], ids=["config", "override", "collect"])
def test_negative_seed_is_config_exit(tmp_path, capsys, monkeypatch, overrides, argv, key):
    # PCG64 raised an uncaught ValueError on a negative seed (exit 1)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, small_raw(**overrides))
    assert main([*argv, "--config", cfg]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv")) and not (tmp_path / "runs").exists()


# the override flags that write into a section, and each subcommand that takes them
_SECTION_FLAGS = {"--seed": "seeds", "--seed-validation": "seeds",
                  "--N": "samples", "--N0": "samples"}
_FLAG_COMMANDS = {
    "synthesize": ("--seed", "--seed-validation", "--N", "--N0"),
    "prior-synthesize": ("--seed", "--seed-validation", "--N"),
    "collect": ("--seed-validation",),
    "plan": ("--seed", "--seed-validation"),
    "casestudy": ("--seed", "--seed-validation", "--N", "--N0"),
    "repeat": ("--seed", "--seed-validation", "--N", "--N0"),
}


def _command_argv(command, cfg, tmp_path, monkeypatch):
    """The arguments `command` needs besides its override flags, run on `cfg`."""
    out = str(tmp_path / "runs")
    if command == "casestudy":
        # the bundled file is the parser's default configuration
        monkeypatch.setattr(pipeline, "bundled_room_config_path", lambda: cfg)
        monkeypatch.setattr(cli, "bundled_room_config_path", lambda: cfg, raising=False)
        return ["--out", out]
    return {
        "synthesize": ["--config", cfg, "--out", out],
        "prior-synthesize": ["--config", cfg, "--eps", "0.2", "--out", out],
        "collect": ["--config", cfg, "--count", "5", "--output", str(tmp_path / "d.csv")],
        "plan": ["--config", cfg, "--out", out],
        "repeat": ["--config", cfg, "--runs", "1", "--out", out],
    }[command]


@pytest.mark.parametrize("shape", [[1, 2], "x", 5], ids=["array", "string", "number"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _FLAG_COMMANDS.items() for flag in flags])
def test_override_into_non_object_section_is_config_exit(
        tmp_path, capsys, monkeypatch, command, flag, shape):
    # each raised a TypeError or ValueError out of the override (exit 1)
    section = _SECTION_FLAGS[flag]
    cfg = write_config(tmp_path, small_raw(**{section: shape}))
    argv = _command_argv(command, cfg, tmp_path, monkeypatch)
    assert main([command, *argv, flag, "7"]) == EXIT_CONFIG
    assert f"{section} must be an object" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists() and not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("sizes, flags", [
    ({"n_scenario": 3000, "seed_validation": 8}, ["--N", "3000", "--seed-validation", "8"]),
    ({"n_validation": 1500, "seed_scenario": 7}, ["--N0", "1500", "--seed", "7"]),
    ({"n_scenario": 3000, "n_validation": 1500, "seed_scenario": 7, "seed_validation": 8},
     ["--N", "3000", "--N0", "1500", "--seed", "7", "--seed-validation", "8"]),
])
@pytest.mark.parametrize("command", ["casestudy", "synthesize"])
def test_override_flags_echo_as_room_casestudy_config(tmp_path, monkeypatch, command, sizes, flags):
    def stop(config, **kwargs):
        raise SafesynthError("stopped after the manifest")

    monkeypatch.setattr(cli, "synthesize", stop)
    argv = ["--out", str(tmp_path / "runs")]
    if command == "synthesize":
        argv += ["--config", bundled_room_config_path()]
    assert main([command, *argv, *flags]) == EXIT_RUNTIME
    (run_dir,) = (tmp_path / "runs").iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    config = validate_config(room_casestudy_config(**sizes))
    assert manifest["config"] == config.raw
    assert list(manifest["config"]) == list(config.raw)
    assert manifest["config_sha256"] == config.sha256()


def test_repeat_writes_manifest_before_a_failing_pilot(tmp_path, capsys):
    # the pilot collection of an `auto` configuration fails: exit 4, and the
    # manifest that reproduces the run is there
    raw = small_raw(
        plant={"command": [sys.executable, "-c", "pass"], "state_dim": 1, "input_dim": 1},
        samples={"auto": {"start_scenario": 100, "start_validation": 50}},
    )
    cfg = write_config(tmp_path, raw)
    assert main(["repeat", "--config", cfg, "--runs", "2", "--out", str(tmp_path / "runs")]) \
        == EXIT_RUNTIME
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["runs"] == 2 and manifest["config"] == validate_config(raw).raw


def test_failing_dataset_writer_exits_runtime_without_report(tmp_path, capsys, monkeypatch):
    def failing_save(dataset, path):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "save_dataset", failing_save)
    cfg = write_config(tmp_path, small_raw(samples={"scenario": 300, "validation": 150}))
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == EXIT_RUNTIME
    assert "no space left on device" in capsys.readouterr().err
    run_dir = next((tmp_path / "runs").iterdir())
    assert not (run_dir / "report.json").exists()
    assert not list(run_dir.glob("*.tmp"))


def test_run_datasets_load_equal_to_collect_at_the_report_seeds(tmp_path, capsys):
    raw = small_raw(lipschitz=1.0, samples={"scenario": 3000, "validation": 1500})
    cfg = write_config(tmp_path, raw)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_OK
    run_dir = next((tmp_path / "runs").iterdir())
    report = json.loads((run_dir / "report.json").read_text())
    config = validate_config(raw)
    with make_plant(config.plant_spec) as plant:
        for role, n in [(Role.SCENARIO, report["n_scenario"]),
                        (Role.VALIDATION, report["n_validation"])]:
            seed = report["seeds"][role.value]
            run_file = run_dir / f"{role.value}.csv"
            assert load_dataset(str(run_file)) == collect(plant, config.space(), n, seed, role)
            # `collect --output` writes the same bytes for the same samples
            out = tmp_path / f"collected-{role.value}.csv"
            assert main(["collect", "--config", cfg, "--count", str(n), "--role", role.value,
                         "--seed", str(seed), "--output", str(out)]) == EXIT_OK
            assert out.read_bytes() == run_file.read_bytes()


def test_seed_override_changes_report(tmp_path):
    cfg = write_config(tmp_path, small_raw(samples={"scenario": 300, "validation": 150}))
    rc1 = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "r1"),
                "--no-datasets"])
    rc2 = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "r2"),
                "--seed", "777", "--no-datasets"])
    rep1 = json.loads(next((tmp_path / "r1").iterdir()).joinpath("report.json").read_text())
    rep2 = json.loads(next((tmp_path / "r2").iterdir()).joinpath("report.json").read_text())
    assert rep1["seeds"]["scenario"] == 11
    assert rep2["seeds"]["scenario"] == 777
    assert rep1["margin_objective"] != rep2["margin_objective"]


def test_no_tighten_flag(tmp_path):
    cfg = write_config(tmp_path, small_raw(
        lipschitz=1.0, samples={"scenario": 3000, "validation": 1500}
    ))
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs"),
               "--no-tighten", "--no-datasets"])
    assert rc == EXIT_INCONCLUSIVE
    report = json.loads(next((tmp_path / "runs").iterdir()).joinpath("report.json").read_text())
    assert report["failure_cause"] == "tightening_disabled"


def test_verify_command_on_certified_report(tmp_path, capsys):
    raw = small_raw(lipschitz=1.0, samples={"scenario": 3000, "validation": 1500})
    cfg = write_config(tmp_path, raw)
    rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs"),
               "--no-datasets"])
    assert rc == EXIT_OK
    run_dir = next((tmp_path / "runs").iterdir())
    rc = main(["verify", "--report", str(run_dir / "report.json"),
               "--out", str(run_dir), "--region-points", "401",
               "--step-points", "61", "--trajectory-grid", "101"])
    assert rc == EXIT_OK
    payload = json.loads((run_dir / "verify.json").read_text())
    assert payload["safety"]["fraction_safe"] == 1.0
    assert payload["conditions"]["passed"] is True
    assert (run_dir / "barrier.csv").exists()
    assert (run_dir / "g3_surface.csv").exists()


TWO_STATE_PLANT_SCRIPT = textwrap.dedent(
    """
    import sys
    for line in sys.stdin:
        x1, x2, u = (float(v) for v in line.split())
        print(f"{0.9 * x1 + 0.05 * u:.17g} {0.9 * x2:.17g}", flush=True)
    """
)


def two_state_raw(tmp_path):
    """A 2,000/1,000-sample run of a 2-state child-process plant that certifies."""
    script = tmp_path / "plant2.py"
    script.write_text(TWO_STATE_PLANT_SCRIPT)
    return {
        "plant": {"command": [sys.executable, str(script)], "state_dim": 2, "input_dim": 1},
        "state_space": [[-1, 1], [-1, 1]],
        "input_box": [[0, 1]],
        "initial_set": [[[-0.2, 0.2], [-0.2, 0.2]]],
        "unsafe_set": [[[0.8, 1.0], [-1, 1]], [[-1.0, -0.8], [-1, 1]]],
        "horizon": 3,
        "barrier_degree": 2,
        "controller_degrees": [1],
        "beta": 0.05,
        "lipschitz": 0.5,
        "samples": {"scenario": 2000, "validation": 1000},
        "grid_points": {"initial": 21, "unsafe": 21, "state": 41},
        "coeff_bounds": {"barrier": 1.0, "controller": [1.0]},
        "seeds": {"scenario": 1, "validation": 2},
    }


def test_verify_two_state_certificate_writes_report_without_plots(tmp_path, capsys):
    # the plots are 1-D only, but verify.json is written for any dimension
    cfg = write_config(tmp_path, two_state_raw(tmp_path))
    old_umask = os.umask(0o027)
    try:
        rc = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert rc == EXIT_OK
        run_dir = next((tmp_path / "runs").iterdir())
        rc = main(["verify", "--report", str(run_dir / "report.json"),
                   "--region-points", "21", "--step-points", "11", "--trajectory-grid", "5"])
    finally:
        os.umask(old_umask)
    assert rc in (EXIT_OK, EXIT_INCONCLUSIVE)
    payload = json.loads((run_dir / "verify.json").read_text())
    assert payload["plots"] == {}
    assert set(payload["conditions"]) == {
        "worst_initial", "worst_unsafe", "worst_step", "worst_budget", "passed"}
    assert payload["safety"]["n_trajectories"] == 25
    assert not (run_dir / "barrier.csv").exists()
    # every run file has the permissions a plain open gives under the umask
    for name in ("manifest.json", "report.json", "scenario.csv", "validation.csv",
                 "verify.json"):
        assert stat.S_IMODE((run_dir / name).stat().st_mode) == 0o666 & ~0o027, name
    assert not list(run_dir.glob("*.tmp"))


def test_repeat_command(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw(samples={"scenario": 400, "validation": 200}))
    rc = main(["repeat", "--config", cfg, "--runs", "3", "--out", str(tmp_path / "runs")])
    assert rc == EXIT_OK
    run_dir = next((tmp_path / "runs").iterdir())
    hist = (run_dir / "histogram.csv").read_text().splitlines()
    assert hist[0] == "violations,frequency"
    payload = json.loads((run_dir / "repeat.json").read_text())
    assert len(payload["runs"]) == 3


def test_plan_command(tmp_path, capsys):
    raw = small_raw()
    raw["samples"] = {"auto": {"khat": -0.149, "nstar_hat": 1,
                               "start_scenario": 1000, "start_validation": 500}}
    cfg = write_config(tmp_path, raw)
    rc = main(["plan", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "chosen:" in out
    run_dir = next((tmp_path / "runs").iterdir())
    plan = json.loads((run_dir / "plan.json").read_text())
    assert plan["steps"][-1]["passes"] is True


def test_plan_writes_manifest_before_a_failing_pilot(tmp_path, capsys):
    # the external plant closes its output at once, so the pilot collection
    # fails: exit 4, and the manifest that reproduces the plan is there
    raw = small_raw(
        plant={"command": [sys.executable, "-c", "pass"], "state_dim": 1, "input_dim": 1},
        samples={"auto": {"start_scenario": 100, "start_validation": 50}},
    )
    cfg = write_config(tmp_path, raw)
    assert main(["plan", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_RUNTIME
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"] == validate_config(raw).raw


@pytest.mark.parametrize("command", ["plan", "synthesize"])
@pytest.mark.parametrize("key, value", [
    ("start_scenario", 0), ("start_validation", 0), ("growth", 0.5), ("growth", 1),
    ("nstar_hat", -3), ("khat", 0.5), ("khat", 0),
    # no array can hold them: the pilot raised NumPy's "Maximum allowed
    # dimension exceeded" out of `main` (exit 1)
    ("start_scenario", 10**30), ("start_validation", 10**30),
])
def test_out_of_range_auto_samples_is_config_exit(tmp_path, capsys, command, key, value):
    # these reached the planner's own checks, after the pilot solve when
    # khat is not given, and ended as runtime failures (exit 4) whose
    # message did not name the key
    auto = {"nstar_hat": 1, "start_scenario": 100, "start_validation": 50, key: value}
    cfg = write_config(tmp_path, small_raw(samples={"auto": auto}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    assert f"samples.auto.{key}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value, desk", [
    ("activity", -1.0, True),
    ("activity", 0.0, False),
    ("activity", 1e-9, False),  # below the feasibility tolerance, 1e-8
    ("pivot", -1.0, False),
    ("optimality", -1e-3, False),
    ("feasibility", 1e-3, True),
    ("max_iterations", 0, False),
])
def test_out_of_range_tolerance_is_config_exit(tmp_path, capsys, key, value, desk):
    # once these ran: at desk scale an activity of -1.0 counted no sampled
    # row active and certified (exit 0), and a feasibility of 1e-3 could
    # certify a point that breaks sampled rows.  The numerical tolerances are
    # constants now, so setting one, at any value, is an unknown key;
    # max_iterations is the one key left, and 0 is out of its range
    raw = room_casestudy_config(n_scenario=20_000, n_validation=10_000) if desk else small_raw()
    raw["tolerances"] = {key: value}
    cfg = write_config(tmp_path, raw)
    assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    if key == "max_iterations":
        assert "tolerances.max_iterations must be >= 1" in err
    else:
        assert f"unknown key(s) ['{key}'] in tolerances" in err
    assert not (tmp_path / "runs").exists()


def test_verify_rejects_a_report_echoing_a_removed_tolerance(tmp_path, capsys):
    # an earlier version echoed every LP tolerance into the report's config,
    # and `"workers": 1`
    for edit, message in (
        ({"tolerances": {"activity": 1e-7, "max_iterations": 20000}},
         "unknown key(s) ['activity'] in tolerances"),
        ({"workers": 1}, "unknown key(s) ['workers'] in configuration"),
    ):
        path = write_report(tmp_path, small_raw(**edit), zero_certificate())
        assert main(["verify", "--report", path, "--out", str(tmp_path / "verify")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "verify").exists()


def test_casestudy_command_reduced_size(tmp_path, capsys):
    rc = main(["casestudy", "--mode", "posterior", "--N", "3000", "--N0", "1500",
               "--out", str(tmp_path / "runs")])
    assert rc in (EXIT_OK, EXIT_INCONCLUSIVE)
    out = capsys.readouterr().out
    assert "verdict:" in out
    run_dir = next((tmp_path / "runs").iterdir())
    report = json.loads((run_dir / "report.json").read_text())
    assert report["method"] == "posterior"
    assert report["n_scenario"] == 3000
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["mode"] == "posterior"
    if rc == EXIT_OK:
        assert report["verdict"] == "certified" and report["margin"] <= 0


def test_casestudy_prior_mode_reduced(tmp_path, capsys):
    # huge eps keeps the prior bound tiny; exercises the prior path end to end
    rc = main(["casestudy", "--mode", "prior", "--eps", "0.2",
               "--N", "1000", "--N0", "500", "--out", str(tmp_path / "runs")])
    assert rc in (EXIT_OK, EXIT_INCONCLUSIVE)
    run_dir = next((tmp_path / "runs").iterdir())
    report = json.loads((run_dir / "report.json").read_text())
    assert report["method"] == "prior"
    assert report["eps"] == 0.2
    assert report["n_validation"] is None


# (subcommand, flag) pairs where the subcommand would ignore the flag, or
# for `plan --N`/`--N0` always fail on it; no subcommand takes `--retries`
# or `--lexicographic`, both deleted.
_REMOVED_FLAGS = [
    *(("collect", flag) for flag in ("--out", "--no-tighten", "--N", "--N0")),
    ("prior-synthesize", "--N0"),
    *(("plan", flag) for flag in ("--N", "--N0")),
    *((command, flag) for flag in ("--retries", "--lexicographic") for command in (
        "synthesize", "prior-synthesize", "collect", "plan", "casestudy", "repeat")),
]
_FLAG_VALUES = {"--out": "elsewhere", "--N": "300", "--N0": "150", "--retries": "1"}


@pytest.mark.parametrize("command, flag", _REMOVED_FLAGS)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, command, flag):
    raw = small_raw(samples={"scenario": 200, "validation": 100})
    if command == "plan":
        raw["samples"] = {"auto": {"khat": -0.149, "start_scenario": 1000,
                                   "start_validation": 500}}
    cfg = write_config(tmp_path, raw)
    out = str(tmp_path / "runs")
    argv = {
        "synthesize": ["--config", cfg, "--out", out],
        "prior-synthesize": ["--config", cfg, "--eps", "0.2", "--out", out],
        "collect": ["--config", cfg, "--count", "5", "--output", str(tmp_path / "d.csv")],
        "plan": ["--config", cfg, "--out", out],
        "casestudy": ["--N", "300", "--N0", "150", "--out", out],
        "repeat": ["--config", cfg, "--runs", "1", "--out", out],
    }[command]
    extra = [flag, _FLAG_VALUES[flag]] if flag in _FLAG_VALUES else [flag]
    assert main([command, *argv, *extra]) == EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
