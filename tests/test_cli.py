import json

import pytest

from safesynth.cli import EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_OK, main
from safesynth.pipeline import room_casestudy_config


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


def test_collect_command(tmp_path, capsys):
    cfg = write_config(tmp_path, small_raw())
    out_file = tmp_path / "data.csv"
    rc = main(["collect", "--config", cfg, "--count", "25",
               "--role", "validation", "--seed", "9", "--output", str(out_file)])
    assert rc == EXIT_OK
    from safesynth.plant import load_dataset

    data = load_dataset(str(out_file))
    assert len(data) == 25
    assert data.seed == 9


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
# for `plan --N`/`--N0` always fail on it; no subcommand takes `--retries`.
_REMOVED_FLAGS = [
    *(("collect", flag) for flag in ("--out", "--no-tighten", "--lexicographic", "--N", "--N0")),
    ("prior-synthesize", "--N0"),
    *(("plan", flag) for flag in ("--N", "--N0", "--lexicographic")),
    *((command, "--retries") for command in (
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
