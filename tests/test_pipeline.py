import itertools
import json
import os
import re
import time

import numpy as np
import pytest

from safesynth.bounds import PosteriorInputs, solve_kappa
from safesynth import pipeline
from safesynth.cli import EXIT_CONFIG, main
from safesynth.errors import ConfigError
from safesynth.pipeline import (
    CertificateReport,
    derive_seed,
    prior_synthesize,
    repeat_experiment,
    room_casestudy_config,
    synthesize,
    validate_config,
)
from safesynth.plant import BlackBoxSystem, RoomTemperaturePlant, step_room
from safesynth.polynomial import eval_poly_many
from safesynth.scp import LpTolerances, g3_row, solve_lp
from safesynth.geometry import box_grid
from .conftest import scenario_problem, small_room_config


def certifying_config(**overrides):
    """Desk-size run that certifies by overriding the Lipschitz input.

    The margin mechanism is exercised end to end; soundness of the configured
    constant is the user's responsibility and is not what these tests check.
    """
    return small_room_config(
        lipschitz=1.0,
        samples={"scenario": 4000, "validation": 2000},
        **overrides,
    )


def test_small_run_inconclusive_margin_positive():
    config = small_room_config(samples={"scenario": 200, "validation": 100})
    report = synthesize(config)
    assert report.verdict == "inconclusive"
    assert report.failure_cause == "margin_positive"
    assert report.margin is not None and report.margin > 0
    assert report.margin == pytest.approx(
        report.margin_objective + report.margin_slack, abs=1e-12
    )


def test_end_to_end_reproducible():
    config = small_room_config()
    a = synthesize(config)
    b = synthesize(config)
    assert a.margin_objective == b.margin_objective
    assert a.support_bound == b.support_bound
    assert a.violations == b.violations
    assert a.kappa == b.kappa
    assert a.certificate.barrier.coeffs == b.certificate.barrier.coeffs
    assert a.certificate.controllers[0].coeffs == b.certificate.controllers[0].coeffs


def test_kappa_reproduces_from_report_fields():
    config = small_room_config()
    report = synthesize(config)
    again = solve_kappa(
        PosteriorInputs(
            report.n_scenario, report.n_validation,
            report.support_bound, report.violations, report.beta,
        )
    )
    assert again == pytest.approx(report.kappa, abs=1e-9)


def test_validation_fields_match_independent_oracle():
    # residuals recomputed through the LP's own g3 transcription, not verify.py
    config = small_room_config(samples={"scenario": 200, "validation": 5000})
    captured = {}
    report = synthesize(config, dataset_sink=lambda s, v: captured.update(validation=v))
    validation, layout, cert = captured["validation"], config.layout(), report.certificate
    d = np.zeros(layout.n_total)
    d[layout.OBJECTIVE] = cert.objective
    d[layout.BUDGET] = cert.growth_budget
    d[layout.q_slice] = cert.barrier.coeffs
    for i, controller in enumerate(cert.controllers):
        d[layout.p_slice(i)] = controller.coeffs
    oracle = []
    for x, u, x_next in zip(validation.xs, validation.us, validation.x_nexts):
        row, rhs = g3_row(layout, x, u, x_next)
        oracle.append(row @ d - rhs)
    oracle = np.array(oracle)
    violated = np.flatnonzero(oracle > 1e-12)
    detail = report.violation_detail
    assert len(violated) > 0
    assert [v["index"] for v in detail] == violated.tolist()
    assert np.allclose([v["residual"] for v in detail], oracle[violated], rtol=0.0, atol=1e-12)
    assert report.violations == len(detail)
    assert report.knife_edges == int(np.sum(np.abs(oracle) <= 1e-12))


def test_support_bound_recounts_from_residuals():
    # the report takes the support bound from the solve's own active set;
    # recount it from the residuals of an independently rebuilt program
    config = small_room_config(samples={"scenario": 300, "validation": 100})
    report = synthesize(config)
    _, problem = scenario_problem(config)
    solution = solve_lp(problem, config.tolerances)
    resid = problem.residuals(solution.z)[problem.g3_row_indices()]
    recount = int(np.sum(np.abs(resid) <= config.tolerances.activity))
    assert solution.objective == report.margin_objective
    assert recount >= 1
    assert report.support_bound == recount
    assert report.solver["active_g3"] == recount


def test_certified_run_mechanics():
    report = synthesize(certifying_config())
    assert report.verdict == "certified"
    assert report.margin <= 0.0
    assert report.failure_cause is None
    assert report.seeds["scenario"] != report.seeds["validation"]
    assert report.kappa is not None and 0 < report.kappa < 1


def test_certified_controller_respects_input_polytope():
    config = certifying_config()
    report = synthesize(config)
    assert report.certified
    grid = box_grid(config.state_box, 401)
    values = eval_poly_many(report.certificate.controllers[0], grid)
    assert np.all(values <= 1.0 + 1e-8)
    assert np.all(values >= -1e-8)


def test_report_json_roundtrip(tmp_path):
    report = synthesize(small_room_config())
    payload = report.to_json_dict()
    path = tmp_path / "report.json"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with open(path) as fh:
        loaded = CertificateReport.from_json_dict(json.load(fh))
    assert loaded.margin == report.margin
    assert loaded.kappa == report.kappa
    assert loaded.certificate.barrier.coeffs == report.certificate.barrier.coeffs
    assert loaded.config_sha256 == report.config_sha256
    assert loaded.to_json_dict() == payload


@pytest.mark.parametrize(
    "key",
    ["method", "verdict", "n_scenario", "lipschitz", "beta", "seeds", "solver",
     "timings", "config", "config_sha256"],
)
def test_report_without_required_key_fails_to_load(key):
    payload = synthesize(small_room_config()).to_json_dict()
    del payload[key]
    with pytest.raises(KeyError, match=key):
        CertificateReport.from_json_dict(payload)


def test_config_rejects_unknown_keys(tmp_path):
    raw = room_casestudy_config()
    raw["frobnicate"] = True
    with pytest.raises(ConfigError, match="frobnicate"):
        validate_config(raw)
    # a deleted option is an unknown key, even at its old default
    for key, value, command in (("lexicographic", False, ["synthesize"]),
                                ("workers", 1, ["repeat", "--runs", "2"])):
        raw = room_casestudy_config(**{key: value})
        with pytest.raises(ConfigError, match=key):
            validate_config(raw)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "runs"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
    # so are the LP's numerical tolerances, which are constants now
    for key in ("feasibility", "optimality", "activity", "pivot"):
        raw = room_casestudy_config(tolerances={key: getattr(LpTolerances(), key)})
        with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\] in tolerances"):
            validate_config(raw)


def test_config_rejects_missing_beta():
    raw = room_casestudy_config()
    del raw["beta"]
    with pytest.raises(ConfigError, match="beta"):
        validate_config(raw)


def test_config_rejects_overlapping_regions():
    raw = room_casestudy_config()
    raw["initial_set"] = [[[23.5, 24.5]]]
    raw["unsafe_set"] = [[[24.0, 25.0]]]
    with pytest.raises(ConfigError, match="disjoint"):
        validate_config(raw)


def test_config_rejects_touching_regions_closed_sets():
    raw = room_casestudy_config()
    raw["initial_set"] = [[[23.0, 24.0]]]  # touches the unsafe band at 23.0
    with pytest.raises(ConfigError, match="disjoint"):
        validate_config(raw)


def test_config_rejects_equal_seeds():
    raw = room_casestudy_config()
    raw["seeds"] = {"scenario": 5, "validation": 5}
    with pytest.raises(ConfigError, match="seed"):
        validate_config(raw)


def test_config_rejects_region_outside_state_space():
    raw = room_casestudy_config()
    raw["initial_set"] = [[[24.0, 27.5]]]
    with pytest.raises(ConfigError, match="state space"):
        validate_config(raw)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tighten", "false"),
        ("horizon", 5.7),
        ("horizon", True),
        ("estimate_lipschitz", 1),
        ("state_space", [["22.5", "26.5"]]),
    ],
)
def test_config_rejects_wrong_json_types(key, value):
    # each of these used to run as something other than what the report echoed
    raw = room_casestudy_config(**{key: value})
    with pytest.raises(ConfigError, match=key):
        validate_config(raw)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "path",
    [("strict_margin",), ("lipschitz",), ("beta",), ("coeff_bounds", "barrier")],
)
def test_config_rejects_non_finite_numbers(tmp_path, path, value):
    # a NaN margin or bound used to end as lp_iteration-limit, a NaN
    # Lipschitz constant as a NaN margin (both exit 2)
    raw = room_casestudy_config()
    section = raw
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    with pytest.raises(ConfigError, match=rf"^{re.escape('.'.join(path))} .*finite"):
        validate_config(raw)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))  # NaN and Infinity literals, as Python's json reads them
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == EXIT_CONFIG


def test_config_echo_appends_defaults_in_order():
    # report.json is written without sort_keys, so this order is its layout
    raw = room_casestudy_config()
    del raw["lipschitz"]
    config = validate_config(raw)
    assert config.tolerances == LpTolerances()
    echoed = config.raw
    assert list(echoed) == list(raw) + [
        "strict_margin", "tighten", "tolerances", "lipschitz", "estimate_lipschitz",
    ]
    assert list(echoed["tolerances"]) == ["max_iterations"]


def test_readme_configuration_table_matches_the_schema():
    # README's table names each top-level key once, and its tolerances row
    # names exactly the keys of that section (the fixed values are plain text)
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        lines = fh.read().split("\n## Configuration\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    rows = [line.split(" | ", 1) for line in table]
    keys = [key for first, _ in rows for key in re.findall(r"`([^`]+)`", first)]
    assert sorted(keys) == sorted(pipeline._DEFAULTS)
    (meaning,) = [rest for first, rest in rows if first == "| `tolerances`"]
    assert re.findall(r"`([^`]+)`", meaning) == list(pipeline._DEFAULTS["tolerances"])


def test_config_echo_is_a_copy_with_values_as_written():
    # the schema walk sets the defaults into a copy: the caller's dict stays
    # as it is, and the echo keeps an integer where a number was written
    raw = room_casestudy_config(lipschitz=11)
    del raw["seeds"]
    before = json.dumps(raw)
    config = validate_config(raw)
    assert json.dumps(raw) == before
    assert type(config.raw["lipschitz"]) is int and type(config.lipschitz) is float
    assert config.raw["seeds"] == {"scenario": 1, "validation": 2}


@pytest.mark.parametrize("key", ["state_space", "estimate_lipschitz"])
def test_config_with_a_non_json_value_is_config_error(key):
    # the schema walk runs on a JSON copy of the configuration; a set has none
    with pytest.raises(ConfigError, match="not JSON data"):
        validate_config(room_casestudy_config(**{key: {1, 2}}))


def test_config_room_defaults_lipschitz():
    raw = room_casestudy_config()
    del raw["lipschitz"]
    config = validate_config(raw)
    assert config.lipschitz == 11.63


def test_no_tighten_flagged_non_certifying():
    config = certifying_config(tighten=False)
    report = synthesize(config)
    assert report.verdict == "inconclusive"
    assert report.failure_cause == "tightening_disabled"
    assert any("non-certifying" in w for w in report.warnings)


def test_prior_synthesize_small_eps():
    # large eps keeps the prior bound tiny so the run stays fast
    config = small_room_config(samples={"scenario": 2000, "validation": 1000})
    report = prior_synthesize(config, eps=0.05)
    assert report.method == "prior"
    assert report.n_validation is None and report.kappa is None
    assert report.eps == 0.05
    # dim = Q + P + 3 = 13 for the degree-4 template pair
    from safesynth.bounds import PriorInputs, prior_sample_size

    required = prior_sample_size(PriorInputs(0.05, config.beta, 13))
    assert report.n_scenario == max(2000, required)


def test_prior_report_warns_on_degenerate_pivots():
    # the posterior route has always carried this warning; both share one runner
    config = small_room_config(samples={"scenario": 2000, "validation": 1000})
    report = prior_synthesize(config, eps=0.05)
    steps = report.solver["degenerate_steps"]
    assert steps > 0
    assert any(w.startswith(f"{steps} degenerate pivot(s)") for w in report.warnings)


def test_prior_synthesize_raises_sample_count():
    config = small_room_config(samples={"scenario": 10, "validation": 5})
    report = prior_synthesize(config, eps=0.2)
    assert report.n_scenario > 10
    assert any("raised" in w for w in report.warnings)


def test_prior_synthesize_guaranteed_inconclusive_when_slack_dominates():
    # slack with eps = 0.9 exceeds any achievable |objective|
    config = small_room_config(samples={"scenario": 500, "validation": 100})
    report = prior_synthesize(config, eps=0.9)
    assert report.margin is not None
    assert report.margin > 0 and report.verdict == "inconclusive"


def test_auto_samples_planner_path():
    raw = room_casestudy_config()
    raw["samples"] = {
        "auto": {
            "khat": -0.149,
            "nstar_hat": 1,
            "start_scenario": 140000,
            "start_validation": 70000,
        }
    }
    config = validate_config(raw)
    from safesynth.pipeline import resolve_sample_sizes

    n, n0, plan = resolve_sample_sizes(config)
    assert (n, n0) == (140000, 70000)
    assert plan is not None and plan.steps[-1].sign >= 0


def test_auto_samples_pilot_estimation():
    # omitted khat: a pilot solve supplies the estimates before planning
    raw = room_casestudy_config()
    raw["grid_points"] = {"initial": 401, "unsafe": 201, "state": 1601}
    raw["samples"] = {
        "auto": {"nstar_hat": 1, "start_scenario": 1500, "start_validation": 750}
    }
    config = validate_config(raw)
    from safesynth.pipeline import resolve_sample_sizes

    n, n0, plan = resolve_sample_sizes(config)
    assert plan is not None
    assert n >= 1500 and n0 >= 750
    # the pilot estimate is near the structural optimum, so the plan lands in
    # the same region as planning from the known optimum
    n_ref, _, _ = resolve_sample_sizes(
        validate_config({**raw, "samples": {"auto": {
            "khat": -0.35, "nstar_hat": 1,
            "start_scenario": 1500, "start_validation": 750,
        }}})
    )
    assert n == pytest.approx(n_ref, rel=0.8)


def test_repeat_experiment_histogram():
    config = small_room_config(samples={"scenario": 600, "validation": 300})
    result = repeat_experiment(config, runs=4)
    assert len(result.runs) == 4
    assert sum(result.histogram.values()) == 4
    assert result.certified_fraction == pytest.approx(
        sum(1 for r in result.runs if r.verdict == "certified") / 4
    )
    # seeds derived per run are distinct and reproducible
    again = repeat_experiment(config, runs=4)
    assert [r.seed_scenario for r in again.runs] == [r.seed_scenario for r in result.runs]
    assert [r.violations for r in again.runs] == [r.violations for r in result.runs]


def test_repeat_runs_equal_single_runs_on_their_derived_seeds():
    # repeat assembles every run on one build of the static rows; synthesize
    # builds its whole program afresh
    config = small_room_config(samples={"scenario": 400, "validation": 200}, lipschitz=0.5)
    result = repeat_experiment(config, runs=3)
    assert any(run.verdict == "certified" for run in result.runs)
    for i, run in enumerate(result.runs):
        seeds = pipeline._derived_seeds(config, i)
        single = synthesize(validate_config({**config.raw, "seeds": seeds}))
        assert (run.run_index, run.seed_scenario, run.seed_validation) == (
            i, seeds["scenario"], seeds["validation"])
        assert (run.verdict, run.failure_cause, run.objective, run.margin, run.support_bound,
                run.violations, run.kappa) == (
            single.verdict, single.failure_cause, single.margin_objective, single.margin,
            single.support_bound, single.violations, single.kappa)


def test_repeat_single_run_single_bucket():
    config = small_room_config(samples={"scenario": 400, "validation": 200})
    result = repeat_experiment(config, runs=1)
    assert len(result.histogram) == 1
    assert result.modal_violations in result.histogram


def test_repeat_expected_samples():
    config = certifying_config()
    result = repeat_experiment(config, runs=2)
    if result.certified_fraction > 0:
        assert result.expected_samples == pytest.approx(
            (4000 + 2000) / result.certified_fraction
        )
    else:
        assert result.expected_samples is None


def external_plant_config(tmp_path):
    """A 120/60-sample room run whose plant is a child process."""
    import sys
    from .test_plant import EXTERNAL_PLANT_SCRIPT

    script = tmp_path / "plant.py"
    script.write_text(EXTERNAL_PLANT_SCRIPT)
    raw = room_casestudy_config(
        n_scenario=120, n_validation=60, seed_scenario=11, seed_validation=12
    )
    raw["plant"] = {
        "command": [sys.executable, str(script)],
        "state_dim": 1,
        "input_dim": 1,
    }
    raw["grid_points"] = {"initial": 201, "unsafe": 101, "state": 801}
    return validate_config(raw)


def test_external_plant_synthesis_end_to_end(tmp_path):
    config = external_plant_config(tmp_path)
    report = synthesize(config)
    # the child process implements the room dynamics, so the run must agree
    # bit-for-bit with the builtin plant at the same seeds
    builtin = synthesize(small_room_config(
        samples={"scenario": 120, "validation": 60},
        grid_points={"initial": 201, "unsafe": 101, "state": 801},
    ))
    assert report.margin_objective == builtin.margin_objective
    assert report.violations == builtin.violations


@pytest.mark.parametrize("run", [
    synthesize,
    lambda config: prior_synthesize(config, 0.5),
    lambda config: repeat_experiment(config, runs=1),
], ids=["synthesize", "prior_synthesize", "repeat_experiment"])
def test_runs_close_the_plant_they_make(tmp_path, monkeypatch, run):
    import subprocess

    children = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    run(external_plant_config(tmp_path))
    assert children
    assert all(child.poll() is not None for child in children)


def test_external_plant_requires_lipschitz():
    raw = room_casestudy_config()
    raw["plant"] = {"command": ["true"], "state_dim": 1, "input_dim": 1}
    del raw["lipschitz"]
    with pytest.raises(ConfigError, match="lipschitz"):
        validate_config(raw)


class _DyingPlant:
    """Fails after a fixed number of batch queries."""

    name = "dying"
    state_dim = 1
    input_dim = 1

    def __init__(self, failures_after: int = 0):
        self.calls = 0
        self.failures_after = failures_after

    def step_batch(self, xs, us):
        from safesynth.errors import CollectionError

        self.calls += 1
        if self.calls > self.failures_after:
            raise CollectionError("simulator crashed at sample 0")
        return step_room(xs[:, :1], us[:, :1])


def test_dataset_error_yields_inconclusive_report():
    config = small_room_config(samples={"scenario": 100, "validation": 50})
    report = synthesize(config, plant=_DyingPlant(failures_after=0))
    assert report.verdict == "inconclusive"
    assert report.failure_cause == "dataset_error"
    assert any("crashed" in w for w in report.warnings)


class _TwoValueStep(BlackBoxSystem):
    """A one-variable plant whose `step` returns two values."""

    def __init__(self):
        super().__init__(state_dim=1, input_dim=1)

    def step(self, x, u):
        return np.repeat(step_room(x, u), 2)


class _TwoColumnBatch(RoomTemperaturePlant):
    def step_batch(self, xs, us):
        return np.repeat(super().step_batch(xs, us), 2, axis=1)


class _FlatBatch(RoomTemperaturePlant):
    def step_batch(self, xs, us):
        return super().step_batch(xs, us).ravel()


class _TextBatch(RoomTemperaturePlant):
    def step_batch(self, xs, us):
        return [["a"]] * len(xs)


@pytest.mark.parametrize("plant, message", [
    (_TwoValueStep, "sample 0: step returned 2 values, expected 1"),
    (_TwoColumnBatch, r"shape \(200, 2\), expected \(200, 1\)"),
    (_FlatBatch, r"shape \(200,\), expected \(200, 1\)"),
    (_TextBatch, "non-numeric values: could not convert string to float: 'a'"),
], ids=["two-value-step", "two-column-batch", "flat-batch", "text-batch"])
def test_a_misshapen_plant_answer_is_a_dataset_error(plant, message):
    config = small_room_config(samples={"scenario": 200, "validation": 100})
    report = synthesize(config, plant=plant())
    assert (report.verdict, report.failure_cause) == ("inconclusive", "dataset_error")
    assert re.search(message, report.warnings[-1])


class _NanInLipschitzCheck(RoomTemperaturePlant):
    """The room plant, except that one next state of each 2,000-pair batch,
    the size `estimate_lipschitz` queries, is NaN."""

    def step_batch(self, xs, us):
        out = super().step_batch(xs, us)
        if len(xs) == 2000:
            out[1234] = np.nan
        return out


def _lipschitz_refuted_config():
    return small_room_config(samples={"scenario": 200, "validation": 5000},
                             lipschitz=0.5, estimate_lipschitz=True)


def test_a_nan_in_the_lipschitz_check_is_a_dataset_error():
    # the real plant refutes L = 0.5; with one NaN in the check's answer the
    # estimate was NaN, `NaN > L` was false, and the run certified
    assert synthesize(_lipschitz_refuted_config()).failure_cause == "lipschitz_refuted"
    report = synthesize(_lipschitz_refuted_config(), plant=_NanInLipschitzCheck())
    assert (report.verdict, report.failure_cause) == ("inconclusive", "dataset_error")
    assert report.warnings[-1] == "simulator returned non-finite state at sample 1234"


def test_infeasible_template_yields_inconclusive_report():
    config = small_room_config(
        samples={"scenario": 100, "validation": 50},
        barrier_degree=0,  # constant barrier: the corridor can never open
        controller_degrees=[0],
    )
    report = synthesize(config)
    assert report.verdict == "inconclusive"
    assert report.failure_cause == "lp_infeasible"


def test_iteration_limit_yields_inconclusive_report():
    config = small_room_config(
        samples={"scenario": 200, "validation": 100},
        tolerances={"max_iterations": 2},
    )
    report = synthesize(config)
    assert report.verdict == "inconclusive"
    assert report.failure_cause == "lp_iteration-limit"


@pytest.mark.parametrize("corridor, horizon", [(-1e-12, 5), (-1e-8, 10**30), (-5e-324, 1)])
def test_snap_refuses_a_negative_corridor(corridor, horizon):
    # no budget >= 0 closes floor - cap < 0: the snap used to step the
    # budget from 0 through the subnormals towards its 1e-9 cap, for ever
    layout = small_room_config().layout()
    d = np.zeros(layout.n_total)
    d[layout.FLOOR], d[layout.CAP] = corridor, 0.0
    assert pipeline._snap_growth_budget(
        pipeline.CertificateValues.from_vector(layout, d), horizon) is None


def test_snap_keeps_a_zero_corridor():
    layout = small_room_config().layout()
    d = np.zeros(layout.n_total)
    d[layout.FLOOR] = d[layout.CAP] = -68.0
    d[layout.BUDGET] = 1e-12
    cert = pipeline._snap_growth_budget(pipeline.CertificateValues.from_vector(layout, d), 5)
    assert cert.growth_budget == 0.0


def test_negative_corridor_yields_inconclusive_report():
    # at horizon 1e30 the solution's floor - cap is below zero, inside the
    # feasibility tolerance; this run used to hang in the snap
    config = small_room_config(horizon=10**30, samples={"scenario": 200, "validation": 100})
    report = synthesize(config)
    assert report.verdict == "inconclusive"
    assert report.failure_cause == "corridor_negative"
    assert report.certificate is None and report.solver["status"] == "optimal"


_STAGES = ["collect", "assemble", "solve"]


@pytest.mark.parametrize("run, cause, stages", [
    (lambda: synthesize(small_room_config(samples={"scenario": 100, "validation": 50}),
                        plant=_DyingPlant()), "dataset_error", ["collect"]),
    (lambda: synthesize(small_room_config(samples={"scenario": 100, "validation": 50},
                                          barrier_degree=0, controller_degrees=[0])),
     "lp_infeasible", _STAGES),
    (lambda: synthesize(small_room_config(samples={"scenario": 200, "validation": 100},
                                          tolerances={"max_iterations": 2})),
     "lp_iteration-limit", _STAGES),
    (lambda: synthesize(small_room_config(samples={"scenario": 200, "validation": 100},
                                          horizon=10**30)),
     "corridor_negative", _STAGES),
    (lambda: synthesize(small_room_config(samples={"scenario": 1, "validation": 1})),
     "kappa_vacuous", _STAGES + ["validate", "bounds"]),
    (lambda: synthesize(small_room_config(samples={"scenario": 200, "validation": 100})),
     "margin_positive", _STAGES + ["validate", "bounds"]),
    (lambda: synthesize(certifying_config()), None, _STAGES + ["validate", "bounds"]),
    (lambda: prior_synthesize(small_room_config(samples={"scenario": 500, "validation": 100}),
                              eps=0.9), "margin_positive", _STAGES),
    (lambda: synthesize(_lipschitz_refuted_config(), plant=_NanInLipschitzCheck()),
     "dataset_error", _STAGES + ["validate", "bounds"]),
], ids=["dataset_error", "lp_infeasible", "lp_iteration-limit", "corridor_negative",
        "kappa_vacuous", "margin_positive", "certified", "prior", "lipschitz_check_dataset_error"])
def test_timings_hold_each_stage_entered_then_total(run, cause, stages):
    report = run()
    assert report.failure_cause == cause
    assert list(report.timings) == stages + ["total"]
    assert all(t >= 0.0 for t in report.timings.values())
    assert report.timings["total"] >= sum(report.timings[s] for s in stages)


def test_derive_seed_deterministic_and_spread():
    a = derive_seed(1, 2, 3)
    b = derive_seed(1, 2, 3)
    c = derive_seed(1, 2, 4)
    assert a == b
    assert a != c


def test_lipschitz_estimator_warning_paths():
    report = synthesize(small_room_config(estimate_lipschitz=True))
    assert any("empirical Lipschitz" in w for w in report.warnings)
    # a configured bound far below the sampled slopes must be called out
    tiny = synthesize(small_room_config(estimate_lipschitz=True, lipschitz=0.01))
    assert any("NOT trustworthy" in w for w in tiny.warnings)


def test_refuted_lipschitz_bound_fails_closed(tmp_path):
    # the bundled study at 20,000/10,000 samples certifies with margin -0.339
    # under L = 0.5, but the plant's sampled slopes reach 2.389 > 0.5: the
    # margin K* + L Uinv(eps) rests on a bound the plant refutes
    raw = room_casestudy_config(n_scenario=20_000, n_validation=10_000)
    raw.update(lipschitz=0.5, estimate_lipschitz=True)
    cfg = tmp_path / "refuted.json"
    cfg.write_text(json.dumps(raw))
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "runs"),
                 "--no-datasets"]) == 2
    (run,) = os.listdir(tmp_path / "runs")
    with open(tmp_path / "runs" / run / "report.json") as fh:
        report = json.load(fh)
    assert report["verdict"] == "inconclusive"
    assert report["failure_cause"] == "lipschitz_refuted"
    assert report["margin"] < 0.0
    assert any("empirical Lipschitz lower bound 2.389 exceeds the configured bound 0.5"
               in w for w in report["warnings"])


def test_refuted_lipschitz_bound_fails_closed_for_the_prior_method(tmp_path):
    # the prior margin K* + L Uinv(eps) rests on L just as the posterior one
    # does: at eps 0.05 the scenario count is raised to 410, and the margin
    # under L = 0.5 is negative, yet the plant's sampled slopes refute L
    raw = room_casestudy_config(n_scenario=100, n_validation=50)
    raw.update(lipschitz=0.5, estimate_lipschitz=True)
    cfg = tmp_path / "refuted.json"
    cfg.write_text(json.dumps(raw))
    assert main(["prior-synthesize", "--config", str(cfg), "--eps", "0.05",
                 "--out", str(tmp_path / "runs")]) == 2
    (run,) = os.listdir(tmp_path / "runs")
    with open(tmp_path / "runs" / run / "report.json") as fh:
        report = json.load(fh)
    assert report["method"] == "prior" and report["n_scenario"] == 410
    assert report["verdict"] == "inconclusive"
    assert report["failure_cause"] == "lipschitz_refuted"
    assert report["margin"] < 0.0
    assert any("exceeds the configured bound 0.5" in w for w in report["warnings"])


def test_dataset_sink_receives_collected_data(tmp_path):
    captured = {}

    def sink(scenario, validation):
        captured["scenario"] = scenario
        captured["validation"] = validation

    config = small_room_config(samples={"scenario": 300, "validation": 150})
    report = synthesize(config, dataset_sink=sink)
    assert len(captured["scenario"]) == 300
    assert len(captured["validation"]) == 150
    assert captured["scenario"].seed == report.seeds["scenario"]
    assert captured["validation"].seed == report.seeds["validation"]


def test_dataset_sink_is_timed_in_total_not_in_collect():
    config = small_room_config(samples={"scenario": 300, "validation": 150})
    report = synthesize(config, dataset_sink=lambda scenario, validation: time.sleep(0.5))
    assert report.timings["collect"] < 0.5 <= report.timings["total"]


def test_bundled_config_reproduces_casestudy_parameters():
    from safesynth.pipeline import bundled_room_config_path, load_config

    config = load_config(bundled_room_config_path())
    assert config.state_box.intervals() == [[22.5, 26.5]]
    assert config.input_box.intervals() == [[0.0, 1.0]]
    assert config.initial_region.intervals() == [[[24.0, 25.0]]]
    assert config.unsafe_region.intervals() == [[[22.5, 23.0]], [[26.0, 26.5]]]
    assert config.horizon == 5
    assert config.barrier_degree == 4 and config.controller_degrees == (4,)
    assert config.beta == 0.05
    assert config.lipschitz == 11.63
    assert (config.n_scenario, config.n_validation) == (140000, 70000)
    assert config.barrier_bound == 0.1 and config.controller_bounds == (0.05,)
    assert config.raw == validate_config(room_casestudy_config()).raw
    # the file is the one source of the study's sizes and seeds
    with open(bundled_room_config_path()) as fh:
        assert room_casestudy_config() == json.load(fh)
