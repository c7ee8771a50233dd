import json
import os

import numpy as np
import pytest

from safesynth.bounds import PosteriorInputs, solve_kappa
from safesynth import pipeline
from safesynth.cli import EXIT_CONFIG, EXIT_RUNTIME, main
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
from safesynth.plant import RoomTemperaturePlant
from safesynth.polynomial import eval_poly_many
from safesynth.scp import g3_row, solve_lp
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


@pytest.mark.parametrize("lexicographic", [False, True])
def test_support_bound_recounts_from_residuals(lexicographic):
    # the report takes the support bound from the solve's own active set;
    # recount it from the residuals of an independently rebuilt program
    config = small_room_config(samples={"scenario": 300, "validation": 100},
                               lexicographic=lexicographic)
    report = synthesize(config)
    _, problem = scenario_problem(config)
    solution = solve_lp(problem, config.tolerances, lexicographic)
    resid = problem.residuals(solution.d_star)[problem.g3_row_indices()]
    recount = int(np.sum(np.abs(resid) <= config.tolerances.activity))
    assert solution.objective == report.margin_objective
    assert recount >= 1
    assert report.support_bound == recount
    assert report.solver["active_g3"] == recount


def test_lexicographic_refinement_survives_a_failing_resolve():
    # the 12th refinement re-solve of this program raises "singular working
    # set"; the run keeps the refinement reached so far instead of failing
    def raw(lexicographic):
        out = room_casestudy_config(n_scenario=300, n_validation=100,
                                    seed_scenario=100, seed_validation=999)
        out["grid_points"] = {"initial": 101, "unsafe": 51, "state": 201}
        out["lexicographic"] = lexicographic
        return out

    plain = synthesize(validate_config(raw(False)))
    refined = synthesize(validate_config(raw(True)))
    assert plain.solver["status"] == "optimal"
    assert refined.solver["status"] == "optimal"
    assert refined.failure_cause == "margin_positive"
    assert refined.margin_objective == pytest.approx(plain.margin_objective, abs=1e-7)
    assert refined.solver["lexicographic"] is False


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


def test_config_rejects_unknown_keys():
    raw = room_casestudy_config()
    raw["frobnicate"] = True
    with pytest.raises(ConfigError, match="frobnicate"):
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
        ("workers", 1.9),
        ("lexicographic", "no"),
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
    [("strict_margin",), ("lipschitz",), ("beta",), ("coeff_bounds", "barrier"),
     ("tolerances", "feasibility")],
)
def test_config_rejects_non_finite_numbers(tmp_path, path, value):
    # a NaN margin or bound used to end as lp_iteration-limit, a NaN
    # Lipschitz constant as a NaN margin (both exit 2)
    raw = room_casestudy_config()
    section = raw
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    with pytest.raises(ConfigError, match=f"'{path[-1]}'.*finite"):
        validate_config(raw)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))  # NaN and Infinity literals, as Python's json reads them
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == EXIT_CONFIG


def test_config_echo_appends_defaults_in_order():
    # report.json is written without sort_keys, so this order is its layout
    raw = room_casestudy_config()
    del raw["lipschitz"]
    echoed = validate_config(raw).raw
    assert list(echoed) == list(raw) + [
        "strict_margin", "tighten", "tolerances", "lipschitz",
        "lexicographic", "workers", "estimate_lipschitz",
    ]
    assert list(echoed["tolerances"]) == [
        "feasibility", "optimality", "activity", "pivot", "max_iterations",
    ]


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


def test_external_plant_synthesis_end_to_end(tmp_path):
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
    config = validate_config(raw)
    report = synthesize(config)
    # the child process implements the room dynamics, so the run must agree
    # bit-for-bit with the builtin plant at the same seeds
    builtin = synthesize(small_room_config(
        samples={"scenario": 120, "validation": 60},
        grid_points={"initial": 201, "unsafe": 101, "state": 801},
    ))
    assert report.margin_objective == builtin.margin_objective
    assert report.violations == builtin.violations


def test_external_plant_requires_lipschitz():
    raw = room_casestudy_config()
    raw["plant"] = {"command": ["true"], "state_dim": 1, "input_dim": 1}
    del raw["lipschitz"]
    with pytest.raises(ConfigError, match="lipschitz"):
        validate_config(raw)


class _DyingPlant:
    """Fails after a fixed number of batch queries."""

    name = "dying"
    reentrant = True
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
        from safesynth.plant import step_room

        return step_room(xs[:, :1], us[:, :1])


def test_dataset_error_yields_inconclusive_report():
    config = small_room_config(samples={"scenario": 100, "validation": 50})
    report = synthesize(config, plant=_DyingPlant(failures_after=0))
    assert report.verdict == "inconclusive"
    assert report.failure_cause == "dataset_error"
    assert any("crashed" in w for w in report.warnings)


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


def test_derive_seed_deterministic_and_spread():
    a = derive_seed(1, 2, 3)
    b = derive_seed(1, 2, 3)
    c = derive_seed(1, 2, 4)
    assert a == b
    assert a != c


def test_repeat_workers_match_sequential():
    config_seq = small_room_config(
        samples={"scenario": 400, "validation": 200}, lipschitz=0.5
    )
    config_par = small_room_config(
        samples={"scenario": 400, "validation": 200}, workers=2, lipschitz=0.5
    )
    seq = repeat_experiment(config_seq, runs=4)
    par = repeat_experiment(config_par, runs=4)
    assert seq.certified_fraction > 0  # the parallel path must meet certified runs
    assert [r.to_dict() for r in par.runs] == [r.to_dict() for r in seq.runs]
    assert par.histogram == seq.histogram
    assert par.certified_fraction == seq.certified_fraction
    assert par.expected_samples == seq.expected_samples


class _ExitingPlant(RoomTemperaturePlant):
    """The room plant, except that any process other than its creator's exits."""

    def __init__(self):
        super().__init__()
        self.parent_pid = os.getpid()

    def step_batch(self, xs, us):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return super().step_batch(xs, us)


def test_repeat_worker_crash_is_runtime_exit(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(room_casestudy_config(
        n_scenario=100, n_validation=50, seed_scenario=11, seed_validation=12, workers=2,
    )))
    monkeypatch.setattr(pipeline, "make_plant", lambda spec: _ExitingPlant())
    rc = main(["repeat", "--config", str(cfg), "--runs", "2", "--out", str(tmp_path / "runs")])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "worker process died" in err and "0-0" in err and "did not finish" in err
    assert not (tmp_path / "runs").exists()


def test_lipschitz_estimator_warning_paths():
    report = synthesize(small_room_config(estimate_lipschitz=True))
    assert any("empirical Lipschitz" in w for w in report.warnings)
    # a configured bound far below the sampled slopes must be called out
    tiny = synthesize(small_room_config(estimate_lipschitz=True, lipschitz=0.01))
    assert any("NOT trustworthy" in w for w in tiny.warnings)


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
