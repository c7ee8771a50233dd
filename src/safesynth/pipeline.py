"""End-to-end synthesis: collect, solve, validate, bound, verdict.

One run of the posterior method:

  1. collect N scenario samples and N0 validation samples (distinct seeds);
  2. assemble and solve the scenario LP;
  3. upper-bound the support constraints by the active sampled rows;
  4. count violations of the solution on the untouched validation data;
  5. solve the posterior root equation for kappa*;
  6. check the safety margin  objective + L * Uinv(1 - kappa*) <= 0.

The prior method runs the same stages with one dataset of at least the prior
bound size and a fixed eps in place of steps 4-5 (see `_run`).

A certified verdict requires the margin check AND every sub-step to succeed
AND grid tightening to be enabled; anything else yields an inconclusive
report with a machine-readable failure cause.  A run is never retried: the
stated confidence 1 - beta belongs to one scenario program, one sample and
one validation set.  `repeat_experiment` runs many seeds and reports all.
"""

import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

import numpy as np

from . import __version__
from .bounds import (
    PlanResult,
    PosteriorInputs,
    PriorInputs,
    plan_sample_sizes,
    prior_sample_size,
    solve_kappa,
)
from .errors import (
    CollectionError,
    ConfigError,
    KappaBracketError,
    SafesynthError,
    SolverError,
)
from .geometry import GENERATOR_NAME, Box, RegionUnion, SampleSpace, u_inverse
from .plant import BlackBoxSystem, Role, collect, make_plant
from .polynomial import build_basis
from .scp import (
    CertificateValues,
    DecisionLayout,
    GridSpec,
    LpSolution,
    LpStatus,
    LpTolerances,
    RowTag,
    box_to_polytope,
    build_problem,
    sampled_problem,
    solve_lp,
    static_blocks,
)
from .verify import KNIFE_EDGE_TOL, estimate_lipschitz, knife_edge_count, violation_frequency

ROOM_LIPSCHITZ_DEFAULT = 11.63

_REQUIRED = object()

# Every top-level key as (JSON type, default), and each object-valued section
# as a nested table of the same pairs.  A type of None admits any value, to be
# checked where it is read, and a None default makes null an accepted value.
# Missing keys are appended to the echoed configuration in this order.
_DEFAULTS = {
    **dict.fromkeys(
        ("plant", "state_space", "input_box", "initial_set", "unsafe_set",
         "controller_degrees", "samples", "coeff_bounds"),
        (None, _REQUIRED),
    ),
    "horizon": (int, _REQUIRED),
    "barrier_degree": (int, _REQUIRED),
    "beta": (float, _REQUIRED),
    "grid_points": {
        name: (int, getattr(GridSpec, name)) for name in ("initial", "unsafe", "state")
    },
    "strict_margin": (float, 1e-6),
    "tighten": (bool, True),
    "tolerances": {
        f.name: (type(f.default), f.default) for f in dataclasses.fields(LpTolerances)
    },
    "seeds": {"scenario": (int, 1), "validation": (int, 2)},
    # None: the built-in plant's constant, required for any other plant
    "lipschitz": (float, None),
    "lexicographic": (bool, False),
    "workers": (int, 1),
    "estimate_lipschitz": (bool, False),
}
_PLANT_COMMAND = {
    "command": (None, _REQUIRED),
    "state_dim": (int, _REQUIRED),
    "input_dim": (int, _REQUIRED),
}
_FIXED_SAMPLES = {"scenario": (int, _REQUIRED), "validation": (int, _REQUIRED)}
_AUTO_SAMPLES = {
    "auto": {
        "khat": (float, None),
        "nstar_hat": (int, 1),
        "start_scenario": (int, _REQUIRED),
        "start_validation": (int, _REQUIRED),
        "growth": (float, 1.5),
    }
}
_COEFF_BOUNDS = {"barrier": (float, _REQUIRED), "controller": (None, _REQUIRED)}
_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number"}


def _typed(value, kind: type, name: str):
    """`value` as `kind`, which must be its JSON type: a boolean for bool, an
    integer (not a boolean) for int, any finite number (not a boolean) for float."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ConfigError(f"{name} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return kind(value)


def _read(mapping, table: dict, where: str) -> dict:
    """The values `table` names in `mapping`, typed, with defaults filled in;
    unknown, missing required and mistyped keys raise ConfigError."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(mapping) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    out = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            section = key if where == "configuration" else f"{where}.{key}"
            out[key] = _read(mapping.get(key, {}), entry, section)
            continue
        kind, default = entry
        if key not in mapping and default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in {where}")
        value = mapping.get(key, default)
        if kind is not None and not (value is None and default is None):
            value = _typed(value, kind, f"'{key}' in {where}")
        out[key] = value
    return out


@dataclass(frozen=True)
class AutoSamples:
    """Planner-driven sample sizing; khat=None means estimate by a pilot run."""

    khat: float | None
    nstar_hat: int
    start_scenario: int
    start_validation: int
    growth: float


@dataclass(frozen=True)
class SynthesisConfig:
    plant_spec: Any
    state_box: Box
    input_box: Box
    initial_region: RegionUnion
    unsafe_region: RegionUnion
    horizon: int
    barrier_degree: int
    controller_degrees: tuple[int, ...]
    beta: float
    lipschitz: float
    n_scenario: int | None
    n_validation: int | None
    auto_samples: AutoSamples | None
    grids: GridSpec
    barrier_bound: float
    controller_bounds: tuple[float, ...]
    strict_margin: float
    tighten: bool
    tolerances: LpTolerances
    seed_scenario: int
    seed_validation: int
    lexicographic: bool
    workers: int
    estimate_lipschitz: bool
    raw: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def layout(self) -> DecisionLayout:
        n = self.state_box.dim
        return DecisionLayout.build(
            build_basis(n, self.barrier_degree),
            [build_basis(n, k) for k in self.controller_degrees],
            self.barrier_bound,
            self.controller_bounds,
        )

    def space(self) -> SampleSpace:
        return SampleSpace.product(self.state_box, self.input_box)


def validate_config(data: dict) -> SynthesisConfig:
    """Strict schema check; unknown keys are rejected, defaults are echoed."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    opts = _read(data, _DEFAULTS, "configuration")
    raw = canonical_dict(data)

    plant_spec = raw["plant"]
    if isinstance(plant_spec, dict):
        command = _read(plant_spec, _PLANT_COMMAND, "plant")
        state_dim = command["state_dim"]
        input_dim = command["input_dim"]
    elif plant_spec == "room-temp":
        state_dim = input_dim = 1
    else:
        raise ConfigError(f"unknown plant {plant_spec!r}")

    try:
        state_box = Box.from_intervals(raw["state_space"])
        input_box = Box.from_intervals(raw["input_box"])
        initial_region = RegionUnion.from_intervals(raw["initial_set"])
        unsafe_region = RegionUnion.from_intervals(raw["unsafe_set"])
    except SafesynthError as exc:
        raise ConfigError(f"bad region declaration: {exc}") from exc

    if state_box.dim != state_dim:
        raise ConfigError(f"state_space dimension {state_box.dim} != plant state_dim {state_dim}")
    if input_box.dim != input_dim:
        raise ConfigError(f"input_box dimension {input_box.dim} != plant input_dim {input_dim}")
    if initial_region.dim != state_dim or unsafe_region.dim != state_dim:
        raise ConfigError("initial_set and unsafe_set must match the state dimension")
    for name, region in (("initial_set", initial_region), ("unsafe_set", unsafe_region)):
        for part in region.parts:
            if not state_box.contains_subbox(part):
                raise ConfigError(f"{name} part {part.intervals()} leaves the state space")
    if initial_region.intersects(unsafe_region):
        raise ConfigError("initial_set and unsafe_set must be disjoint (closed sets)")

    if opts["horizon"] < 1:
        raise ConfigError(f"horizon must be >= 1, got {opts['horizon']}")
    controller_degrees = tuple(
        _typed(k, int, "controller_degrees entry") for k in raw["controller_degrees"]
    )
    if len(controller_degrees) != input_dim:
        raise ConfigError(
            f"need one controller degree per input dimension ({input_dim}), "
            f"got {len(controller_degrees)}"
        )
    if not 0.0 < opts["beta"] < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {opts['beta']}")

    lipschitz = raw["lipschitz"]
    if lipschitz is None:
        raise ConfigError("missing required key 'lipschitz' (no builtin default for this plant)")
    if lipschitz <= 0:
        raise ConfigError(f"lipschitz must be positive, got {lipschitz}")

    samples = raw["samples"]
    n_scenario = n_validation = None
    auto = None
    if isinstance(samples, dict) and "auto" in samples:
        auto = AutoSamples(**_read(samples, _AUTO_SAMPLES, "samples")["auto"])
    else:
        fixed = _read(samples, _FIXED_SAMPLES, "samples")
        n_scenario = fixed["scenario"]
        n_validation = fixed["validation"]
        if n_scenario < 1 or n_validation < 1:
            raise ConfigError("sample counts must be >= 1")

    grids = GridSpec(**opts["grid_points"])
    if min(grids.initial, grids.unsafe, grids.state) < 2:
        raise ConfigError("grid_points entries must be >= 2")

    coeff_bounds = _read(raw["coeff_bounds"], _COEFF_BOUNDS, "coeff_bounds")
    controller_bounds = tuple(
        _typed(b, float, "coeff_bounds.controller entry") for b in coeff_bounds["controller"]
    )
    if len(controller_bounds) != input_dim:
        raise ConfigError("need one controller coefficient bound per input dimension")

    if opts["strict_margin"] < 0:
        raise ConfigError("strict_margin must be non-negative")

    seeds = opts["seeds"]
    if seeds["scenario"] == seeds["validation"]:
        raise ConfigError(
            "scenario and validation seeds must differ (the validation data "
            "must be independent of the scenario data)"
        )

    if opts["workers"] < 1:
        raise ConfigError("workers must be >= 1")

    return SynthesisConfig(
        plant_spec=plant_spec,
        state_box=state_box,
        input_box=input_box,
        initial_region=initial_region,
        unsafe_region=unsafe_region,
        controller_degrees=controller_degrees,
        lipschitz=float(lipschitz),
        n_scenario=n_scenario,
        n_validation=n_validation,
        auto_samples=auto,
        grids=grids,
        barrier_bound=coeff_bounds["barrier"],
        controller_bounds=controller_bounds,
        tolerances=LpTolerances(**opts["tolerances"]),
        seed_scenario=seeds["scenario"],
        seed_validation=seeds["validation"],
        raw=raw,
        # the options that are fields under their own names
        **{key: opts[key] for key in (
            "horizon", "barrier_degree", "beta", "strict_margin", "tighten",
            "lexicographic", "workers", "estimate_lipschitz",
        )},
    )


def canonical_dict(data: dict) -> dict:
    """The configuration with all defaults applied, as echoed into reports."""
    out = json.loads(json.dumps(data))  # deep copy, JSON-normalised
    for key, entry in _DEFAULTS.items():
        if isinstance(entry, dict):
            section = out.setdefault(key, {})
            for name, (_, default) in entry.items():
                section.setdefault(name, default)
        elif entry[1] is not _REQUIRED:
            out.setdefault(key, entry[1])
    if out["lipschitz"] is None and out.get("plant") == "room-temp":
        out["lipschitz"] = ROOM_LIPSCHITZ_DEFAULT
    return out


def read_json_object(path: str, what: str) -> dict:
    """The JSON object at `path`; an unreadable, non-JSON or non-object file is a ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return data


def load_config(path: str) -> SynthesisConfig:
    return validate_config(read_json_object(path, "configuration"))


def bundled_room_config_path() -> str:
    """Path of the shipped room-temperature configuration file."""
    return str(resources.files("safesynth").joinpath("configs/room-temp.json"))


def room_casestudy_config(
    n_scenario: int = 140_000,
    n_validation: int = 70_000,
    seed_scenario: int = 2025,
    seed_validation: int = 9090,
    **overrides,
) -> dict:
    """The bundled room-temperature study configuration with these sizes and
    seeds and the given top-level overrides (JSON-ready dict)."""
    with open(bundled_room_config_path()) as fh:
        cfg = json.load(fh)
    cfg["samples"] = {"scenario": n_scenario, "validation": n_validation}
    cfg["seeds"] = {"scenario": seed_scenario, "validation": seed_validation}
    cfg.update(overrides)
    return cfg


def derive_seed(*keys: int) -> int:
    """Deterministic, well-mixed seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(k) & 0x7FFFFFFF for k in keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))


def _derived_seeds(config: SynthesisConfig, index: int) -> dict:
    """Fresh, distinct seeds for repeat run `index`."""
    seed_s = derive_seed(config.seed_scenario, index, 0)
    seed_v = derive_seed(config.seed_validation, index, 1)
    if seed_s == seed_v:
        seed_v += 1
    return {"scenario": seed_s, "validation": seed_v}


@dataclass(kw_only=True)
class CertificateReport:
    """One run's outcome; an early exit leaves the stages it skipped at their defaults."""

    method: str
    verdict: str
    failure_cause: str | None = None
    certificate: CertificateValues | None = None
    n_scenario: int
    n_validation: int | None = None
    support_bound: int | None = None
    violations: int | None = None
    kappa: float | None = None
    eps: float | None = None
    margin: float | None = None
    margin_objective: float | None = None
    margin_slack: float | None = None
    lipschitz: float
    beta: float
    seeds: dict
    solver: dict
    knife_edges: int = 0
    violation_detail: list = field(default_factory=list)
    timings: dict
    warnings: list = field(default_factory=list)
    generator: str = GENERATOR_NAME
    tool_version: str = __version__
    config: dict
    config_sha256: str

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "CertificateReport":
        """Inverse of `to_json_dict`; a missing key without a default raises KeyError."""
        values = {
            f.name: data[f.name]
            for f in dataclasses.fields(cls)
            if f.name in data
            or (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        }
        if values.get("certificate") is not None:
            values["certificate"] = CertificateValues.from_dict(values["certificate"])
        return cls(**values)


def _solver_summary(solution: LpSolution, active_g3: int | None) -> dict:
    return {
        "status": solution.status.value,
        "iterations": solution.iterations,
        "degenerate_steps": solution.degenerate_steps,
        "bland_iterations": solution.bland_iterations,
        "zero_multipliers": solution.zero_multipliers,
        "max_violation": float(solution.max_violation),
        "active_rows": int(len(solution.active_row_ids)),
        "active_g3": active_g3,
        "lexicographic": solution.lexicographic,
    }


def resolve_sample_sizes(config: SynthesisConfig, plant: BlackBoxSystem | None = None) -> tuple[int, int, PlanResult | None]:
    """Fixed sizes from the config, or run the planner for `auto` configs."""
    if config.auto_samples is None:
        assert config.n_scenario is not None and config.n_validation is not None
        return config.n_scenario, config.n_validation, None
    auto = config.auto_samples
    khat = auto.khat
    nstar_hat = auto.nstar_hat
    if khat is None:
        plant = plant if plant is not None else make_plant(config.plant_spec)
        khat, nstar_hat = pilot_estimates(config, plant, auto.start_scenario)
    plan = plan_sample_sizes(
        khat=khat,
        nstar_hat=nstar_hat,
        lipschitz=config.lipschitz,
        space=config.space(),
        beta=config.beta,
        n_start=auto.start_scenario,
        n0_start=auto.start_validation,
        growth=auto.growth,
    )
    return plan.n_scenario, plan.n_validation, plan


def pilot_estimates(config: SynthesisConfig, plant: BlackBoxSystem, n_pilot: int) -> tuple[float, int]:
    """Estimate the optimal objective and support bound by one pilot solve."""
    pilot_seed = derive_seed(config.seed_scenario, 7771)
    dataset = collect(plant, config.space(), n_pilot, pilot_seed, Role.SCENARIO)
    problem = build_problem(config.layout(), dataset, *_row_inputs(config))
    solution = solve_lp(problem, config.tolerances, lexicographic=False)
    if solution.status != LpStatus.OPTIMAL or solution.objective is None:
        raise SolverError(
            f"pilot solve failed with status {solution.status.value}",
            status=solution.status.value,
        )
    nstar = int(np.count_nonzero(problem.tags[solution.active_row_ids] == RowTag.G3))
    return float(solution.objective), max(1, nstar)


def _row_inputs(config: SynthesisConfig) -> tuple:
    """What `static_blocks` and `build_problem` take after the layout (and data)."""
    input_a, input_b = box_to_polytope(config.input_box)
    return (
        config.initial_region, config.unsafe_region, config.state_box, input_a, input_b,
        config.horizon, config.grids, config.strict_margin, config.tighten,
    )


def _snap_growth_budget(cert: CertificateValues, horizon: int) -> CertificateValues:
    """Make budget * horizon <= floor - cap hold exactly in float arithmetic.

    The LP keeps that row active, so the extracted budget can overshoot the
    corridor by rounding noise; shaving at most 1e-9 off the budget is far
    inside the solver's feasibility tolerance and only strengthens the
    certificate, so downstream checks can test against exact zero.
    """
    corridor = cert.unsafe_floor - cert.initial_cap
    budget = max(0.0, min(cert.growth_budget, corridor / horizon))
    shaved = 0.0
    while budget * horizon > corridor and shaved < 1e-9:
        new = math.nextafter(budget, -math.inf)
        shaved += budget - new
        budget = new
    if budget * horizon > corridor or budget == cert.growth_budget:
        return cert
    return dataclasses.replace(cert, growth_budget=budget)


def _inconclusive(fields: dict, cause: str, t0: float, error: Exception | None = None) -> CertificateReport:
    """The report of a run that stopped early, with the fields gathered so far."""
    fields["timings"]["total"] = time.perf_counter() - t0
    if error is not None:
        fields["warnings"].append(str(error))
    return CertificateReport(verdict="inconclusive", failure_cause=cause, **fields)


def _run(
    config: SynthesisConfig,
    plant: BlackBoxSystem,
    seeds: dict,
    n_scenario: int,
    n_validation: int | None = None,
    eps: float | None = None,
    static: tuple | None = None,
    dataset_sink=None,
    warnings: list | None = None,
) -> CertificateReport:
    """One run: collect, assemble, solve, snap and support, eps, margin and verdict.

    The eps stage is the only fork between the two methods.  Without a fixed
    `eps` (posterior) the solution's violations of `n_validation` fresh
    samples give kappa* and eps = 1 - kappa*; the validation data are
    collected with the scenario data, so a failing plant stops the run
    before the LP is solved.  With `eps` (prior) it is taken as given.
    """
    posterior = eps is None
    if posterior and seeds["scenario"] == seeds["validation"]:
        raise ConfigError("scenario and validation seeds must differ")
    space = config.space()
    layout = config.layout()
    timings: dict[str, float] = {}
    warnings = list(warnings or [])
    fields = {
        "method": "posterior" if posterior else "prior",
        "n_scenario": n_scenario,
        "n_validation": n_validation,
        "eps": eps,
        "lipschitz": config.lipschitz,
        "beta": config.beta,
        "seeds": seeds,
        "solver": {},
        "timings": timings,
        "warnings": warnings,
        "config": config.raw,
        "config_sha256": config.sha256(),
    }

    t0 = time.perf_counter()
    validation = None
    try:
        scenario = collect(plant, space, n_scenario, seeds["scenario"], Role.SCENARIO)
        if posterior:
            validation = collect(plant, space, n_validation, seeds["validation"], Role.VALIDATION)
    except CollectionError as exc:
        timings["collect"] = time.perf_counter() - t0
        return _inconclusive(fields, "dataset_error", t0, exc)
    if dataset_sink is not None:
        dataset_sink(scenario, validation)
    timings["collect"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    if static is None:
        problem = build_problem(layout, scenario, *_row_inputs(config))
    else:
        problem = sampled_problem(layout, static, scenario)
    timings["assemble"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    try:
        solution = solve_lp(problem, config.tolerances, config.lexicographic)
    except SolverError as exc:
        timings["solve"] = time.perf_counter() - t2
        fields["solver"] = {"status": exc.status, "error": str(exc)}
        return _inconclusive(fields, f"lp_{exc.status}", t0, exc)
    timings["solve"] = time.perf_counter() - t2
    if solution.status != LpStatus.OPTIMAL or solution.d_star is None:
        fields["solver"] = _solver_summary(solution, None)
        return _inconclusive(fields, f"lp_{solution.status.value}", t0)

    certificate = _snap_growth_budget(solution.certificate(layout), config.horizon)
    # sampled rows among the rows `solve_lp` found active at the activity tolerance
    support_bound = int(np.count_nonzero(problem.tags[solution.active_row_ids] == RowTag.G3))
    fields.update(
        certificate=certificate,
        support_bound=support_bound,
        margin_objective=float(solution.objective),
        solver=_solver_summary(solution, support_bound),
    )
    if solution.degenerate_steps > 0:
        warnings.append(
            f"{solution.degenerate_steps} degenerate pivot(s): the optimum may be "
            "non-unique; lexicographic refinement is available"
        )

    if posterior:
        t3 = time.perf_counter()
        violations, residuals = violation_frequency(certificate, validation)
        knife = knife_edge_count(residuals)
        if knife:
            warnings.append(f"{knife} validation residual(s) within {KNIFE_EDGE_TOL:g} of zero")
        fields.update(
            violations=violations,
            knife_edges=knife,
            violation_detail=[
                {"index": int(i), "residual": float(residuals[i])}
                for i in np.flatnonzero(residuals > KNIFE_EDGE_TOL)
            ],
        )
        timings["validate"] = time.perf_counter() - t3

        t4 = time.perf_counter()
        try:
            kappa = solve_kappa(
                PosteriorInputs(n_scenario, n_validation, support_bound, violations, config.beta)
            )
        except KappaBracketError as exc:
            timings["bounds"] = time.perf_counter() - t4
            return _inconclusive(fields, "kappa_vacuous", t0, exc)
        timings["bounds"] = time.perf_counter() - t4
        fields["kappa"] = float(kappa)
        eps = 1.0 - kappa

    slack = config.lipschitz * u_inverse(eps, space)
    margin = float(solution.objective + slack)
    fields.update(eps=float(eps), margin=margin, margin_slack=float(slack))

    if posterior and config.estimate_lipschitz:
        est = estimate_lipschitz(certificate, plant, space, seed=derive_seed(seeds["scenario"], 99))
        if est > config.lipschitz:
            warnings.append(
                f"empirical Lipschitz lower bound {est:.4g} exceeds the configured "
                f"bound {config.lipschitz:.4g}; the certificate is NOT trustworthy"
            )
        else:
            warnings.append(
                f"empirical Lipschitz lower bound {est:.4g} (configured {config.lipschitz:.4g}); "
                "this check cannot validate the configured bound"
            )

    verdict = "certified" if margin <= 0.0 else "inconclusive"
    cause = None if verdict == "certified" else "margin_positive"
    if not config.tighten:
        warnings.append(
            "grid tightening disabled: robust rows hold at grid points only, "
            "so this report is non-certifying"
        )
        if verdict == "certified":
            verdict = "inconclusive"
            cause = "tightening_disabled"
    timings["total"] = time.perf_counter() - t0
    return CertificateReport(verdict=verdict, failure_cause=cause, **fields)


def synthesize(
    config: SynthesisConfig,
    plant: BlackBoxSystem | None = None,
    dataset_sink=None,
) -> CertificateReport:
    """Posterior-method synthesis: one run on the configured seeds.

    `dataset_sink(scenario, validation)` is invoked right after collection,
    so callers can persist the data without re-querying the simulator.
    """
    plant = plant if plant is not None else make_plant(config.plant_spec)
    n_scenario, n_validation, plan = resolve_sample_sizes(config, plant)
    seeds = {"scenario": config.seed_scenario, "validation": config.seed_validation}
    report = _run(config, plant, seeds, n_scenario, n_validation, dataset_sink=dataset_sink)
    if plan is not None:
        report.warnings.append(
            f"sample sizes ({n_scenario}, {n_validation}) chosen by the planner "
            f"after {len(plan.steps)} round(s)"
        )
    return report


def prior_synthesize(config: SynthesisConfig, eps: float, plant: BlackBoxSystem | None = None) -> CertificateReport:
    """The no-validation baseline: one dataset of at least the prior bound size.

    The template dimension entering the tail is Q + P + 3 with Q and P the
    coefficient counts of the barrier and of all controller components.
    `estimate_lipschitz` does not apply to this method.
    """
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    plant = plant if plant is not None else make_plant(config.plant_spec)
    layout = config.layout()
    dim = layout.n_barrier + layout.n_controller + 3
    n_required = prior_sample_size(PriorInputs(eps, config.beta, dim))
    warnings = []
    if config.n_scenario is not None and config.n_scenario < n_required:
        warnings.append(
            f"configured scenario count {config.n_scenario} raised to the prior "
            f"bound {n_required}"
        )
    return _run(
        config, plant, {"scenario": config.seed_scenario, "validation": None},
        max(config.n_scenario or 0, n_required), eps=eps, warnings=warnings,
    )


@dataclass(frozen=True)
class RepeatRun:
    run_index: int
    seed_scenario: int
    seed_validation: int
    verdict: str
    failure_cause: str | None
    objective: float | None
    margin: float | None
    support_bound: int | None
    violations: int | None
    kappa: float | None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class RepeatResult:
    runs: tuple[RepeatRun, ...]
    histogram: dict
    certified_fraction: float
    expected_samples: float | None
    modal_violations: int | None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["runs"] = list(out["runs"])
        out["histogram"] = {str(k): v for k, v in sorted(self.histogram.items())}
        return out


def _repeat_runs(
    config: SynthesisConfig,
    plant: BlackBoxSystem,
    n_scenario: int,
    n_validation: int,
    indices: range,
) -> list[RepeatRun]:
    """Repeat runs `indices`, all assembled on one build of the static rows."""
    static = static_blocks(config.layout(), *_row_inputs(config))
    runs = []
    for i in indices:
        seeds = _derived_seeds(config, i)
        report = _run(config, plant, seeds, n_scenario, n_validation, static=static)
        runs.append(
            RepeatRun(
                run_index=i,
                seed_scenario=seeds["scenario"],
                seed_validation=seeds["validation"],
                verdict=report.verdict,
                failure_cause=report.failure_cause,
                objective=report.margin_objective,
                margin=report.margin,
                support_bound=report.support_bound,
                violations=report.violations,
                kappa=report.kappa,
            )
        )
    return runs


def repeat_experiment(config: SynthesisConfig, runs: int, plant: BlackBoxSystem | None = None) -> RepeatResult:
    """Run the posterior pipeline `runs` times with per-run derived seeds.

    Sample-independent rows are assembled once per process and shared.  Runs
    derive their seeds from (base seed, run index), so distributing them
    across worker processes (config `workers`, one contiguous slice of run
    indices each) changes nothing about the results; external-process
    plants are always driven sequentially.  The expected total sample count
    is (N + N0) / certified fraction, reported as None when no run certifies.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    plant = plant if plant is not None else make_plant(config.plant_spec)
    n_scenario, n_validation, _ = resolve_sample_sizes(config, plant)
    workers = min(config.workers, runs) if plant.reentrant else 1
    slices = [range(runs * k // workers, runs * (k + 1) // workers) for k in range(workers)]
    task = functools.partial(_repeat_runs, config, plant, n_scenario, n_validation)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task, indices) for indices in slices]
        lost = [f"{s.start}-{s.stop - 1}" for s, f in zip(slices, futures)
                if isinstance(f.exception(), concurrent.futures.BrokenExecutor)]
        if lost:
            raise SafesynthError(f"a repeat worker process died; runs {', '.join(lost)} did not finish")
        parts = [f.result() for f in futures]
    else:
        parts = [task(slices[0])]
    results = [run for part in parts for run in part]
    histogram = dict(Counter(r.violations for r in results if r.violations is not None))
    certified = sum(1 for r in results if r.verdict == "certified")
    frac = certified / runs
    expected = (n_scenario + n_validation) / frac if frac > 0 else None
    # the most frequent violation count, the smallest one on a tie
    modal = min(histogram, key=lambda k: (-histogram[k], k)) if histogram else None
    return RepeatResult(
        runs=tuple(results),
        histogram=histogram,
        certified_fraction=frac,
        expected_samples=expected,
        modal_violations=modal,
    )
