"""End-to-end synthesis: collect, solve, validate, bound, verdict.

One run of the posterior method:

  1. collect N scenario samples and N0 validation samples (distinct seeds),
     the counts the configuration's `samples` states;
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
one validation set.  `repeat_experiment` runs many seeds, one after another
in one process, and reports all.  No run chooses its own sample sizes:
`pilot_estimates` solves one pilot program, from which `safesynth plan`
plans sizes for the user to write into `samples`.
"""

import contextlib
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
from .bounds import PosteriorInputs, PriorInputs, prior_sample_size, solve_kappa
from .errors import (
    CollectionError,
    ConfigError,
    GeometryError,
    KappaBracketError,
    SafesynthError,
    SolverError,
)
from .geometry import GENERATOR_NAME, Box, RegionUnion, SampleSpace, check_entries, u_inverse
from .plant import BUILTIN_PLANTS, BlackBoxSystem, Role, collect, make_plant
from .polynomial import build_basis
from .scp import (
    CertificateValues,
    DecisionLayout,
    GridSpec,
    LpResult,
    LpStatus,
    LpTolerances,
    active_g3,
    box_to_polytope,
    build_problem,
    sampled_problem,
    solve_lp,
    static_blocks,
)
from .verify import KNIFE_EDGE_TOL, estimate_lipschitz, knife_edge_count, violation_frequency

_REQUIRED = object()


def _at_least(low):
    return lambda v: v >= low, f">= {low}"


def _above(low):
    return lambda v: v > low, f"> {low}"


# Every top-level key as (JSON type, default, range), and each object-valued
# section as a nested table of the same triples.  A type [t] is an array of
# t values.  A range is (test, wording), for each number of an array, or None
# for any value of the type.  A type of None admits any value, to be checked
# where it is read, and a None default makes null an accepted value.  Missing
# keys are appended to the echoed configuration in this order.
_DEFAULTS = {
    **dict.fromkeys(
        ("plant", "state_space", "input_box", "initial_set", "unsafe_set"),
        (None, _REQUIRED, None),
    ),
    "controller_degrees": ([int], _REQUIRED, _at_least(0)),
    "samples": dict.fromkeys(("scenario", "validation"), (int, _REQUIRED, _at_least(1))),
    "coeff_bounds": (None, _REQUIRED, None),
    "horizon": (int, _REQUIRED, _at_least(1)),
    "barrier_degree": (int, _REQUIRED, _at_least(0)),
    "beta": (float, _REQUIRED, (lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "grid_points": {
        name: (int, getattr(GridSpec, name), _at_least(2))
        for name in ("initial", "unsafe", "state")
    },
    "strict_margin": (float, 1e-6, _at_least(0)),
    "tighten": (bool, True, None),
    # a compute budget only; the solver's numerical tolerances are fixed constants
    "tolerances": {"max_iterations": (int, LpTolerances.max_iterations, _at_least(1))},
    "seeds": {"scenario": (int, 1, _at_least(0)), "validation": (int, 2, _at_least(0))},
    # None: the built-in plant's constant, required for any other plant
    "lipschitz": (float, None, _above(0)),
    "estimate_lipschitz": (bool, False, None),
}
_PLANT_COMMAND = {
    "command": (None, _REQUIRED, None),
    "state_dim": (int, _REQUIRED, _at_least(1)),
    "input_dim": (int, _REQUIRED, _at_least(1)),
}
_COEFF_BOUNDS = {"barrier": (float, _REQUIRED, _above(0)),
                 "controller": ([float], _REQUIRED, _above(0))}
_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", list: "array"}


def _typed(value, kind: type, path: str, rule=None):
    """`value` as `kind`, which must be its JSON type: a boolean for bool, an
    integer (not a boolean) for int, any finite number (not a boolean) for
    float, in the range `rule`; errors name the key by its dotted `path`."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ConfigError(f"{path} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if rule is not None and not rule[0](kind(value)):
        raise ConfigError(f"{path} must be {rule[1]}, got {value!r}")
    return kind(value)


def _arrays(value, kind: type, path: str, depth: int = 1, rule=None):
    """`value` as JSON arrays nested `depth` deep, with `kind` values (see
    `_typed`) in the range `rule` innermost."""
    if depth == 0:
        return _typed(value, kind, path, rule)
    return [_arrays(v, kind, path, depth - 1, rule) for v in _typed(value, list, path)]


def _read(mapping, table: dict, where: str) -> dict:
    """The values `table` names in `mapping`, typed, with missing defaults also
    set into `mapping`; unknown, missing required, mistyped and out-of-range
    keys raise ConfigError."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(mapping) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    out = {}
    for key, entry in table.items():
        path = key if where == "configuration" else f"{where}.{key}"
        if isinstance(entry, dict):
            out[key] = _read(mapping.setdefault(key, {}), entry, path)
            continue
        kind, default, rule = entry
        if key not in mapping and default is _REQUIRED:
            raise ConfigError(f"missing required key {path}")
        value = mapping.setdefault(key, default)
        if isinstance(kind, list):
            value = _arrays(value, kind[0], path, rule=rule)
        elif kind is not None and not (value is None and default is None):
            value = _typed(value, kind, path, rule)
        out[key] = value
    return out


def set_config_key(raw: dict, path: tuple[str, ...], value) -> None:
    """Set the key at `path` (sections, then a key) of the configuration `raw`,
    making missing sections."""
    *sections, key = path
    for section in sections:
        raw = raw.setdefault(section, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{section} must be an object to set {'.'.join(path)}, got {raw!r}")
    raw[key] = value


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
    n_scenario: int
    n_validation: int
    grids: GridSpec
    barrier_bound: float
    controller_bounds: tuple[float, ...]
    strict_margin: float
    tighten: bool
    tolerances: LpTolerances
    seed_scenario: int
    seed_validation: int
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
    """Strict schema check; unknown keys are rejected.  The echo `raw` is a JSON
    copy of `data` with the missing defaults appended in `_DEFAULTS` order."""
    try:
        raw = json.loads(json.dumps(data))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"configuration is not JSON data: {exc}") from exc
    opts = _read(raw, _DEFAULTS, "configuration")

    plant_spec = opts["plant"]
    builtin = BUILTIN_PLANTS.get(plant_spec) if isinstance(plant_spec, str) else None
    if isinstance(plant_spec, dict):
        _, state_dim, input_dim = _read(plant_spec, _PLANT_COMMAND, "plant").values()
    elif builtin is None:
        raise ConfigError(f"unknown plant {plant_spec!r}")
    else:
        state_dim, input_dim = builtin.state_dim, builtin.input_dim

    try:
        state_box = Box.from_intervals(_arrays(opts["state_space"], float, "state_space", 2))
        input_box = Box.from_intervals(_arrays(opts["input_box"], float, "input_box", 2))
        initial_region = RegionUnion.from_intervals(
            _arrays(opts["initial_set"], float, "initial_set", 3))
        unsafe_region = RegionUnion.from_intervals(
            _arrays(opts["unsafe_set"], float, "unsafe_set", 3))
    except SafesynthError as exc:
        raise ConfigError(f"bad region declaration: {exc}") from exc
    for name, box in (("state_space", state_box), ("input_box", input_box)):
        for axis, (lo, hi) in enumerate(zip(box.lower, box.upper)):
            if lo == hi:  # the sample space would have no volume
                raise ConfigError(f"{name} axis {axis} has zero width: [{lo}, {hi}]")
    try:
        SampleSpace.product(state_box, input_box)
    except GeometryError as exc:  # positive widths whose product underflows to 0
        raise ConfigError(f"state_space and input_box: {exc}") from exc

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

    controller_degrees = tuple(opts["controller_degrees"])
    if len(controller_degrees) != input_dim:
        raise ConfigError(
            f"need one controller degree per input dimension ({input_dim}), "
            f"got {len(controller_degrees)}"
        )

    lipschitz = opts["lipschitz"]
    if lipschitz is None:
        if builtin is None:
            raise ConfigError("missing required key lipschitz (no builtin default for this plant)")
        lipschitz = raw["lipschitz"] = builtin.lipschitz

    coeff_bounds = _read(opts["coeff_bounds"], _COEFF_BOUNDS, "coeff_bounds")
    controller_bounds = tuple(coeff_bounds["controller"])
    if len(controller_bounds) != input_dim:
        raise ConfigError("need one controller coefficient bound per input dimension")

    # the sizes the program indexes: basis terms, and grid and sample rows
    # times the widest row it holds, all below the largest array index
    degrees = {"barrier_degree": opts["barrier_degree"],
               **{f"controller_degrees[{i}]": d for i, d in enumerate(controller_degrees)}}
    sizes = {path: math.comb(state_dim + d, d) for path, d in degrees.items()}
    width = max(4 + 2 * sum(sizes.values()), 2 * state_dim + input_dim)  # LP columns, or a sample
    rows = {f"grid_points.{key}": points ** state_dim for key, points in opts["grid_points"].items()}
    rows.update({f"samples.{key}": count for key, count in opts["samples"].items()})
    for path, size in [*sizes.items(), *((path, count * width) for path, count in rows.items())]:
        check_entries(path, size, ConfigError)

    seeds = opts["seeds"]
    if seeds["scenario"] == seeds["validation"]:
        raise ConfigError(
            "scenario and validation seeds must differ (the validation data "
            "must be independent of the scenario data)"
        )

    return SynthesisConfig(
        plant_spec=plant_spec,
        state_box=state_box,
        input_box=input_box,
        initial_region=initial_region,
        unsafe_region=unsafe_region,
        controller_degrees=controller_degrees,
        lipschitz=lipschitz,
        n_scenario=opts["samples"]["scenario"],
        n_validation=opts["samples"]["validation"],
        grids=GridSpec(**opts["grid_points"]),
        barrier_bound=coeff_bounds["barrier"],
        controller_bounds=controller_bounds,
        tolerances=LpTolerances(**opts["tolerances"]),
        seed_scenario=seeds["scenario"],
        seed_validation=seeds["validation"],
        raw=raw,
        # the options that are fields under their own names
        **{key: opts[key] for key in (
            "horizon", "barrier_degree", "beta", "strict_margin", "tighten",
            "estimate_lipschitz",
        )},
    )


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
    n_scenario: int | None = None,
    n_validation: int | None = None,
    seed_scenario: int | None = None,
    seed_validation: int | None = None,
    **overrides,
) -> dict:
    """The bundled room-temperature study configuration with these sizes and
    seeds (the file's where None) and the given top-level overrides
    (JSON-ready dict)."""
    cfg = read_json_object(bundled_room_config_path(), "configuration")
    for path, value in ((("samples", "scenario"), n_scenario),
                        (("samples", "validation"), n_validation),
                        (("seeds", "scenario"), seed_scenario),
                        (("seeds", "validation"), seed_validation)):
        if value is not None:
            set_config_key(cfg, path, value)
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
        """Inverse of `to_json_dict`; a missing key without a default raises
        KeyError.  A certificate must fit the template of the echoed
        configuration (`CertificateValues.from_dict`)."""
        values = {
            f.name: data[f.name]
            for f in dataclasses.fields(cls)
            if f.name in data
            or (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        }
        report = cls(**values)
        cert = report.certificate
        if cert is not None:  # one that is not an object is malformed whatever the configuration
            layout = report.validated_config.layout() if isinstance(cert, dict) else None
            report.certificate = CertificateValues.from_dict(cert, layout)
        return report

    @functools.cached_property
    def validated_config(self) -> SynthesisConfig:
        """`validate_config` of the echoed `config`, made once per report."""
        return validate_config(self.config)


def _solver_summary(solution: LpResult, support_bound: int | None) -> dict:
    return {
        "status": None if solution.status is None else solution.status.value,
        "iterations": solution.iterations,
        "degenerate_steps": solution.degenerate_steps,
        "bland_iterations": solution.bland_iterations,
        "zero_multipliers": solution.zero_multipliers,
        "max_violation": solution.max_violation,  # None (JSON null) without a point
        "active_rows": len(solution.active_row_ids),
        "active_g3": support_bound,
    }


def _plant_scope(config: SynthesisConfig, plant: BlackBoxSystem | None):
    """`with` scope of a plant: the caller's stays open, one made here is closed."""
    if plant is not None:
        return contextlib.nullcontext(plant)
    return make_plant(config.plant_spec)


def pilot_estimates(config: SynthesisConfig, plant: BlackBoxSystem, n_pilot: int) -> tuple[float, int]:
    """Estimate the optimal objective and support bound by one pilot solve
    of `n_pilot` scenario samples, on a seed derived from the scenario seed."""
    pilot_seed = derive_seed(config.seed_scenario, 7771)
    dataset = collect(plant, config.space(), n_pilot, pilot_seed, Role.SCENARIO)
    problem = build_problem(config.layout(), dataset, *_row_inputs(config))
    solution = solve_lp(problem, config.tolerances)
    if solution.status != LpStatus.OPTIMAL:
        raise SolverError(
            f"pilot solve failed with status {solution.status.value}",
            status=solution.status.value,
        )
    return float(solution.objective), max(1, active_g3(problem, solution))


def _row_inputs(config: SynthesisConfig) -> tuple:
    """What `static_blocks` and `build_problem` take after the layout (and data)."""
    input_a, input_b = box_to_polytope(config.input_box)
    return (
        config.initial_region, config.unsafe_region, config.state_box, input_a, input_b,
        config.horizon, config.grids, config.strict_margin, config.tighten,
    )


def _snap_growth_budget(cert: CertificateValues, horizon: int) -> CertificateValues | None:
    """Make budget * horizon <= floor - cap hold exactly in float arithmetic.

    The LP keeps that row active, so the extracted budget can overshoot the
    corridor by rounding noise; shaving at most 1e-9 off the budget is far
    inside the solver's feasibility tolerance and only strengthens the
    certificate, so downstream checks can test against exact zero.  None
    when the corridor floor - cap is negative, which the feasibility
    tolerance allows: no budget >= 0 closes it.
    """
    corridor = cert.unsafe_floor - cert.initial_cap
    if corridor < 0.0:
        return None
    budget = max(0.0, min(cert.growth_budget, corridor / horizon))
    shaved = 0.0
    # ends by budget 0 at the latest, as 0 * horizon <= corridor
    while budget * horizon > corridor and shaved < 1e-9:
        new = math.nextafter(budget, -math.inf)
        shaved += budget - new
        budget = new
    if budget * horizon > corridor or budget == cert.growth_budget:
        return cert
    return dataclasses.replace(cert, growth_budget=budget)


def _inconclusive(report: CertificateReport, cause: str, error: Exception | None = None) -> CertificateReport:
    """`report`, ended early by `cause`, with `error`'s message as a warning."""
    report.failure_cause = cause
    if error is not None:
        report.warnings.append(str(error))
    return report


@contextlib.contextmanager
def _stage(timings: dict, name: str):
    """Record the wall time of the block as `timings[name]`, also when it returns or raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - start


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
    The one report is filled in as the stages finish; an early exit returns
    it inconclusive, timed for each stage entered, then `total`.
    """
    posterior = eps is None
    if posterior and seeds["scenario"] == seeds["validation"]:
        raise ConfigError("scenario and validation seeds must differ")
    space = config.space()
    layout = config.layout()
    report = CertificateReport(
        method="posterior" if posterior else "prior",
        verdict="inconclusive",
        n_scenario=n_scenario,
        n_validation=n_validation,
        eps=eps,
        lipschitz=config.lipschitz,
        beta=config.beta,
        seeds=seeds,
        solver={},
        timings={},
        warnings=list(warnings or []),
        config=config.raw,
        config_sha256=config.sha256(),
    )
    warnings = report.warnings
    stage = functools.partial(_stage, report.timings)

    try:
        with stage("total"):
            validation = None
            with stage("collect"):
                scenario = collect(plant, space, n_scenario, seeds["scenario"], Role.SCENARIO)
                if posterior:
                    validation = collect(plant, space, n_validation, seeds["validation"], Role.VALIDATION)
            if dataset_sink is not None:  # timed in `total` only
                dataset_sink(scenario, validation)

            with stage("assemble"):
                if static is None:
                    problem = build_problem(layout, scenario, *_row_inputs(config))
                else:
                    problem = sampled_problem(layout, static, scenario)
                del scenario  # the problem holds its rows, or views of (x, x') to make them from

            with stage("solve"):
                try:
                    solution = solve_lp(problem, config.tolerances)
                except SolverError as exc:
                    summary = {} if exc.result is None else _solver_summary(exc.result, None)
                    report.solver = {**summary, "status": exc.status, "error": str(exc)}
                    return _inconclusive(report, f"lp_{exc.status}", exc)
            if solution.status != LpStatus.OPTIMAL:
                report.solver = _solver_summary(solution, None)
                return _inconclusive(report, f"lp_{solution.status.value}")

            support_bound = report.support_bound = active_g3(problem, solution)
            report.margin_objective = solution.objective
            report.solver = _solver_summary(solution, support_bound)
            certificate = _snap_growth_budget(
                CertificateValues.from_vector(layout, solution.z), config.horizon
            )
            if certificate is None:
                return _inconclusive(report, "corridor_negative")
            report.certificate = certificate
            if solution.degenerate_steps > 0:
                warnings.append(
                    f"{solution.degenerate_steps} degenerate pivot(s): the optimum may be non-unique"
                )

            if posterior:
                with stage("validate"):
                    violations, residuals = violation_frequency(certificate, validation)
                    knife = report.knife_edges = knife_edge_count(residuals)
                    if knife:
                        warnings.append(f"{knife} validation residual(s) within {KNIFE_EDGE_TOL:g} of zero")
                    report.violations = violations
                    report.violation_detail = [
                        {"index": int(i), "residual": float(residuals[i])}
                        for i in np.flatnonzero(residuals > KNIFE_EDGE_TOL)
                    ]
                with stage("bounds"):
                    try:
                        kappa = solve_kappa(
                            PosteriorInputs(n_scenario, n_validation, support_bound, violations, config.beta)
                        )
                    except KappaBracketError as exc:
                        return _inconclusive(report, "kappa_vacuous", exc)
                report.kappa = float(kappa)
                eps = 1.0 - kappa

            slack = config.lipschitz * u_inverse(eps, space)
            margin = report.margin = float(solution.objective + slack)
            report.eps, report.margin_slack = float(eps), float(slack)

            refuted = False
            if config.estimate_lipschitz:
                est = estimate_lipschitz(certificate, plant, space, seed=derive_seed(seeds["scenario"], 99))
                refuted = est > config.lipschitz
                warnings.append(
                    f"empirical Lipschitz lower bound {est:.4g} exceeds the configured "
                    f"bound {config.lipschitz:.4g}; the certificate is NOT trustworthy" if refuted
                    else f"empirical Lipschitz lower bound {est:.4g} (configured "
                    f"{config.lipschitz:.4g}); this check cannot validate the configured bound"
                )

            if refuted:  # the plant refutes the configured L: the margin K* + L Uinv(eps) proves nothing
                report.failure_cause = "lipschitz_refuted"
            elif margin <= 0.0:
                report.verdict = "certified"
            else:
                report.failure_cause = "margin_positive"
            if not config.tighten:
                warnings.append(
                    "grid tightening disabled: robust rows hold at grid points only, "
                    "so this report is non-certifying"
                )
                if report.certified:
                    report.verdict, report.failure_cause = "inconclusive", "tightening_disabled"
            return report
    except CollectionError as exc:  # only plant queries raise it: collection, the Lipschitz check
        return _inconclusive(report, "dataset_error", exc)


def synthesize(
    config: SynthesisConfig,
    plant: BlackBoxSystem | None = None,
    dataset_sink=None,
) -> CertificateReport:
    """Posterior-method synthesis: one run on the configured seeds.

    `dataset_sink(scenario, validation)` is invoked right after the collect
    stage, so callers can persist the data without re-querying the
    simulator; its time counts in `total` and in no stage.
    """
    seeds = {"scenario": config.seed_scenario, "validation": config.seed_validation}
    with _plant_scope(config, plant) as plant:
        return _run(config, plant, seeds, config.n_scenario, config.n_validation,
                    dataset_sink=dataset_sink)


def prior_synthesize(config: SynthesisConfig, eps: float, plant: BlackBoxSystem | None = None) -> CertificateReport:
    """The no-validation baseline: one dataset of at least the prior bound size.

    The template dimension entering the tail is Q + P + 3 with Q and P the
    coefficient counts of the barrier and of all controller components.
    """
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    layout = config.layout()
    dim = layout.n_barrier + layout.n_controller + 3
    n_required = prior_sample_size(PriorInputs(eps, config.beta, dim))
    warnings = []
    if config.n_scenario < n_required:
        warnings.append(
            f"configured scenario count {config.n_scenario} raised to the prior "
            f"bound {n_required}"
        )
    with _plant_scope(config, plant) as plant:
        return _run(
            config, plant, {"scenario": config.seed_scenario, "validation": None},
            max(config.n_scenario, n_required), eps=eps, warnings=warnings,
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


def repeat_experiment(config: SynthesisConfig, runs: int, plant: BlackBoxSystem | None = None) -> RepeatResult:
    """Run the posterior pipeline `runs` times with per-run derived seeds.

    Sample-independent rows are assembled once and shared by every run; run
    i is the run `synthesize` makes on the seeds `_derived_seeds(config, i)`.
    The expected total sample count is (N + N0) / certified fraction,
    reported as None when no run certifies.
    """
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    results = []
    with _plant_scope(config, plant) as plant:
        static = static_blocks(config.layout(), *_row_inputs(config))
        for i in range(runs):
            seeds = _derived_seeds(config, i)
            report = _run(config, plant, seeds, config.n_scenario, config.n_validation,
                          static=static)
            results.append(
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
    histogram = dict(Counter(r.violations for r in results if r.violations is not None))
    certified = sum(1 for r in results if r.verdict == "certified")
    frac = certified / runs
    expected = (config.n_scenario + config.n_validation) / frac if frac > 0 else None
    # the most frequent violation count, the smallest one on a tie
    modal = min(histogram, key=lambda k: (-histogram[k], k)) if histogram else None
    return RepeatResult(
        runs=tuple(results),
        histogram=histogram,
        certified_fraction=frac,
        expected_samples=expected,
        modal_violations=modal,
    )
