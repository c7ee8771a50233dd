"""Command-line surface.

Subcommands mirror the synthesis stages: `collect` data, `plan` sample sizes,
`synthesize` / `prior-synthesize` a certificate, `verify` it against the true
plant, `bounds` for the standalone probabilistic computations, `casestudy`
for the built-in room-temperature experiment, and `repeat` for batched runs.

A configuration is `--config` (for `casestudy` the bundled room file) with
the override flags `--seed`, `--seed-validation`, `--no-tighten`, `--N` and
`--N0` set into it.  Exit codes: 0 success/certified, 2 completed but
inconclusive, 3 bad configuration or usage (such as an override into a
`samples` or `seeds` that is not an object, or a malformed certificate), 4
runtime failure.  `synthesize`, `prior-synthesize`, `casestudy`, `repeat`
and `plan --out` make a run directory and write its manifest (config hash,
seeds, tool version, argv), sufficient to reproduce the run, before they
collect or solve anything.  `synthesize` writes the collected data as the
run's `scenario.csv` and `validation.csv` (`plant.save_dataset`) before it
solves, unless `--no-datasets`.  `collect` writes only its dataset file,
whose header holds the seed, role and sample space but no config hash.
Every file of a run (reports, manifest, datasets, plot CSVs, histogram) is
written atomically through `plant.atomic_write`, with the permissions the
umask gives a new file.  `verify` writes `verify.json` for a certificate of
any dimension and the plot CSVs only when the state and the input are 1-D.
"""

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys

from . import __version__
from .bounds import (
    PlanResult,
    PosteriorInputs,
    PriorInputs,
    plan_sample_sizes,
    prior_sample_size,
    solve_kappa,
)
from .errors import BoundsDomainError, ConfigError, PolynomialError, SafesynthError
from .geometry import Box, SampleSpace, check_entries
from .pipeline import (
    CertificateReport,
    SynthesisConfig,
    bundled_room_config_path,
    prior_synthesize,
    read_json_object,
    repeat_experiment,
    resolve_sample_sizes,
    set_config_key,
    synthesize,
    validate_config,
)
from .plant import Role, atomic_write, collect, make_plant, save_dataset
from .verify import check_cbf_conditions, emit_plot_data, empirical_safety

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: `collect --out` is a usage error, not `--output`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        # argparse exits with 2 by default, which collides with the
        # "inconclusive" exit code; usage errors are configuration errors.
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _write_json_atomic(path: str, payload: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _new_run(out_root: str, config: SynthesisConfig, argv, **extra) -> str:
    """Make a run directory under `out_root`, write its `manifest.json` and return its path."""
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    run_dir = os.path.join(out_root, f"{stamp}-{config.sha256()[:10]}")
    os.makedirs(run_dir, exist_ok=True)
    _write_json_atomic(os.path.join(run_dir, "manifest.json"), {
        "tool_version": __version__,
        "config_sha256": config.sha256(),
        "config": config.raw,
        "seeds": {"scenario": config.seed_scenario, "validation": config.seed_validation},
        "argv": list(argv),
        **extra,
    })
    return run_dir


# The flags that set a configuration key: argparse arguments (None when the
# flag is not given) and the key's path, in registration and application order.
_OVERRIDES = {
    "--seed": (dict(type=int, dest="seed", help="scenario seed override"), ("seeds", "scenario")),
    "--seed-validation": (dict(type=int, dest="seed_validation"), ("seeds", "validation")),
    "--no-tighten": (dict(action="store_const", const=False, dest="no_tighten",
                          help="disable grid tightening (exploration only, non-certifying)"),
                     ("tighten",)),
    "--N": (dict(type=int, dest="n_scenario"), ("samples", "scenario")),
    "--N0": (dict(type=int, dest="n_validation"), ("samples", "validation")),
}


def _load_config_with_overrides(args) -> SynthesisConfig:
    """The configuration at `args.config` with the override flags given in `args` set."""
    raw = read_json_object(args.config, "configuration")
    for kwargs, path in _OVERRIDES.values():
        value = getattr(args, kwargs["dest"], None)
        if value is not None:
            set_config_key(raw, path, value)
    return validate_config(raw)


def _finish_run(run_dir: str, report: CertificateReport) -> int:
    """Write the run's `report.json`, print its summary and path, and return the exit code."""
    path = os.path.join(run_dir, "report.json")
    _write_json_atomic(path, report.to_json_dict())
    print(f"verdict: {report.verdict}")
    for label, value, spec in (
        ("cause:   ", report.failure_cause, ""),
        ("objective K*: ", report.margin_objective, ".6g"),
        ("slack L*Uinv: ", report.margin_slack, ".6g"),
        ("margin:       ", report.margin, ".6g"),
        ("kappa*:       ", report.kappa, ".7f"),
        ("active sampled rows (support bound): ", report.support_bound, ""),
        ("validation violations: ", report.violations, ""),
    ):
        if value is not None:
            print(f"{label}{value:{spec}}")
    for w in report.warnings:
        print(f"warning: {w}")
    print(f"report: {path}")
    return EXIT_OK if report.certified else EXIT_INCONCLUSIVE


def _cmd_synthesize(args, argv) -> int:
    config = _load_config_with_overrides(args)
    run_dir = _new_run(args.out, config, argv)

    def save(scenario, validation):  # the collected data: the plant is not queried again
        save_dataset(scenario, os.path.join(run_dir, "scenario.csv"))
        save_dataset(validation, os.path.join(run_dir, "validation.csv"))

    return _finish_run(run_dir, synthesize(config, dataset_sink=None if args.no_datasets else save))


def _cmd_prior_synthesize(args, argv) -> int:
    config = _load_config_with_overrides(args)
    run_dir = _new_run(args.out, config, argv, eps=args.eps)
    return _finish_run(run_dir, prior_synthesize(config, args.eps))


def _cmd_collect(args, argv) -> int:
    # `--seed` is the dataset's own seed (dest `dataset_seed`), never a
    # rewrite of the config's scenario seed
    config = _load_config_with_overrides(args)
    role = Role(args.role)
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    sample_width = 2 * config.state_box.dim + config.input_box.dim  # x, u and x'
    check_entries("--count", args.count * sample_width, ConfigError)
    if args.dataset_seed is not None and args.dataset_seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.dataset_seed}")
    seed = args.dataset_seed if args.dataset_seed is not None else (
        config.seed_scenario if role is Role.SCENARIO else config.seed_validation
    )
    with make_plant(config.plant_spec) as plant:
        dataset = collect(plant, config.space(), args.count, seed, role)
    save_dataset(dataset, args.output)
    print(f"wrote {len(dataset)} samples to {args.output}")
    return EXIT_OK


def _print_plan(plan: PlanResult) -> None:
    print(f"{'N':>10} {'N0':>10} {'est.R':>8} {'check':>6}")
    for step in plan.steps:
        print(
            f"{step.n_scenario:>10} {step.n_validation:>10} {step.est_violations:>8} "
            f"{'pass' if step.sign >= 0 else 'fail':>6}"
        )
    print(f"chosen: N={plan.n_scenario} N0={plan.n_validation}")


def _cmd_plan(args, argv) -> int:
    config = _load_config_with_overrides(args)
    if config.auto_samples is None:
        raise ConfigError("plan requires a configuration with samples.auto")
    # the manifest comes first, so a plan whose pilot fails still leaves one
    run_dir = _new_run(args.out, config, argv) if args.out else None
    n, n0, plan = resolve_sample_sizes(config)
    assert plan is not None
    _print_plan(plan)
    if run_dir is not None:
        _write_json_atomic(
            os.path.join(run_dir, "plan.json"),
            {
                "n_scenario": n,
                "n_validation": n0,
                "steps": [
                    {
                        "n_scenario": s.n_scenario,
                        "n_validation": s.n_validation,
                        "est_violations": s.est_violations,
                        "passes": s.sign >= 0,
                    }
                    for s in plan.steps
                ],
            },
        )
    return EXIT_OK


def _cmd_verify(args, argv) -> int:
    for dest in ("region_points", "step_points", "trajectory_grid"):
        if getattr(args, dest) < 2:
            raise ConfigError(f"--{dest.replace('_', '-')} must be >= 2, got {getattr(args, dest)}")
    try:
        report = CertificateReport.from_json_dict(read_json_object(args.report, "report"))
    except KeyError as exc:
        raise ConfigError(f"report {args.report} lacks required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"report {args.report} has a malformed field: {exc}") from exc
    except PolynomialError as exc:
        raise ConfigError(f"report {args.report} has a malformed certificate: {exc}") from exc
    if report.certificate is None:
        print("report carries no certificate; nothing to verify")
        return EXIT_INCONCLUSIVE
    config = report.validated_config
    n, m = config.state_box.dim, config.input_box.dim
    # each flag sizes a grid of points ** d rows of d coordinates
    for dest, d in (("region_points", n), ("step_points", n + m), ("trajectory_grid", n)):
        check_entries(f"--{dest.replace('_', '-')}", getattr(args, dest) ** d * d, ConfigError)
    cert = report.certificate
    out_dir = args.out or os.path.dirname(os.path.abspath(args.report))
    with make_plant(config.plant_spec) as plant:
        conditions = check_cbf_conditions(
            cert, plant, config.initial_region, config.unsafe_region,
            config.state_box, config.input_box, config.horizon,
            region_points=args.region_points, step_points=args.step_points,
        )
        safety = empirical_safety(
            plant, cert, config.initial_region, config.unsafe_region,
            config.input_box, config.horizon, grid_points=args.trajectory_grid,
        )
        plots = {}
        if config.state_box.dim == config.input_box.dim == 1:
            plots = emit_plot_data(cert, plant, config.state_box, config.input_box, out_dir)
    payload = {
        "conditions": conditions.summary(),
        "safety": dataclasses.asdict(safety),
        "plots": plots,
    }
    _write_json_atomic(os.path.join(out_dir, "verify.json"), payload)
    for name, value in conditions.summary().items():
        print(f"{name}: {value}")
    print(f"fraction_safe: {safety.fraction_safe}")
    print(f"min_unsafe_distance: {safety.min_unsafe_distance:.6g}")
    ok = conditions.passed and safety.fraction_safe == 1.0
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def _cmd_bounds(args, argv) -> int:
    if args.bounds_cmd == "prior":
        n = prior_sample_size(PriorInputs(args.eps, args.beta, args.dim))
        print(n)
        return EXIT_OK
    if args.bounds_cmd == "kappa":
        kappa = solve_kappa(
            PosteriorInputs(args.N, args.N0, args.Nstar, args.R, args.beta)
        )
        print(f"{kappa:.7f}")
        return EXIT_OK
    # "plan": a unit hyper-cube scaled to the given volume, as only n and Vol enter
    if args.ndim < 1:
        raise BoundsDomainError(f"--ndim must be >= 1, got {args.ndim}")
    if not args.volume > 0.0:
        raise BoundsDomainError(f"--volume must be positive, got {args.volume}")
    side = args.volume ** (1.0 / args.ndim)
    space = SampleSpace(Box((0.0,) * args.ndim, (side,) * args.ndim))
    plan = plan_sample_sizes(
        khat=args.khat, nstar_hat=args.Nstar, lipschitz=args.L,
        space=space, beta=args.beta,
        n_start=args.start_N, n0_start=args.start_N0, growth=args.growth,
    )
    _print_plan(plan)
    return EXIT_OK


def _cmd_casestudy(args, argv) -> int:
    config = _load_config_with_overrides(args)
    run_dir = _new_run(args.out, config, argv, mode=args.mode)
    report = prior_synthesize(config, args.eps) if args.mode == "prior" else synthesize(config)
    exit_code = _finish_run(run_dir, report)
    if report.certificate is not None:
        with make_plant(config.plant_spec) as plant:
            emit_plot_data(report.certificate, plant, config.state_box, config.input_box, run_dir)
    return exit_code


def _cmd_repeat(args, argv) -> int:
    config = _load_config_with_overrides(args)
    if args.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")
    # the manifest comes first, so a repeat that fails still leaves one
    run_dir = _new_run(args.out, config, argv, runs=args.runs)
    result = repeat_experiment(config, args.runs)
    _write_json_atomic(os.path.join(run_dir, "repeat.json"), result.to_dict())
    with atomic_write(os.path.join(run_dir, "histogram.csv"), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["violations", "frequency"])
        writer.writerows(sorted(result.histogram.items()))
    print(f"{'violations':>12} {'frequency':>10}")
    for k in sorted(result.histogram):
        print(f"{k:>12} {result.histogram[k]:>10}")
    print(f"certified fraction: {result.certified_fraction:.3f}")
    if result.expected_samples is not None:
        print(f"expected samples to certify: {result.expected_samples:.0f}")
    else:
        print("expected samples to certify: undefined (no run certified)")
    print(f"outputs: {run_dir}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="safesynth", description=__doc__)
    parser.add_argument("--version", action="version", version=f"safesynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags shared by subcommands; each registers only those it reads
    common = {
        "--config": dict(required=True, help="configuration JSON path"),
        "--out": dict(default="runs", help="output directory root"),
        **{flag: kwargs for flag, (kwargs, _) in _OVERRIDES.items()},
    }

    def add_common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **common[flag])

    p = sub.add_parser("synthesize", help="posterior-method synthesis")
    add_common(p, *common)
    p.add_argument("--no-datasets", action="store_true", dest="no_datasets",
                   help="skip writing the dataset CSVs")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("prior-synthesize", help="prior-bound baseline synthesis")
    add_common(p, "--config", "--out", "--seed", "--seed-validation", "--no-tighten", "--N")
    p.add_argument("--eps", type=float, required=True, help="violation level")
    p.set_defaults(func=_cmd_prior_synthesize)

    p = sub.add_parser("collect", help="collect a dataset CSV")
    add_common(p, "--config", "--seed-validation")
    p.add_argument("--seed", type=int, default=None, dest="dataset_seed",
                   help="seed of this dataset (default: the config's seed for --role)")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--role", choices=[r.value for r in Role], default=Role.SCENARIO.value)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("plan", help="plan (N, N0) from estimates")
    add_common(p, "--config", "--out", "--seed", "--seed-validation", "--no-tighten")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("verify", help="check a certificate against the true plant")
    p.add_argument("--report", required=True, help="report.json path")
    p.add_argument("--out", default=None)
    p.add_argument("--region-points", type=int, default=2003, dest="region_points")
    p.add_argument("--step-points", type=int, default=201, dest="step_points")
    p.add_argument("--trajectory-grid", type=int, default=401, dest="trajectory_grid")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="standalone probabilistic bounds")
    bsub = p.add_subparsers(dest="bounds_cmd", required=True)
    bp = bsub.add_parser("prior", help="minimal prior sample count")
    bp.add_argument("--eps", type=float, required=True)
    bp.add_argument("--beta", type=float, required=True)
    bp.add_argument("--dim", type=int, required=True,
                    help="upper index of the tail sum: the number of decision "
                         "variables minus one (13 for the room template)")
    bp.set_defaults(func=_cmd_bounds)
    bk = bsub.add_parser("kappa", help="posterior confidence root")
    bk.add_argument("--N", type=int, required=True)
    bk.add_argument("--N0", type=int, required=True)
    bk.add_argument("--Nstar", type=int, required=True)
    bk.add_argument("--R", type=int, required=True)
    bk.add_argument("--beta", type=float, required=True)
    bk.set_defaults(func=_cmd_bounds)
    bl = bsub.add_parser("plan", help="standalone (N, N0) planner table")
    bl.add_argument("--khat", type=float, required=True)
    bl.add_argument("--Nstar", type=int, default=1)
    bl.add_argument("--L", type=float, required=True)
    bl.add_argument("--beta", type=float, required=True)
    bl.add_argument("--ndim", type=int, required=True,
                    help="dimension of the sampled state-input box")
    bl.add_argument("--volume", type=float, required=True,
                    help="volume of the sampled state-input box")
    bl.add_argument("--start-N", type=int, default=1000, dest="start_N")
    bl.add_argument("--start-N0", type=int, default=500, dest="start_N0")
    bl.add_argument("--growth", type=float, default=1.5)
    bl.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("casestudy", help="built-in room-temperature experiment")
    add_common(p, *(flag for flag in common if flag != "--config"))
    p.add_argument("--mode", choices=["prior", "posterior"], default="posterior")
    p.add_argument("--eps", type=float, default=7.492e-6,
                   help="violation level for --mode prior")
    p.set_defaults(func=_cmd_casestudy, config=bundled_room_config_path())

    p = sub.add_parser("repeat", help="repeat the experiment with derived seeds")
    add_common(p, *common)
    p.add_argument("--runs", type=int, required=True)
    p.set_defaults(func=_cmd_repeat)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SafesynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
