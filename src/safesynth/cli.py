"""Command-line surface.

Subcommands mirror the synthesis stages: `collect` data, `plan` sample sizes,
`synthesize` / `prior-synthesize` a certificate, `verify` it against the true
plant, `bounds` for the standalone probabilistic computations, `casestudy`
for the built-in room-temperature experiment, and `repeat` for batched runs.

Exit codes: 0 success/certified, 2 completed but inconclusive, 3 bad
configuration or usage, 4 runtime failure.  Every run writes a manifest
(config hash, seeds, tool version, argv) sufficient to reproduce it, and all
reports are written atomically.
"""

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .bounds import (
    PlanResult,
    PosteriorInputs,
    PriorInputs,
    plan_sample_sizes,
    prior_sample_size,
    solve_kappa,
)
from .errors import ConfigError, SafesynthError
from .geometry import Box, SampleSpace
from .pipeline import (
    CertificateReport,
    SynthesisConfig,
    prior_synthesize,
    read_json_object,
    repeat_experiment,
    resolve_sample_sizes,
    room_casestudy_config,
    synthesize,
    validate_config,
)
from .plant import Role, collect, make_plant, save_dataset
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
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_dir(out_root: str, config_raw: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(config_raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:10]
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = os.path.join(out_root, f"{stamp}-{digest}")
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest(run_dir: str, config: SynthesisConfig, argv, extra: dict | None = None) -> None:
    manifest = {
        "tool_version": __version__,
        "config_sha256": config.sha256(),
        "config": config.raw,
        "seeds": {"scenario": config.seed_scenario, "validation": config.seed_validation},
        "argv": list(argv),
    }
    manifest.update(extra or {})
    _write_json_atomic(os.path.join(run_dir, "manifest.json"), manifest)


def _apply_overrides(args, raw: dict) -> dict:
    if getattr(args, "seed", None) is not None:
        raw.setdefault("seeds", {})
        raw["seeds"]["scenario"] = args.seed
    if getattr(args, "seed_validation", None) is not None:
        raw.setdefault("seeds", {})
        raw["seeds"]["validation"] = args.seed_validation
    if getattr(args, "no_tighten", False):
        raw["tighten"] = False
    if getattr(args, "lexicographic", False):
        raw["lexicographic"] = True
    if getattr(args, "n_scenario", None) is not None:
        raw["samples"] = dict(raw.get("samples", {}))
        raw["samples"].pop("auto", None)
        raw["samples"]["scenario"] = args.n_scenario
    if getattr(args, "n_validation", None) is not None:
        raw["samples"] = dict(raw.get("samples", {}))
        raw["samples"].pop("auto", None)
        raw["samples"]["validation"] = args.n_validation
    return raw


def _load_config_with_overrides(args) -> SynthesisConfig:
    return validate_config(_apply_overrides(args, read_json_object(args.config, "configuration")))


def _emit_report(run_dir: str, report: CertificateReport) -> str:
    path = os.path.join(run_dir, "report.json")
    _write_json_atomic(path, report.to_json_dict())
    return path


def _print_report_summary(report: CertificateReport) -> None:
    print(f"verdict: {report.verdict}")
    if report.failure_cause:
        print(f"cause:   {report.failure_cause}")
    if report.margin_objective is not None:
        print(f"objective K*: {report.margin_objective:.6g}")
    if report.margin_slack is not None:
        print(f"slack L*Uinv: {report.margin_slack:.6g}")
    if report.margin is not None:
        print(f"margin:       {report.margin:.6g}")
    if report.kappa is not None:
        print(f"kappa*:       {report.kappa:.7f}")
    if report.support_bound is not None:
        print(f"active sampled rows (support bound): {report.support_bound}")
    if report.violations is not None:
        print(f"validation violations: {report.violations}")
    for w in report.warnings:
        print(f"warning: {w}")


def _verdict_exit(report: CertificateReport) -> int:
    return EXIT_OK if report.certified else EXIT_INCONCLUSIVE


def _cmd_synthesize(args, argv) -> int:
    config = _load_config_with_overrides(args)
    run_dir = _run_dir(args.out, config.raw)
    _write_manifest(run_dir, config, argv)
    sink = None
    if not getattr(args, "no_datasets", False):
        # persist the collected data directly; the simulator is never
        # re-queried for persistence
        def sink(scenario, validation):
            save_dataset(scenario, os.path.join(run_dir, "scenario.csv"))
            save_dataset(validation, os.path.join(run_dir, "validation.csv"))

    report = synthesize(config, dataset_sink=sink)
    path = _emit_report(run_dir, report)
    _print_report_summary(report)
    print(f"report: {path}")
    return _verdict_exit(report)


def _cmd_prior_synthesize(args, argv) -> int:
    config = _load_config_with_overrides(args)
    run_dir = _run_dir(args.out, config.raw)
    _write_manifest(run_dir, config, argv, extra={"eps": args.eps})
    report = prior_synthesize(config, args.eps)
    path = _emit_report(run_dir, report)
    _print_report_summary(report)
    print(f"report: {path}")
    return _verdict_exit(report)


def _cmd_collect(args, argv) -> int:
    config = _load_config_with_overrides(args)
    plant = make_plant(config.plant_spec)
    role = Role(args.role)
    seed = args.seed if args.seed is not None else (
        config.seed_scenario if role is Role.SCENARIO else config.seed_validation
    )
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
    n, n0, plan = resolve_sample_sizes(config)
    assert plan is not None
    _print_plan(plan)
    if args.out:
        run_dir = _run_dir(args.out, config.raw)
        _write_manifest(run_dir, config, argv)
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
    try:
        report = CertificateReport.from_json_dict(read_json_object(args.report, "report"))
    except KeyError as exc:
        raise ConfigError(f"report {args.report} lacks required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"report {args.report} has a malformed field: {exc}") from exc
    if report.certificate is None:
        print("report carries no certificate; nothing to verify")
        return EXIT_INCONCLUSIVE
    config = validate_config(report.config)
    plant = make_plant(config.plant_spec)
    cert = report.certificate
    conditions = check_cbf_conditions(
        cert, plant, config.initial_region, config.unsafe_region,
        config.state_box, config.input_box, config.horizon,
        region_points=args.region_points, step_points=args.step_points,
    )
    safety = empirical_safety(
        plant, cert, config.initial_region, config.unsafe_region,
        config.input_box, config.horizon, grid_points=args.trajectory_grid,
    )
    out_dir = args.out or os.path.dirname(os.path.abspath(args.report))
    plots = emit_plot_data(cert, plant, config.state_box, config.input_box, out_dir)
    payload = {
        "conditions": conditions.summary(),
        "safety": safety.to_dict(),
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
    if args.bounds_cmd == "plan":
        # unit hyper-cube scaled to the given volume: only n and Vol enter
        side = args.volume ** (1.0 / args.ndim)
        space = SampleSpace(Box((0.0,) * args.ndim, (side,) * args.ndim))
        plan = plan_sample_sizes(
            khat=args.khat, nstar_hat=args.Nstar, lipschitz=args.L,
            space=space, beta=args.beta,
            n_start=args.start_N, n0_start=args.start_N0, growth=args.growth,
        )
        _print_plan(plan)
        return EXIT_OK
    raise ConfigError("bounds needs a subcommand: prior, kappa or plan")


def _cmd_casestudy(args, argv) -> int:
    raw = room_casestudy_config(
        n_scenario=args.n_scenario or 140_000,
        n_validation=args.n_validation or 70_000,
    )
    raw = _apply_overrides(args, raw)
    config = validate_config(raw)
    run_dir = _run_dir(args.out, config.raw)
    _write_manifest(run_dir, config, argv, extra={"mode": args.mode})
    if args.mode == "prior":
        report = prior_synthesize(config, args.eps)
    else:
        report = synthesize(config)
    path = _emit_report(run_dir, report)
    if report.certificate is not None:
        plant = make_plant(config.plant_spec)
        emit_plot_data(report.certificate, plant, config.state_box, config.input_box, run_dir)
    _print_report_summary(report)
    print(f"report: {path}")
    return _verdict_exit(report)


def _cmd_repeat(args, argv) -> int:
    config = _load_config_with_overrides(args)
    result = repeat_experiment(config, args.runs)
    run_dir = _run_dir(args.out, config.raw)
    _write_manifest(run_dir, config, argv, extra={"runs": args.runs})
    _write_json_atomic(os.path.join(run_dir, "repeat.json"), result.to_dict())
    hist_path = os.path.join(run_dir, "histogram.csv")
    with open(hist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["violations", "frequency"])
        for k in sorted(result.histogram):
            writer.writerow([k, result.histogram[k]])
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
        "--seed": dict(type=int, default=None, help="scenario seed override"),
        "--seed-validation": dict(type=int, default=None, dest="seed_validation"),
        "--no-tighten": dict(action="store_true", dest="no_tighten",
                             help="disable grid tightening (exploration only, non-certifying)"),
        "--lexicographic": dict(action="store_true"),
        "--N": dict(type=int, default=None, dest="n_scenario"),
        "--N0": dict(type=int, default=None, dest="n_validation"),
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
    add_common(p, "--config", "--out", "--seed", "--seed-validation", "--no-tighten",
               "--lexicographic", "--N")
    p.add_argument("--eps", type=float, required=True, help="violation level")
    p.set_defaults(func=_cmd_prior_synthesize)

    p = sub.add_parser("collect", help="collect a dataset CSV")
    add_common(p, "--config", "--seed", "--seed-validation")
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
    p.set_defaults(func=_cmd_casestudy)

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
