"""Output checks, run after each operation and outside its timed region.

Each check returns a list of problems; an operation with any problem counts
as failed.  The checks use only public safesynth calls and recompute every
claim of a report from its inputs:

* the exit code matches the verdict, and the verdict matches the margin;
* the scenario program, rebuilt with `scp.build_problem` from the persisted
  ``scenario.csv`` (or, for the prior route, which persists no dataset, from
  a fresh collection with the same seed), is satisfied by the reported
  certificate within the feasibility tolerance, and its active sampled rows
  number the reported support bound;
* ``margin = K* + L * u_inverse(eps)``;
* kappa* is bracketed by a sign change of `bounds.posterior_g` and the
  reported violations recount on ``validation.csv``;
* a certified certificate passes `verify.check_cbf_conditions` against the
  true plant;
* datasets collected through the child plant equal the in-process ones;
* at workload seed 0, the pinned outcome of the case study.
"""

import os

import numpy as np

# `_snap_growth_budget` may shave up to 1e-9 off the LP's growth budget
SNAP_ALLOWANCE = 1e-9
KAPPA_STEP = 1e-9
PIN_TOL = 1e-9
HIGHS_TOL = 1e-7
CHUNK_ROWS = 500_000


def decision_vector(layout, cert) -> np.ndarray:
    """The certificate as a decision vector, with the smallest split variables."""
    d = np.zeros(layout.n_total)
    d[layout.OBJECTIVE] = cert.objective
    d[layout.FLOOR] = cert.unsafe_floor
    d[layout.CAP] = cert.initial_cap
    d[layout.BUDGET] = cert.growth_budget
    q = np.asarray(cert.barrier.coeffs)
    d[layout.q_slice] = q
    d[layout.s_q_slice] = np.abs(q) / np.asarray(layout.barrier_scheme.scale)
    for i, (poly, scheme) in enumerate(zip(cert.controllers, layout.controller_schemes)):
        p = np.asarray(poly.coeffs)
        d[layout.p_slice(i)] = p
        d[layout.s_p_slice(i)] = np.abs(p) / np.asarray(scheme.scale)
    return d


def _chunks(dataset):
    from safesynth.plant import Dataset

    for start in range(0, len(dataset), CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        yield Dataset(dataset.xs[start:stop], dataset.us[start:stop],
                      dataset.x_nexts[start:stop], dataset.seed, dataset.role,
                      dataset.space)


def program_residuals(config, dataset, cert) -> tuple[float, int]:
    """Worst residual of the scenario program at the certificate, and the
    number of sampled rows within the activity tolerance of their bound.

    The program is rebuilt chunk by chunk, so a 2.76M-sample dataset never
    needs its whole constraint matrix at once."""
    from safesynth.scp import RowTag, box_to_polytope, build_problem

    layout = config.layout()
    d = decision_vector(layout, cert)
    input_a, input_b = box_to_polytope(config.input_box)
    worst, active = -np.inf, 0
    for chunk in _chunks(dataset):
        problem = build_problem(
            layout, chunk, config.initial_region, config.unsafe_region,
            config.state_box, input_a, input_b, config.horizon,
            config.grids, config.strict_margin, config.tighten,
        )
        resid = problem.residuals(d)
        worst = max(worst, float(resid.max()))
        g3 = problem.tags == RowTag.G3
        active += int(np.sum(np.abs(resid[g3]) <= config.tolerances.activity))
    return worst, active


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def check_pinned(report: dict, exit_code: int, pinned: dict) -> list[str]:
    problems = []
    if exit_code != pinned["exit"]:
        problems.append(f"pinned exit {pinned['exit']}, got {exit_code}")
    if report["verdict"] != pinned["verdict"]:
        problems.append(f"pinned verdict {pinned['verdict']}, got {report['verdict']}")
    if not _close(report["margin_objective"], pinned["objective"], PIN_TOL):
        problems.append(f"pinned K* {pinned['objective']!r}, got {report['margin_objective']!r}")
    for key in ("support_bound", "violations", "n_scenario"):
        if key in pinned and report[key] != pinned[key]:
            problems.append(f"pinned {key} {pinned[key]}, got {report[key]}")
    if "kappa" in pinned and not _close(report["kappa"], pinned["kappa"], PIN_TOL):
        problems.append(f"pinned kappa {pinned['kappa']!r}, got {report['kappa']!r}")
    return problems


def find_run_dir(out_dir: str) -> str:
    entries = [os.path.join(out_dir, e) for e in sorted(os.listdir(out_dir))]
    if len(entries) != 1:
        raise ValueError(f"expected one run directory in {out_dir}, found {len(entries)}")
    return entries[0]


def cli_output(out_dir: str, exit_code: int) -> dict:
    """What a CLI run produced, less its timings and the run directory's name:
    the exit code, the report and a digest of every other file."""
    import hashlib
    import json

    run_dir = find_run_dir(out_dir)
    output = {"exit": exit_code}
    for name in sorted(os.listdir(run_dir)):
        path = os.path.join(run_dir, name)
        if name == "report.json":
            with open(path) as fh:
                output[name] = json.load(fh)
            output[name].pop("timings")
        elif name != "manifest.json":  # the manifest echoes the output path
            with open(path, "rb") as fh:
                output[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return output


def check_cli_run(workload, out_dir: str, exit_code: int, seed: int, report=None) -> list[str]:
    """Check one CLI run; `report` replaces the report.json on disk when given."""
    import json

    from safesynth.bounds import PosteriorInputs, PriorInputs, posterior_g, prior_sample_size
    from safesynth.geometry import u_inverse
    from safesynth.pipeline import validate_config
    from safesynth.plant import Role, collect, load_dataset, make_plant
    from safesynth.scp import CertificateValues
    from safesynth.verify import KNIFE_EDGE_TOL, check_cbf_conditions, step_residuals

    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"]
    run_dir = find_run_dir(out_dir)
    if report is None:
        with open(os.path.join(run_dir, "report.json")) as fh:
            report = json.load(fh)
    problems = []
    certified = report["verdict"] == "certified"
    if exit_code != (0 if certified else 2):
        problems.append(f"exit code {exit_code} for verdict {report['verdict']}")
    if seed == 0 and workload.pinned is not None:
        problems += check_pinned(report, exit_code, workload.pinned)
    config = validate_config(report["config"])
    space = config.space()
    prior = workload.kind == "prior"

    if prior:
        dim = config.layout().n_barrier + config.layout().n_controller + 3
        n_required = prior_sample_size(PriorInputs(report["eps"], config.beta, dim))
        if report["n_scenario"] != max(config.n_scenario or 0, n_required):
            problems.append(f"prior N {report['n_scenario']}, bound gives {n_required}")
        scenario = collect(make_plant("room-temp"), space, report["n_scenario"],
                           report["seeds"]["scenario"], Role.SCENARIO)
    else:
        scenario = load_dataset(os.path.join(run_dir, "scenario.csv"))
        validation = load_dataset(os.path.join(run_dir, "validation.csv"))
        for data, role, n in ((scenario, "scenario", report["n_scenario"]),
                              (validation, "validation", report["n_validation"])):
            if len(data) != n or data.seed != report["seeds"][role]:
                problems.append(f"{role}.csv holds {len(data)} samples of seed {data.seed}")
        if workload.external:
            for data in (scenario, validation):
                truth = collect(make_plant("room-temp"), space, len(data), data.seed, data.role)
                if not data == truth:
                    problems.append(f"{data.role.value} data differ from the in-process plant")

    if report["certificate"] is None:
        if certified:
            problems.append("certified report without a certificate")
        return problems
    cert = CertificateValues.from_dict(report["certificate"])
    if cert.objective != report["margin_objective"]:
        problems.append("certificate objective differs from K*")

    worst, active = program_residuals(config, scenario, cert)
    if worst > config.tolerances.feasibility + SNAP_ALLOWANCE:
        problems.append(f"certificate violates the rebuilt program by {worst:.3e}")
    if active != report["support_bound"]:
        problems.append(f"{active} active sampled rows, report says {report['support_bound']}")

    if report["margin"] is not None:
        margin = report["margin_objective"] + config.lipschitz * u_inverse(report["eps"], space)
        if not _close(margin, report["margin"], 1e-12):
            problems.append(f"margin recomputes to {margin!r}, report says {report['margin']!r}")
        if certified != (margin <= 0.0 and config.tighten):
            problems.append(f"verdict {report['verdict']} with margin {margin!r}")

    if not prior:
        recount = int(np.sum(step_residuals(cert, validation) > KNIFE_EDGE_TOL))
        if recount != report["violations"]:
            problems.append(f"{recount} violations recounted, report says {report['violations']}")
        if report["kappa"] is not None:
            inputs = PosteriorInputs(report["n_scenario"], report["n_validation"],
                                     report["support_bound"], report["violations"],
                                     config.beta)
            k = report["kappa"]
            if not (posterior_g(k - KAPPA_STEP, inputs).sign > 0
                    and posterior_g(k + KAPPA_STEP, inputs).sign < 0):
                problems.append(f"kappa {k!r} is not bracketed by a sign change")

    if certified:
        conditions = check_cbf_conditions(
            cert, make_plant("room-temp"), config.initial_region, config.unsafe_region,
            config.state_box, config.input_box, config.horizon,
        )
        if not conditions.passed:
            problems.append(f"certificate fails the true plant: {conditions.summary()}")
    return problems


def check_small_lp(config, seeds, objectives) -> list[str]:
    """Every program and drop-one variant against HiGHS."""
    from scipy.optimize import linprog

    from workloads import small_lp_batch

    problems = []
    for b, variants in enumerate(small_lp_batch(config, seeds)):
        if len(objectives[b]) != len(variants):
            problems.append(f"program {b}: {len(objectives[b])} results for {len(variants)} solves")
            continue
        for v, (variant, (status, objective)) in enumerate(zip(variants, objectives[b])):
            ref = linprog(variant.cost, A_ub=variant.G, b_ub=variant.h,
                          bounds=(None, None), method="highs")
            if ref.status != 0:
                problems.append(f"program {b}/{v}: HiGHS status {ref.status}")
            elif status != "optimal" or not _close(objective, ref.fun, HIGHS_TOL):
                problems.append(f"program {b}/{v}: {status} {objective!r}, HiGHS {ref.fun!r}")
    return problems
