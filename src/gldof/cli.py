"""Command-line surface: gen / solve / dof / path / validate subcommands.

Every output embeds (JSON) or is accompanied by (CSV) a run manifest with
the resolved options, seeds, input digests, and tool version, so results
are reproducible from the artifact alone.  Numeric output is printed with
17 significant digits.

Exit codes: 0 success (and, for validate, check passed); 2 usage error;
3 numerical failure; 4 validation failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .core import BlockPartition, Design
from .datagen import (GenerationError, LoadedProblem, ScenarioSpec, generate,
                      load_matrix_csv, load_problem, load_vector_csv,
                      save_problem)
from .dof import coordinate_radius, differential, dof_estimate
from .risk import estimate_sigma, lambda_path
from .solver import ConvergenceError, Problem, SolverOptions, lambda_max, solve
from .validate import (ORACLE_KKT_TOL, ORACLE_MAX_ITER, TransitionCrossingError, fd_oracle,
                       fd_step, mc_dof)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

FD_REL_TOL = 1e-4
FD_ABS_TOL = 1e-8


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()


def build_manifest(args: argparse.Namespace, inputs: list[str]) -> dict:
    # `out` names the destination, not the computation, so identical runs
    # writing to different paths still produce byte-identical content
    options = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "out") and v is not None}
    manifest = {
        "command": "gldof " + args.command
                   + (f" {args.mode}" if getattr(args, "mode", None) else ""),
        "version": __version__,
        "options": options,
        "input_digests": {p: _digest(p) for p in inputs if p},
    }
    if not args.no_timestamp:
        manifest["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return manifest


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=1, default=_json_default) + "\n"
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    return int(os.environ.get("GLDOF_SEED", "0"))


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _load_input(args) -> tuple:
    """Problem inputs from --problem JSON or the CSV alternative."""
    if args.problem:
        loaded = load_problem(args.problem)
        return loaded, [args.problem]
    if args.x_csv and args.y_csv and args.partition:
        x = load_matrix_csv(args.x_csv)
        y = load_vector_csv(args.y_csv)
        partition = BlockPartition.from_json(args.partition)
        return (LoadedProblem(design=Design(x), y=y, partition=partition),
                [args.x_csv, args.y_csv])
    raise SystemExit2("need --problem FILE, or --x-csv, --y-csv and --partition")


def _scenario_from_args(args) -> ScenarioSpec:
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            return ScenarioSpec.from_dict(json.load(fh))
    if args.block_sizes is None:
        raise SystemExit2("need --block-sizes (or --spec FILE)")
    sizes = tuple(int(s) for s in args.block_sizes.split(","))
    n = args.n if args.n is not None else sum(sizes)
    return ScenarioSpec(Q=args.q, N=n, block_sizes=sizes, k_active=args.k_active,
                        signal_scale=args.signal_scale, sigma=args.sigma,
                        seed=_default_seed(args.seed), identity=args.identity)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    spec = _scenario_from_args(args)
    args.seed = spec.seed  # manifest records the resolved seed
    scenario = generate(spec)
    y = scenario.draw_y(replicate=args.draw)
    manifest = build_manifest(args, [args.spec] if getattr(args, "spec", None) else [])
    save_problem(args.out, scenario.design, y, scenario.partition,
                 lam=args.lam, beta0=scenario.beta0, sigma=spec.sigma,
                 manifest=manifest)
    print(f"wrote {args.out} (Q={spec.Q}, N={spec.N}, "
          f"{len(spec.block_sizes)} blocks, k_active={spec.k_active})")
    return EXIT_OK


def _resolve_problem(args) -> tuple[Problem, list[str]]:
    loaded, inputs = _load_input(args)
    lam = args.lam if args.lam is not None else loaded.lam
    if lam is None:
        raise SystemExit2("no lambda in the problem file; pass --lambda")
    return loaded.problem(lam), inputs


def cmd_solve(args) -> int:
    problem, inputs = _resolve_problem(args)
    warm = None
    if args.warm_start:
        with open(args.warm_start) as fh:
            warm = json.load(fh)["beta"]
        inputs.append(args.warm_start)
    sol = solve(problem, SolverOptions(kkt_tol=args.tol, max_iter=args.max_iter), warm)
    payload = {
        "manifest": build_manifest(args, inputs),
        "lambda": problem.lam,
        "beta": [float(v) for v in sol.beta],
        "active_blocks": list(sol.support.active),
        "active_dim": sol.support.active_dim,
        "objective": sol.objective,
        "kkt_residual": sol.kkt_residual,
        "kkt_tol": args.tol,
        "iterations": sol.iterations,
    }
    write_json(args.out, payload)
    print(f"solved: objective {fmt(sol.objective)}, kkt_residual "
          f"{fmt(sol.kkt_residual)}, {sol.iterations} iterations")
    return EXIT_OK


def cmd_dof(args) -> int:
    problem, inputs = _resolve_problem(args)
    sol = solve(problem, SolverOptions(kkt_tol=args.tol, max_iter=args.max_iter))
    report = dof_estimate(problem, sol)
    payload = {"manifest": build_manifest(args, inputs), "lambda": problem.lam}
    payload.update(report.to_dict())
    write_json(args.out, payload)
    print(f"dof {fmt(report.divergence)} on {report.support.n_active} active "
          f"blocks (active_dim {report.support.active_dim})"
          + ("  [transition warning]" if report.warning else ""))
    return EXIT_OK


def cmd_path(args) -> int:
    loaded, inputs = _load_input(args)
    sigma = args.sigma
    if sigma is None:
        sigma = loaded.sigma
    if sigma is None and args.estimate_sigma:
        sigma = estimate_sigma(loaded.design, loaded.y)
    lambdas = None
    if args.grid:
        lambdas = np.array([float(s) for s in args.grid.split(",")])
    curve = lambda_path(loaded.design, loaded.y, loaded.partition, lambdas,
                        sigma=sigma, n_points=args.grid_points,
                        decades=args.grid_decades,
                        opts=SolverOptions(kkt_tol=args.tol, max_iter=args.max_iter))
    curve.write_csv(args.out)
    write_json(args.out + ".manifest.json",
               {"manifest": build_manifest(args, inputs),
                "sigma": sigma, "failed_lambdas": list(curve.failed)})
    crit = "sure" if sigma is not None else "gcv"
    best = curve.select(crit)
    print(f"wrote {args.out}: {len(curve)} lambdas, argmin-{crit} lambda = {fmt(best)}")
    if curve.failed:
        print(f"warning: {len(curve.failed)} lambdas failed to certify", file=sys.stderr)
    return EXIT_OK


def cmd_validate_fd(args) -> int:
    problem, inputs = _resolve_problem(args)
    sol = solve(problem, SolverOptions(kkt_tol=ORACLE_KKT_TOL, max_iter=args.max_iter))
    report = dof_estimate(problem, sol)

    step = args.step
    if step is None:
        # half the first-order radius keeps every probe on the support
        step = min(fd_step(problem), 0.5 * coordinate_radius(problem, sol))
        if step == 0.0:
            raise TransitionCrossingError("y lies on a support boundary: every step "
                                          "changes the support")
    fd_jac, fd_div = fd_oracle(problem, step, base=sol, max_iter=args.max_iter)
    jac_err = jac_tol = None
    if not sol.support.is_empty:
        diff = np.abs(differential(problem, sol) - fd_jac)
        allowed = np.maximum(FD_REL_TOL * np.abs(fd_jac), FD_ABS_TOL)
        jac_err = float(np.max(diff))
        jac_tol = float(np.max(diff / allowed))
    div_err = abs(report.divergence - fd_div)
    div_tol = max(FD_REL_TOL * abs(fd_div), FD_ABS_TOL)
    ok = div_err <= div_tol and (jac_tol is None or jac_tol <= 1.0)

    payload = {
        "manifest": build_manifest(args, inputs),
        "lambda": problem.lam,
        "divergence": report.divergence,
        "fd_divergence": fd_div,
        "divergence_abs_err": div_err,
        "jacobian_max_abs_err": jac_err,
        "jacobian_worst_tol_ratio": jac_tol,
        "step": step,
        "transition_warning": report.warning,
        "passed": ok,
    }
    if args.out:
        write_json(args.out, payload)
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} fd: divergence {fmt(report.divergence)} vs fd "
          f"{fmt(fd_div)} (abs err {fmt(div_err)})")
    if report.warning:
        print("note: transition warning raised; differential may be fragile",
              file=sys.stderr)
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_validate_mc(args) -> int:
    spec = _scenario_from_args(args)
    args.seed = spec.seed
    args.mc_seed = _default_seed(args.mc_seed)
    scenario = generate(spec)
    lam = args.lam
    if lam is None:
        lam = args.lam_frac * lambda_max(scenario.design, scenario.mu0,
                                         scenario.partition)
    result = mc_dof(scenario, lam, args.replicates, seed=args.mc_seed,
                    exclude_warned=args.exclude_warned)
    ok = result.consistent()
    payload = {"manifest": build_manifest(args,
                                          [args.spec] if getattr(args, "spec", None) else []),
               "lambda": lam}
    payload.update(result.to_dict())
    if args.out:
        write_json(args.out, payload)
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} mc: mean divergence {fmt(result.mean_divergence)} vs "
          f"stein mc dof {fmt(result.mc_dof)} "
          f"(|diff| {fmt(abs(result.mean_divergence - result.mc_dof))} "
          f"<= 3 x {fmt(result.combined_stderr)}: {ok})")
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser

def _add_problem_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help="problem JSON file")
    p.add_argument("--x-csv", help="design matrix CSV (with --y-csv and --partition)")
    p.add_argument("--y-csv", help="observations CSV")
    p.add_argument("--partition", help="partition as JSON array of index arrays")


def _add_solver_opts(p: argparse.ArgumentParser) -> None:
    defaults = SolverOptions()
    p.add_argument("--tol", type=float, default=defaults.kkt_tol,
                   help="KKT certificate tolerance, relative to max_b ||X_b'y||")
    p.add_argument("--max-iter", type=int, default=defaults.max_iter)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="scenario spec JSON file (overrides flags)")
    p.add_argument("--q", type=int, default=20)
    p.add_argument("--n", type=int, default=None,
                   help="defaults to the sum of --block-sizes")
    p.add_argument("--block-sizes", help="comma-separated block sizes, e.g. 2,2,3")
    p.add_argument("--k-active", type=int, default=1)
    p.add_argument("--signal-scale", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to $GLDOF_SEED, else 0")
    p.add_argument("--identity", action="store_true", help="use the identity design")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldof",
        description="Group lasso solving, DOF estimation, and risk-based "
                    "lambda selection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic problem file")
    _add_scenario_flags(p)
    p.add_argument("--draw", type=int, default=0, help="noise replicate index")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="store this lambda in the problem file")
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a problem to a KKT certificate")
    _add_problem_inputs(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_solver_opts(p)
    p.add_argument("--warm-start", help="solution JSON to start from")
    p.add_argument("--out", help="solution JSON (stdout if omitted)")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dof", help="DOF estimate and transition diagnostics")
    _add_problem_inputs(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_solver_opts(p)
    p.add_argument("--out", help="report JSON (stdout if omitted)")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_dof)

    p = sub.add_parser("path", help="risk criteria along a lambda path (CSV)")
    _add_problem_inputs(p)
    p.add_argument("--grid", help="comma-separated lambdas (else log-spaced)")
    p.add_argument("--grid-points", type=int, default=50)
    p.add_argument("--grid-decades", type=float, default=2.0)
    p.add_argument("--sigma", type=float, default=None,
                   help="noise std for SURE/Cp/AIC (file value used if present)")
    p.add_argument("--estimate-sigma", action="store_true",
                   help="estimate sigma from least-squares residuals")
    _add_solver_opts(p)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("validate", help="run a numerical oracle check")
    vsub = p.add_subparsers(dest="mode", required=True)

    pf = vsub.add_parser("fd", help="finite-difference check of the differential")
    _add_problem_inputs(pf)
    pf.add_argument("--lambda", dest="lam", type=float, default=None)
    pf.add_argument("--step", type=float, default=None,
                    help="fd step (default 1e-5 * max|y|, or 1e-5 when y = 0, "
                         "cut to half the support's first-order coordinate radius)")
    pf.add_argument("--max-iter", type=int, default=ORACLE_MAX_ITER)
    pf.add_argument("--out", help="verdict JSON")
    pf.add_argument("--no-timestamp", action="store_true")
    pf.set_defaults(func=cmd_validate_fd)

    pm = vsub.add_parser("mc", help="Monte Carlo unbiasedness check")
    _add_scenario_flags(pm)
    pm.add_argument("--lambda", dest="lam", type=float, default=None)
    pm.add_argument("--lambda-frac", dest="lam_frac", type=float, default=0.5,
                    help="lambda as a fraction of lambda_max(mu0) when --lambda absent")
    pm.add_argument("--replicates", type=int, default=1000)
    pm.add_argument("--mc-seed", type=int, default=None,
                    help="seed for the noise draws (defaults to $GLDOF_SEED, else 0)")
    pm.add_argument("--exclude-warned", action="store_true")
    pm.add_argument("--out", help="result JSON")
    pm.add_argument("--no-timestamp", action="store_true")
    pm.set_defaults(func=cmd_validate_mc)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args returns a fresh namespace per call
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, GenerationError, TransitionCrossingError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
