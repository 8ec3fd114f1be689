"""Spans around the public functions of gldof's modules, recorded from outside.

`Tracer.install` replaces each target function, in every gldof module that
bound it by name, with a wrapper that records a span (name, start, end,
parent) and a few counts read off its arguments and result.  Spans are kept
in memory and written out when the run ends.  A target that no longer
exists is reported as absent; its metrics then read 0.

The tracer assumes one thread: the runs it serves pass no --jobs flag.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "cli.main": ("gldof.cli", "main"),
    "datagen.load_problem": ("gldof.datagen", "load_problem"),
    "datagen.generate": ("gldof.datagen", "generate"),
    "core.design_build": ("gldof.core", "Design.__post_init__"),
    "solver.solve": ("gldof.solver", "solve"),
    "solver.lipschitz": ("gldof.solver", "largest_gram_eigenvalue"),
    "dof.estimate": ("gldof.dof", "dof_estimate"),
    "dof.differential": ("gldof.dof", "differential"),
    "risk.path": ("gldof.risk", "lambda_path"),
    "validate.mc": ("gldof.validate", "mc_dof"),
    "validate.fd_jacobian": ("gldof.validate", "fd_jacobian"),
    "validate.fd_divergence": ("gldof.validate", "fd_divergence"),
}

# per-layer metric -> (unit, the span it is read from)
LAYER_METRICS = {
    "cli.self_ms": ("ms", "cli.main"),
    "datagen.load_problem_ms": ("ms", "datagen.load_problem"),
    "datagen.generate_ms": ("ms", "datagen.generate"),
    "core.design_build_ms": ("ms", "core.design_build"),
    "solver.solve_calls": ("count", "solver.solve"),
    "solver.iterations": ("count", "solver.solve"),
    "solver.iterations_p50": ("count", "solver.solve"),
    "solver.solve_self_ms": ("ms", "solver.solve"),
    "solver.lipschitz_calls": ("count", "solver.lipschitz"),
    "solver.lipschitz_ms": ("ms", "solver.lipschitz"),
    "solver.distinct_ratio": ("ratio", "solver.solve"),
    "solver.failed": ("count", "solver.solve"),
    "dof.estimate_ms": ("ms", "dof.estimate"),
    "dof.differential_ms": ("ms", "dof.differential"),
    "dof.active_dim_mean": ("count", "dof.estimate"),
    "risk.path_self_ms": ("ms", "risk.path"),
    "validate.mc_self_ms": ("ms", "validate.mc"),
    "validate.fd_jacobian_ms": ("ms", "validate.fd_jacobian"),
    "validate.fd_divergence_ms": ("ms", "validate.fd_divergence"),
    "trace.overhead_pct": ("%", None),
}


def _solve_info(args, kwargs, result, exc):
    problem = args[0] if args else kwargs.get("problem")
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    key = hash((problem.y.tobytes(), problem.lam, getattr(opts, "kkt_tol", None)))
    if exc is not None:
        return {"key": key, "failed": type(exc).__name__ == "ConvergenceError",
                "iterations": getattr(exc, "iterations", 0)}
    return {"key": key, "failed": False, "iterations": result.iterations}


def _dof_info(args, kwargs, result, exc):
    return {} if exc is not None else {"active_dim": result.support.active_dim}


INFO = {"solver.solve": _solve_info, "dof.estimate": _dof_info}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        self.absent = []
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            # rebind every name that refers to the original, so calls through
            # `from .solver import solve` are traced too
            holders = [owner] + [m for n, m in list(sys.modules.items())
                                 if n.startswith("gldof") and m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def _wrap(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if info is not None:
                    span.update(info(args, kwargs, result, exc))

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(span, id=i)) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], absent: list[str], scale: float,
                  overhead_pct: float) -> dict:
    """Per-layer metrics per CLI call; `scale` converts raw seconds to
    calibrated milliseconds."""
    own = self_times(spans)
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s["name"], []).append(i)
    calls = max(1, len(by.get("cli.main", ())))

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in by.get(name, ())) \
            * scale / calls

    def self_total(name):
        return sum(own[i] for i in by.get(name, ())) * scale / calls

    solves = [spans[i] for i in by.get("solver.solve", ())]
    iters = [s.get("iterations", 0) for s in solves]
    dims = [spans[i].get("active_dim", 0) for i in by.get("dof.estimate", ())]
    values = {
        "cli.self_ms": self_total("cli.main"),
        "datagen.load_problem_ms": total("datagen.load_problem"),
        "datagen.generate_ms": total("datagen.generate"),
        "core.design_build_ms": total("core.design_build"),
        "solver.solve_calls": len(solves) / calls,
        "solver.iterations": sum(iters) / calls,
        "solver.iterations_p50": statistics.median(iters) if iters else 0,
        "solver.solve_self_ms": self_total("solver.solve"),
        "solver.lipschitz_calls": len(by.get("solver.lipschitz", ())) / calls,
        "solver.lipschitz_ms": total("solver.lipschitz"),
        "solver.distinct_ratio":
            len({s["key"] for s in solves}) / len(solves) if solves else 0,
        "solver.failed": sum(1 for s in solves if s.get("failed")),
        "dof.estimate_ms": total("dof.estimate"),
        "dof.differential_ms": total("dof.differential"),
        "dof.active_dim_mean": statistics.fmean(dims) if dims else 0,
        "risk.path_self_ms": self_total("risk.path"),
        "validate.mc_self_ms": self_total("validate.mc"),
        "validate.fd_jacobian_ms": total("validate.fd_jacobian"),
        "validate.fd_divergence_ms": total("validate.fd_divergence"),
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for name, (unit, span) in LAYER_METRICS.items():
        value = 0 if span in absent else values[name]
        out[name] = {"value": value, "unit": unit}
    return out
