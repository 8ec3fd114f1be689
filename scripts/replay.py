"""Replay the benchmark's inputs through two commits and compare their outputs.

    python3 scripts/replay.py --base REV --head REV [--workdir DIR]

The replay set is 158 CLI calls: seeds 1 and 2 (`mc` rounds 0-3, `path` 0-1,
`fd` 0-3, `oneshot` 0-1) and seed 316 (`fd` rounds 56 and 62, the two
instances nearest a support transition).  Their inputs are written once, by
this checkout's `bench/workloads.py` round functions.  Each commit is
exported with `bench_record.export`, and each side calls its own
`gldof.cli.main` on every input in one subprocess, with the same
environment for both sides (one BLAS thread, as the benchmark runs).

The report compares exit codes, and every JSON and CSV output and CSV
sidecar without its `manifest`.  Per key it prints the number of values that
differ and the worst relative difference.  Per workload and side it prints
the calls per CLI call of `solver._cholesky` (factorizations),
`solver._fista` (FISTA runs, resumes included) and `solver.Solution`
(solutions built), each where both commits define it; these counts do not
decide the exit code.  The exit code is 1 if
an exit code differs, if an output is missing on one side, or if any value
of `active_blocks`, `active_dim`, `warning` (or `transition_warning`),
`passed`, `n_failed` or `n_warned` differs; otherwise it is 0, whatever the
size of the other differences.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (seed, workload, rounds)
REPLAY_SET = [(seed, workload, range(rounds)) for seed in (1, 2)
              for workload, rounds in (("mc", 4), ("path", 2), ("fd", 4), ("oneshot", 2))]
REPLAY_SET.append((316, "fd", (56, 62)))
# keys that must be equal on both sides: supports, warnings, verdicts and counts
STRICT = {"active_blocks", "active_dim", "warning", "transition_warning", "passed",
          "n_failed", "n_warned"}
CODES = "exit_codes.json"
COUNTS = "call_counts.json"
# the solver functions, and the class, whose calls are counted
COUNTED = ("_cholesky", "_fista", "Solution")
# run in each side's subprocess: argv[1] names the ops file, argv[2] the codes
# file, argv[3] the counts file and argv[4:] the functions to count
CHILD = """
import json, sys
from gldof import solver
from gldof.cli import main
with open(sys.argv[1]) as fh:
    ops = json.load(fh)
names = [n for n in sys.argv[4:] if hasattr(solver, n)]
calls = dict.fromkeys(names, 0)

def counting(name, f):
    def call(*args, **kwargs):
        calls[name] += 1
        return f(*args, **kwargs)
    return call

for n in names:
    setattr(solver, n, counting(n, getattr(solver, n)))
codes, counts = {}, {}
for name, argv in ops:
    calls.update(dict.fromkeys(names, 0))
    codes[name] = main(argv)
    counts[name] = dict(calls)
with open(sys.argv[2], "w") as fh:
    json.dump(codes, fh)
with open(sys.argv[3], "w") as fh:
    json.dump(counts, fh)
"""


def write_inputs(indir: str) -> list:
    """The replay set's inputs under `indir`, and one (output name, argv,
    workload) per call, its output path relative to `indir`."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    ops = []
    for seed, workload, rounds in REPLAY_SET:
        d = os.path.join(indir, f"seed{seed}")
        os.makedirs(d, exist_ok=True)
        for r in rounds:
            for op in getattr(workloads, f"{workload}_round")(seed, r, d):
                ops.append((os.path.relpath(op.out, indir), op.argv, workload))
    return ops


def run_side(tree: str, ops: list, indir: str, outdir: str) -> None:
    """Every call of `ops` through the `gldof.cli.main` of `tree`, writing
    under `outdir`, which also receives each call's exit code."""
    side_ops = []
    for name, argv, _ in ops:
        out = os.path.join(outdir, name)
        os.makedirs(os.path.dirname(out), exist_ok=True)
        side_ops.append((name, [out if a == os.path.join(indir, name) else a for a in argv]))
    ops_file = os.path.join(outdir, "ops.json")
    with open(ops_file, "w") as fh:
        json.dump(side_ops, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, ops_file, os.path.join(outdir, CODES),
                           os.path.join(outdir, COUNTS), *COUNTED],
                          cwd=outdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-20:])
        sys.exit(f"the replay of {tree} stopped (exit code {done.returncode}):\n{tail}")


def _scalars(value) -> list:
    """A JSON value, or a CSV cell, as a flat list of scalars."""
    if isinstance(value, list):
        return [s for v in value for s in _scalars(v)]
    if isinstance(value, str):
        try:
            return [float(value)]
        except ValueError:
            return [value]
    return [value]


def read_output(path: str) -> dict:
    """An output's values by key, without the manifest: a JSON object's
    entries, or a CSV file's columns."""
    with open(path, newline="") as fh:
        if path.endswith(".csv"):
            rows = list(csv.DictReader(fh))
            return {k: _scalars([row[k] for row in rows]) for k in (rows[0] if rows else {})}
        doc = json.load(fh)
    return {k: _scalars(v) for k, v in doc.items() if k != "manifest"}


def _relative(a, b) -> float:
    """|a - b| / max(|a|, |b|) for two numbers; inf for any other pair that
    differs."""
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(base_dir: str, head_dir: str) -> tuple[list[str], bool]:
    """The report's lines on two sides' output directories, and whether
    they agree on everything that must not move."""
    with open(os.path.join(base_dir, CODES)) as fh:
        base_codes = json.load(fh)
    with open(os.path.join(head_dir, CODES)) as fh:
        head_codes = json.load(fh)
    lines, ok, keys = [], True, {}
    for name in sorted(set(base_codes) | set(head_codes)):
        if base_codes.get(name) != head_codes.get(name):
            lines.append(f"{name}: exit code {base_codes.get(name)} -> {head_codes.get(name)}")
            ok = False
    names = set()
    for d in (base_dir, head_dir):
        for parent, _, files in os.walk(d):
            names.update(os.path.relpath(os.path.join(parent, f), d) for f in files
                         if f.endswith((".json", ".csv"))
                         and f not in (CODES, COUNTS, "ops.json"))
    for name in sorted(names):
        paths = [os.path.join(d, name) for d in (base_dir, head_dir)]
        if not all(os.path.exists(p) for p in paths):
            lines.append(f"{name}: written on one side only")
            ok = False
            continue
        base, head = (read_output(p) for p in paths)
        for key in sorted(set(base) | set(head)):
            a, b = base.get(key, []), head.get(key, [])
            diffs = [_relative(x, y) for x, y in zip(a, b)] + [math.inf] * abs(len(a) - len(b))
            diffs = [r for r in diffs if r > 0.0]
            row = keys.setdefault(key, [0, 0, 0.0])
            row[0] += max(len(a), len(b))
            row[1] += len(diffs)
            row[2] = max([row[2]] + diffs)
            if diffs and key in STRICT:
                lines.append(f"{name}: {key} differs")
                ok = False
    lines.append(f"{len(base_codes)} calls, {len(names)} outputs; per key: values, "
                 "values that differ, worst relative difference")
    lines += [f"  {key}: {n} {n_diff} {worst:.3g}" for key, (n, n_diff, worst) in
              sorted(keys.items())]
    lines.append("agree" if ok else "DIFFER")
    return lines, ok


def call_counts(base_dir: str, head_dir: str, workloads: dict) -> list[str]:
    """The report's lines on the counted calls: per workload (`workloads`
    maps each output name to one), each function's calls per CLI call on
    both sides, for the functions that both sides counted."""
    sides = []
    for d in (base_dir, head_dir):
        with open(os.path.join(d, COUNTS)) as fh:
            sides.append(json.load(fh))
    lines = ["calls per CLI call, base -> head"]
    for workload in dict.fromkeys(workloads.values()):
        names = [n for n, w in workloads.items() if w == workload]
        per_call = [{f: sum(side[n][f] for n in names) / len(names) for f in side[names[0]]}
                    for side in sides]
        shown = [f"{f} {per_call[0][f]:.2f} -> {per_call[1][f]:.2f}" for f in COUNTED
                 if f in per_call[0] and f in per_call[1]]
        lines.append(f"  {workload} ({len(names)} calls): {', '.join(shown) or 'none counted'}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--workdir", default=None)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    import bench_record

    revs = {"base": bench_record.git("rev-parse", args.base),
            "head": bench_record.git("rev-parse", args.head)}
    workdir = os.path.abspath(args.workdir or tempfile.mkdtemp(prefix="replay-"))
    indir = os.path.join(workdir, "inputs")
    ops = write_inputs(indir)
    for side, rev in revs.items():
        run_side(bench_record.export(rev, workdir), ops, indir, os.path.join(workdir, side))
    lines, ok = compare(os.path.join(workdir, "base"), os.path.join(workdir, "head"))
    print(f"base {revs['base']}\nhead {revs['head']}")
    print("\n".join(lines))
    print("\n".join(call_counts(os.path.join(workdir, "base"), os.path.join(workdir, "head"),
                                 {name: workload for name, _, workload in ops})))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
