"""Run the benchmark on two commits in alternating pairs and write BENCH_<n>.json.

    python3 scripts/bench_record.py --base REV --head REV --out BENCH_12.json \
        --runs mc:1-5 --runs path:1-5 --runs fd:1-5,316 --runs oneshot:1-5 \
        [--workdir DIR]

Each commit is exported with `git archive` and `bench/run.py` runs from its
own copy, so both sides run their own benchmark code, each run lasting the
`run_seconds` of the head's BENCHMARK.json.  Every (workload, seed) is one
pair: a run of each commit, the base first on even pairs and the head first
on odd ones.  An existing --out file with the same two commits is extended,
so workloads can be recorded in separate invocations.  The file holds every
run's end-to-end metrics and checks, and per workload each side's median
and quartiles, the head's ratio to the base median and the pairs the head
won, together with nproc, both commits and the Python, numpy and scipy
versions.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, workdir: str) -> str:
    """A copy of the committed files of `rev`."""
    dest = os.path.join(workdir, rev[:12])
    if not os.path.isdir(dest):
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def parse_runs(specs):
    """["fd:1-5,316", ...] -> [("fd", 1), ..., ("fd", 316), ...]"""
    pairs = []
    for spec in specs:
        workload, _, seeds = spec.partition(":")
        for part in seeds.split(","):
            lo, _, hi = part.partition("-")
            pairs += [(workload, s) for s in range(int(lo), int(hi or lo) + 1)]
    return pairs


def run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: dict, better: dict) -> dict:
    summary = {}
    for metric, direction in better.items():
        base = [r["metrics"][metric] for r in runs["base"]]
        head = [r["metrics"][metric] for r in runs["head"]]
        sign = 1.0 if direction == "higher" else -1.0
        row = {}
        for side, values in (("base", base), ("head", head)):
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            row[side] = {"median": statistics.median(values),
                         "q1": quartiles[0], "q3": quartiles[2]}
        row["head_over_base"] = row["head"]["median"] / row["base"]["median"]
        row["pairs_won_by_head"] = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        row["pairs"] = len(base)
        summary[metric] = row
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", action="append", required=True,
                   help="WORKLOAD:SEEDS, seeds as a comma list of numbers and ranges")
    p.add_argument("--workdir", default=None)
    args = p.parse_args(argv)

    import numpy
    import scipy

    base, head = git("rev-parse", args.base), git("rev-parse", args.head)
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-record-")
    trees = {"base": export(base, workdir), "head": export(head, workdir)}
    with open(os.path.join(trees["head"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {"commits": {"base": base, "head": head}, "seconds": seconds,
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            old = json.load(fh)
        if old["commits"] != doc["commits"]:
            sys.exit(f"{args.out} records other commits")
        doc["workloads"] = old["workloads"]

    for workload, seed in parse_runs(args.runs):
        entry = doc["workloads"].setdefault(workload, {"runs": {"base": [], "head": []}})
        runs = entry["runs"]
        order = ("base", "head") if len(runs["base"]) % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run(trees[side], workload, seed, seconds))
            print(workload, seed, side, json.dumps(runs[side][-1]), flush=True)
        entry["summary"] = summarize(runs, better)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
