"""Shows that each workload's check rejects a wrong output.

    python3 bench/selftest.py

Runs one operation of every workload at a tiny size through the CLI,
confirms that its check accepts the real output, then corrupts that output
in one way at a time and confirms that the check rejects it.  Exits 0 when
every corruption is caught, 1 otherwise.
"""

import csv
import json
import math
import os
import shutil
import sys
import tempfile

import run

cli = run.import_program()
import workloads as wl  # noqa: E402

SEED = 0
results = []


def verdict(name, op, rc, pos=0, checker=None, expect="reject"):
    """Apply the check and record whether it reached the expected outcome."""
    checker = checker or wl.Checker()
    try:
        ok = checker.check(op, rc, pos)
        outcome = "accept" if ok else "fail"
    except wl.CheckFailed:
        outcome = "reject"
    results.append((name, outcome == expect, outcome, expect))


def edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def edit_csv(path, row, column, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(change(float(rows[row + 1][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def backup(op):
    saved = {}
    for path in (op.out, op.out + ".manifest.json"):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                saved[path] = fh.read()
    return saved


def restore(saved):
    for path, data in saved.items():
        with open(path, "wb") as fh:
            fh.write(data)


def corrupt_cases(name, op, rc, cases, pos=0, checker_factory=None):
    """Each case edits the output, is checked, and the output is restored."""
    saved = backup(op)
    for label, edit, expect in cases:
        edit()
        checker = checker_factory() if checker_factory else None
        verdict(f"{name}: {label}", op, rc, pos, checker, expect)
        restore(saved)


def check_mc(workdir):
    (op,) = wl.mc_round(SEED, 0, workdir, replicates=10, q=12, sizes=(2, 2, 2), k_active=1,
                        scenarios=1)
    rc = cli.main(op.argv)
    verdict("mc: real output", op, rc, expect="accept")
    corrupt_cases("mc", op, rc, [
        ("a failed replicate", lambda: edit_json(op.out, lambda d: d.update(n_failed=1)),
         "reject"),
        ("a replicate missing", lambda: edit_json(op.out, lambda d: d.update(replicates=9)),
         "reject"),
        ("divergence above N", lambda: edit_json(
            op.out, lambda d: d.update(mean_divergence=7.0)), "reject"),
    ])
    doc = wl.read_json(op.out)
    se = math.hypot(doc["mc_stderr"], doc["div_stderr"])
    for label, shift, expect in (("pooled: real outputs", 0.0, True),
                                 ("pooled: divergence biased by 4 SE", 4.0 * se, False)):
        docs = [dict(doc, mean_divergence=doc["mc_dof"] + shift)] * 3
        try:
            wl.check_mc_pooled(docs)
            passed = True
        except wl.CheckFailed:
            passed = False
        results.append((f"mc: {label}", passed == expect, passed, expect))


def check_path(workdir):
    (op,) = wl.path_round(SEED, 0, workdir, q=20, sizes=(2,) * 5, k_active=2, scenarios=1)
    rc = cli.main(op.argv)
    verdict("path: real output", op, rc, expect="accept")
    corrupt_cases("path", op, rc, [
        ("a failed lambda", lambda: edit_json(
            op.out + ".manifest.json", lambda d: d.update(failed_lambdas=[7])), "reject"),
        ("dof + 1e-3", lambda: edit_csv(op.out, 20, "dof", lambda v: v + 1e-3), "reject"),
        ("sure + 1e-6", lambda: edit_csv(op.out, 30, "sure", lambda v: v + 1e-6), "reject"),
        ("gcv x (1 + 1e-9)", lambda: edit_csv(op.out, 30, "gcv", lambda v: v * (1 + 1e-9)),
         "reject"),
        ("nonzero dof at lambda_max", lambda: edit_csv(op.out, 0, "dof", lambda v: 1e-6),
         "reject"),
        ("residual falls with lambda", lambda: edit_csv(
            op.out, 10, "residual_sq", lambda v: v * 0.5), "reject"),
    ])


def check_fd(workdir):
    (op,) = wl.fd_round(SEED, 0, workdir, q=12, sizes=(2, 2, 2), k_active=1, scenarios=1)
    rc = cli.main(op.argv)
    verdict("fd: real output", op, rc, expect="accept")

    def mismatch(d):
        d["fd_divergence"] = d["divergence"] * (1 + 1e-3)
        d["divergence_abs_err"] = abs(d["divergence"] - d["fd_divergence"])

    def mismatch_reported(d):
        mismatch(d)
        d["passed"] = False

    corrupt_cases("fd", op, rc, [
        ("FD mismatch with a PASS verdict", lambda: edit_json(op.out, mismatch), "reject"),
        ("FD mismatch reported as FAIL", lambda: edit_json(op.out, mismatch_reported),
         "reject"),
        ("Jacobian ratio above 1", lambda: edit_json(
            op.out, lambda d: d.update(jacobian_worst_tol_ratio=1.5)), "reject"),
    ])


def check_oneshot(workdir):
    ops = wl.oneshot_round(SEED, 0, workdir, random_specs=[(12, (2, 2, 2), 1, (0.1,))],
                           identity_blocks=(6,), lasso=(10, 5, 2))
    checker = wl.Checker()
    rcs = []
    for pos, op in enumerate(ops):
        rcs.append(cli.main(op.argv))
        expect = "fail" if op.known_fault else "accept"
        verdict(f"oneshot: real output of {op.kind} #{pos}", op, rcs[-1], pos, checker, expect)
    originals = dict(checker.originals)

    def factory():
        c = wl.Checker()
        c.originals = dict(originals)
        return c

    def drop_block(d, sizes):
        d["active_dim"] -= sizes[d["active_blocks"].pop()]
        d["divergence"] = min(d["divergence"], d["active_dim"])

    for pos, op in enumerate(ops):
        sizes = op.expect["instance"].sizes
        plus = lambda d: d.update(divergence=d["divergence"] + 1e-3)  # noqa: E731
        if op.kind == "identity":
            cases = [("identity dof + 1e-3", lambda: edit_json(op.out, plus), "reject"),
                     ("identity support missing a block",
                      lambda: edit_json(op.out, lambda d: drop_block(d, sizes)), "reject")]
        elif op.kind == "lasso":
            cases = [("size-1 blocks, dof - 1e-3", lambda: edit_json(
                op.out, lambda d: d.update(divergence=d["divergence"] - 1e-3)), "reject")]
        elif op.kind == "rescaled" and not op.known_fault:
            cases = [("rescaled copy dof + 1e-3", lambda: edit_json(op.out, plus), "reject")]
        elif op.kind == "random":
            cases = [("active_dim off by one", lambda: edit_json(
                op.out, lambda d: d.update(active_dim=d["active_dim"] + 1)), "reject")]
        else:
            continue
        corrupt_cases("oneshot", op, rcs[pos], cases, pos, factory)


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        sink = open(os.devnull, "w")
        stdout = sys.stdout
        sys.stdout = sink
        try:
            for fn in (check_mc, check_path, check_fd, check_oneshot):
                fn(workdir)
        finally:
            sys.stdout = stdout
            sink.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [r for r in results if not r[1]]
    for name, good, outcome, expect in results:
        print(f"{'ok  ' if good else 'BAD '} {name}: {outcome} (expected {expect})")
    print(f"{len(results) - len(bad)} of {len(results)} cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
