"""scripts/replay.py compares two sides' outputs: exit codes, and every
value of every output but its manifest; and it reports the solver calls
each side makes per CLI call."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "replay.py")

REPORT = {"manifest": {"command": "gldof dof"}, "divergence": 2.7431887556298054,
          "active_blocks": [1, 3], "active_dim": 4, "transition_margin": 0.05,
          "support_margin": None, "condition_estimate": 3.5, "warning": False}
CURVE = "lambda,dof,residual_sq,active_dim,warning\n1.5e+00,0.0e+00,2.0e+01,0,0\n"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(root, name, report=REPORT, code=0, counts=None):
    """A hand-made output directory: one `dof` report, one path curve with its
    sidecar, their exit codes and their counted solver calls."""
    d = root / name
    (d / "seed1").mkdir(parents=True)
    (d / "seed1" / "one-0-0.out.json").write_text(json.dumps(report))
    (d / "seed1" / "path-0-0.csv").write_text(CURVE)
    (d / "seed1" / "path-0-0.csv.manifest.json").write_text(json.dumps(
        {"manifest": {"command": "gldof path"}, "sigma": 0.5, "failed_lambdas": []}))
    (d / "exit_codes.json").write_text(json.dumps(
        {"seed1/one-0-0.out.json": code, "seed1/path-0-0.csv": 0}))
    (d / "call_counts.json").write_text(json.dumps(counts or {
        "seed1/one-0-0.out.json": {"_cholesky": 2, "_fista": 1},
        "seed1/path-0-0.csv": {"_cholesky": 98, "_fista": 1}}))
    return str(d)


def key_line(lines, key):
    (line,) = [s for s in lines if s.startswith(f"  {key}: ")]
    return line.split()[1:]


def test_identical_outputs_agree(replay, tmp_path):
    # the manifests differ, as between two commits, and are not compared
    other = dict(REPORT, manifest={"command": "gldof dof", "version": "other"})
    counts = {"seed1/one-0-0.out.json": {"_cholesky": 3, "_fista": 1},
              "seed1/path-0-0.csv": {"_cholesky": 148, "_fista": 1}}
    lines, ok = replay.compare(side(tmp_path, "base", counts=counts),
                               side(tmp_path, "head", other))
    assert ok and lines[-1] == "agree"
    # the counts are reported apart, and are not an output
    assert "_cholesky" not in " ".join(lines)
    assert key_line(lines, "divergence") == ["1", "0", "0"]
    assert key_line(lines, "dof") == ["1", "0", "0"]
    assert "manifest" not in " ".join(lines)


def test_a_moved_divergence_is_reported_and_agrees(replay, tmp_path):
    moved = dict(REPORT, divergence=REPORT["divergence"] * (1.0 + 1e-13))
    lines, ok = replay.compare(side(tmp_path, "base"), side(tmp_path, "head", moved))
    assert ok
    n, n_diff, worst = key_line(lines, "divergence")
    assert (n, n_diff) == ("1", "1") and 5e-14 < float(worst) < 2e-13


@pytest.mark.parametrize("change", [{"active_blocks": [1, 2]}, {"active_blocks": [1]},
                                    {"warning": True}])
def test_a_changed_support_or_warning_differs(replay, tmp_path, change):
    lines, ok = replay.compare(side(tmp_path, "base"),
                               side(tmp_path, "head", dict(REPORT, **change)))
    assert not ok and lines[-1] == "DIFFER"
    assert f"seed1/one-0-0.out.json: {next(iter(change))} differs" in lines


def test_a_changed_exit_code_differs(replay, tmp_path):
    lines, ok = replay.compare(side(tmp_path, "base"), side(tmp_path, "head", code=3))
    assert not ok and "seed1/one-0-0.out.json: exit code 0 -> 3" in lines


def test_calls_per_cli_call_of_each_workload(replay, tmp_path):
    # the base side defines no `_fista`, so only `_cholesky` is shown
    base = side(tmp_path, "base", counts={"seed1/one-0-0.out.json": {"_cholesky": 3},
                                          "seed1/path-0-0.csv": {"_cholesky": 149}})
    head = side(tmp_path, "head", counts={
        "seed1/one-0-0.out.json": {"_cholesky": 2, "_fista": 2},
        "seed1/path-0-0.csv": {"_cholesky": 98, "_fista": 1}})
    workloads = {"seed1/one-0-0.out.json": "oneshot", "seed1/path-0-0.csv": "path"}
    assert replay.call_counts(base, head, workloads) == [
        "calls per CLI call, base -> head",
        "  oneshot (1 calls): _cholesky 3.00 -> 2.00",
        "  path (1 calls): _cholesky 149.00 -> 98.00"]
    both = side(tmp_path, "both", counts={"seed1/one-0-0.out.json": {"_cholesky": 4, "_fista": 1},
                                          "seed1/path-0-0.csv": {"_cholesky": 2, "_fista": 3}})
    lines = replay.call_counts(both, head, {name: "mixed" for name in workloads})
    assert lines[1] == "  mixed (2 calls): _cholesky 3.00 -> 50.00, _fista 2.00 -> 1.50"


def test_each_call_is_counted_in_its_subprocess(replay, tmp_path):
    # one `gldof dof` call through this checkout: its problem's support is
    # nonempty, so FISTA runs once and the finish factors twice
    from gldof.core import BlockPartition, Design
    from gldof.datagen import save_problem

    indir, outdir = tmp_path / "inputs", tmp_path / "out"
    indir.mkdir()
    save_problem(indir / "p.json", Design.identity(4), [3.0, 4.0, 0.5, 0.5],
                 BlockPartition.from_sizes([2, 2]), lam=1.0)
    name = "one-0-0.out.json"
    replay.run_side(replay.ROOT, [(name, ["dof", "--problem", str(indir / "p.json"),
                                          "--no-timestamp", "--out", str(indir / name)],
                                   "oneshot")], str(indir), str(outdir))
    assert json.loads((outdir / replay.CODES).read_text()) == {name: 0}
    assert json.loads((outdir / replay.COUNTS).read_text()) == {
        name: {"_cholesky": 2, "_fista": 1, "Solution": 1}}
    assert (outdir / name).exists()


def test_the_solutions_of_validate_fd_are_counted(replay, tmp_path):
    # `validate fd` builds the base's Solution alone: its 2Q = 8 probes are
    # read from the finish's arrays
    from gldof.core import BlockPartition, Design
    from gldof.datagen import save_problem

    indir, outdir = tmp_path / "inputs", tmp_path / "out"
    indir.mkdir()
    save_problem(indir / "p.json", Design.identity(4), [3.0, 4.0, 0.5, 0.5],
                 BlockPartition.from_sizes([2, 2]), lam=1.0)
    name = "fd-0-0.out.json"
    replay.run_side(replay.ROOT, [(name, ["validate", "fd", "--problem", str(indir / "p.json"),
                                          "--no-timestamp", "--out", str(indir / name)],
                                   "fd")], str(indir), str(outdir))
    assert json.loads((outdir / replay.CODES).read_text()) == {name: 0}
    counts = json.loads((outdir / replay.COUNTS).read_text())[name]
    assert counts["Solution"] == 1 and counts["_fista"] == 1
    lines = replay.call_counts(str(outdir), str(outdir), {name: "fd"})
    assert lines[1] == "  fd (1 calls): _cholesky 2.00 -> 2.00, _fista 1.00 -> 1.00, " \
                       "Solution 1.00 -> 1.00"
