"""scripts/replay.py compares two sides' outputs: exit codes, and every
value of every output but its manifest."""

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


def side(root, name, report=REPORT, code=0):
    """A hand-made output directory: one `dof` report, one path curve with its
    sidecar, and their exit codes."""
    d = root / name
    (d / "seed1").mkdir(parents=True)
    (d / "seed1" / "one-0-0.out.json").write_text(json.dumps(report))
    (d / "seed1" / "path-0-0.csv").write_text(CURVE)
    (d / "seed1" / "path-0-0.csv.manifest.json").write_text(json.dumps(
        {"manifest": {"command": "gldof path"}, "sigma": 0.5, "failed_lambdas": []}))
    (d / "exit_codes.json").write_text(json.dumps(
        {"seed1/one-0-0.out.json": code, "seed1/path-0-0.csv": 0}))
    return str(d)


def key_line(lines, key):
    (line,) = [s for s in lines if s.startswith(f"  {key}: ")]
    return line.split()[1:]


def test_identical_outputs_agree(replay, tmp_path):
    # the manifests differ, as between two commits, and are not compared
    other = dict(REPORT, manifest={"command": "gldof dof", "version": "other"})
    lines, ok = replay.compare(side(tmp_path, "base"), side(tmp_path, "head", other))
    assert ok and lines[-1] == "agree"
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
