import json
import pathlib

import numpy as np
import pytest

from gldof import cli, risk, solver, validate
from gldof.cli import main
from gldof.core import BlockPartition, Design
from gldof.datagen import ScenarioSpec, generate, load_problem, save_problem
from gldof.risk import CSV_HEADER, lambda_path
from gldof.solver import lambda_max

# `validate fd` of the benchmark's `fd` workload at seed 316, round 62,
# position 0: a transition margin of 2.4e-6 lambda, no warning, and a
# first-order coordinate radius of 4.3e-6, below the 1.1e-5 default step
FD_NEAR_BOUNDARY = pathlib.Path(__file__).parent / "fixtures" / "fd_seed316_round62.json"


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "prob.json"
    code = main(["gen", "--q", "20", "--block-sizes", "2,2,2,2,2",
                 "--k-active", "2", "--sigma", "0.5", "--seed", "42",
                 "--lambda", "0.4", "--out", str(path), "--no-timestamp"])
    assert code == 0
    return path


class TestGen:
    def test_problem_file_schema(self, problem_file):
        d = json.loads(problem_file.read_text())
        assert d["Q"] == 20 and d["N"] == 10
        assert len(d["partition"]) == 5
        assert len(d["X"]) == 20 and len(d["X"][0]) == 10
        assert len(d["y"]) == 20
        assert d["lambda"] == 0.4
        assert d["sigma"] == 0.5
        assert len(d["beta0"]) == 10
        assert d["manifest"]["command"] == "gldof gen"
        assert d["manifest"]["version"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["gen", "--q", "12", "--block-sizes", "3,3", "--k-active", "1",
                "--seed", "7", "--no-timestamp"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["gen", "--q", "12", "--block-sizes", "3,3",
                     "--k-active", "1", "--out", str(out)]) == 0
        assert "timestamp" in json.loads(out.read_text())["manifest"]

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLDOF_SEED", "99")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--q", "12", "--block-sizes", "3,3", "--k-active", "1",
              "--out", str(a), "--no-timestamp"])
        main(["gen", "--q", "12", "--block-sizes", "3,3", "--k-active", "1",
              "--seed", "99", "--out", str(b), "--no-timestamp"])
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_solution_json(self, problem_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(["solve", "--problem", str(problem_file),
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["kkt_residual"] <= 1e-8
        assert len(d["beta"]) == 10
        assert d["lambda"] == 0.4
        assert str(problem_file) in d["manifest"]["input_digests"]

    def test_lambda_override(self, problem_file, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", "--problem", str(problem_file), "--lambda", "5.0",
                     "--out", str(out), "--no-timestamp"]) == 0
        d = json.loads(out.read_text())
        assert d["lambda"] == 5.0

    def test_warm_start_round_trip(self, problem_file, tmp_path):
        first = tmp_path / "sol1.json"
        main(["solve", "--problem", str(problem_file), "--out", str(first),
              "--no-timestamp"])
        second = tmp_path / "sol2.json"
        code = main(["solve", "--problem", str(problem_file),
                     "--warm-start", str(first), "--out", str(second),
                     "--no-timestamp"])
        assert code == 0
        assert json.loads(second.read_text())["iterations"] == 0

    def test_csv_inputs(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 4))
        y = rng.standard_normal(10)
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xp, x, delimiter=",")
        np.savetxt(yp, y, delimiter=",")
        out = tmp_path / "sol.json"
        code = main(["solve", "--x-csv", str(xp), "--y-csv", str(yp),
                     "--partition", "[[0,1],[2,3]]", "--lambda", "0.5",
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        assert len(json.loads(out.read_text())["beta"]) == 4

    def test_missing_inputs_is_usage_error(self):
        assert main(["solve", "--lambda", "1.0"]) == 2

    def test_missing_lambda_is_usage_error(self, tmp_path):
        path = tmp_path / "nolam.json"
        main(["gen", "--q", "12", "--block-sizes", "3,3", "--k-active", "1",
              "--out", str(path), "--no-timestamp"])
        assert main(["solve", "--problem", str(path)]) == 2

    def test_budget_exhaustion_is_numerical_failure(self, problem_file):
        assert main(["solve", "--problem", str(problem_file),
                     "--lambda", "0.01", "--max-iter", "2"]) == 3


class TestDof:
    def test_report_json(self, problem_file, tmp_path):
        out = tmp_path / "dof.json"
        assert main(["dof", "--problem", str(problem_file), "--out", str(out),
                     "--no-timestamp"]) == 0
        d = json.loads(out.read_text())
        for key in ("divergence", "active_blocks", "active_dim",
                    "transition_margin", "support_margin",
                    "condition_estimate", "warning"):
            assert key in d

    @pytest.mark.parametrize("command", [["solve"], ["dof"], ["path"], ["validate", "fd"]])
    def test_non_finite_observations_are_a_usage_error(self, problem_file, tmp_path, command):
        d = json.loads(problem_file.read_text())
        d["y"][3] = float("nan")
        problem_file.write_text(json.dumps(d))
        out = tmp_path / "out.json"
        # rejected at once, not after the whole iteration budget (exit 3)
        assert main(command + ["--problem", str(problem_file), "--out", str(out)]) == 2
        assert not out.exists()


class TestPath:
    def test_csv_and_manifest_sidecar(self, problem_file, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["path", "--problem", str(problem_file),
                     "--grid-points", "8", "--out", str(out), "--no-timestamp"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        sidecar = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert sidecar["manifest"]["command"] == "gldof path"
        assert sidecar["sigma"] == 0.5  # picked up from the problem file

    def test_explicit_grid(self, problem_file, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["path", "--problem", str(problem_file), "--grid", "0.25,1.0,0.5",
                     "--out", str(out), "--no-timestamp"]) == 0
        rows = [[float(c) for c in r.split(",")[:7]]
                for r in out.read_text().strip().split("\n")[1:]]
        assert [r[0] for r in rows] == [1.0, 0.5, 0.25]  # sorted, decreasing
        loaded = load_problem(str(problem_file))
        curve = lambda_path(loaded.design, loaded.y, loaded.partition,
                            [1.0, 0.5, 0.25], sigma=loaded.sigma)
        assert [r[1] for r in rows] == pytest.approx(curve.dof, rel=1e-12)
        assert [r[2] for r in rows] == pytest.approx(curve.residual_sq, rel=1e-12)

    def test_path_is_one_batch(self, problem_file, tmp_path, monkeypatch):
        calls, columns = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return solver.solve(*args, **kwargs)

        def batching(design, ys, *args, **kwargs):
            columns.append(ys.shape[1])
            return solver.solve_batch(design, ys, *args, **kwargs)

        monkeypatch.setattr(cli, "solve", counting)
        monkeypatch.setattr(solver, "solve", counting)
        monkeypatch.setattr(risk, "solve_batch", batching)
        out = tmp_path / "curve.csv"
        assert main(["path", "--problem", str(problem_file), "--grid-points", "12",
                     "--out", str(out), "--no-timestamp"]) == 0
        # the whole grid as one batch, one column per lambda, and no K = 1 solve
        assert columns == [12]
        assert calls == []


class TestValidateFd:
    def test_pass_verdict(self, problem_file, tmp_path):
        out = tmp_path / "fd.json"
        code = main(["validate", "fd", "--problem", str(problem_file),
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["passed"] is True
        # far from a boundary the default step is 1e-5 * max|y|
        assert d["step"] == validate.fd_step(load_problem(str(problem_file)).problem(0.4))

    def test_step_stays_inside_the_coordinate_radius(self, tmp_path):
        loaded = load_problem(str(FD_NEAR_BOUNDARY))
        problem = loaded.problem(loaded.lam)
        # the default step crosses the boundary at a probe ...
        with pytest.raises(validate.TransitionCrossingError):
            validate.fd_oracle(problem, validate.fd_step(problem))
        # ... so `validate fd` takes half the radius and passes, unwarned
        out = tmp_path / "fd.json"
        assert main(["validate", "fd", "--problem", str(FD_NEAR_BOUNDARY),
                     "--out", str(out), "--no-timestamp"]) == 0
        d = json.loads(out.read_text())
        assert d["passed"] is True and d["transition_warning"] is False
        assert d["step"] < 0.5 * validate.fd_step(problem)
        assert d["jacobian_worst_tol_ratio"] <= 1e-2

    def test_boundary_observation_is_a_numerical_failure(self, tmp_path):
        # y exactly on the boundary of the empty support: no step keeps it
        path = tmp_path / "p.json"
        save_problem(path, Design.identity(4), np.array([3.0, 4.0, 0.3, 0.1]),
                     BlockPartition(((0, 1), (2, 3))), lam=5.0)
        assert main(["validate", "fd", "--problem", str(path), "--no-timestamp"]) == 3

    def test_oversized_step_fails_validation(self, tmp_path):
        # support stays fixed, but the truncation error exceeds the tolerance
        path = tmp_path / "p.json"
        y = np.array([3.0, 4.0, 0.3, 0.1])
        save_problem(path, Design.identity(4), y,
                     BlockPartition(((0, 1), (2, 3))), lam=1.0)
        assert main(["validate", "fd", "--problem", str(path),
                     "--step", "0.3", "--no-timestamp"]) == 4

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9])
    def test_pass_verdict_on_rescaled_copies(self, problem_file, tmp_path, scale):
        # the default step follows max|y|, so (s y, s lambda) passes as y does
        loaded = load_problem(str(problem_file))
        path = tmp_path / "scaled.json"
        save_problem(path, loaded.design, scale * loaded.y, loaded.partition,
                     lam=scale * loaded.lam)
        out = tmp_path / "fd.json"
        assert main(["validate", "fd", "--problem", str(path), "--out", str(out),
                     "--no-timestamp"]) == 0
        assert json.loads(out.read_text())["jacobian_worst_tol_ratio"] <= 1e-2

    def test_max_iter_reaches_the_probe_solves(self, tmp_path):
        # beta = 0 is certified before any iteration, but lambda sits just
        # above lambda_max, so the probes at y[1] + h need iterations
        path = tmp_path / "p.json"
        save_problem(path, Design.identity(4), np.array([3.0, 4.0, 0.3, 0.1]),
                     BlockPartition(((0, 1), (2, 3))), lam=5.0 * (1 + 1e-9))
        # a step beyond the coordinate radius, 5e-9, so the probes move
        assert main(["validate", "fd", "--problem", str(path), "--step", "4e-5",
                     "--max-iter", "0", "--no-timestamp"]) == 3

    def test_probes_are_solved_once(self, tmp_path, monkeypatch):
        sizes = (4,) * 10
        scenario = generate(ScenarioSpec(Q=60, N=40, block_sizes=sizes, k_active=3,
                                         signal_scale=1.0, sigma=0.5, seed=1))
        y = scenario.draw_y()
        lam = 0.3 * lambda_max(scenario.design, y, scenario.partition)
        path = tmp_path / "p.json"
        save_problem(path, scenario.design, y, scenario.partition, lam=lam)

        calls, columns = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return solver.solve(*args, **kwargs)

        def batching(design, ys, *args, **kwargs):
            columns.append(ys.shape[1])
            return solver.solve_batch(design, ys, *args, **kwargs)

        monkeypatch.setattr(cli, "solve", counting)
        monkeypatch.setattr(validate, "solve", counting)
        monkeypatch.setattr(validate, "solve_batch", batching)
        out = tmp_path / "fd.json"
        assert main(["validate", "fd", "--problem", str(path), "--out", str(out),
                     "--no-timestamp"]) == 0
        assert json.loads(out.read_text())["jacobian_worst_tol_ratio"] is not None
        # the base problem once, the 2Q probes as one batch
        assert len(calls) == 1
        assert columns == [2 * 60]


class TestValidateMc:
    def test_pass_verdict_and_json(self, tmp_path):
        out = tmp_path / "mc.json"
        code = main(["validate", "mc", "--q", "20", "--block-sizes", "2,2,2,2,2",
                     "--k-active", "2", "--sigma", "0.5", "--seed", "42",
                     "--replicates", "150", "--mc-seed", "7",
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        d = json.loads(out.read_text())
        assert d["consistent_3sigma"] is True
        assert d["replicates"] == 150

    def test_spec_file_input(self, tmp_path):
        spec_path = tmp_path / "scen.json"
        spec_path.write_text(json.dumps({
            "Q": 20, "N": 10, "block_sizes": [2, 2, 2, 2, 2],
            "k_active": 2, "sigma": 0.5, "seed": 42}))
        assert main(["validate", "mc", "--spec", str(spec_path),
                     "--replicates", "100", "--mc-seed", "1",
                     "--no-timestamp"]) == 0


class TestParserReuse:
    def test_successive_calls_keep_their_own_arguments(self, problem_file, tmp_path):
        first, second, third = (tmp_path / f"{k}.json" for k in ("a", "b", "c"))
        assert main(["solve", "--problem", str(problem_file), "--tol", "1e-6",
                     "--max-iter", "5000", "--lambda", "0.3",
                     "--out", str(first), "--no-timestamp"]) == 0
        assert main(["dof", "--problem", str(problem_file),
                     "--out", str(second)]) == 0
        assert main(["solve", "--problem", str(problem_file),
                     "--out", str(third), "--no-timestamp"]) == 0
        a, b, c = (json.loads(p.read_text()) for p in (first, second, third))
        defaults = solver.SolverOptions()
        assert a["manifest"]["options"]["tol"] == 1e-6
        assert a["manifest"]["options"]["max_iter"] == 5000
        assert a["lambda"] == 0.3
        # neither later call sees the flags or the subcommand of another
        assert b["manifest"]["command"] == "gldof dof"
        assert b["manifest"]["options"]["tol"] == defaults.kkt_tol
        assert b["manifest"]["options"]["max_iter"] == defaults.max_iter
        assert b["manifest"]["options"]["no_timestamp"] is False
        assert "timestamp" in b["manifest"]
        assert "warm_start" not in b["manifest"]["options"]
        assert b["lambda"] == 0.4  # the file's lambda, not the first call's
        assert c["manifest"]["options"]["tol"] == defaults.kkt_tol
        assert c["lambda"] == 0.4
        assert cli._parser() is cli._parser()


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
