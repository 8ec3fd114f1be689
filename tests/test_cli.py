import hashlib
import json
import pathlib
import platform
import time
import warnings

import numpy as np
import pytest
import scipy

from gldof import cli, dof, solver, validate
from gldof.cli import main
from gldof.core import BlockPartition, Design
from gldof.datagen import ScenarioSpec, generate, load_problem, save_problem
from gldof.dof import fd_step
from gldof.risk import CSV_HEADER, lambda_path
from gldof.solver import lambda_max

# `validate fd` of the benchmark's `fd` workload at seed 316, round 62,
# position 0: a transition margin of 2.4e-6 lambda, and a support radius of
# 8.9e-7, below the 1.1e-5 default step, so the report warns
FD_NEAR_BOUNDARY = pathlib.Path(__file__).parent / "fixtures" / "fd_seed316_round62.json"
# the same workload at seed 316, round 56, position 0: a smallest active block
# norm of 7.1e-6, and a support radius of 1.1e-6, below the 1.5e-5 default
# step, so the report warns; here the default step crosses no boundary
FD_SMALL_BLOCK = pathlib.Path(__file__).parent / "fixtures" / "fd_seed316_round56.json"


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
        # the manifest records the interpreter and library versions
        manifest = json.loads(a.read_text())["manifest"]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__

    @pytest.mark.parametrize("flags", [["--sigma", "inf"], ["--signal-scale", "inf"],
                                       ["--signal-scale", "1e308"], ["--sigma", "1.7e308"]])
    def test_non_finite_scales_are_a_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "g.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["gen", "--q", "12", "--block-sizes", "3,3", "--k-active", "1",
                         *flags, "--out", str(out), "--no-timestamp"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in (["solve"], ["dof"], ["path"])
        for flag in (["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"], ["--max-iter", "-3"])
    ] + [(["validate", "fd"], ["--max-iter", "-3"])])
    def test_bad_solver_options_are_a_usage_error(self, problem_file, tmp_path, monkeypatch,
                                                  capsys, command, flag):
        # rejected before any iteration: the certificate is never evaluated
        monkeypatch.setattr(solver, "_violation", None)
        out = tmp_path / "out"
        assert main(command + ["--problem", str(problem_file), "--out", str(out)] + flag) == 2
        assert ("kkt_tol" if flag[0] == "--tol" else "max_iter") in capsys.readouterr().err
        assert not out.exists()

    def test_partition_with_a_fractional_index_is_a_usage_error(self, tmp_path, capsys):
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xp, np.eye(3), delimiter=",")
        np.savetxt(yp, np.ones(3), delimiter=",")
        assert main(["solve", "--x-csv", str(xp), "--y-csv", str(yp),
                     "--partition", "[[0, 1.5], [2]]", "--lambda", "0.5"]) == 2
        assert "block index 1.5 is not an integer" in capsys.readouterr().err

    def test_flat_partition_is_a_usage_error(self, tmp_path, capsys):
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xp, np.eye(2), delimiter=",")
        np.savetxt(yp, np.ones(2), delimiter=",")
        assert main(["solve", "--x-csv", str(xp), "--y-csv", str(yp),
                     "--partition", "[0, 1]", "--lambda", "0.5"]) == 2
        assert "block 0 is not a sequence of indices" in capsys.readouterr().err

    def test_partition_that_is_not_a_list_is_a_usage_error(self, tmp_path, capsys):
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xp, np.eye(2), delimiter=",")
        np.savetxt(yp, np.ones(2), delimiter=",")
        assert main(["solve", "--x-csv", str(xp), "--y-csv", str(yp),
                     "--partition", "5", "--lambda", "0.5"]) == 2
        assert "partition 5 is not a sequence of blocks" in capsys.readouterr().err

    def test_observations_csv_with_a_table_is_a_usage_error(self, tmp_path, capsys):
        # a 2 x 2 table was once flattened into y = (1, 2, 3, 4) and solved
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xp, np.eye(4), delimiter=",")
        np.savetxt(yp, [[1.0, 2.0], [3.0, 4.0]], delimiter=",")
        out = tmp_path / "sol.json"
        assert main(["solve", "--x-csv", str(xp), "--y-csv", str(yp), "--partition",
                     "[[0, 1], [2, 3]]", "--lambda", "0.5", "--out", str(out)]) == 2
        assert "one row or one column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"partition": 5}, {"partition": [0, 1]}, {"lambda": "0.5"}, {"Q": 20.5},
        {"lambda": True},
    ])
    def test_malformed_problem_file_is_a_usage_error(self, problem_file, tmp_path, capsys,
                                                     fields):
        # each was a TypeError traceback and exit 1, or (Q = 20.5) read as Q = 20
        # and (lambda true) as lambda = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(problem_file.read_text()), **fields}))
        assert main(["solve", "--problem", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
    def test_non_finite_observations_name_y(self, problem_file, tmp_path, capsys):
        # without --grid the default grid needs lambda_max of y
        d = json.loads(problem_file.read_text())
        d["y"][3] = float("nan")
        problem_file.write_text(json.dumps(d))
        out = tmp_path / "curve.csv"
        assert main(["path", "--problem", str(problem_file), "--out", str(out)]) == 2
        assert "y must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("decades", ["-1", "0", "nan", "inf"])
    def test_a_grid_that_does_not_descend_is_a_usage_error(self, problem_file, tmp_path,
                                                           monkeypatch, capsys, decades):
        # refused before any solve: -1 would run from 10 lambda_max down to
        # lambda_max, every fit empty, and select 10 lambda_max with exit 0
        monkeypatch.setattr(dof, "solve_chunks", None)
        out = tmp_path / "curve.csv"
        assert main(["path", "--problem", str(problem_file), "--grid-decades", decades,
                     "--grid-points", "5", "--out", str(out), "--no-timestamp"]) == 2
        assert "decades must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

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

    def test_no_certified_lambda_is_a_numerical_failure(self, problem_file, tmp_path,
                                                         capsys):
        out = tmp_path / "curve.csv"
        assert main(["path", "--problem", str(problem_file), "--grid", "0.01,0.02",
                     "--max-iter", "0", "--out", str(out), "--no-timestamp"]) == 3
        assert "2 lambdas failed to certify" in capsys.readouterr().err
        # the curve of failures and its sidecar are still written
        assert len(out.read_text().strip().split("\n")) == 3
        sidecar = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert sidecar["failed_lambdas"] == [0, 1]

    def test_path_is_one_batch(self, problem_file, tmp_path, monkeypatch):
        calls, columns = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return solver.solve(*args, **kwargs)

        def batching(design, ys, *args, **kwargs):
            columns.append(ys.shape[1])
            return solver.solve_chunks(design, ys, *args, **kwargs)

        monkeypatch.setattr(cli, "solve", counting)
        monkeypatch.setattr(solver, "solve", counting)
        monkeypatch.setattr(dof, "solve_chunks", batching)
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
        assert d["step"] == fd_step(load_problem(str(problem_file)).problem(0.4))

    def test_the_probes_build_no_solution(self, problem_file, monkeypatch):
        built, solution = [], solver.Solution
        monkeypatch.setattr(solver, "Solution",
                            lambda **fields: built.append(fields) or solution(**fields))
        assert main(["validate", "fd", "--problem", str(problem_file), "--no-timestamp"]) == 0
        # the base's alone: the 2Q probes are read from their chunk's arrays
        assert len(built) == 1 and built[0]["kkt_residual"] <= validate.ORACLE_KKT_TOL

    def test_step_stays_inside_the_support_radius(self, tmp_path):
        loaded = load_problem(str(FD_NEAR_BOUNDARY))
        problem = loaded.problem(loaded.lam)
        # the default step crosses the boundary at a probe ...
        with pytest.raises(validate.TransitionCrossingError):
            validate.fd_oracle(problem, fd_step(problem))
        # ... so `validate fd` takes half the radius and passes, warned
        out = tmp_path / "fd.json"
        assert main(["validate", "fd", "--problem", str(FD_NEAR_BOUNDARY),
                     "--out", str(out), "--no-timestamp"]) == 0
        d = json.loads(out.read_text())
        assert d["passed"] is True and d["transition_warning"] is True
        assert d["step"] < 0.5 * fd_step(problem)
        assert d["jacobian_worst_tol_ratio"] <= 1e-2

    def test_small_active_block_is_stepped_inside_the_support_radius(self, tmp_path):
        # the radius is set by an active block, not by an inactive one's
        # slack, and `jacobian_worst_tol_ratio` is within round-off of 1e-2,
        # so only the command's own verdict is asserted
        problem = load_problem(str(FD_SMALL_BLOCK)).problem()
        out = tmp_path / "fd.json"
        assert main(["validate", "fd", "--problem", str(FD_SMALL_BLOCK),
                     "--out", str(out), "--no-timestamp"]) == 0
        d = json.loads(out.read_text())
        assert d["passed"] is True and d["transition_warning"] is True
        assert d["step"] < 0.5 * fd_step(problem)

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

    @pytest.mark.parametrize("step", ["1e-18", "1e-300"])
    def test_step_that_y_cannot_resolve_is_a_usage_error(self, capsys, step):
        # y[i] +/- step == y[i] for most i: the probes once equalled y, and
        # the check failed on differences of identical solutions
        assert main(["validate", "fd", "--problem", str(FD_NEAR_BOUNDARY), "--step", step,
                     "--no-timestamp"]) == 2
        assert "below the resolution of y" in capsys.readouterr().err

    def test_radius_that_y_cannot_resolve_is_a_support_boundary(self, tmp_path, capsys):
        # the inactive block's slack is 5e-15, so the default step is cut to
        # 2.7e-15, below the spacing of the floats at y[0] = 3000: the check
        # once ran and failed with a zero divergence
        path = tmp_path / "p.json"
        y = np.array([3e3, 4e3, 3.0 * (1 - 1e-15), 4.0 * (1 - 1e-15)])
        save_problem(path, Design.identity(4), y, BlockPartition(((0, 1), (2, 3))), lam=5.0)
        assert main(["validate", "fd", "--problem", str(path), "--no-timestamp"]) == 3
        assert "support boundary" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_step_that_is_not_finite_is_a_usage_error(self, problem_file, capsys, step):
        # an infinite step once passed the check and failed, after a
        # RuntimeWarning, with a message about the probes
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["validate", "fd", "--problem", str(problem_file),
                         "--step", step]) == 2
        assert "step h must be positive and finite" in capsys.readouterr().err

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

    def test_a_step_beyond_the_data_scale_is_a_usage_error(self, problem_file, tmp_path):
        # probes y +/- 1e160 e_i put X'y beyond 2^448: refused before any
        # iteration, where the solves once ran to max_iter with residual inf
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["validate", "fd", "--problem", str(problem_file), "--step", "1e160",
                         "--out", str(tmp_path / "fd.json"), "--no-timestamp"])
        assert code == cli.EXIT_USAGE
        assert time.perf_counter() - start < 1.0

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

        calls, near = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return solver.solve(*args, **kwargs)

        def probing(design, ys, *args, base, **kwargs):
            near.append((ys.shape[1], base))
            return solve_chunks(design, ys, *args, base=base, **kwargs)

        solve_chunks = solver.solve_chunks
        monkeypatch.setattr(cli, "solve", counting)
        monkeypatch.setattr(validate, "solve", counting)
        monkeypatch.setattr(validate, "solve_chunks", probing)
        factored, cholesky = [], solver._cholesky
        monkeypatch.setattr(solver, "_cholesky", lambda a: factored.append(a.shape[0])
                            or cholesky(a))
        fista, fista_calls = solver._fista, []
        monkeypatch.setattr(solver, "_fista", lambda *args: fista_calls.append(args[3].size)
                            or fista(*args))
        out = tmp_path / "fd.json"
        assert main(["validate", "fd", "--problem", str(path), "--out", str(out),
                     "--no-timestamp"]) == 0
        assert json.loads(out.read_text())["jacobian_worst_tol_ratio"] is not None
        # the base problem once, and the 2Q probes from it at once
        assert len(calls) == 1
        assert [n for n, _ in near] == [2 * 60] and near[0][1] is not None
        # FISTA runs for the base alone: the probes' finish starts at its
        # point, and none resumes on this instance far from a boundary; the
        # only factorizations are the base's, at its FISTA point and at its
        # finished point, since the probes step on the base's factor
        assert fista_calls == [1]
        m = near[0][1].support.active_dim
        assert factored == [m, m]


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


    @pytest.mark.parametrize("fields", [
        {"Q": 20.5}, {"k_active": 1.5}, {"seed": 1.5}, {"Q": "20"}, {"sigma": "0.5"},
        {"block_sizes": 4},
    ])
    def test_malformed_spec_is_a_usage_error(self, tmp_path, capsys, fields):
        # each was a TypeError traceback and exit 1
        spec_path = tmp_path / "scen.json"
        spec_path.write_text(json.dumps({"Q": 20, "N": 10, "block_sizes": [2, 2, 2, 2, 2],
                                         "k_active": 2, "sigma": 0.5, "seed": 42, **fields}))
        for command in (["gen", "--out", str(tmp_path / "p.json")], ["validate", "mc"]):
            assert main(command + ["--spec", str(spec_path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestInputFiles:
    @staticmethod
    def argv(command, problem_file, tmp_path, bad):
        """`command` with the fixture's problem file for PROBLEM, a file in
        tmp_path for OUT, and the file under test last."""
        names = {"PROBLEM": str(problem_file), "OUT": str(tmp_path / "out.json")}
        return [names.get(a, a) for a in command] + [str(bad)]

    @pytest.mark.parametrize("command, text, kind", [
        (["dof", "--problem"], "[]", "an array"),
        (["dof", "--problem"], "5", "a number"),
        (["dof", "--problem"], "null", "null"),
        (["dof", "--problem"], '"x"', "a string"),
        (["dof", "--problem"], "true", "a boolean"),
        (["dof", "--problem"], "1.5", "a number"),
        (["dof", "--problem"], "[NaN]", "an array"),  # parsed by the json module
        (["solve", "--problem", "PROBLEM", "--warm-start"], "[]", "an array"),
        (["gen", "--out", "OUT", "--spec"], "[]", "an array"),
        (["validate", "mc", "--spec"], "[]", "an array"),
    ])
    def test_a_top_level_that_is_not_an_object_is_a_usage_error(
            self, problem_file, tmp_path, capsys, command, text, kind):
        # each was a TypeError traceback and exit 1
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(self.argv(command, problem_file, tmp_path, bad)) == 2
        assert capsys.readouterr().err == f"error: {bad} holds {kind}, not a JSON object\n"

    @pytest.mark.parametrize("command, text, key", [
        (["dof", "--problem"], '{"Q": 20}', "N"),
        (["validate", "mc", "--spec"], '{"Q": 20, "N": 10, "block_sizes": [10]}', "k_active"),
        (["solve", "--problem", "PROBLEM", "--warm-start"], '{"iterations": 0}', "beta"),
    ])
    def test_a_missing_entry_names_the_entry_and_the_file(
            self, problem_file, tmp_path, capsys, command, text, key):
        # once only "error: 'N'"
        short = tmp_path / "short.json"
        short.write_text(text)
        assert main(self.argv(command, problem_file, tmp_path, short)) == 2
        assert capsys.readouterr().err == f"error: {short} has no {key!r} entry\n"

    def test_digests_are_those_of_the_files(self, problem_file, tmp_path):
        def sha256(path):
            return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()

        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", "--problem", str(problem_file), "--out", str(first)]) == 0
        assert main(["solve", "--problem", str(problem_file), "--warm-start", str(first),
                     "--out", str(second)]) == 0
        digests = json.loads(second.read_text())["manifest"]["input_digests"]
        assert digests == {str(problem_file): sha256(problem_file), str(first): sha256(first)}

        spec_path = tmp_path / "scen.json"
        spec_path.write_text(json.dumps({"Q": 12, "N": 6, "block_sizes": [3, 3],
                                         "k_active": 1}))
        out = tmp_path / "g.json"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 0
        digests = json.loads(out.read_text())["manifest"]["input_digests"]
        assert digests == {str(spec_path): sha256(spec_path)}

        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xp, np.random.default_rng(3).standard_normal((10, 4)), delimiter=",")
        np.savetxt(yp, np.random.default_rng(4).standard_normal(10), delimiter=",")
        assert main(["solve", "--x-csv", str(xp), "--y-csv", str(yp),
                     "--partition", "[[0,1],[2,3]]", "--lambda", "0.5",
                     "--out", str(first)]) == 0
        digests = json.loads(first.read_text())["manifest"]["input_digests"]
        assert digests == {str(xp): sha256(xp), str(yp): sha256(yp)}


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
