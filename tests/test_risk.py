import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_problem

from gldof import risk
from gldof.core import BlockPartition, Design
from gldof.risk import RiskCurve, criteria, default_lambda_grid, estimate_sigma, lambda_path
from gldof.dof import dof_estimate
from gldof.solver import SolverOptions, lambda_max, solve

finite = st.floats(min_value=1e-3, max_value=1e3)


class TestCriteria:
    # criteria returns (SURE, GCV, Cp, AIC)
    def test_sure_zero_at_pure_noise_fit(self):
        assert criteria(20 * 0.5**2, 0.0, 0.5, 20)[0] == 0.0

    def test_sure_at_lambda_max(self):
        # dof = 0 and residual ||y||^2: SURE = ||y||^2 - Q sigma^2
        assert criteria(7.3, 0.0, 0.5, 20)[0] == pytest.approx(7.3 - 20 * 0.25)

    def test_gcv_dof_zero(self):
        assert criteria(10.0, 0.0, None, 20)[1] == pytest.approx(0.5)

    def test_gcv_zero_residual(self):
        assert criteria(0.0, 4.0, None, 20)[1] == 0.0

    def test_gcv_worked_example(self):
        assert criteria(10.0, 4.0, None, 20)[1] == pytest.approx(0.78125)

    def test_gcv_saturated_dof_is_infinite(self):
        # a saturated fit is never the GCV choice, and computing it does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert criteria(1.0, 20.0, None, 20)[1] == np.inf

    def test_cp_zero_at_pure_noise_fit(self):
        assert criteria(20 * 0.25, 0.0, 0.5, 20)[2] == 0.0

    def test_cp_at_lambda_max(self):
        assert criteria(7.3, 0.0, 0.5, 20)[2] == pytest.approx(7.3 / 0.25 - 20)

    def test_aic_dof_zero(self):
        assert criteria(7.3, 0.0, 0.5, 20)[3] == pytest.approx(7.3 / 0.25)

    def test_sigma_must_be_positive(self):
        for sigma in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="sigma must be positive"):
                criteria(1.0, 1.0, sigma, 10)

    def test_sigma_free_criteria_are_nan(self):
        sure, gcv, cp, aic = criteria(1.0, 1.0, None, 10)
        assert np.isnan([sure, cp, aic]).all()
        assert gcv == pytest.approx(0.1 / 0.81)

    @given(finite, finite, finite, st.integers(5, 200))
    def test_sure_equals_sigma_sq_times_cp(self, rss, dof, sigma, q):
        sure, _, cp, _ = criteria(rss, dof, sigma, q)
        assert sure == pytest.approx(sigma**2 * cp, rel=1e-12, abs=1e-12)

    @given(finite, finite, finite, st.integers(5, 200))
    def test_aic_minus_cp_is_q(self, rss, dof, sigma, q):
        _, _, cp, aic = criteria(rss, dof, sigma, q)
        assert aic - cp == pytest.approx(q, rel=1e-12)


class TestEstimateSigma:
    def test_requires_overdetermined(self):
        with pytest.raises(ValueError):
            estimate_sigma(Design.identity(3), np.ones(3))

    def test_zero_for_exact_fit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        assert estimate_sigma(Design(x), y) < 1e-12

    def test_recovers_noise_scale(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((400, 5))
        y = x @ rng.standard_normal(5) + 0.7 * rng.standard_normal(400)
        assert estimate_sigma(Design(x), y) == pytest.approx(0.7, rel=0.1)


class TestDefaultGrid:
    def test_endpoints_and_monotonicity(self):
        g = default_lambda_grid(5.0)
        assert len(g) == 50
        assert g[0] == pytest.approx(5.0)
        assert g[-1] == pytest.approx(0.05)
        assert np.all(np.diff(g) < 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_lambda_grid(0.0)

    @pytest.mark.parametrize("decades", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_count_of_decades_that_is_not_positive_and_finite(self, decades):
        with pytest.raises(ValueError, match="decades must be positive and finite"):
            default_lambda_grid(5.0, 5, decades)


class TestLambdaPath:
    def test_single_point_above_lambda_max(self):
        problem = random_problem(5, 16, 6, [2, 2, 2])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            [2 * lmax], sigma=0.5)
        assert len(curve) == 1
        assert curve.dof[0] == 0.0
        assert curve.active_dim[0] == 0
        assert curve.residual_sq[0] == pytest.approx(float(problem.y @ problem.y))
        assert curve.sure[0] == pytest.approx(
            float(problem.y @ problem.y) - 16 * 0.25)

    def test_default_grid_smoke(self):
        problem = random_problem(6, 20, 8, [2, 2, 2, 2])
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            sigma=1.0, n_points=25)
        assert len(curve) == 25
        assert np.all(np.diff(curve.lambdas) < 0)
        assert not curve.failed
        # first grid point is lambda_max itself: nothing is selected yet
        assert curve.dof[0] == 0.0
        assert curve.residual_sq[0] == pytest.approx(float(problem.y @ problem.y))
        # weaker regularization fits at least as well
        assert np.all(np.diff(curve.residual_sq) <= 1e-10)
        # and uses at least as many coefficients (on unwarned rows)
        clean = ~curve.warning
        assert np.all(np.diff(curve.active_dim[clean]) >= 0)

    def test_selection_consistency_between_sure_and_cp(self):
        problem = random_problem(8, 24, 9, [3, 3, 3])
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            sigma=0.6, n_points=30)
        assert curve.select("sure") == curve.select("cp")

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan])
    def test_rejects_a_bad_sigma_before_solving(self, monkeypatch, sigma):
        problem = random_problem(9, 14, 4, [2, 2])

        def refuse(*args, **kwargs):
            raise AssertionError("the grid was solved")

        monkeypatch.setattr(risk, "dof_batch", refuse)
        with pytest.raises(ValueError, match="sigma must be positive"):
            lambda_path(problem.design, problem.y, problem.partition, sigma=sigma)

    def test_sigma_free_curve_has_nan_criteria(self):
        problem = random_problem(9, 14, 4, [2, 2])
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            n_points=5)
        assert np.all(np.isnan(curve.sure))
        assert np.all(np.isnan(curve.cp))
        assert np.all(np.isnan(curve.aic))
        assert np.all(np.isfinite(curve.gcv))
        with pytest.raises(ValueError):
            curve.select("sure")

    def test_matches_per_lambda_solves(self):
        problem = random_problem(12, 40, 16, [4, 4, 4, 4])
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            sigma=1.0, n_points=20)
        assert not curve.failed
        for i, lam in enumerate(curve.lambdas):
            p = dataclasses.replace(problem, lam=lam)
            sol = solve(p)
            report = dof_estimate(p, sol)
            resid = p.y - p.design.matrix @ sol.beta
            assert curve.dof[i] == pytest.approx(report.divergence, rel=1e-10)
            assert curve.residual_sq[i] == pytest.approx(float(resid @ resid), rel=1e-12)
            assert curve.active_dim[i] == report.support.active_dim
            assert curve.warning[i] == report.warning

    def test_failed_lambdas_recorded_and_skipped(self):
        problem = random_problem(10, 16, 6, [3, 3])
        lmax = lambda_max(problem.design, problem.y, problem.partition)
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            [lmax, lmax / 3],
                            sigma=1.0, opts=SolverOptions(max_iter=1))
        assert curve.failed == (1,)
        assert np.isnan(curve.dof[1]) and np.isnan(curve.residual_sq[1])
        assert np.isfinite(curve.dof[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_observations(self, bad):
        # named as y, before the default grid reads a non-finite lambda_max
        problem = random_problem(11, 10, 4, [2, 2])
        y = problem.y.copy()
        y[3] = bad
        with pytest.raises(ValueError, match="y must be finite"):
            lambda_path(problem.design, y, problem.partition)

    def test_rejects_bad_grids(self):
        problem = random_problem(11, 10, 4, [2, 2])
        for bad in ([], [1.0, 1.0], [0.5, -1.0]):
            with pytest.raises(ValueError):
                lambda_path(problem.design, problem.y, problem.partition, bad)


class TestSelection:
    def _curve(self, lambdas, sure_col):
        n = len(lambdas)
        z = np.zeros(n)
        return RiskCurve(lambdas=np.asarray(lambdas, dtype=float), dof=z,
                         residual_sq=z, sure=np.asarray(sure_col, dtype=float),
                         gcv=z, cp=z, aic=z, active_dim=z.astype(int),
                         warning=np.zeros(n, dtype=bool), sigma=1.0)

    def test_ties_break_to_larger_lambda(self):
        curve = self._curve([3.0, 2.0, 1.0], [5.0, 1.0, 1.0])
        assert curve.select("sure") == 2.0

    def test_unknown_criterion(self):
        curve = self._curve([1.0], [0.0])
        with pytest.raises(ValueError):
            curve.select("lambdas")


class TestCsv:
    def test_header_and_shape(self):
        problem = random_problem(12, 14, 6, [2, 2, 2])
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            sigma=0.5, n_points=4)
        text = curve.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,dof,residual_sq,sure,gcv,cp,aic,active_dim,warning"
        assert len(lines) == 5
        cells = lines[1].split(",")
        assert len(cells) == 9
        # full-precision scientific notation round-trips exactly
        assert float(cells[0]) == curve.lambdas[0]
        assert float(cells[2]) == curve.residual_sq[0]
        assert "e" in cells[0]
        assert cells[7] == str(int(curve.active_dim[0]))
        assert cells[8] in ("0", "1")

    def test_file_has_lf_endings(self, tmp_path):
        problem = random_problem(13, 12, 4, [2, 2])
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            n_points=3)
        out = tmp_path / "curve.csv"
        curve.write_csv(out)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().count("\n") == 4

    def test_nan_cells_for_missing_sigma(self):
        problem = random_problem(13, 12, 4, [2, 2])
        curve = lambda_path(problem.design, problem.y, problem.partition,
                            n_points=3)
        row = curve.to_csv().strip().split("\n")[1].split(",")
        assert row[3] == "nan" and row[5] == "nan" and row[6] == "nan"
