"""Risk criteria built from the DOF estimate, and a lambda-path driver.

With Gaussian noise of known standard deviation sigma, an unbiased DOF
estimate turns the residual norm into unbiased (SURE, Cp) or classical
(GCV, AIC) model-selection criteria.  `lambda_path` solves a decreasing
lambda grid as one batch of cold starts, one column per lambda, recording
every criterion per lambda.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import BlockPartition, Design
from .dof import dof_batch
from .solver import SolverOptions, lambda_max

CSV_HEADER = "lambda,dof,residual_sq,sure,gcv,cp,aic,active_dim,warning"


def criteria(residual_sq, dof, sigma: float | None, Q: int):
    """(SURE, GCV, Cp, AIC) of a residual norm and a DOF estimate, or of
    arrays of them: SURE = rss - Q sigma^2 + 2 sigma^2 dof, GCV =
    (rss / Q) / (1 - dof / Q)^2, Cp = SURE / sigma^2 and AIC = Cp + Q.
    The three that need sigma are NaN when it is None."""
    if sigma is not None and not sigma > 0:
        raise ValueError("sigma must be positive")
    s2 = math.nan if sigma is None else sigma**2
    with np.errstate(divide="ignore", invalid="ignore"):
        gcv_v = (residual_sq / Q) / (1.0 - np.asarray(dof) / Q) ** 2
    return (residual_sq - Q * s2 + 2.0 * s2 * dof, gcv_v, residual_sq / s2 - Q + 2.0 * dof,
            residual_sq / s2 + 2.0 * dof)


def estimate_sigma(design: Design, y) -> float:
    """Unbiased noise estimate from full least-squares residuals, Q > N only."""
    q, n = design.Q, design.N
    if q <= n:
        raise ValueError("sigma estimation needs strictly more rows than columns")
    y = np.asarray(y, dtype=float)
    beta_ls = scipy.linalg.cho_solve(design.gram_cholesky, design.matrix.T @ y)
    resid = y - design.matrix @ beta_ls
    return float(np.sqrt(resid @ resid / (q - n)))


def default_lambda_grid(lam_max: float, n_points: int = 50, decades: float = 2.0) -> np.ndarray:
    """Log-spaced grid from lam_max down to lam_max / 10**decades."""
    if not lam_max > 0:
        raise ValueError("lam_max must be positive")
    # a negative count runs the grid above lam_max, where every fit is empty
    if not 0.0 < decades < math.inf:
        raise ValueError(f"decades must be positive and finite, got {decades:g}")
    return lam_max * np.logspace(0.0, -decades, n_points)


@dataclass(frozen=True)
class RiskCurve:
    """Per-lambda risk criteria along a decreasing regularization path.

    Criteria needing sigma (sure, cp, aic) are NaN when sigma is None;
    every statistic is NaN at lambdas whose solve failed to certify
    (positions listed in `failed`).
    """

    lambdas: np.ndarray
    dof: np.ndarray
    residual_sq: np.ndarray
    sure: np.ndarray
    gcv: np.ndarray
    cp: np.ndarray
    aic: np.ndarray
    active_dim: np.ndarray
    warning: np.ndarray
    sigma: float | None
    failed: tuple[int, ...] = ()

    def select(self, criterion: str = "sure") -> float:
        """Grid argmin of a criterion; ties resolve to the larger lambda."""
        col = getattr(self, criterion, None)
        if criterion not in ("sure", "gcv", "cp", "aic") or col is None:
            raise ValueError(f"unknown criterion {criterion!r}")
        if np.all(np.isnan(col)):
            raise ValueError(f"criterion {criterion!r} is unavailable on this curve")
        # lambdas are decreasing, so the first minimum is the sparsest model
        return float(self.lambdas[np.nanargmin(col)])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for i in range(len(self.lambdas)):
            cells = [_sci(self.lambdas[i]), _sci(self.dof[i]), _sci(self.residual_sq[i]),
                     _sci(self.sure[i]), _sci(self.gcv[i]), _sci(self.cp[i]),
                     _sci(self.aic[i]), str(int(self.active_dim[i])),
                     str(int(bool(self.warning[i])))]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())

    def __len__(self) -> int:
        return len(self.lambdas)


def _sci(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return np.format_float_scientific(x, precision=16, unique=False)


def lambda_path(design: Design, y, partition: BlockPartition, lambdas=None, *,
                sigma: float | None = None, n_points: int = 50, decades: float = 2.0,
                opts: SolverOptions | None = None) -> RiskCurve:
    """Solve along a decreasing lambda grid and record all risk criteria.

    The grid is one `dof_batch` of cold starts, one column per lambda, all
    sharing y, so the curve is bit-identical for a fixed grid.  Solutions
    and reports are consumed as the batch yields them, never held as a
    list, so their factors do not pile up.  A solve that fails to certify
    is recorded as NaN and the sweep continues.
    """
    y = np.asarray(y, dtype=float)
    # checked before the default grid, which a NaN lambda_max would break
    if y.shape != (design.Q,) or not np.isfinite(y).all():
        raise ValueError(f"y must be finite and of length Q={design.Q}")
    # checked before the grid is solved, not by `criteria` at the end
    if sigma is not None and not sigma > 0:
        raise ValueError("sigma must be positive")
    if lambdas is None:
        lambdas = default_lambda_grid(lambda_max(design, y, partition), n_points, decades)
    lambdas = np.sort(np.asarray(lambdas, dtype=float))[::-1]
    if lambdas.size == 0 or np.any(lambdas <= 0):
        raise ValueError("lambda grid must be nonempty and positive")
    if np.any(np.diff(lambdas) == 0):
        raise ValueError("lambda grid has repeated values")

    n = lambdas.size
    dof_v = np.full(n, np.nan)
    rss = np.full(n, np.nan)
    adim = np.zeros(n, dtype=int)
    warn = np.zeros(n, dtype=bool)
    failed = []

    ys = np.repeat(y[:, None], n, axis=1)
    for i, (sol, report) in enumerate(dof_batch(design, ys, lambdas, partition, opts)):
        if report is None:
            failed.append(i)
            continue
        resid = y - design.matrix @ sol.beta
        dof_v[i], rss[i] = report.divergence, float(resid @ resid)
        adim[i], warn[i] = report.support.active_dim, report.warning

    sure_v, gcv_v, cp_v, aic_v = criteria(rss, dof_v, sigma, design.Q)
    return RiskCurve(lambdas=lambdas, dof=dof_v, residual_sq=rss, sure=sure_v,
                     gcv=gcv_v, cp=cp_v, aic=aic_v, active_dim=adim, warning=warn,
                     sigma=sigma, failed=tuple(failed))
