"""Weighted log-quadratic regression and ESS-calibrated tempering.

The fit minimizes sum_n w_n (log fhat(x_n) - log f_n)^2 over the
log-quadratic family, by ridge-regularized normal equations followed by one
iterative-refinement step (so exactly representable targets are recovered to
machine precision despite the ridge).  The quadratic term is then projected
onto the feasible cone for the kernel covariance it will twist, and the
linear/constant parts are re-fit with the projected quadratic held fixed.

When the weights are too degenerate for the regression to be well posed,
they are flattened by an exponent alpha calibrated by bisection so their
effective sample size lands on a floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDesign
from .fk import ess
from .twist import LogQuadraticTwist, psd_floor


def feature_count(dim: int, mode: str) -> int:
    if mode == "diagonal":
        return 2 * dim + 1
    if mode == "full":
        return dim * (dim + 1) // 2 + dim + 1
    raise ValueError(f"unknown mode {mode!r}")


def quadratic_features(states: np.ndarray, mode: str) -> np.ndarray:
    """Design matrix: quadratic monomials per mode, then linear terms, then a
    constant column."""
    x = np.asarray(states, dtype=float)
    n, d = x.shape
    cols = [x**2] if mode == "diagonal" else [x**2] + [
        (x[:, i] * x[:, j])[:, None] for i in range(d) for j in range(i + 1, d)
    ]
    cols.append(x)
    cols.append(np.ones((n, 1)))
    return np.concatenate(cols, axis=1)


def _coeffs_to_twist(theta: np.ndarray, dim: int, mode: str) -> LogQuadraticTwist:
    # model: y = -(1/2) x'Ax - x'b - c/2 over the monomial basis
    a = np.zeros((dim, dim))
    pos = dim
    a[np.diag_indices(dim)] = -2.0 * theta[:dim]
    if mode == "full":
        for i in range(dim):
            for j in range(i + 1, dim):
                a[i, j] = a[j, i] = -theta[pos]
                pos += 1
    b = -theta[pos : pos + dim]
    c = -2.0 * theta[-1]
    return LogQuadraticTwist(a, b, float(c))


def _solve_refined(m: np.ndarray, v: np.ndarray, ridge: float) -> np.ndarray:
    """Solve m theta = v through the ridge-shifted system, then take two
    refinement steps against the unshifted equations; exact targets come back
    exact while genuinely singular systems stay controlled by the ridge."""
    shifted = m + ridge * np.eye(m.shape[0])
    try:
        theta = np.linalg.solve(shifted, v)
        theta = theta + np.linalg.solve(shifted, v - m @ theta)
        theta = theta + np.linalg.solve(shifted, v - m @ theta)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign() from exc
    if not np.all(np.isfinite(theta)):
        raise SingularDesign("non-finite regression solution")
    return theta


def _weighted_ls(design: np.ndarray, y: np.ndarray, w: np.ndarray, ridge: float | None) -> np.ndarray:
    """Weighted least squares over a design whose last column is constant.

    The non-constant columns are standardized under the weights before the
    normal equations are formed, which keeps the solve well conditioned even
    when tempered weights concentrate on a handful of points; coefficients
    are mapped back to the raw basis exactly.
    """
    p = design.shape[1]
    mu = w @ design[:, :-1]
    sd = np.sqrt(np.maximum(w @ (design[:, :-1] - mu) ** 2, 0.0))
    sd = np.where(sd > 1e-12 * (1.0 + np.abs(mu)), sd, 1.0)
    std = np.empty_like(design)
    std[:, :-1] = (design[:, :-1] - mu) / sd
    std[:, -1] = design[:, -1]
    weighted = std * w[:, None]
    m = weighted.T @ std
    m = (m + m.T) / 2.0
    v = weighted.T @ y
    if ridge is None:
        ridge = 1e-8 * np.trace(m) / p
    theta_std = _solve_refined(m, v, ridge)
    theta = np.empty(p)
    theta[:-1] = theta_std[:-1] / sd
    theta[-1] = theta_std[-1] - float(theta[:-1] @ mu)
    return theta


def _has_distinct_rows(pts: np.ndarray, p: int) -> bool:
    """Whether `pts` has at least p distinct rows, as `np.unique(axis=0)`
    counts them.  A single column with p distinct values already implies p
    distinct rows, so the row-wise unique runs only when the first column
    cannot decide."""
    if pts.shape[0] < p:
        return False
    col = np.sort(pts[:, 0])
    if np.count_nonzero(col[1:] != col[:-1]) + 1 >= p:
        return True
    return np.unique(pts, axis=0).shape[0] >= p


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """One twist-fitting problem.

    `log_weights=None` requests the unweighted fit (the backward scheme's
    learning rule); otherwise weights enter the least squares after log-space
    normalization, so rescaling them all is a no-op.  Points with -inf target
    are excluded together with their weight mass.  `constraint_cov`, when
    given, activates the positive-definiteness projection of the fitted
    quadratic term against that kernel covariance.
    """

    prev_states: np.ndarray | None
    states: np.ndarray
    log_targets: np.ndarray
    log_weights: np.ndarray | None = None
    mode: str = "diagonal"
    ridge: float | None = None
    constraint_cov: np.ndarray | None = None
    psd_epsilon: float | None = None
    refit_after_projection: bool = True


def fit_log_quadratic(problem: RegressionProblem) -> LogQuadraticTwist:
    """Weighted least squares of log-targets over the log-quadratic family.

    Raises SingularDesign when fewer usable distinct points remain than
    features, or the normal equations cannot be solved.  Points count as
    distinct row-wise, as `np.unique(axis=0)` counts them; when one column
    alone has enough distinct values, the row-wise count is skipped.  Pass
    the kernel's `psd_epsilon` with `constraint_cov` when fitting many
    problems against one covariance, so the floor is not recomputed from
    its eigenvalues on every fit.
    """
    states = np.asarray(problem.states, dtype=float)
    if states.ndim != 2:
        raise ValueError("states must be (n, d)")
    n, dim = states.shape
    y = np.asarray(problem.log_targets, dtype=float)
    if y.shape != (n,):
        raise ValueError("log_targets must be (n,)")
    p = feature_count(dim, problem.mode)

    usable = y > -np.inf
    if problem.log_weights is not None:
        lw = np.asarray(problem.log_weights, dtype=float)
        usable &= lw > -np.inf
    if np.isnan(y[usable]).any():
        raise ValueError("log_targets contain NaN at weighted points")
    pts = states[usable]
    if not _has_distinct_rows(pts, p):
        raise SingularDesign("fewer distinct usable points than features")
    yy = y[usable]

    if problem.log_weights is None:
        w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    else:
        lw = np.asarray(problem.log_weights, dtype=float)[usable]
        # max-shift before exponentiating: adding a constant to every log
        # weight then cancels exactly, so rescaling weights is a bit-level
        # no-op as well as a mathematical one
        w = np.exp(lw - np.max(lw))
        w /= w.sum()

    design = quadratic_features(pts, problem.mode)
    theta = _weighted_ls(design, yy, w, problem.ridge)
    twist = _coeffs_to_twist(theta, dim, problem.mode)

    if problem.constraint_cov is None:
        return twist
    projected = psd_floor(
        twist.A, problem.constraint_cov, epsilon=problem.psd_epsilon, mode=problem.mode
    )
    if projected is twist.A:
        return twist
    if not problem.refit_after_projection:
        return LogQuadraticTwist(projected, twist.b, twist.c)
    # linear sub-problem: with A fixed, fit b and c to the residual targets
    resid = yy + 0.5 * np.einsum("ni,ij,nj->n", pts, projected, pts)
    lin = np.concatenate([pts, np.ones((pts.shape[0], 1))], axis=1)
    theta2 = _weighted_ls(lin, resid, w, problem.ridge)
    return LogQuadraticTwist(projected, -theta2[:dim], float(-2.0 * theta2[-1]))


@dataclass(frozen=True, eq=False)
class TemperingResult:
    alpha: float
    tempered_log_weights: np.ndarray
    achieved_ess: float


def temper_exponent(
    log_weights: np.ndarray,
    target_ess: float,
    tolerance: float = 0.5,
    max_iter: int = 100,
) -> TemperingResult:
    """Exponent alpha in (0, 1] such that ess(alpha * log-weights) is within
    `tolerance` of `target_ess`.

    Weights at or above the target are returned untouched with alpha = 1.
    The ESS of max-shifted tempered weights is continuous and non-increasing
    in alpha, so bisection applies; when fewer finite weights exist than the
    target the bisection settles at the flat end and the achieved ESS is the
    count of finite weights.
    """
    lw = np.asarray(log_weights, dtype=float)
    current = ess(lw)
    n = lw.shape[0]
    if not 1.0 < target_ess < n:
        raise ValueError("target_ess must lie strictly between 1 and n")
    if current >= target_ess:
        return TemperingResult(alpha=1.0, tempered_log_weights=lw, achieved_ess=current)
    shifted = lw - np.max(lw[np.isfinite(lw)])

    def ess_at(alpha: float) -> float:
        return ess(alpha * shifted)

    lo, hi = 0.0, 1.0
    alpha = 0.5
    for _ in range(max_iter):
        alpha = 0.5 * (lo + hi)
        val = ess_at(alpha)
        if abs(val - target_ess) <= tolerance:
            break
        if val > target_ess:
            lo = alpha
        else:
            hi = alpha
    tempered = alpha * shifted
    return TemperingResult(alpha=alpha, tempered_log_weights=tempered, achieved_ess=ess_at(alpha))
