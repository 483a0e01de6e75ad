"""Benchmark state-space models, exact linear-Gaussian filtering, and data
ingestion.

Three model families: a 1-d autoregression observed through a nonlinear map
(exp(x) + x/10 by default, with a pluggable hook so a linear map recovers an
exactly solvable linear-Gaussian model), a multivariate stochastic-volatility
model with tridiagonal innovation covariance, and a general linear-Gaussian
state-space model used as the test oracle.
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IngestError, InvalidModel
from .rng import generator
from .twist import GaussianKernelSpec, GaussianReference, gaussian_fk

_LOG_2PI = np.log(2.0 * np.pi)


def as_observation_matrix(observations: np.ndarray) -> np.ndarray:
    """Observations as a (T, d) array; a flat series is a single column."""
    ys = np.asarray(observations, dtype=float)
    if ys.ndim == 1:
        return ys[:, None]
    if ys.ndim != 2:
        raise InvalidModel("observations must be 1- or 2-dimensional")
    return ys


def nonlinear_observation(x: np.ndarray) -> np.ndarray:
    """Default observation map exp(x) + x/10; nondecreasing, and sharply more
    informative for large x.  Overflow to inf is fine: the emission density
    at such states is zero and the corresponding log-potential is -inf."""
    with np.errstate(over="ignore"):
        return np.exp(x) + x / 10.0


@dataclass(frozen=True)
class NlObsParams:
    """AR(1) latent chain with nonlinear scalar observations."""

    alpha: float
    sigma_x2: float
    sigma_y2: float
    T: int

    def __post_init__(self):
        if not abs(self.alpha) < 1.0:
            raise InvalidModel("|alpha| must be < 1 for a stationary chain")
        if self.sigma_x2 < 0 or self.sigma_y2 < 0:
            raise InvalidModel("variances must be nonnegative")
        if self.T < 1:
            raise InvalidModel("T must be >= 1")

    @property
    def stationary_var(self) -> float:
        return self.sigma_x2 / (1.0 - self.alpha**2)


def simulate_nlobs(
    params: NlObsParams,
    seed,
    observation_fn: Callable[[np.ndarray], np.ndarray] = nonlinear_observation,
    x1: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the latent path and observations; `x1` overrides the
    stationary initial draw (used for noise-free checks)."""
    rng = generator(seed)
    T = params.T
    xs = np.empty(T)
    sx = np.sqrt(params.sigma_x2)
    xs[0] = np.sqrt(params.stationary_var) * rng.standard_normal() if x1 is None else x1
    for t in range(1, T):
        xs[t] = params.alpha * xs[t - 1] + sx * rng.standard_normal()
    ys = observation_fn(xs) + np.sqrt(params.sigma_y2) * rng.standard_normal(T)
    return xs, ys


def build_nlobs_fk(
    params: NlObsParams,
    observations: np.ndarray,
    observation_fn: Callable[[np.ndarray], np.ndarray] = nonlinear_observation,
) -> GaussianReference:
    """Bootstrap model: propose from the AR(1) transition, weight by the
    emission density of y_t at mean observation_fn(x_t)."""
    ys = np.asarray(observations, dtype=float).reshape(-1)
    if ys.shape[0] != params.T:
        raise InvalidModel(f"expected {params.T} observations, got {ys.shape[0]}")
    if params.sigma_y2 <= 0:
        raise InvalidModel("sigma_y2 must be positive to evaluate potentials")
    alpha = np.array([[params.alpha]])
    offset = np.zeros(1)
    q = np.array([[params.sigma_x2]])
    kernels = GaussianKernelSpec(
        state_dim=1,
        horizon=params.T,
        initial_mean=np.zeros(1),
        initial_cov=np.array([[params.stationary_var]]),
        trans_matrix=lambda t: alpha,
        trans_offset=lambda t: offset,
        trans_cov=lambda t: q,
    )
    log_norm = -0.5 * (_LOG_2PI + np.log(params.sigma_y2))

    def log_potential(t: int, x_prev, x: np.ndarray) -> np.ndarray:
        # an infinite residual (observation map overflow) zeroes the potential
        resid = ys[t - 1] - observation_fn(x[:, 0])
        with np.errstate(over="ignore"):
            return log_norm - 0.5 * resid**2 / params.sigma_y2

    return GaussianReference(fk=gaussian_fk(kernels, log_potential), kernels=kernels)


def tridiagonal_is_pd(rho: np.ndarray) -> bool:
    """Whether the tridiagonal matrix with unit diagonal and off-diagonal
    entries rho is positive definite.  Its leading principal minors follow
    D_k = D_{k-1} - rho_{k-1}^2 D_{k-2} with D_0 = D_1 = 1, and scaling rows
    and columns by positive standard deviations keeps definiteness, so this
    decides whether neighbour correlations rho give a valid `MsvParams`
    innovation covariance."""
    before, minor = 1.0, 1.0
    for r in np.asarray(rho, dtype=float):
        before, minor = minor, minor - r * r * before
        if not minor > 0:
            return False
    return True


@dataclass(frozen=True)
class MsvParams:
    """Multivariate stochastic volatility: latent log-variances follow a
    mean-reverting AR(1) with tridiagonal innovation covariance, returns are
    centered Gaussians with variance exp(x_{t,i})."""

    m: np.ndarray
    alpha: np.ndarray
    sigma2: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        sigma2 = np.asarray(self.sigma2, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        d = m.shape[0]
        if alpha.shape != (d,) or sigma2.shape != (d,) or rho.shape != (d - 1,):
            raise InvalidModel("parameter blocks have inconsistent dimensions")
        if not (np.all(alpha > 0) and np.all(alpha < 1)):
            raise InvalidModel("alpha coordinates must lie in (0, 1)")
        if not np.all(sigma2 > 0):
            raise InvalidModel("sigma2 coordinates must be positive")
        if not np.all(np.abs(rho) < 1):
            raise InvalidModel("rho coordinates must lie in (-1, 1)")
        if not tridiagonal_is_pd(rho):
            raise InvalidModel("tridiagonal innovation covariance is not PD")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    @property
    def transition_cov(self) -> np.ndarray:
        """Tridiagonal covariance: variances sigma2, neighbor correlations rho."""
        sig = np.sqrt(self.sigma2)
        cov = np.diag(self.sigma2).astype(float)
        off = self.rho * sig[:-1] * sig[1:]
        idx = np.arange(self.dim - 1)
        cov[idx, idx + 1] = off
        cov[idx + 1, idx] = off
        return cov

    @property
    def stationary_cov(self) -> np.ndarray:
        """Solution of S = diag(alpha) S diag(alpha) + cov; elementwise
        cov_ij / (1 - alpha_i alpha_j) because the transition matrix is
        diagonal."""
        return self.transition_cov / (1.0 - np.outer(self.alpha, self.alpha))


def simulate_msv(params: MsvParams, horizon: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Simulate latent log-variances from the invariant law and returns."""
    rng = generator(seed)
    d = params.dim
    chol_inf = np.linalg.cholesky(params.stationary_cov)
    chol_q = np.linalg.cholesky(params.transition_cov)
    xs = np.empty((horizon, d))
    xs[0] = params.m + chol_inf @ rng.standard_normal(d)
    drift = (1.0 - params.alpha) * params.m
    for t in range(1, horizon):
        xs[t] = drift + params.alpha * xs[t - 1] + chol_q @ rng.standard_normal(d)
    ys = np.exp(xs / 2.0) * rng.standard_normal((horizon, d))
    return xs, ys


def build_msv_fk(params: MsvParams, observations: np.ndarray) -> GaussianReference:
    ys = as_observation_matrix(observations)
    d = params.dim
    if ys.shape[1] != d:
        raise InvalidModel(f"observations have width {ys.shape[1]}, model has d={d}")
    T = ys.shape[0]
    F = np.diag(params.alpha)
    offset = (1.0 - params.alpha) * params.m
    q = params.transition_cov
    kernels = GaussianKernelSpec(
        state_dim=d,
        horizon=T,
        initial_mean=params.m.copy(),
        initial_cov=params.stationary_cov,
        trans_matrix=lambda t: F,
        trans_offset=lambda t: offset,
        trans_cov=lambda t: q,
    )

    def log_potential(t: int, x_prev, x: np.ndarray) -> np.ndarray:
        # exp(-x) overflowing to inf just zeroes the potential
        y = ys[t - 1]
        with np.errstate(over="ignore"):
            return np.sum(-0.5 * (_LOG_2PI + x + y**2 * np.exp(-x)), axis=1)

    return GaussianReference(fk=gaussian_fk(kernels, log_potential), kernels=kernels)


@dataclass(frozen=True)
class LgssmParams:
    """General linear-Gaussian state-space model; the exact-filtering oracle
    for everything else in the library."""

    trans_matrix: np.ndarray
    trans_cov: np.ndarray
    obs_matrix: np.ndarray
    obs_cov: np.ndarray
    initial_mean: np.ndarray
    initial_cov: np.ndarray
    trans_offset: np.ndarray | None = None

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.trans_matrix, dtype=float))
        Q = np.atleast_2d(np.asarray(self.trans_cov, dtype=float))
        C = np.atleast_2d(np.asarray(self.obs_matrix, dtype=float))
        R = np.atleast_2d(np.asarray(self.obs_cov, dtype=float))
        mu = np.atleast_1d(np.asarray(self.initial_mean, dtype=float))
        S1 = np.atleast_2d(np.asarray(self.initial_cov, dtype=float))
        u = self.trans_offset
        u = np.zeros(F.shape[0]) if u is None else np.atleast_1d(np.asarray(u, dtype=float))
        dx = F.shape[0]
        dy = C.shape[0]
        if F.shape != (dx, dx) or Q.shape != (dx, dx) or S1.shape != (dx, dx):
            raise InvalidModel("state-block shapes are inconsistent")
        if C.shape != (dy, dx) or R.shape != (dy, dy):
            raise InvalidModel("observation-block shapes are inconsistent")
        if mu.shape != (dx,) or u.shape != (dx,):
            raise InvalidModel("mean/offset shapes are inconsistent")
        for name, mat in (("trans_cov", Q), ("obs_cov", R), ("initial_cov", S1)):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError as exc:
                raise InvalidModel(f"{name} is not positive definite") from exc
        object.__setattr__(self, "trans_matrix", F)
        object.__setattr__(self, "trans_cov", Q)
        object.__setattr__(self, "obs_matrix", C)
        object.__setattr__(self, "obs_cov", R)
        object.__setattr__(self, "initial_mean", mu)
        object.__setattr__(self, "initial_cov", S1)
        object.__setattr__(self, "trans_offset", u)

    @property
    def state_dim(self) -> int:
        return self.trans_matrix.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.obs_matrix.shape[0]


def simulate_lgssm(params: LgssmParams, horizon: int, seed) -> tuple[np.ndarray, np.ndarray]:
    rng = generator(seed)
    dx, dy = params.state_dim, params.obs_dim
    chol_s1 = np.linalg.cholesky(params.initial_cov)
    chol_q = np.linalg.cholesky(params.trans_cov)
    chol_r = np.linalg.cholesky(params.obs_cov)
    xs = np.empty((horizon, dx))
    ys = np.empty((horizon, dy))
    xs[0] = params.initial_mean + chol_s1 @ rng.standard_normal(dx)
    for t in range(1, horizon):
        xs[t] = (
            params.trans_matrix @ xs[t - 1]
            + params.trans_offset
            + chol_q @ rng.standard_normal(dx)
        )
    for t in range(horizon):
        ys[t] = params.obs_matrix @ xs[t] + chol_r @ rng.standard_normal(dy)
    return xs, ys


@dataclass(frozen=True, eq=False)
class KalmanResult:
    log_z_path: np.ndarray  # (T,) cumulative log marginal likelihood
    predictive_logliks: np.ndarray  # (T,) log p(y_t | y_{1:t-1})
    filter_means: np.ndarray  # (T, dx)
    filter_covs: np.ndarray  # (T, dx, dx)
    predicted_means: np.ndarray  # (T, dx)
    predicted_covs: np.ndarray  # (T, dx, dx)

    @property
    def log_z_total(self) -> float:
        return float(self.log_z_path[-1])


def kalman(params: LgssmParams, observations: np.ndarray) -> KalmanResult:
    """Exact filter: one-step predictive log-likelihoods, their running sum
    (the log marginal likelihood path), and filtering moments.  Covariance
    updates use the Joseph form."""
    ys = as_observation_matrix(observations)
    if ys.shape[1] != params.obs_dim:
        raise InvalidModel(f"observations have width {ys.shape[1]}")
    T = ys.shape[0]
    dx = params.state_dim
    F, Q, C, R, u = (
        params.trans_matrix,
        params.trans_cov,
        params.obs_matrix,
        params.obs_cov,
        params.trans_offset,
    )
    eye = np.eye(dx)
    pred_means = np.empty((T, dx))
    pred_covs = np.empty((T, dx, dx))
    filt_means = np.empty((T, dx))
    filt_covs = np.empty((T, dx, dx))
    logliks = np.empty(T)
    m, P = params.initial_mean, params.initial_cov
    for t in range(T):
        if t > 0:
            m = F @ m + u
            P = F @ P @ F.T + Q
        pred_means[t], pred_covs[t] = m, P
        S = C @ P @ C.T + R
        try:
            chol_s = np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise InvalidModel(f"innovation covariance not PD at t={t + 1}") from exc
        v = ys[t] - C @ m
        alpha = np.linalg.solve(chol_s, v)
        logliks[t] = -0.5 * (
            params.obs_dim * _LOG_2PI
            + 2.0 * np.log(np.diag(chol_s)).sum()
            + alpha @ alpha
        )
        K = np.linalg.solve(S, C @ P).T
        m = m + K @ v
        ikc = eye - K @ C
        P = ikc @ P @ ikc.T + K @ R @ K.T
        filt_means[t], filt_covs[t] = m, P
    return KalmanResult(
        log_z_path=np.cumsum(logliks),
        predictive_logliks=logliks,
        filter_means=filt_means,
        filter_covs=filt_covs,
        predicted_means=pred_means,
        predicted_covs=pred_covs,
    )


def lgssm_kernels(params: LgssmParams, horizon: int) -> GaussianKernelSpec:
    return GaussianKernelSpec(
        state_dim=params.state_dim,
        horizon=horizon,
        initial_mean=params.initial_mean,
        initial_cov=params.initial_cov,
        trans_matrix=lambda t: params.trans_matrix,
        trans_offset=lambda t: params.trans_offset,
        trans_cov=lambda t: params.trans_cov,
    )


def build_lgssm_fk(params: LgssmParams, observations: np.ndarray) -> GaussianReference:
    """Bootstrap model for a linear-Gaussian SSM (propose from the
    transition, weight by the Gaussian emission)."""
    ys = as_observation_matrix(observations)
    if ys.shape[1] != params.obs_dim:
        raise InvalidModel(f"observations have width {ys.shape[1]}")
    kernels = lgssm_kernels(params, ys.shape[0])
    C, R = params.obs_matrix, params.obs_cov
    chol_r = np.linalg.cholesky(R)
    log_norm = -0.5 * (params.obs_dim * _LOG_2PI) - np.log(np.diag(chol_r)).sum()

    def log_potential(t: int, x_prev, x: np.ndarray) -> np.ndarray:
        resid = ys[t - 1][None, :] - x @ C.T
        z = np.linalg.solve(chol_r, resid.T)
        return log_norm - 0.5 * np.sum(z * z, axis=0)

    return GaussianReference(fk=gaussian_fk(kernels, log_potential), kernels=kernels)


def load_fx_returns(
    path,
    columns: Sequence[str],
    start: str | datetime.date | None = None,
    end: str | datetime.date | None = None,
    date_column: str = "date",
    allow_missing_rows: bool = False,
) -> np.ndarray:
    """Log returns log(rate_t / rate_{t-1}) for the requested currency
    columns, restricted to [start, end].

    The file must have a header, ISO dates in strictly increasing order, and
    decimal rates.  A missing or non-numeric cell raises IngestError with its
    row and column unless `allow_missing_rows` is set, in which case rows with
    any missing requested cell are dropped before returns are formed (which
    changes the horizon, hence the explicit opt-in).
    """

    def as_date(value, what):
        if value is None or isinstance(value, datetime.date):
            return value
        try:
            return datetime.date.fromisoformat(value)
        except ValueError as exc:
            raise IngestError(f"invalid {what} date {value!r}") from exc

    start = as_date(start, "start")
    end = as_date(end, "end")
    rows: list[tuple[datetime.date, list[float]]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError("file has no header row")
        missing_cols = [c for c in [date_column, *columns] if c not in reader.fieldnames]
        if missing_cols:
            raise IngestError(f"missing columns {missing_cols}")
        prev_date = None
        for i, record in enumerate(reader, start=2):  # header is row 1
            raw_date = (record.get(date_column) or "").strip()
            if not raw_date:
                raise IngestError("missing date", row=i, column=date_column)
            try:
                date = datetime.date.fromisoformat(raw_date)
            except ValueError as exc:
                raise IngestError(f"unparseable date {raw_date!r}", row=i, column=date_column) from exc
            if prev_date is not None and date <= prev_date:
                raise IngestError(f"dates not strictly increasing at {date}", row=i, column=date_column)
            prev_date = date
            if (start is not None and date < start) or (end is not None and date > end):
                continue
            values = []
            bad_col = None
            for col in columns:
                cell = (record.get(col) or "").strip()
                try:
                    val = float(cell)
                    if not np.isfinite(val) or val <= 0:
                        raise ValueError
                    values.append(val)
                except ValueError:
                    bad_col = col
                    break
            if bad_col is not None:
                if allow_missing_rows:
                    continue
                raise IngestError("missing or invalid rate", row=i, column=bad_col)
            rows.append((date, values))
    if len(rows) < 2:
        raise IngestError("need at least two usable rows to form returns")
    rates = np.array([vals for _, vals in rows], dtype=float)
    return np.diff(np.log(rates), axis=0)


def write_dataset_csv(path, xs: np.ndarray, ys: np.ndarray, meta: dict) -> None:
    """Dataset CSV (t, x_1..x_d, y_1..y_d) plus a JSON sidecar recording the
    generating parameters and seed.  Float cells use repr so identical inputs
    produce identical bytes."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if ys.ndim == 1:
        ys = ys[:, None]
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("latent path and observations disagree on horizon")
    dx, dy = xs.shape[1], ys.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(dx)] + [f"y_{i + 1}" for i in range(dy)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(xs.shape[0]):
            writer.writerow([t + 1] + [repr(float(v)) for v in xs[t]] + [repr(float(v)) for v in ys[t]])
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
        y_cols = [i for i, h in enumerate(header) if h.startswith("y_")]
        if not y_cols:
            raise IngestError("no observation columns found")
        xs, ys = [], []
        for row in reader:
            xs.append([float(row[i]) for i in x_cols])
            ys.append([float(row[i]) for i in y_cols])
    return np.asarray(xs), np.asarray(ys)
