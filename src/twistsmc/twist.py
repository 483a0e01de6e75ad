"""Log-quadratic twisting of Gaussian kernels.

A twist phi(x) = exp(-x'Ax/2 - x'b - c/2) multiplied into a Gaussian kernel
N(m, S) yields another Gaussian in closed form whenever S^-1 + A is positive
definite: the twisted kernel is N((S^-1+A)^-1 (S^-1 m - b), (S^-1+A)^-1) and
the normalizer integral(phi dN(m, S)) is available exactly.  With affine
kernel means the log-normalizer is itself a quadratic form in the
conditioning state, which keeps every quantity in the twist recursion inside
the log-quadratic family.

Assembling a twisted model preserves the reference's final path target and
normalizing constant: the auxiliary weights satisfy eta_T = 1 structurally,
and the initial twist's normalizer enters the first potential as a constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import InvalidTwist
from .fk import FeynmanKacModel


def _as_matrix(a, d: int) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"expected ({d}, {d}) matrix, got {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class LogQuadraticTwist:
    """Coefficients (A, b, c) of phi(x) = exp(-x'Ax/2 - x'b - c/2).

    A is stored symmetrized; an all-zero triple is the identity twist
    (phi = 1).  c is carried through all operations: it cancels in the
    twisted kernel but shifts the normalizer and hence the bookkeeping of
    log-normalizing-constant estimates.
    """

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if b.shape != (A.shape[0],):
            raise ValueError("b must be a vector matching A")
        if A.shape[0] == 1:
            # a 1x1 matrix is symmetric; the tolerance test fails only on NaN
            symmetric = A[0, 0] == A[0, 0]
        else:
            symmetric = (A == A.T).all() or np.allclose(
                A, A.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(A).max())
            )
        if not symmetric:
            raise ValueError("A must be symmetric")
        object.__setattr__(self, "A", (A + A.T) / 2.0)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @classmethod
    def identity(cls, dim: int) -> "LogQuadraticTwist":
        return cls(np.zeros((dim, dim)), np.zeros(dim), 0.0)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def is_identity(self) -> bool:
        return not (self.A.any() or self.b.any() or self.c != 0.0)

    @property
    def is_diagonal(self) -> bool:
        return not (self.A - np.diag(np.diag(self.A))).any()

    def log_values(self, x: np.ndarray) -> np.ndarray:
        """log phi at each row of x; accepts (n, d) or (d,)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if self.A.shape[0] == 1:
            col = pts[:, 0]
            out = -0.5 * self.A[0, 0] * col * col - self.b[0] * col - 0.5 * self.c
        else:
            quad = np.einsum("ni,ij,nj->n", pts, self.A, pts)
            out = -0.5 * quad - pts @ self.b - 0.5 * self.c
        return float(out[0]) if single else out

    def compose(self, other: "LogQuadraticTwist") -> "LogQuadraticTwist":
        return compose_potential_twist(self, other)


def compose_potential_twist(
    first: LogQuadraticTwist, second: LogQuadraticTwist
) -> LogQuadraticTwist:
    """Pointwise product of two log-quadratics: coefficient-wise sum."""
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")
    return LogQuadraticTwist(first.A + second.A, first.b + second.b, first.c + second.c)


def default_psd_epsilon(cov: np.ndarray) -> float:
    """Positive-definiteness floor used when projecting a fitted quadratic
    term: 1e-6 over the largest covariance eigenvalue, so the floor scales
    with the precision of the kernel the twist is applied against."""
    eigmax = float(np.linalg.eigvalsh(np.asarray(cov, dtype=float)).max())
    return 1e-6 / eigmax


def psd_floor(
    A: np.ndarray,
    cov_lower_bound: np.ndarray,
    epsilon: float | None = None,
    mode: str = "full",
) -> np.ndarray:
    """Project A so that cov_lower_bound^-1 + A has minimum eigenvalue >=
    epsilon.

    Full mode clamps the eigenvalues of precision + A, which is the
    Frobenius-nearest valid matrix.  Diagonal mode adds a uniform shift to
    the diagonal instead, since eigenvalue clamping would introduce
    off-diagonal entries.  A valid A is returned unchanged, which makes the
    projection idempotent.
    """
    d = np.asarray(A).shape[0]
    A = _as_matrix(A, d)
    cov = _as_matrix(cov_lower_bound, d)
    if epsilon is None:
        epsilon = default_psd_epsilon(cov)
    prec = np.linalg.inv(cov)
    prec = (prec + prec.T) / 2.0
    m = prec + A
    eigvals = np.linalg.eigvalsh(m)
    slack = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(eigvals).max()), abs(epsilon))
    if eigvals[0] >= epsilon - slack:
        return A
    # clamp a little above the floor: reconstructing from eigenvectors
    # reintroduces absolute rounding noise on the scale of the matrix norm
    target = epsilon + 4.0 * slack
    if mode == "diagonal":
        shift = target - float(eigvals[0])
        return A + shift * np.eye(d)
    if mode != "full":
        raise ValueError(f"unknown psd_floor mode {mode!r}")
    vals, vecs = np.linalg.eigh(m)
    clamped = np.maximum(vals, target)
    m_fixed = (vecs * clamped) @ vecs.T
    out = m_fixed - prec
    return (out + out.T) / 2.0


class _CovFactor:
    """Factorizations of one kernel covariance, shared by every twisted
    kernel built against it: the Cholesky factor, the symmetrized precision,
    and half the log-determinant.  The PSD floor for fits constrained by this
    covariance is computed on first use."""

    def __init__(self, cov: np.ndarray):
        self.cov = np.asarray(cov, dtype=float)
        d = self.cov.shape[0]
        self.chol_cov = np.linalg.cholesky(self.cov)
        prec = cho_solve((self.chol_cov, True), np.eye(d), check_finite=False)
        self.prec = (prec + prec.T) / 2.0
        self.half_logdet = np.log(np.diag(self.chol_cov)).sum()

    @cached_property
    def psd_epsilon(self) -> float:
        return default_psd_epsilon(self.cov)


class _TwistedKernel:
    """Per-step factorizations for twisting one Gaussian kernel N(m(.), cov)
    with one twist.  The covariance factors come from a `_CovFactor` shared
    by every kernel on that covariance; only the twisted precision
    lambda = cov^-1 + A is factored here.  No explicit inverse is formed on
    the sampling path; draws and twisted means go through triangular solves
    against the Cholesky factor of lambda.  In one dimension the factor and
    inverse of lambda are scalar expressions that reproduce the LAPACK
    results bit for bit."""

    def __init__(self, factor: _CovFactor, twist: LogQuadraticTwist):
        d = twist.dim
        if factor.cov.shape != (d, d):
            raise ValueError(f"expected ({d}, {d}) matrix, got {factor.cov.shape}")
        self.cov = factor.cov
        self.twist = twist
        self.chol_cov = factor.chol_cov
        self.prec = factor.prec
        self._scalar = d == 1  # skip LAPACK round-trips in the 1-d hot path
        if self._scalar:
            lam = self.prec[0, 0] + twist.A[0, 0]
            if not lam > 0:
                raise InvalidTwist("kernel precision + A is not positive definite")
            l_c = np.sqrt(lam)
            self.chol_lam = np.array([[l_c]])
            inv = (1.0 / l_c) * (1.0 / l_c)
            self.twisted_cov = np.array([[(inv + inv) / 2.0]])
            log_diag_lam = np.log(l_c)
        else:
            try:
                self.chol_lam = np.linalg.cholesky(self.prec + twist.A)
            except np.linalg.LinAlgError as exc:
                raise InvalidTwist(
                    "kernel precision + A is not positive definite"
                ) from exc
            # the twisted covariance, materialized once; draws still go through
            # a triangular solve against the lambda factor rather than this
            lam_inv = cho_solve((self.chol_lam, True), np.eye(d), check_finite=False)
            self.twisted_cov = (lam_inv + lam_inv.T) / 2.0
            log_diag_lam = np.log(np.diag(self.chol_lam)).sum()
        # log det(I + cov A) = log det(cov) + log det(lambda)
        self.logdet_cov_lam = 2.0 * (factor.half_logdet + log_diag_lam)

    def twisted_moments(self, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Twisted means for each row of `means`, plus the shared twisted
        covariance (lambda^-1)."""
        if self._scalar:
            lam = self.chol_lam[0, 0] ** 2
            tm = (means * self.prec[0, 0] - self.twist.b[0]) / lam
            return tm, np.array([[1.0 / lam]])
        rhs = means @ self.prec - self.twist.b
        return rhs @ self.twisted_cov, self.twisted_cov

    def log_eta(self, means: np.ndarray) -> np.ndarray:
        """log integral(phi dN(mean, cov)) for each row of `means`."""
        if self._scalar:
            m = means[:, 0]
            u = (m * self.prec[0, 0] - self.twist.b[0]) / self.chol_lam[0, 0]
            v = m / self.chol_cov[0, 0]
            return -0.5 * self.logdet_cov_lam + 0.5 * u * u - 0.5 * v * v - 0.5 * self.twist.c
        rhs = means @ self.prec - self.twist.b  # (n, d)
        quad_u = np.sum((rhs @ self.twisted_cov) * rhs, axis=1)
        quad_v = np.sum((means @ self.prec) * means, axis=1)
        return -0.5 * self.logdet_cov_lam + 0.5 * quad_u - 0.5 * quad_v - 0.5 * self.twist.c

    def sample(self, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(means.shape)
        if self.twist.is_identity:
            return means + z @ self.chol_cov.T
        tm, _ = self.twisted_moments(means)
        if self._scalar:
            return tm + z / self.chol_lam[0, 0]
        return tm + solve_triangular(self.chol_lam.T, z.T, lower=False, check_finite=False).T


def twist_gaussian(
    mean: np.ndarray, cov: np.ndarray, twist: LogQuadraticTwist
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Closed-form twist of N(mean, cov) by phi.

    Returns (twisted_mean, twisted_cov, log_eta) with log_eta the exact
    Gaussian integral of phi, including the -c/2 contribution.  `mean` may be
    a (d,) vector or an (n, d) batch.  Raises InvalidTwist when cov^-1 + A is
    not positive definite.
    """
    mean = np.asarray(mean, dtype=float)
    single = mean.ndim == 1
    means = mean[None, :] if single else mean
    if twist.is_identity:
        cov = _as_matrix(cov, twist.dim)
        zeros = np.zeros(means.shape[0])
        return (mean, cov, 0.0 if single else zeros)
    kern = _TwistedKernel(_CovFactor(_as_matrix(cov, twist.dim)), twist)
    tm, tcov = kern.twisted_moments(means)
    log_eta = kern.log_eta(means)
    if single:
        return tm[0], tcov, float(log_eta[0])
    return tm, tcov, log_eta


def integrate_twist_affine(
    trans_matrix: np.ndarray,
    trans_offset: np.ndarray,
    cov: np.ndarray,
    twist: LogQuadraticTwist,
    kernel: "_TwistedKernel | None" = None,
) -> LogQuadraticTwist:
    """log integral(phi dN(Fx + u, cov)) as a quadratic form in x.

    This is the auxiliary-weight map: integrating a log-quadratic twist
    through an affine-Gaussian kernel stays log-quadratic, which is what lets
    the twist recursion run in closed form.  A prebuilt kernel for the same
    (cov, twist) pair may be passed to reuse its factorizations.
    """
    d = twist.dim
    F = _as_matrix(trans_matrix, d)
    u = np.asarray(trans_offset, dtype=float)
    if twist.is_identity:
        return LogQuadraticTwist.identity(d)
    kern = kernel if kernel is not None else _TwistedKernel(_CovFactor(_as_matrix(cov, d)), twist)
    # log eta(m) = -(1/2) m'Qm - m'r - s/2 with
    #   Q = P - P lam^-1 P,  r = P lam^-1 b,  s = c + logdet(cov lam) - b'lam^-1 b
    P = kern.prec
    Q = P - P @ kern.twisted_cov @ P
    Q = (Q + Q.T) / 2.0
    lam_inv_b = kern.twisted_cov @ twist.b
    r = P @ lam_inv_b
    s = twist.c + kern.logdet_cov_lam - float(twist.b @ lam_inv_b)
    A_eta = F.T @ Q @ F
    b_eta = F.T @ (Q @ u + r)
    c_eta = float(u @ Q @ u + 2.0 * (u @ r) + s)
    return LogQuadraticTwist((A_eta + A_eta.T) / 2.0, b_eta, c_eta)


@dataclass(frozen=True)
class GaussianKernelSpec:
    """Affine-Gaussian proposal chain: x_1 ~ N(m1, S1) and, for t >= 2,
    x_t | x_{t-1} ~ N(F_t x_{t-1} + u_t, S_t).

    `cov_map(t)` must not depend on the conditioning state; both benchmark
    model families have constant per-step covariances, and twist validity is
    checked once per step against them.
    """

    state_dim: int
    horizon: int
    initial_mean: np.ndarray
    initial_cov: np.ndarray
    trans_matrix: Callable[[int], np.ndarray]
    trans_offset: Callable[[int], np.ndarray]
    trans_cov: Callable[[int], np.ndarray]

    def mean_map(self, t: int, x_prev: np.ndarray) -> np.ndarray:
        return x_prev @ self.trans_matrix(t).T + self.trans_offset(t)

    def cov_map(self, t: int, x_prev: np.ndarray | None = None) -> np.ndarray:
        return self.trans_cov(t)


@dataclass(frozen=True)
class GaussianReference:
    """A runnable model paired with the Gaussian structure of its proposals;
    everything the twisting machinery needs to build auxiliary models."""

    fk: FeynmanKacModel
    kernels: GaussianKernelSpec


def gaussian_fk(
    kernels: GaussianKernelSpec,
    log_potential: Callable[[int, np.ndarray | None, np.ndarray], np.ndarray],
) -> FeynmanKacModel:
    """Bootstrap-style model over an affine-Gaussian chain.  Draws go through
    mean + chol(cov) z, the same path the twisting code uses for identity
    twists, so an identity-policy twisted model is bit-identical to this."""
    chols: dict[int, np.ndarray] = {}

    def chol_at(t: int) -> np.ndarray:
        if t not in chols:
            cov = kernels.initial_cov if t == 1 else kernels.trans_cov(t)
            chols[t] = np.linalg.cholesky(np.asarray(cov, dtype=float))
        return chols[t]

    def initial_sampler(n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, kernels.state_dim))
        return kernels.initial_mean + z @ chol_at(1).T

    def transition_sampler(t: int, x_prev: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(x_prev.shape)
        return kernels.mean_map(t, x_prev) + z @ chol_at(t).T

    return FeynmanKacModel(
        horizon=kernels.horizon,
        state_dim=kernels.state_dim,
        initial_sampler=initial_sampler,
        transition_sampler=transition_sampler,
        log_potential=log_potential,
    )


@dataclass(frozen=True, eq=False)
class TwistPolicy:
    """Per-step twists plus the auxiliary weights they induce.

    `etas[t-1]` is the quadratic representation of eta_t = integral of
    phi_{t+1} through kernel t+1; the final entry is the identity (eta_T = 1
    is what preserves the reference's final target), and `log_eta0` is the
    scalar normalizer of the twisted initial law.
    """

    twists: tuple[LogQuadraticTwist, ...]
    etas: tuple[LogQuadraticTwist, ...]
    log_eta0: float
    mode: str = "full"

    def __post_init__(self):
        if len(self.etas) != len(self.twists):
            raise ValueError("etas must have one entry per step")
        if not self.etas[-1].is_identity:
            raise InvalidTwist("final auxiliary weight must be identically one")

    @property
    def horizon(self) -> int:
        return len(self.twists)

    @property
    def dim(self) -> int:
        return self.twists[0].dim

    @property
    def is_identity(self) -> bool:
        return all(tw.is_identity for tw in self.twists)

    @classmethod
    def identity(cls, horizon: int, dim: int, mode: str = "full") -> "TwistPolicy":
        one = LogQuadraticTwist.identity(dim)
        return cls(twists=(one,) * horizon, etas=(one,) * horizon, log_eta0=0.0, mode=mode)

    @classmethod
    def from_twists(
        cls,
        twists: list[LogQuadraticTwist] | tuple[LogQuadraticTwist, ...],
        kernels: GaussianKernelSpec,
        mode: str = "full",
    ) -> "TwistPolicy":
        """Derive the induced auxiliary weights for a sequence of twists."""
        twists = tuple(twists)
        if len(twists) != kernels.horizon:
            raise ValueError("need one twist per step")
        T = kernels.horizon
        etas = []
        for t in range(1, T):
            etas.append(
                integrate_twist_affine(
                    kernels.trans_matrix(t + 1),
                    kernels.trans_offset(t + 1),
                    kernels.trans_cov(t + 1),
                    twists[t],
                )
            )
        etas.append(LogQuadraticTwist.identity(kernels.state_dim))
        _, _, log_eta0 = twist_gaussian(kernels.initial_mean, kernels.initial_cov, twists[0])
        return cls(twists=twists, etas=tuple(etas), log_eta0=float(log_eta0), mode=mode)

    def log_phi(self, t: int, x: np.ndarray) -> np.ndarray:
        return self.twists[t - 1].log_values(x)

    def log_eta(self, t: int, x: np.ndarray) -> np.ndarray:
        return self.etas[t - 1].log_values(x)

    def to_json_dict(self) -> dict:
        def encode(tw: LogQuadraticTwist) -> dict:
            if self.mode == "diagonal":
                if not tw.is_diagonal:
                    raise ValueError("twist has off-diagonal quadratic terms")
                a = np.diag(tw.A).tolist()
            else:
                a = tw.A.tolist()
            return {"A": a, "b": tw.b.tolist(), "c": tw.c}

        return {
            "mode": self.mode,
            "dim": self.dim,
            "horizon": self.horizon,
            "twists": [encode(tw) for tw in self.twists],
        }

    @classmethod
    def from_json_dict(cls, payload: dict, kernels: GaussianKernelSpec) -> "TwistPolicy":
        mode = payload["mode"]
        dim = int(payload["dim"])
        twists = []
        for entry in payload["twists"]:
            a = np.asarray(entry["A"], dtype=float)
            if mode == "diagonal":
                a = np.diag(a)
            twists.append(LogQuadraticTwist(a, np.asarray(entry["b"], dtype=float), entry["c"]))
        if dim != twists[0].dim:
            raise ValueError("dim field does not match twist shapes")
        return cls.from_twists(twists, kernels, mode=mode)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path, kernels: GaussianKernelSpec) -> "TwistPolicy":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh), kernels)


def build_twisted_model(
    reference: GaussianReference,
    policy: TwistPolicy,
    aux_policy: TwistPolicy | None = None,
) -> FeynmanKacModel:
    """Auxiliary model that proposes from the policy-twisted kernels.

    With `aux_policy=None` the auxiliary weights are the ones the policy
    itself induces and each potential collapses to
    log G_t - log phi_t(x_t) + log eta_t(x_t), with the initial normalizer
    folded into the first potential.  Passing a different `aux_policy` keeps
    its eta as the reweighting while proposing from `policy`, which is the
    mixed configuration the forward training scheme samples from; the
    Radon-Nikodym correction for the proposal swap enters through the
    policy-induced eta at the ancestor state.
    """
    kernels = reference.kernels
    T = kernels.horizon
    if policy.horizon != T:
        raise InvalidTwist("policy horizon does not match the model")
    if policy.dim != kernels.state_dim:
        raise InvalidTwist("policy dimension does not match the model")
    aux = policy if aux_policy is None else aux_policy
    if aux.horizon != T:
        raise InvalidTwist("auxiliary policy horizon does not match the model")
    if not aux.etas[-1].is_identity:
        raise InvalidTwist("final auxiliary weight must be identically one")
    mixed = aux is not policy

    kernel_cache: dict[int, _TwistedKernel] = {}
    factors: dict[bytes, _CovFactor] = {}  # one per distinct step covariance

    def twisted_kernel(t: int) -> _TwistedKernel:
        if t not in kernel_cache:
            cov = kernels.initial_cov if t == 1 else kernels.trans_cov(t)
            cov = _as_matrix(cov, kernels.state_dim)
            key = cov.tobytes()
            if key not in factors:
                factors[key] = _CovFactor(cov)
            try:
                kernel_cache[t] = _TwistedKernel(factors[key], policy.twists[t - 1])
            except InvalidTwist as exc:
                raise InvalidTwist(f"twist at t={t} is invalid for its kernel") from exc
        return kernel_cache[t]

    for t in range(1, T + 1):
        twisted_kernel(t)  # validate every step up front

    base_log_potential = reference.fk.log_potential

    def initial_sampler(n: int, rng: np.random.Generator) -> np.ndarray:
        means = np.broadcast_to(
            np.asarray(kernels.initial_mean, dtype=float), (n, kernels.state_dim)
        )
        return twisted_kernel(1).sample(np.ascontiguousarray(means), rng)

    def transition_sampler(t: int, x_prev: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return twisted_kernel(t).sample(kernels.mean_map(t, x_prev), rng)

    def log_potential(t: int, x_prev: np.ndarray | None, x: np.ndarray) -> np.ndarray:
        out = np.asarray(base_log_potential(t, x_prev, x), dtype=float)
        phi_t = policy.twists[t - 1]
        if not phi_t.is_identity:
            out = out - phi_t.log_values(x)
        eta_t = aux.etas[t - 1]
        if not eta_t.is_identity:
            out = out + eta_t.log_values(x)
        if t == 1:
            if policy.log_eta0 != 0.0:
                out = out + policy.log_eta0
        elif mixed:
            # Proposal swap: the policy-induced eta at the ancestor replaces
            # the auxiliary policy's; in the matched case the two cancel
            # exactly, so no ancestor term is evaluated at all.
            new_eta_prev = policy.etas[t - 2]
            if not new_eta_prev.is_identity:
                out = out + new_eta_prev.log_values(x_prev)
            old_eta_prev = aux.etas[t - 2]
            if not old_eta_prev.is_identity:
                out = out - old_eta_prev.log_values(x_prev)
        return out

    return FeynmanKacModel(
        horizon=T,
        state_dim=kernels.state_dim,
        initial_sampler=initial_sampler,
        transition_sampler=transition_sampler,
        log_potential=log_potential,
    )
