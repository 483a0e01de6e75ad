"""Particle marginal Metropolis-Hastings over model parameters.

The chain random-walks in an unconstrained reparametrization (componentwise
identity / log / logit maps with exact Jacobians), accepts with the
pseudo-marginal ratio built from any log-likelihood estimator, and reuses the
current state's estimate untouched between acceptances.  Estimators are
plain callables (theta, seed) -> log-likelihood; helpers compose them from a
model builder plus either a plain filter or a training scheme that re-learns
its twists at every proposed parameter from fresh substreams.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import TwistSmcError
from .fk import run_smc
from .rng import as_seedseq, generator, substream
from .schemes import SchemeConfig, controlled_smc_train, forward_train, online_forward
from .twist import GaussianReference, build_twisted_model


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


_TRANSFORMS = {
    # kind: (forward theta->z, inverse z->theta, log |dtheta/dz|)
    "identity": (
        lambda th: th,
        lambda z: z,
        lambda z: np.zeros_like(z),
    ),
    "log": (
        lambda th: np.log(th),
        lambda z: np.exp(z),
        lambda z: z,
    ),
    "logit": (
        lambda th: np.log(th) - np.log1p(-th),
        lambda z: 1.0 / (1.0 + np.exp(-z)),
        lambda z: -_softplus(z) - _softplus(-z),
    ),
    "logit_sym": (
        # (-1, 1) via a scaled logistic
        lambda th: np.log1p(th) - np.log1p(-th),
        lambda z: 2.0 / (1.0 + np.exp(-z)) - 1.0,
        lambda z: np.log(2.0) - _softplus(z) - _softplus(-z),
    ),
}


@dataclass(frozen=True)
class ParamTransform:
    """Componentwise bijection between the constrained parameter vector and
    an unconstrained one, with the exact log-Jacobian of the inverse map."""

    kinds: tuple[str, ...]

    def __post_init__(self):
        unknown = [k for k in self.kinds if k not in _TRANSFORMS]
        if unknown:
            raise ValueError(f"unknown transform kinds {unknown}")

    @classmethod
    def from_blocks(cls, blocks: Sequence[tuple[str, int]]) -> "ParamTransform":
        kinds: list[str] = []
        for kind, size in blocks:
            kinds.extend([kind] * size)
        return cls(kinds=tuple(kinds))

    @property
    def dim(self) -> int:
        return len(self.kinds)

    def forward(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.array([_TRANSFORMS[k][0](theta[i]) for i, k in enumerate(self.kinds)])

    def inverse(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return np.array([_TRANSFORMS[k][1](z[i]) for i, k in enumerate(self.kinds)])

    def log_jacobian(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(sum(_TRANSFORMS[k][2](z[i]) for i, k in enumerate(self.kinds)))


def inverse_gamma_hyperparameters(mean: float, variance: float) -> tuple[float, float]:
    """Shape and scale of the inverse-gamma with the given mean and variance
    (moment inversion: shape = 2 + mean^2/variance, scale = mean (shape-1))."""
    if mean <= 0 or variance <= 0:
        raise ValueError("mean and variance must be positive")
    shape = 2.0 + mean**2 / variance
    scale = mean * (shape - 1.0)
    return shape, scale


def _log_invgamma(x, shape, scale):
    x = np.asarray(x, dtype=float)
    out = np.where(
        x > 0,
        shape * np.log(scale) - math.lgamma(shape) - (shape + 1.0) * np.log(np.where(x > 0, x, 1.0)) - scale / np.where(x > 0, x, 1.0),
        -np.inf,
    )
    return out


@dataclass(frozen=True)
class PriorBlock:
    name: str
    size: int
    log_density: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class PriorSpec:
    """Blockwise prior over the flat parameter vector."""

    blocks: tuple[PriorBlock, ...]

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def split(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        out: dict[str, np.ndarray] = {}
        pos = 0
        for block in self.blocks:
            out[block.name] = theta[pos : pos + block.size]
            pos += block.size
        return out

    def log_density(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        total = 0.0
        pos = 0
        for block in self.blocks:
            val = float(block.log_density(theta[pos : pos + block.size]))
            if val == -np.inf:
                return -np.inf
            total += val
            pos += block.size
        return total


def improper_flat_block(name: str, size: int) -> PriorBlock:
    """Constant zero log-density: an improper flat prior; chain validity then
    rests on the likelihood being integrable in these coordinates."""
    return PriorBlock(name=name, size=size, log_density=lambda x: 0.0)


def uniform01_block(name: str, size: int) -> PriorBlock:
    def logpdf(x: np.ndarray) -> float:
        return 0.0 if np.all((x > 0) & (x < 1)) else -np.inf

    return PriorBlock(name=name, size=size, log_density=logpdf)


def inverse_gamma_block(name: str, size: int, mean: float = 0.2, variance: float = 1.0) -> PriorBlock:
    shape, scale = inverse_gamma_hyperparameters(mean, variance)

    def logpdf(x: np.ndarray) -> float:
        if not np.all(x > 0):
            return -np.inf
        return float(np.sum(_log_invgamma(x, shape, scale)))

    return PriorBlock(name=name, size=size, log_density=logpdf)


def triangular_block(name: str, size: int) -> PriorBlock:
    """Symmetric triangular density 1 - |x| on (-1, 1), peak at zero."""

    def logpdf(x: np.ndarray) -> float:
        if not np.all(np.abs(x) < 1):
            return -np.inf
        return float(np.sum(np.log1p(-np.abs(x))))

    return PriorBlock(name=name, size=size, log_density=logpdf)


@dataclass(frozen=True, eq=False)
class ChainState:
    step: int
    theta: np.ndarray
    z: np.ndarray
    log_prior: float
    log_jacobian: float
    log_z: float
    accepted: bool


@dataclass(frozen=True, eq=False)
class VarianceWindow:
    step: int
    estimator: str
    variance: float
    failures: int


@dataclass(eq=False)
class PMMHChain:
    """Chain output: per-step states (the stored likelihood estimate of the
    current state is carried unchanged across rejections), acceptance and
    failed-proposal counts, and periodic variance diagnostics."""

    states: list[ChainState]
    proposal_cov: np.ndarray
    seed_entropy: object
    estimator_name: str = "estimator"
    variance_windows: list[VarianceWindow] = None
    failed_proposals: int = 0

    def __post_init__(self):
        if self.variance_windows is None:
            self.variance_windows = []

    @property
    def acceptance_rate(self) -> float:
        if not self.states:
            return 0.0
        return float(np.mean([s.accepted for s in self.states]))

    def thetas(self) -> np.ndarray:
        return np.array([s.theta for s in self.states])

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.states:
                fh.write(
                    json.dumps(
                        {
                            "step": s.step,
                            "theta": list(s.theta),
                            "logZ": s.log_z,
                            "accepted": bool(s.accepted),
                        }
                    )
                    + "\n"
                )


def write_variance_csv(windows: Sequence[VarianceWindow], path, append: bool = False) -> None:
    mode = "a" if append else "w"
    new_file = not (append and os.path.exists(path) and os.path.getsize(path) > 0)
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["step", "estimator", "variance"])
        for w in windows:
            writer.writerow([w.step, w.estimator, repr(float(w.variance))])


def eval_variance_window(
    theta: np.ndarray,
    estimator: Callable[[np.ndarray, np.random.SeedSequence], float],
    replicates: int,
    seed,
) -> tuple[float, int]:
    """Unbiased sample variance of the log-likelihood estimate at a fixed
    parameter over independent replicates.  Estimator failures are excluded
    and counted; the variance of what remains is reported (NaN if fewer than
    two replicates survive)."""
    if replicates < 2:
        raise ValueError("need at least two replicates")
    root = as_seedseq(seed)
    values = []
    failures = 0
    for r in range(replicates):
        try:
            values.append(float(estimator(np.asarray(theta, dtype=float), substream(root, r))))
        except TwistSmcError:
            failures += 1
    if len(values) < 2:
        return float("nan"), failures
    return float(np.var(values, ddof=1)), failures


def pmmh_run(
    estimator: Callable[[np.ndarray, np.random.SeedSequence], float],
    prior: PriorSpec,
    transform: ParamTransform,
    theta_init: np.ndarray,
    steps: int,
    proposal_cov: np.ndarray,
    seed,
    estimator_name: str = "estimator",
    variance_every: int | None = None,
    variance_reps: int = 10,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 500,
    resume: bool = True,
) -> PMMHChain:
    """Random-walk pseudo-marginal Metropolis-Hastings.

    Each step re-estimates the likelihood only at the proposed parameter; the
    current state's estimate is reused bit-for-bit until a move is accepted.
    Estimator failures at a proposal reject it and are counted separately
    from ordinary rejections.  Every `variance_every` steps the estimator's
    variance at the current parameter is measured from `variance_reps` extra
    replicates.  All randomness is keyed by step, so a checkpointed chain
    resumes exactly.
    """
    root = as_seedseq(seed)
    theta0 = np.asarray(theta_init, dtype=float)
    if prior.dim != theta0.shape[0] or transform.dim != theta0.shape[0]:
        raise ValueError("prior, transform, and theta_init disagree on dimension")
    prop_cov = np.atleast_2d(np.asarray(proposal_cov, dtype=float))
    chol_prop = np.linalg.cholesky(prop_cov)

    start_step = 0
    states: list[ChainState] = []
    windows: list[VarianceWindow] = []
    failed_proposals = 0

    if checkpoint_path and resume and os.path.exists(checkpoint_path):
        with open(checkpoint_path) as fh:
            snap = json.load(fh)
        start_step = snap["step"]
        z = np.asarray(snap["z"], dtype=float)
        theta = np.asarray(snap["theta"], dtype=float)
        log_prior = snap["log_prior"]
        log_jac = snap["log_jacobian"]
        log_z = snap["log_z"]
        failed_proposals = snap.get("failed_proposals", 0)
    else:
        theta = theta0
        log_prior = prior.log_density(theta)
        if log_prior == -np.inf:
            raise ValueError("theta_init outside the prior support")
        z = transform.forward(theta)
        log_jac = transform.log_jacobian(z)
        log_z = None
        # the chain cannot start without a finite estimate; estimator
        # failures at the initial parameter are retried on fresh substreams
        for attempt in range(5):
            try:
                log_z = float(estimator(theta, substream(root, 0, attempt)))
                break
            except TwistSmcError:
                failed_proposals += 1
        if log_z is None:
            raise ValueError("estimator failed repeatedly at the initial parameter")

    for step in range(start_step + 1, steps + 1):
        rng = generator(root, step, 1)
        z_prop = z + chol_prop @ rng.standard_normal(transform.dim)
        theta_prop = transform.inverse(z_prop)
        log_prior_prop = prior.log_density(theta_prop)
        accepted = False
        if log_prior_prop > -np.inf:
            try:
                log_z_prop = float(estimator(theta_prop, substream(root, step, 0)))
            except TwistSmcError:
                failed_proposals += 1
                log_z_prop = -np.inf
            if log_z_prop > -np.inf:
                log_jac_prop = transform.log_jacobian(z_prop)
                log_ratio = (
                    log_z_prop
                    - log_z
                    + log_prior_prop
                    - log_prior
                    + log_jac_prop
                    - log_jac
                )
                if np.log(rng.random()) < log_ratio:
                    accepted = True
                    theta, z = theta_prop, z_prop
                    log_prior, log_jac, log_z = log_prior_prop, log_jac_prop, log_z_prop
        states.append(
            ChainState(
                step=step,
                theta=theta.copy(),
                z=z.copy(),
                log_prior=log_prior,
                log_jacobian=log_jac,
                log_z=log_z,
                accepted=accepted,
            )
        )
        if variance_every and step % variance_every == 0:
            var, fails = eval_variance_window(
                theta, estimator, variance_reps, substream(root, step, 2)
            )
            windows.append(
                VarianceWindow(step=step, estimator=estimator_name, variance=var, failures=fails)
            )
        if checkpoint_path and step % checkpoint_every == 0:
            snap = {
                "step": step,
                "z": list(z),
                "theta": list(theta),
                "log_prior": log_prior,
                "log_jacobian": log_jac,
                "log_z": log_z,
                "failed_proposals": failed_proposals,
            }
            tmp = str(checkpoint_path) + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(snap, fh)
            os.replace(tmp, checkpoint_path)

    return PMMHChain(
        states=states,
        proposal_cov=prop_cov,
        seed_entropy=root.entropy,
        estimator_name=estimator_name,
        variance_windows=windows,
        failed_proposals=failed_proposals,
    )


# ---------------------------------------------------------------------------
# estimator builders


def smc_estimator(
    model_builder: Callable[[np.ndarray], GaussianReference],
    n_particles: int,
) -> Callable[[np.ndarray, np.random.SeedSequence], float]:
    """Plain bootstrap filter estimate of the log marginal likelihood."""

    def estimate(theta: np.ndarray, seed) -> float:
        reference = model_builder(theta)
        return run_smc(reference.fk, n_particles, seed).log_z_total

    return estimate


def trained_estimator(
    model_builder: Callable[[np.ndarray], GaussianReference],
    scheme: str,
    config: SchemeConfig,
) -> Callable[[np.ndarray, np.random.SeedSequence], float]:
    """Estimator that re-trains a twist policy at every parameter value with
    fresh substreams, then filters under the matched twisted model with
    `config.n_sample` particles.  Any valid policy preserves the marginal
    likelihood, so the estimate stays unbiased regardless of training
    quality."""
    trainers = {
        "forward": forward_train,
        "backward": controlled_smc_train,
        "online": online_forward,
        "fast-online": lambda ref, cfg, rng: online_forward(ref, cfg, rng, fast=True),
    }
    if scheme not in trainers:
        raise ValueError(f"unknown scheme {scheme!r}")
    if config.n_sample is None:
        raise ValueError("config.n_sample is required for a trained estimator")
    train = trainers[scheme]

    def estimate(theta: np.ndarray, seed) -> float:
        root = as_seedseq(seed)
        reference = model_builder(theta)
        if scheme == "forward":
            run = train(reference, config, substream(root, 0), keep_traces=False)
        else:
            run = train(reference, config, substream(root, 0))
        model = build_twisted_model(reference, run.final_policy)
        return run_smc(model, config.n_sample, substream(root, 1)).log_z_total

    return estimate


def tune_proposal_scale(
    estimator,
    prior: PriorSpec,
    transform: ParamTransform,
    theta_init: np.ndarray,
    base_cov: np.ndarray,
    seed,
    target: tuple[float, float] = (0.15, 0.3),
    pilot_steps: int = 60,
    max_rounds: int = 6,
) -> float:
    """Crude pilot scaling of a diagonal random-walk covariance: multiply by
    1.5 or 2/3 until a short chain's acceptance rate lands in `target`."""
    root = as_seedseq(seed)
    scale = 1.0
    for round_idx in range(max_rounds):
        chain = pmmh_run(
            estimator,
            prior,
            transform,
            theta_init,
            pilot_steps,
            scale * np.asarray(base_cov, dtype=float),
            substream(root, round_idx),
        )
        rate = chain.acceptance_rate
        if target[0] <= rate <= target[1]:
            break
        scale *= 1.5 if rate > target[1] else 2.0 / 3.0
    return scale


# ---------------------------------------------------------------------------
# the stochastic-volatility parameter space


def msv_prior(d: int) -> PriorSpec:
    """Flat prior on the level m, uniform(0,1) on each mean-reversion
    coordinate, inverse-gamma (mean 0.2, variance 1) on each innovation
    variance, symmetric triangular on each neighbour correlation.  The
    correlations are restricted to those whose tridiagonal innovation
    covariance is positive definite, the support of `MsvParams`; the
    truncated density is left unnormalized, since the constant cancels in
    the acceptance ratio."""
    from .models import tridiagonal_is_pd

    triangular = triangular_block("rho", d - 1).log_density

    def rho_logpdf(x: np.ndarray) -> float:
        return triangular(x) if tridiagonal_is_pd(x) else -np.inf

    return PriorSpec(
        blocks=(
            improper_flat_block("m", d),
            uniform01_block("alpha", d),
            inverse_gamma_block("sigma2", d),
            PriorBlock(name="rho", size=d - 1, log_density=rho_logpdf),
        )
    )


def msv_transform(d: int) -> ParamTransform:
    return ParamTransform.from_blocks(
        [("identity", d), ("logit", d), ("log", d), ("logit_sym", d - 1)]
    )


def msv_pack(theta: np.ndarray, d: int):
    from .models import MsvParams

    theta = np.asarray(theta, dtype=float)
    return MsvParams(
        m=theta[:d],
        alpha=theta[d : 2 * d],
        sigma2=theta[2 * d : 3 * d],
        rho=theta[3 * d : 4 * d - 1],
    )


def msv_theta_init(observations: np.ndarray, m_init: str = "log-variance") -> np.ndarray:
    """Starting point: the (log of the) empirical variance of each return
    series for the level, 0.9 mean reversion, 0.2 innovation variance, 0.25
    neighbour correlation.  m is a log-volatility level, so the log of the
    variance is the natural default; the raw variance is exposed as an
    alternative reading."""
    from .models import as_observation_matrix

    ys = as_observation_matrix(observations)
    d = ys.shape[1]
    emp_var = np.var(ys, axis=0)
    if m_init == "log-variance":
        m = np.log(np.maximum(emp_var, 1e-12))
    elif m_init == "variance":
        m = emp_var
    else:
        raise ValueError("m_init must be 'log-variance' or 'variance'")
    return np.concatenate([m, np.full(d, 0.9), np.full(d, 0.2), np.full(d - 1, 0.25)])


def msv_model_builder(observations: np.ndarray):
    from .models import as_observation_matrix, build_msv_fk

    ys = as_observation_matrix(observations)
    d = ys.shape[1]

    def build(theta: np.ndarray) -> GaussianReference:
        return build_msv_fk(msv_pack(theta, d), ys)

    return build
