"""Weighted-particle core: model containers, clouds, traces, and the standard
propagate/weight/resample recursion.

Weights live in log space everywhere; normalization goes through logsumexp so
nothing overflows for log-weights anywhere in [-1e6, 1e6].  Resampling is
multinomial at every step; the systematic variant is available behind a flag
but is never the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateWeights, InvalidModel
from .rng import as_seedseq, generator


def log_sum_exp(log_values: np.ndarray) -> float:
    """Max-shifted log-sum-exp of a 1-d array; -inf entries drop out and
    magnitudes up to 1e6 in either direction are safe."""
    m = np.max(log_values)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(log_values - m))))


@dataclass(frozen=True)
class FeynmanKacModel:
    """A proposal chain plus per-step log-potentials.

    `initial_sampler(n, rng)` draws the time-1 states as an (n, d) array.
    `transition_sampler(t, x_prev, rng)` draws time-t states given the (n, d)
    ancestor states, for t in 2..horizon.  `log_potential(t, x_prev, x)`
    returns the (n,) log-weights; it must return finite values or -inf, never
    NaN, and receives x_prev=None at t=1.
    """

    horizon: int
    state_dim: int
    initial_sampler: Callable[[int, np.random.Generator], np.ndarray]
    transition_sampler: Callable[[int, np.ndarray, np.random.Generator], np.ndarray]
    log_potential: Callable[[int, np.ndarray | None, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidModel("horizon must be >= 1")
        if self.state_dim < 1:
            raise InvalidModel("state_dim must be >= 1")


@dataclass(frozen=True, eq=False)
class ParticleCloud:
    """One generation of weighted particles.

    `ancestors[n]` indexes the previous cloud's particle this one was
    propagated from (identity at t=1).
    """

    t: int
    particles: np.ndarray  # (n, d)
    log_weights: np.ndarray  # (n,)
    ancestors: np.ndarray  # (n,) int

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]


@dataclass(frozen=True, eq=False)
class SMCTrace:
    """Full output of one particle-filter run: clouds with genealogy, per-step
    log normalizing increments, the ESS path, and a transition-draw counter."""

    clouds: tuple[ParticleCloud, ...]
    log_z_increments: np.ndarray  # (T,)
    ess_path: np.ndarray  # (T,)
    kernel_sample_count: int

    @property
    def horizon(self) -> int:
        return len(self.clouds)

    @property
    def n_particles(self) -> int:
        return self.clouds[0].n_particles

    @property
    def log_z_total(self) -> float:
        return float(np.sum(self.log_z_increments))

    @property
    def log_z_path(self) -> np.ndarray:
        return np.cumsum(self.log_z_increments)

    def trajectories(self, t: int | None = None) -> np.ndarray:
        """All particle paths up to time t as an (n, t, d) array, following
        each particle's ancestor chain back to time 1."""
        t = self.horizon if t is None else t
        if not 1 <= t <= self.horizon:
            raise ValueError(f"t must be in 1..{self.horizon}")
        n = self.n_particles
        d = self.clouds[0].particles.shape[1]
        out = np.empty((n, t, d))
        idx = np.arange(n)
        for s in range(t, 0, -1):
            cloud = self.clouds[s - 1]
            out[:, s - 1, :] = cloud.particles[idx]
            idx = cloud.ancestors[idx]
        return out

    def trajectory(self, n: int, t: int | None = None) -> np.ndarray:
        return self.trajectories(t)[n]


def _max_log_weight(log_weights: np.ndarray, t: int | None = None) -> tuple[np.ndarray, float]:
    """Validate log-weights and return them with their maximum.

    One max reduction decides: NaN propagates to the maximum and +inf is the
    maximum, and either raises InvalidModel, naming `t` when given, since no
    weight may be infinite.  An all -inf array passes.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim != 1 or lw.size == 0:
        raise ValueError("log_weights must be a nonempty 1-d array")
    m = lw.max()
    if not m < np.inf:
        raise InvalidModel("log weights contain NaN" if m != m else "log weights contain +inf", t=t)
    return lw, m


def _check_log_weights(
    log_weights: np.ndarray,
    t: int | None = None,
    degenerate: str = "all particle weights are zero",
) -> tuple[np.ndarray, float]:
    """`_max_log_weight`, plus DegenerateWeights with the `degenerate`
    message when every weight is zero."""
    lw, m = _max_log_weight(log_weights, t)
    if m == -np.inf:
        raise DegenerateWeights(degenerate, t=t)
    return lw, m


def resample(
    log_weights: np.ndarray,
    count: int,
    rng: np.random.Generator,
    method: str = "multinomial",
) -> np.ndarray:
    """Draw `count` ancestor indices from the categorical distribution defined
    by the (unnormalized) log-weights."""
    lw, m = _check_log_weights(log_weights)
    if count < 1:
        raise ValueError("count must be >= 1")
    probs = np.exp(lw - m)
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    if method == "multinomial":
        u = rng.random(count)
    elif method == "systematic":
        u = (rng.random() + np.arange(count)) / count
    else:
        raise ValueError(f"unknown resampling method {method!r}")
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def ess(log_weights: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2, computed on max-shifted
    weights so any log magnitude is safe; the value lies in [1, n]."""
    lw, m = _check_log_weights(log_weights)
    w = np.exp(lw - m)
    s1 = float(np.sum(w))
    s2 = float(np.sum(w * w))
    return s1 * s1 / s2


def smc_step(
    prev: ParticleCloud | None,
    model: FeynmanKacModel,
    t: int,
    rng: np.random.Generator,
    n_particles: int | None = None,
    resampling: str = "multinomial",
) -> ParticleCloud:
    """One propagate/weight step.  Ancestors are drawn from the previous
    cloud's weights (resampling happens at every step); at t=1 the ancestry is
    the identity and `n_particles` must be given."""
    if (prev is None) != (t == 1):
        raise ValueError("prev must be None exactly when t == 1")
    if t == 1:
        if n_particles is None:
            raise ValueError("n_particles is required at t=1")
        n = int(n_particles)
        ancestors = np.arange(n, dtype=np.int64)
        particles = np.asarray(model.initial_sampler(n, rng), dtype=float)
        x_prev = None
    else:
        if prev.t != t - 1:
            raise ValueError(f"prev.t={prev.t} does not precede t={t}")
        n = prev.n_particles
        ancestors = resample(prev.log_weights, n, rng, method=resampling)
        x_prev = prev.particles[ancestors]
        particles = np.asarray(model.transition_sampler(t, x_prev, rng), dtype=float)
    if particles.shape != (n, model.state_dim):
        raise InvalidModel(
            f"sampler returned shape {particles.shape}, expected {(n, model.state_dim)}"
        )
    log_weights, _ = _check_log_weights(model.log_potential(t, x_prev, particles), t)
    return ParticleCloud(t=t, particles=particles, log_weights=log_weights, ancestors=ancestors)


def run_smc(
    model: FeynmanKacModel,
    n_particles: int,
    seed: int | np.random.SeedSequence,
    resampling: str = "multinomial",
) -> SMCTrace:
    """Run the full filter.

    Each time step consumes its own substream of `seed`, so a fixed seed gives
    a bit-identical trace.  No resampling follows the last step: estimators at
    the horizon use the pre-resampling weights.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    root = as_seedseq(seed)
    clouds: list[ParticleCloud] = []
    increments = np.empty(model.horizon)
    ess_path = np.empty(model.horizon)
    log_n = np.log(n_particles)
    prev: ParticleCloud | None = None
    for t in range(1, model.horizon + 1):
        cloud = smc_step(
            prev,
            model,
            t,
            generator(root, t),
            n_particles=n_particles if t == 1 else None,
            resampling=resampling,
        )
        increments[t - 1] = log_sum_exp(cloud.log_weights) - log_n
        ess_path[t - 1] = ess(cloud.log_weights)
        clouds.append(cloud)
        prev = cloud
    return SMCTrace(
        clouds=tuple(clouds),
        log_z_increments=increments,
        ess_path=ess_path,
        kernel_sample_count=n_particles * model.horizon,
    )


def weighted_expectation(trace: SMCTrace, t: int, test_function: Callable[[np.ndarray], float]) -> float:
    """Self-normalized estimate of E[f(path up to t)]: `test_function` maps a
    (t, d) trajectory to a real and is averaged under the time-t weights."""
    cloud = trace.clouds[t - 1]
    lw = cloud.log_weights
    weights = np.exp(lw - np.max(lw))
    weights /= weights.sum()
    paths = trace.trajectories(t)
    values = np.array([test_function(paths[n]) for n in range(cloud.n_particles)])
    return float(np.dot(weights, values))


def relative_weight_variance(trace: SMCTrace) -> float:
    """Average over time of the relative empirical weight variance, i.e. the
    mean of n/ESS_t - 1.  Invariant to rescaling the weights at any step."""
    n = trace.n_particles
    return float(np.mean([n / e - 1.0 for e in trace.ess_path]))
