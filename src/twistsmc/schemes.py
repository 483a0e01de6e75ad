"""Iterative twist-training schemes.

Three ways of learning a twist policy for a Gaussian-kernel reference model:

- forward training: one forward sweep per iteration; each step fits the next
  twist from a freshly drawn training cloud (weighted regression, tempered
  when the weights degenerate) and then advances a sampling system under the
  just-fitted proposal with the previous iteration's auxiliary weights.
- streaming (online) variant: the same per-(iteration, step) cells visited in
  stream order with a bounded window, plus an end-of-stream flush; because
  every cell draws from a substream keyed by (iteration, step), its output is
  bit-identical to the sweep-ordered version.
- backward (controlled) training: each iteration runs one backward regression
  sweep over the previous run's particle pairs (unweighted fits) and then one
  full run under the refreshed policy.

Fits that fail (singular designs, usually after weight collapse) are
recovered by keeping the previous iteration's twist and logging the event;
only an all-zero-weight sampling step aborts a run.

An exact backward recursion on linear-Gaussian models provides the oracle
policies that these schemes converge to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InvalidModel, SingularDesign
from .fk import (
    ParticleCloud,
    SMCTrace,
    _check_log_weights,
    _max_log_weight,
    ess,
    log_sum_exp,
    resample,
    run_smc,
)
from .learn import RegressionProblem, feature_count, fit_log_quadratic, temper_exponent
from .models import LgssmParams, as_observation_matrix, lgssm_kernels
from .rng import as_seedseq, generator, substream
from .twist import (
    GaussianReference,
    LogQuadraticTwist,
    TwistPolicy,
    _CovFactor,
    _TwistedKernel,
    build_twisted_model,
    integrate_twist_affine,
    twist_gaussian,
)

_KEY_REFERENCE_PASS = 0


@dataclass(frozen=True)
class SchemeConfig:
    """Training knobs shared by every scheme.

    `n_train` is the particle count used while learning, `n_sample` the count
    downstream consumers should filter with once trained.  `n0` is the ESS
    floor that triggers tempered regression weights; the default is twice the
    number of regression features.  Backward training ignores the tempering
    switch (its fits are unweighted).
    """

    n_train: int
    l_max: int
    n_sample: int | None = None
    mode: str = "diagonal"
    tempering: bool = True
    n0: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1:
            raise ValueError("n_train must be positive")
        if self.l_max < 0:
            raise ValueError("l_max must be >= 0")
        if self.n_sample is not None and self.n_sample < 1:
            raise ValueError("n_sample must be positive")
        if self.n0 is not None and self.n0 <= 1:
            raise ValueError("n0 must exceed 1")

    def ess_floor(self, dim: int) -> float:
        floor = float(self.n0) if self.n0 is not None else float(2 * feature_count(dim, self.mode))
        if self.tempering and floor >= self.n_train:
            raise ValueError(
                f"ESS floor {floor} needs more training particles than n_train={self.n_train}"
            )
        return floor


@dataclass(frozen=True)
class FailureEvent:
    iteration: int
    t: int
    kind: str
    action: str


@dataclass(frozen=True, eq=False)
class TrainingRun:
    """Everything one training run produced: the policy after each iteration
    (index 0 is the identity), per-iteration diagnostics from the sampling
    passes, cost counters, and the recovery log."""

    scheme: str
    policies: tuple[TwistPolicy, ...]
    traces: tuple[SMCTrace | None, ...]
    log_zs: tuple[float | None, ...]
    ess_mins: tuple[float | None, ...]
    weight_variances: tuple[float | None, ...]
    kernel_samples: tuple[int, ...]
    regression_counts: tuple[int, ...]
    failures: tuple[FailureEvent, ...]
    max_window_slices: int | None = None

    @property
    def final_policy(self) -> TwistPolicy:
        return self.policies[-1]

    @property
    def iterations(self) -> int:
        return len(self.policies) - 1

    def failures_at(self, iteration: int) -> int:
        return sum(1 for f in self.failures if f.iteration == iteration)

    def iteration_records(self) -> list[dict]:
        records = []
        for i in range(len(self.policies)):
            records.append(
                {
                    "iteration": i,
                    "logZ": self.log_zs[i],
                    "ess_min": self.ess_mins[i],
                    "weight_variance": self.weight_variances[i],
                    "failures": self.failures_at(i),
                    "sample_count": self.kernel_samples[i],
                }
            )
        return records


def write_training_records(run: TrainingRun, path) -> None:
    """One JSON record per iteration: {iteration, logZ, ess_min,
    weight_variance, failures, sample_count}."""
    import json

    with open(path, "w") as fh:
        for record in run.iteration_records():
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# per-step model pieces (the unit a streaming run consumes)


@dataclass(eq=False)
class ModelPiece:
    """Everything the trainers need about one time step: the log-potential
    bound to that step's observation and the Gaussian structure of its
    kernel.  The kernel covariance is factored once, on construction, and
    the factors are shared by every twisted kernel the piece builds."""

    t: int
    log_potential: Callable
    mean: np.ndarray | None  # initial mean (t == 1)
    trans_matrix: np.ndarray | None  # t >= 2
    trans_offset: np.ndarray | None
    cov: np.ndarray

    def __post_init__(self):
        self._kernels: dict[int, _TwistedKernel] = {}
        self._factor = _CovFactor(self.cov)

    @property
    def psd_epsilon(self) -> float:
        """PSD floor for twists fitted against this step's kernel."""
        return self._factor.psd_epsilon

    def twisted(self, twist: LogQuadraticTwist) -> _TwistedKernel:
        key = id(twist)
        kern = self._kernels.get(key)
        if kern is None:
            kern = _TwistedKernel(self._factor, twist)
            if len(self._kernels) > 8:
                self._kernels.clear()
            self._kernels[key] = kern
        return kern

    def propose(self, twist: LogQuadraticTwist, x_prev: np.ndarray | None, n: int, rng) -> np.ndarray:
        if self.t == 1:
            means = np.ascontiguousarray(
                np.broadcast_to(self.mean, (n, self.mean.shape[0])).astype(float)
            )
        else:
            means = x_prev @ self.trans_matrix.T + self.trans_offset
        return self.twisted(twist).sample(means, rng)

    def integrate(self, twist: LogQuadraticTwist) -> LogQuadraticTwist:
        """The auxiliary weight this step's kernel induces from a twist at its
        destination, as a quadratic in the source state."""
        kernel = None if twist.is_identity else self.twisted(twist)
        return integrate_twist_affine(
            self.trans_matrix, self.trans_offset, self.cov, twist, kernel=kernel
        )

    def integrate_initial(self, twist: LogQuadraticTwist) -> float:
        _, _, log_eta0 = twist_gaussian(self.mean, self.cov, twist)
        return float(log_eta0)


def model_pieces(reference: GaussianReference) -> Iterator[ModelPiece]:
    """Stream view of a reference model: one piece per time step."""
    kernels = reference.kernels
    log_potential = reference.fk.log_potential
    for t in range(1, kernels.horizon + 1):
        if t == 1:
            yield ModelPiece(
                t=1,
                log_potential=lambda xp, x, _t=1: log_potential(_t, xp, x),
                mean=np.asarray(kernels.initial_mean, dtype=float),
                trans_matrix=None,
                trans_offset=None,
                cov=np.asarray(kernels.initial_cov, dtype=float),
            )
        else:
            yield ModelPiece(
                t=t,
                log_potential=lambda xp, x, _t=t: log_potential(_t, xp, x),
                mean=None,
                trans_matrix=np.asarray(kernels.trans_matrix(t), dtype=float),
                trans_offset=np.asarray(kernels.trans_offset(t), dtype=float),
                cov=np.asarray(kernels.trans_cov(t), dtype=float),
            )


# ---------------------------------------------------------------------------
# the forward training cell, shared between sweep order and stream order


@dataclass(eq=False)
class _CellOut:
    phi_new: LogQuadraticTwist
    eta_new_prev: LogQuadraticTwist | None
    log_eta0_new: float | None
    ancestors: np.ndarray | None
    particles: np.ndarray
    log_weights: np.ndarray
    log_z_increment: float
    ess_value: float
    failure: FailureEvent | None


def _forward_cell(
    root: np.random.SeedSequence,
    level: int,
    piece: ModelPiece,
    cfg: SchemeConfig,
    n0: float,
    prev_phi_t: LogQuadraticTwist,
    prev_eta_t: LogQuadraticTwist,
    prev_eta_tm1: LogQuadraticTwist | None,
    prev_eta0: float,
    state_particles: np.ndarray | None,
    state_log_weights: np.ndarray | None,
) -> _CellOut:
    """One (iteration, step) unit of forward training.

    Draw a training cloud under the previous iteration's proposal from the
    new system's ancestors, fit the refreshed twist from it, then advance the
    new sampling system one step under the refreshed proposal while keeping
    the previous iteration's auxiliary weights.
    """
    t = piece.t
    n = cfg.n_train
    failure = None
    # one substream per cell, consumed in a fixed order: ancestor selection,
    # training draw, then the sampling draw
    rng = generator(root, level, t)

    if t == 1:
        ancestors = None
        x_prev = None
    else:
        ancestors = resample(state_log_weights, n, rng)
        x_prev = state_particles[ancestors]

    # training cloud under the previous proposal and auxiliary weights
    xbar = piece.propose(prev_phi_t, x_prev, n, rng)
    log_g_train = np.asarray(piece.log_potential(x_prev, xbar), dtype=float)
    log_f = log_g_train
    if not prev_eta_t.is_identity:
        log_f = log_f + prev_eta_t.log_values(xbar)
    lw_train = log_f
    if not prev_phi_t.is_identity:
        lw_train = lw_train - prev_phi_t.log_values(xbar)
    if t == 1 and prev_eta0 != 0.0:
        lw_train = lw_train + prev_eta0

    _, top = _max_log_weight(lw_train, t)
    reg_weights = lw_train
    if cfg.tempering and top > -np.inf:
        if ess(lw_train) < n0:
            reg_weights = temper_exponent(lw_train, n0).tempered_log_weights

    try:
        phi_new = fit_log_quadratic(
            RegressionProblem(
                prev_states=x_prev,
                states=xbar,
                log_targets=log_f,
                log_weights=reg_weights,
                mode=cfg.mode,
                constraint_cov=piece.cov,
                psd_epsilon=piece.psd_epsilon,
            )
        )
    except SingularDesign:
        phi_new = prev_phi_t
        failure = FailureEvent(
            iteration=level, t=t, kind="singular-design", action="kept-previous-twist"
        )

    if t == 1:
        eta_new_prev = None
        log_eta0_new = piece.integrate_initial(phi_new)
    else:
        eta_new_prev = piece.integrate(phi_new)
        log_eta0_new = None

    # sampling system step: refreshed proposal, previous auxiliary weights
    x = piece.propose(phi_new, x_prev, n, rng)
    lw = np.asarray(piece.log_potential(x_prev, x), dtype=float)
    if not phi_new.is_identity:
        lw = lw - phi_new.log_values(x)
    if not prev_eta_t.is_identity:
        lw = lw + prev_eta_t.log_values(x)
    if t == 1:
        if log_eta0_new != 0.0:
            lw = lw + log_eta0_new
    else:
        if not eta_new_prev.is_identity:
            lw = lw + eta_new_prev.log_values(x_prev)
        if not prev_eta_tm1.is_identity:
            lw = lw - prev_eta_tm1.log_values(x_prev)
    _check_log_weights(lw, t, f"sampling pass degenerate at iteration {level}")

    return _CellOut(
        phi_new=phi_new,
        eta_new_prev=eta_new_prev,
        log_eta0_new=log_eta0_new,
        ancestors=ancestors,
        particles=x,
        log_weights=lw,
        log_z_increment=log_sum_exp(lw) - np.log(n),
        ess_value=ess(lw),
        failure=failure,
    )


def _assemble_policy(
    phis: list[LogQuadraticTwist],
    etas_prev: list[LogQuadraticTwist],
    log_eta0: float,
    dim: int,
    mode: str,
) -> TwistPolicy:
    # etas_prev[k] is eta_k computed as the integral of phi_{k+1}; the final
    # auxiliary weight is structurally the identity.
    etas = tuple(etas_prev) + (LogQuadraticTwist.identity(dim),)
    return TwistPolicy(twists=tuple(phis), etas=etas, log_eta0=log_eta0, mode=mode)


def _reference_pass(reference: GaussianReference, cfg: SchemeConfig, root) -> SMCTrace:
    return run_smc(reference.fk, cfg.n_train, substream(root, _KEY_REFERENCE_PASS))


def _trace_stats(trace: SMCTrace) -> tuple[float, float, float]:
    n = trace.n_particles
    wvar = float(np.mean([n / e - 1.0 for e in trace.ess_path]))
    return trace.log_z_total, float(trace.ess_path.min()), wvar


def forward_train(
    reference: GaussianReference,
    config: SchemeConfig,
    rng: "int | np.random.SeedSequence | None" = None,
    keep_traces: bool = True,
) -> TrainingRun:
    """Iterated forward training: `l_max` forward sweeps, each drawing one
    training cloud and one sampling step per time point (2NT kernel draws and
    T regressions per iteration).

    Iteration 0 of the returned run is a plain reference pass, so the run
    always carries its own baseline.
    """
    root = as_seedseq(config.seed if rng is None else rng)
    kernels = reference.kernels
    T, d = kernels.horizon, kernels.state_dim
    n = config.n_train
    n0 = config.ess_floor(d)
    pieces = list(model_pieces(reference))

    ref_trace = _reference_pass(reference, config, root)
    logz0, essmin0, wvar0 = _trace_stats(ref_trace)
    policies = [TwistPolicy.identity(T, d, config.mode)]
    traces: list[SMCTrace | None] = [ref_trace if keep_traces else None]
    log_zs: list[float | None] = [logz0]
    ess_mins: list[float | None] = [essmin0]
    weight_variances: list[float | None] = [wvar0]
    kernel_samples = [ref_trace.kernel_sample_count]
    regression_counts = [0]
    failures: list[FailureEvent] = []

    for level in range(1, config.l_max + 1):
        prev_policy = policies[level - 1]
        phis: list[LogQuadraticTwist] = []
        etas_prev: list[LogQuadraticTwist] = []
        log_eta0 = 0.0
        clouds: list[ParticleCloud] = []
        increments = np.empty(T)
        ess_vals = np.empty(T)
        state_x: np.ndarray | None = None
        state_lw: np.ndarray | None = None
        for t in range(1, T + 1):
            out = _forward_cell(
                root,
                level,
                pieces[t - 1],
                config,
                n0,
                prev_policy.twists[t - 1],
                prev_policy.etas[t - 1],
                prev_policy.etas[t - 2] if t >= 2 else None,
                prev_policy.log_eta0,
                state_x,
                state_lw,
            )
            phis.append(out.phi_new)
            if t == 1:
                log_eta0 = out.log_eta0_new
            else:
                etas_prev.append(out.eta_new_prev)
            if out.failure is not None:
                failures.append(out.failure)
            increments[t - 1] = out.log_z_increment
            ess_vals[t - 1] = out.ess_value
            state_x, state_lw = out.particles, out.log_weights
            if keep_traces:
                anc = out.ancestors if out.ancestors is not None else np.arange(n, dtype=np.int64)
                clouds.append(
                    ParticleCloud(t=t, particles=out.particles, log_weights=out.log_weights, ancestors=anc)
                )
        policies.append(_assemble_policy(phis, etas_prev, log_eta0, d, config.mode))
        log_zs.append(float(np.sum(increments)))
        ess_mins.append(float(np.min(ess_vals)))
        weight_variances.append(float(np.mean(n / ess_vals - 1.0)))
        kernel_samples.append(2 * n * T)
        regression_counts.append(T)
        if keep_traces:
            traces.append(
                SMCTrace(
                    clouds=tuple(clouds),
                    log_z_increments=increments,
                    ess_path=ess_vals,
                    kernel_sample_count=n * T,
                )
            )
        else:
            traces.append(None)

    return TrainingRun(
        scheme="forward",
        policies=tuple(policies),
        traces=tuple(traces),
        log_zs=tuple(log_zs),
        ess_mins=tuple(ess_mins),
        weight_variances=tuple(weight_variances),
        kernel_samples=tuple(kernel_samples),
        regression_counts=tuple(regression_counts),
        failures=tuple(failures),
    )


class _LevelRows:
    """Per-(iteration, step) scalar diagnostics, collected out of order and
    read back as time-ordered arrays once an iteration completes."""

    def __init__(self):
        self._rows: dict[int, dict[int, float]] = {}

    def put(self, level: int, t: int, value: float) -> None:
        self._rows.setdefault(level, {})[t] = value

    def array(self, level: int, horizon: int) -> np.ndarray:
        row = self._rows.pop(level)
        out = np.empty(horizon)
        for t in range(1, horizon + 1):
            out[t - 1] = row[t]
        return out


def online_forward(
    reference: "GaussianReference | Iterable[ModelPiece]",
    config: SchemeConfig,
    rng: "int | np.random.SeedSequence | None" = None,
    fast: bool = False,
) -> TrainingRun:
    """Streaming forward training with a fixed depth.

    Consumes per-step model pieces in time order, running every
    (iteration, step) cell inside a window of depth `l_max` plus an
    end-of-stream flush; particle slices and pieces older than the window are
    released, so memory stays O(n l_max d) regardless of the horizon.  The
    cell computations, and the substreams they draw from, are those of
    `forward_train`, so with a matched seed the learned policies and
    per-iteration diagnostics are bit-identical to the sweep-ordered version.

    The fast variant recycles each sampling cloud as the training cloud for
    the next fit, halving kernel draws to NT per iteration at the cost of a
    one-iteration lag in the proposals generating the training data.

    No reference pass is run (the stream is consumed once); iteration 0 of
    the result carries no diagnostics.
    """
    if fast:
        return _fast_online(reference, config, rng)
    root = as_seedseq(config.seed if rng is None else rng)
    stream = iter(model_pieces(reference)) if isinstance(reference, GaussianReference) else iter(reference)
    l_max = config.l_max
    n = config.n_train

    pieces: dict[int, ModelPiece] = {}
    slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    phi: dict[tuple[int, int], LogQuadraticTwist] = {}
    eta: dict[tuple[int, int], LogQuadraticTwist] = {}
    eta0: dict[int, float] = {}
    incr = _LevelRows()
    ess_rows = _LevelRows()
    failures: list[FailureEvent] = []
    completed: dict[int, TwistPolicy] = {}
    level_stats: dict[int, tuple[float, float, float]] = {}
    max_slices = 0
    dim: int | None = None
    n0 = 0.0
    identity_twist: LogQuadraticTwist | None = None
    horizon: int | None = None

    def complete_through(rounds_done: int) -> None:
        # level L's last cell runs in round horizon + L - 1; assemble every
        # level whose cells have all run
        while (
            completed_watermark[0] < l_max
            and completed_watermark[0] + 1 <= rounds_done - horizon + 1
        ):
            level_done = completed_watermark[0] + 1
            row_incr = incr.array(level_done, horizon)
            row_ess = ess_rows.array(level_done, horizon)
            phis = [phi[(level_done, tt)] for tt in range(1, horizon + 1)]
            etas_prev = [eta[(level_done, tt)] for tt in range(1, horizon)]
            completed[level_done] = _assemble_policy(
                phis, etas_prev, eta0[level_done], dim, config.mode
            )
            level_stats[level_done] = (
                float(np.sum(row_incr)),
                float(np.min(row_ess)),
                float(np.mean(n / row_ess - 1.0)),
            )
            completed_watermark[0] = level_done

    completed_watermark = [0]
    t_end = 0
    while True:
        t_end += 1
        if horizon is None:
            piece = next(stream, None)
            if piece is None:
                horizon = t_end - 1
                if horizon == 0:
                    raise InvalidModel("empty model stream")
            else:
                if piece.t != t_end:
                    raise InvalidModel("stream pieces must arrive in time order")
                pieces[t_end] = piece
                if dim is None:
                    dim = piece.cov.shape[0]
                    n0 = config.ess_floor(dim)
                    identity_twist = LogQuadraticTwist.identity(dim)
        if horizon is not None:
            complete_through(t_end - 1)
            if l_max == 0 or t_end > horizon + l_max - 1:
                break
        top = t_end if horizon is None else min(t_end, horizon)
        for t in range(top, max(1, t_end - l_max + 1) - 1, -1):
            level = t_end - t + 1
            if level > l_max:
                continue
            state = slots.get(t - 1)
            out = _forward_cell(
                root,
                level,
                pieces[t],
                config,
                n0,
                phi.get((level - 1, t), identity_twist),
                eta.get((level - 1, t), identity_twist),
                None if t == 1 else eta.get((level - 1, t - 1), identity_twist),
                eta0.get(level - 1, 0.0),
                None if state is None else state[0],
                None if state is None else state[1],
            )
            phi[(level, t)] = out.phi_new
            if t == 1:
                eta0[level] = out.log_eta0_new
            else:
                eta[(level, t - 1)] = out.eta_new_prev
            if out.failure is not None:
                failures.append(out.failure)
            slots[t] = (out.particles, out.log_weights)
            incr.put(level, t, out.log_z_increment)
            ess_rows.put(level, t, out.ess_value)
        max_slices = max(max_slices, len(slots))
        for stale in [s for s in slots if s <= t_end - l_max]:
            del slots[stale]
        for stale in [s for s in pieces if s <= t_end - l_max]:
            del pieces[stale]
        if horizon is not None:
            complete_through(t_end)

    if dim is None:  # l_max == 0: the stream was consumed only for its horizon
        raise InvalidModel("empty model stream")
    T = horizon
    policies = [TwistPolicy.identity(T, dim, config.mode)]
    log_zs: list[float | None] = [None]
    ess_mins: list[float | None] = [None]
    weight_variances: list[float | None] = [None]
    kernel_samples = [0]
    regression_counts = [0]
    for level in range(1, l_max + 1):
        policies.append(completed[level])
        lz, em, wv = level_stats[level]
        log_zs.append(lz)
        ess_mins.append(em)
        weight_variances.append(wv)
        kernel_samples.append(2 * n * T)
        regression_counts.append(T)

    return TrainingRun(
        scheme="online",
        policies=tuple(policies),
        traces=(None,) * (l_max + 1),
        log_zs=tuple(log_zs),
        ess_mins=tuple(ess_mins),
        weight_variances=tuple(weight_variances),
        kernel_samples=tuple(kernel_samples),
        regression_counts=tuple(regression_counts),
        failures=tuple(failures),
        max_window_slices=max_slices,
    )


def _fast_online(
    reference: "GaussianReference | Iterable[ModelPiece]",
    config: SchemeConfig,
    rng: "int | np.random.SeedSequence | None" = None,
) -> TrainingRun:
    """Recycling streaming trainer: one cloud per (iteration, step) cell
    serves as both the sampling system and the training sample, so each
    iteration costs NT kernel draws.

    Clouds are drawn with the previous iteration's proposal for their step;
    after each fit the stored weights of the neighbouring slot are upgraded to
    the refreshed auxiliary weight so the next draw resamples consistently.
    The per-iteration log-normalizer figures mix proposals from adjacent
    iterations and are diagnostics, not the estimator a trained policy should
    be judged by; filter separately with the final policy for that.
    """
    root = as_seedseq(config.seed if rng is None else rng)
    stream = iter(model_pieces(reference)) if isinstance(reference, GaussianReference) else iter(reference)
    l_max = config.l_max
    n = config.n_train
    if l_max == 0:
        raise ValueError("fast online training needs l_max >= 1")

    pieces: dict[int, ModelPiece] = {}
    slots: dict[int, dict] = {}
    phi: dict[tuple[int, int], LogQuadraticTwist] = {}
    eta: dict[tuple[int, int], LogQuadraticTwist] = {}
    eta0: dict[int, float] = {}
    incr = _LevelRows()
    ess_rows = _LevelRows()
    failures: list[FailureEvent] = []
    completed: dict[int, TwistPolicy] = {}
    level_stats: dict[int, tuple[float, float, float]] = {}
    max_slices = 0
    dim: int | None = None
    n0 = 0.0
    identity_twist: LogQuadraticTwist | None = None
    horizon: int | None = None

    def complete_through(rounds_done: int) -> None:
        while (
            completed_watermark[0] < l_max
            and completed_watermark[0] + 1 <= rounds_done - horizon + 1
        ):
            level_done = completed_watermark[0] + 1
            row_incr = incr.array(level_done, horizon)
            row_ess = ess_rows.array(level_done, horizon)
            phis = [phi[(level_done, tt)] for tt in range(1, horizon + 1)]
            etas_prev = [eta[(level_done, tt)] for tt in range(1, horizon)]
            completed[level_done] = _assemble_policy(
                phis, etas_prev, eta0[level_done], dim, config.mode
            )
            level_stats[level_done] = (
                float(np.sum(row_incr)),
                float(np.min(row_ess)),
                float(np.mean(n / row_ess - 1.0)),
            )
            completed_watermark[0] = level_done

    completed_watermark = [0]
    t_end = 0
    while True:
        t_end += 1
        if horizon is None:
            piece = next(stream, None)
            if piece is None:
                horizon = t_end - 1
                if horizon == 0:
                    raise InvalidModel("empty model stream")
            else:
                if piece.t != t_end:
                    raise InvalidModel("stream pieces must arrive in time order")
                pieces[t_end] = piece
                if dim is None:
                    dim = piece.cov.shape[0]
                    n0 = config.ess_floor(dim)
                    identity_twist = LogQuadraticTwist.identity(dim)
        if horizon is not None:
            complete_through(t_end - 1)
            if t_end > horizon + l_max - 1:
                break
        top = t_end if horizon is None else min(t_end, horizon)
        t_start = max(1, t_end - l_max + 1)

        # sampling sweep, ascending: redraw every slot in the window under the
        # proposal its step reached last round, chaining on the fresh
        # neighbouring cloud
        for t in range(t_start, top + 1):
            level = t_end - t  # 0-based proposal level for this draw
            piece = pieces[t]
            phi_prop = phi.get((level, t), identity_twist)
            eta_dst = eta.get((level - 1, t), identity_twist)
            rng = generator(root, level + 1, t)
            if t == 1:
                x_prev = None
            else:
                left = slots[t - 1]
                anc = resample(left["lw"], n, rng)
                x_prev = left["x"][anc]
            x = piece.propose(phi_prop, x_prev, n, rng)
            lw = np.asarray(piece.log_potential(x_prev, x), dtype=float)
            if not phi_prop.is_identity:
                lw = lw - phi_prop.log_values(x)
            if not eta_dst.is_identity:
                lw = lw + eta_dst.log_values(x)
            if t == 1:
                lw = lw + eta0.get(level, 0.0)
            else:
                eta_new_prev = eta.get((level, t - 1), identity_twist)
                eta_old_prev = eta.get((level - 1, t - 1), identity_twist)
                if not eta_new_prev.is_identity:
                    lw = lw + eta_new_prev.log_values(x_prev)
                if not eta_old_prev.is_identity:
                    lw = lw - eta_old_prev.log_values(x_prev)
            _check_log_weights(lw, t, f"recycled pass degenerate at iteration {level + 1}")
            slots[t] = {"x": x, "lw": lw, "x_prev": x_prev}
            incr.put(level + 1, t, log_sum_exp(lw) - np.log(n))
            ess_rows.put(level + 1, t, ess(lw))

        # fitting sweep, descending: each slot's cloud trains the next twist
        # for its step, and the refreshed auxiliary weight upgrades the
        # neighbour's stored weights
        for t in range(top, t_start - 1, -1):
            level = t_end - t
            piece = pieces[t]
            slot = slots[t]
            log_f = np.asarray(piece.log_potential(slot["x_prev"], slot["x"]), dtype=float)
            eta_dst = eta.get((level, t), identity_twist)
            if not eta_dst.is_identity:
                log_f = log_f + eta_dst.log_values(slot["x"])
            reg_weights, top = _max_log_weight(slot["lw"], t)
            if config.tempering and top > -np.inf:
                if ess(reg_weights) < n0:
                    reg_weights = temper_exponent(reg_weights, n0).tempered_log_weights
            try:
                phi_new = fit_log_quadratic(
                    RegressionProblem(
                        prev_states=slot["x_prev"],
                        states=slot["x"],
                        log_targets=log_f,
                        log_weights=reg_weights,
                        mode=config.mode,
                        constraint_cov=piece.cov,
                        psd_epsilon=piece.psd_epsilon,
                    )
                )
            except SingularDesign:
                phi_new = phi.get((level, t), identity_twist)
                failures.append(
                    FailureEvent(
                        iteration=level + 1, t=t, kind="singular-design", action="kept-previous-twist"
                    )
                )
            phi[(level + 1, t)] = phi_new
            if t == 1:
                eta0[level + 1] = piece.integrate_initial(phi_new)
            else:
                eta_new_prev = piece.integrate(phi_new)
                eta[(level + 1, t - 1)] = eta_new_prev
                left = slots.get(t - 1)
                if left is not None:
                    delta = np.zeros(n)
                    if not eta_new_prev.is_identity:
                        delta = delta + eta_new_prev.log_values(left["x"])
                    eta_old_prev = eta.get((level, t - 1), identity_twist)
                    if not eta_old_prev.is_identity:
                        delta = delta - eta_old_prev.log_values(left["x"])
                    left["lw"] = left["lw"] + delta

        max_slices = max(max_slices, len(slots))
        for stale in [s for s in slots if s <= t_end - l_max]:
            del slots[stale]
        for stale in [s for s in pieces if s <= t_end - l_max]:
            del pieces[stale]
        if horizon is not None:
            complete_through(t_end)

    T = horizon
    policies = [TwistPolicy.identity(T, dim, config.mode)]
    log_zs: list[float | None] = [None]
    ess_mins: list[float | None] = [None]
    weight_variances: list[float | None] = [None]
    kernel_samples = [0]
    regression_counts = [0]
    for level in range(1, l_max + 1):
        policies.append(completed[level])
        lz, em, wv = level_stats[level]
        log_zs.append(lz)
        ess_mins.append(em)
        weight_variances.append(wv)
        kernel_samples.append(n * T)
        regression_counts.append(T)

    return TrainingRun(
        scheme="fast-online",
        policies=tuple(policies),
        traces=(None,) * (l_max + 1),
        log_zs=tuple(log_zs),
        ess_mins=tuple(ess_mins),
        weight_variances=tuple(weight_variances),
        kernel_samples=tuple(kernel_samples),
        regression_counts=tuple(regression_counts),
        failures=tuple(failures),
        max_window_slices=max_slices,
    )


def controlled_smc_train(
    reference: GaussianReference,
    config: SchemeConfig,
    rng: "int | np.random.SeedSequence | None" = None,
) -> TrainingRun:
    """Backward (controlled) training: each iteration fits the whole twist
    sequence in one backward sweep of unweighted regressions over the
    previous run's particle pairs, then runs the refreshed policy end to end
    (NT kernel draws and T regressions per iteration).

    The quality of every fit rests on where the previous run put its
    particles; a collapsed run leaves too few distinct points and the sweep
    degrades to kept twists with logged failures rather than aborting.
    """
    root = as_seedseq(config.seed if rng is None else rng)
    kernels = reference.kernels
    T, d = kernels.horizon, kernels.state_dim
    n = config.n_train
    pieces = list(model_pieces(reference))
    identity_policy = TwistPolicy.identity(T, d, config.mode)

    ref_trace = _reference_pass(reference, config, root)
    logz0, essmin0, wvar0 = _trace_stats(ref_trace)
    policies = [identity_policy]
    traces: list[SMCTrace | None] = [ref_trace]
    log_zs: list[float | None] = [logz0]
    ess_mins: list[float | None] = [essmin0]
    weight_variances: list[float | None] = [wvar0]
    kernel_samples = [ref_trace.kernel_sample_count]
    regression_counts = [0]
    failures: list[FailureEvent] = []

    prev_trace = ref_trace
    for level in range(1, config.l_max + 1):
        phis: list[LogQuadraticTwist | None] = [None] * T
        etas_prev: list[LogQuadraticTwist | None] = [None] * (T - 1)
        eta_t = LogQuadraticTwist.identity(d)
        log_eta0 = 0.0
        for t in range(T, 0, -1):
            piece = pieces[t - 1]
            cloud = prev_trace.clouds[t - 1]
            x_t = cloud.particles
            x_prev = None if t == 1 else prev_trace.clouds[t - 2].particles[cloud.ancestors]
            log_f = np.asarray(piece.log_potential(x_prev, x_t), dtype=float)
            if not eta_t.is_identity:
                log_f = log_f + eta_t.log_values(x_t)
            try:
                phi_t = fit_log_quadratic(
                    RegressionProblem(
                        prev_states=x_prev,
                        states=x_t,
                        log_targets=log_f,
                        log_weights=None,
                        mode=config.mode,
                        constraint_cov=piece.cov,
                        psd_epsilon=piece.psd_epsilon,
                    )
                )
            except SingularDesign:
                phi_t = policies[level - 1].twists[t - 1]
                failures.append(
                    FailureEvent(
                        iteration=level, t=t, kind="singular-design", action="kept-previous-twist"
                    )
                )
            phis[t - 1] = phi_t
            if t == 1:
                log_eta0 = piece.integrate_initial(phi_t)
            else:
                eta_t = piece.integrate(phi_t)
                etas_prev[t - 2] = eta_t
        policy = _assemble_policy(phis, etas_prev, log_eta0, d, config.mode)
        trace = run_smc(build_twisted_model(reference, policy), n, substream(root, level))
        lz, em, wv = _trace_stats(trace)
        policies.append(policy)
        traces.append(trace)
        log_zs.append(lz)
        ess_mins.append(em)
        weight_variances.append(wv)
        kernel_samples.append(n * T)
        regression_counts.append(T)
        prev_trace = trace

    return TrainingRun(
        scheme="backward",
        policies=tuple(policies),
        traces=tuple(traces),
        log_zs=tuple(log_zs),
        ess_mins=tuple(ess_mins),
        weight_variances=tuple(weight_variances),
        kernel_samples=tuple(kernel_samples),
        regression_counts=tuple(regression_counts),
        failures=tuple(failures),
    )


def _lgssm_emission_twist(params: LgssmParams, y: np.ndarray) -> LogQuadraticTwist:
    """The Gaussian emission log-density at a fixed observation, written as a
    log-quadratic in the state."""
    C, R = params.obs_matrix, params.obs_cov
    rinv_c = np.linalg.solve(R, C)
    a = C.T @ rinv_c
    b = -rinv_c.T @ y
    sign, logdet = np.linalg.slogdet(R)
    if sign <= 0:
        raise InvalidModel("observation covariance must be PD")
    c = float(y @ np.linalg.solve(R, y) + params.obs_dim * np.log(2.0 * np.pi) + logdet)
    return LogQuadraticTwist((a + a.T) / 2.0, b, c)


def exact_lgssm_policy(
    params: LgssmParams,
    observations: np.ndarray,
    lag: int | None = None,
) -> TwistPolicy:
    """Analytic twist policy for a linear-Gaussian model.

    Every quantity in the twist recursion stays log-quadratic here, so the
    recursion can be run exactly: `lag=None` gives the full backward solution
    (under which every particle weight is constant and the initial normalizer
    equals the marginal likelihood), `lag=L` the policy using only L future
    observations per step, and `lag=0` the identity.
    """
    ys = as_observation_matrix(observations)
    if ys.shape[1] != params.obs_dim:
        raise InvalidModel(f"observations have width {ys.shape[1]}")
    T = ys.shape[0]
    kernels = lgssm_kernels(params, T)
    emission = [_lgssm_emission_twist(params, ys[t]) for t in range(T)]
    F, u, Q = params.trans_matrix, params.trans_offset, params.trans_cov
    d = params.state_dim

    def advance(phis: list[LogQuadraticTwist]) -> list[LogQuadraticTwist]:
        out = []
        for t in range(1, T + 1):
            if t == T:
                eta_t = LogQuadraticTwist.identity(d)
            else:
                eta_t = integrate_twist_affine(F, u, Q, phis[t])
            out.append(emission[t - 1].compose(eta_t))
        return out

    if lag is None:
        phis = [None] * T
        phis[T - 1] = emission[T - 1]
        for t in range(T - 1, 0, -1):
            eta_t = integrate_twist_affine(F, u, Q, phis[t])
            phis[t - 1] = emission[t - 1].compose(eta_t)
    else:
        if lag < 0:
            raise ValueError("lag must be >= 0")
        phis = [LogQuadraticTwist.identity(d) for _ in range(T)]
        for _ in range(lag):
            phis = advance(phis)
    return TwistPolicy.from_twists(phis, kernels, mode="full")
