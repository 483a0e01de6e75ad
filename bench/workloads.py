"""The benchmark's three workloads.

Each workload makes its inputs in `setup()` and then runs identical rounds:
every round repeats the same operations on the same inputs, so the share of
failed operations is the same in every run however many rounds fit in it,
and the seeded outputs of all rounds must agree bit for bit.  Package
closures (estimators, model builders, references) are created inside the
round, so that a traced round sees them through the tracer's wrappers.

Inputs that `--seed` drives are the ones on which no operation has been seen
to fail.  The parts that fail, or whose correctness check is a statistical
test, run on fixed inputs: their failures then repeat exactly and their
verdicts do not depend on the seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twistsmc import cli, fk, models, pmmh, schemes, twist
from twistsmc.errors import TwistSmcError
from twistsmc.rng import as_seedseq, substream

Check = tuple  # (name, ok, detail)


def seed_int(seed: int, *key: int) -> int:
    """A 32-bit integer seed for the package, derived from the workload seed."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint32)[0])


def seed_seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=key)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _mean_within(ratios, k: float = 3.0) -> tuple[bool, str]:
    r = np.asarray(ratios, dtype=float)
    mean = float(r.mean())
    se = float(r.std(ddof=1) / math.sqrt(r.size))
    return abs(mean - 1.0) <= k * se, f"mean {mean:.4f}, SE {se:.4f}, n {r.size}"


def _log_z_agree(tw: np.ndarray, bs: np.ndarray, k: float = 3.0) -> tuple[bool, str]:
    """Two log-normalizer samples agree after the log-normal bias correction
    E[log Z-hat] = log Z - var/2.  The standard error covers each mean and
    each variance estimate, with every variance taken at its 99% upper
    chi-square bound: a plug-in sample variance from a dozen replicates is
    often far too small, which makes a plain 3 SE test fail several times in
    a hundred on a correct program."""
    from scipy.stats import chi2

    parts, gap = 0.0, 0.0
    for sign, z in ((1.0, tw), (-1.0, bs)):
        n = z.size
        var = z.var(ddof=1)
        gap += sign * (z.mean() + var / 2.0)
        upper = (n - 1) * var / chi2.ppf(0.01, n - 1)
        parts += upper / n + upper**2 / (2.0 * (n - 1))
    se = math.sqrt(parts)
    return abs(gap) <= k * se, f"bias-corrected gap {gap:.3f}, {k:g} SE {k * se:.3f}, {tw.size} + {bs.size} runs"


@dataclass
class Round:
    elapsed_s: float
    attempted: int
    failed: int
    draws: int  # kernel draws in finished operations
    latencies: list[float]  # per-operation latency samples, finished operations
    digest: str  # hash of the round's seeded outputs, timings left out
    data: dict = field(default_factory=dict)
    trace_checks: list[Check] = field(default_factory=list)


# ---------------------------------------------------------------------------
# nlobs-grid


def _grid_runs(records_path: Path) -> dict:
    """Records of one grid call grouped by (dataset, scheme, run)."""
    runs: dict[tuple, dict] = {}
    with open(records_path) as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["dataset"], rec["scheme"], rec["run"])
            run = runs.setdefault(
                key, {"failed": False, "iterations": {}, "wall_clock": rec["wall_clock"]}
            )
            if rec["failed"]:
                run["failed"] = True
                run["failure"] = (rec["failure_kind"], rec["failure_t"])
            else:
                run["iterations"][rec["iteration"]] = (rec["log_z"], rec["kernel_samples"])
    return runs


def _grid_datasets(config: dict):
    """(dataset id, NlObsParams, observations) exactly as `cmd_grid_nlobs`
    simulates them: dataset k of cell c draws from substream(root, 1, c, k)."""
    grid = config["grid"]
    root = as_seedseq(int(config["replication"]["seed"]))
    slope = float(grid.get("linear_slope", 1.0))
    linear = grid.get("observation") == "linear"
    cell = 0
    for alpha in grid["alphas"]:
        for sx in grid["sigma_x2"]:
            for sy in grid["sigma_y2"]:
                for k in range(int(grid.get("datasets_per_cell", 1))):
                    params = models.NlObsParams(alpha=alpha, sigma_x2=sx, sigma_y2=sy, T=int(grid["T"]))
                    obs_fn = (lambda x: slope * x) if linear else models.nonlinear_observation
                    _, ys = models.simulate_nlobs(params, substream(root, 1, cell, k), observation_fn=obs_fn)
                    yield f"a{alpha}-sx{sx}-sy{sy}-r{k}", params, ys
                cell += 1


class NlobsGrid:
    """Robustness-grid slices through `cmd_grid_nlobs`, one worker, d=1,
    N=256, T=100, L=4.

    - desk: the desk preset's twelve nonlinear datasets at its own seed,
      bootstrap, forward and backward, 2 runs each.  Nine of these 72 runs
      raise DegenerateWeights, every time.
    - linear: six linear-observation datasets at a fixed seed, bootstrap and
      forward, 2 runs; plus 16 bootstrap runs each (linear-boot).  Kalman
      gives their exact likelihood.
    - seeded: six linear-observation datasets drawn from --seed, bootstrap
      and forward, 2 runs.
    """

    name = "nlobs-grid"
    LINEAR_SEED = 314159

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir / self.name

    def setup(self) -> None:
        desk = copy.deepcopy(cli.PRESETS["desk"])
        grid = dict(desk["grid"], runs=2, workers=1)
        linear = dict(grid, sigma_y2=[0.055], schemes=["forward"], observation="linear", linear_slope=1.0)
        self.l_max = int(grid["l_max"])
        self.slices = {
            "desk": {"grid": grid, "replication": {"seed": desk["replication"]["seed"]}},
            "linear": {"grid": linear, "replication": {"seed": self.LINEAR_SEED}},
            "linear-boot": {
                "grid": dict(linear, schemes=[], runs=16),
                "replication": {"seed": self.LINEAR_SEED},
            },
            "seeded": {"grid": linear, "replication": {"seed": seed_int(self.seed, 1)}},
        }

    def run_round(self, tracer=None) -> Round:
        elapsed = 0.0
        attempted = failed = draws = 0
        latencies: list[float] = []
        per_slice = {}
        trace_checks = []
        for name, config in self.slices.items():
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            summary = cli.cmd_grid_nlobs(config, self.out / name)
            elapsed += time.perf_counter() - t0
            runs = _grid_runs(self.out / name / "records.jsonl")
            per_slice[name] = {"runs": runs, "summary": summary}
            twisted = 0
            for (_, scheme, _), run in runs.items():
                attempted += 1
                if run["failed"]:
                    failed += 1
                    continue
                draws += sum(ks for _, ks in run["iterations"].values())
                latencies.append(run["wall_clock"])
                if scheme != "bootstrap":
                    twisted += sum(ks for it, (_, ks) in run["iterations"].items() if it >= 1)
            if tracer is not None:
                got = tracer.snapshot().get("twist.sample.draws", 0) - before.get("twist.sample.draws", 0)
                if any(r["failed"] for r in runs.values()):
                    # a failed run drew before it failed; its draws are not in
                    # the package's counters
                    ok = got >= twisted
                else:
                    ok = got == twisted
                trace_checks.append(
                    (f"sample-draws-{name}", ok, f"traced {got}, package counters {twisted}")
                )
        digest = _digest(
            {
                name: sorted(
                    [list(k), r["failed"], r.get("failure"), sorted(r["iterations"].items())]
                    for k, r in s["runs"].items()
                )
                for name, s in per_slice.items()
            }
        )
        return Round(elapsed, attempted, failed, draws, latencies, digest, per_slice, trace_checks)

    def checks(self, rnd: Round) -> list[Check]:
        grid = self.slices["desk"]["grid"]
        n, T, L = int(grid["n"]), int(grid["T"]), self.l_max
        out = []
        bad = []
        for name, s in rnd.data.items():
            for (ds, scheme, run_idx), run in s["runs"].items():
                if run["failed"]:
                    continue
                ks = {it: k for it, (_, k) in run["iterations"].items()}
                per_iter = {"bootstrap": None, "forward": 2 * n * T, "backward": n * T}[scheme]
                want = {0: n * T} if per_iter is None else {0: n * T, **{i: per_iter for i in range(1, L + 1)}}
                if ks != want:
                    bad.append(f"{name}/{ds}/{scheme}/{run_idx}: {ks}")
        out.append(("cost-counters", not bad, "; ".join(bad[:3]) or "2NT per forward iteration, NT otherwise"))

        log_z = {}
        for ds, params, ys in _grid_datasets(self.slices["linear"]):
            lp = models.LgssmParams(
                trans_matrix=[[params.alpha]], trans_cov=[[params.sigma_x2]], obs_matrix=[[1.0]],
                obs_cov=[[params.sigma_y2]], initial_mean=[0.0], initial_cov=[[params.stationary_var]],
            )
            log_z[ds] = models.kalman(lp, ys).log_z_total
        for scheme, slice_name, it in (("bootstrap", "linear-boot", 0), ("forward", "linear", L)):
            ratios = [
                math.exp(run["iterations"][it][0] - log_z[ds])
                for (ds, sch, _), run in rnd.data[slice_name]["runs"].items()
                if sch == scheme and not run["failed"]
            ]
            ok, detail = _mean_within(ratios)
            out.append((f"kalman-unbiased-{scheme}", ok, detail))

        props = rnd.data["desk"]["summary"]["proportions"]
        fwd = props["forward"][str(L)]["gt_tenfold"]
        bwd = props["backward"][str(L)]["gt_tenfold"]
        out.append(("robustness-ordering", fwd <= bwd, f"sd > 10x bootstrap at iteration {L}: forward {fwd:.3f}, backward {bwd:.3f}"))
        return out

    def run_checks(self) -> list[Check]:
        return []

    def describe(self, rnd: Round) -> dict:
        return {
            name: {
                "runs": len(s["runs"]),
                "failed": sorted(
                    f"{ds}/{scheme}/{run_idx}: {r['failure'][0]} t={r['failure'][1]}"
                    for (ds, scheme, run_idx), r in s["runs"].items()
                    if r["failed"]
                ),
            }
            for name, s in rnd.data.items()
        }


# ---------------------------------------------------------------------------
# msv-pmmh


class _CountingEstimator:
    """The benchmark's own count and timing of estimator calls."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.calls = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.latencies: list[float] = []

    def __call__(self, theta, seed):
        self.calls += 1
        t0 = time.perf_counter()
        try:
            value = self.estimator(theta, seed)
        except TwistSmcError as exc:
            self.failed += 1
            kind = type(exc).__name__
            self.failures[kind] = self.failures.get(kind, 0) + 1
            raise
        self.latencies.append(time.perf_counter() - t0)
        return value


@dataclass(frozen=True)
class _ChainSpec:
    name: str
    ys: np.ndarray
    kind: str  # bootstrap | forward | backward
    steps: int
    variance_every: int | None
    theta_init: np.ndarray
    seed: np.random.SeedSequence


class MsvPmmh:
    """PMMH chains on d=3, T=60 stochastic volatility (acceptance criterion
    10's setting: bootstrap N=300, forward-l2 and backward-l2 with
    n_train=50, n_sample=100), random-walk covariance 0.01 I, variance
    windows of 10 replicates.

    - bootstrap and forward-l2 chains run on a series drawn from --seed;
    - the backward-l2 chain runs on criterion 10's fixed series and seed: its
      estimator raises DegenerateWeights on some calls, every time;
    - a boundary chain (bootstrap) starts at neighbour correlations 0.70 on
      the fixed series: the prior accepts proposals whose tridiagonal
      covariance is not positive definite, and `MsvParams` rejects them.
    """

    name = "msv-pmmh"
    D, T = 3, 60
    FIXED_DATA_SEED = 1001
    VARIANCE_REPS = 10

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        d = self.D
        params = models.MsvParams(
            m=np.full(d, -1.0), alpha=np.full(d, 0.9), sigma2=np.full(d, 0.2), rho=np.full(d - 1, 0.25)
        )
        _, seeded = models.simulate_msv(params, self.T, seed_seq(self.seed, 2))
        _, fixed = models.simulate_msv(params, self.T, self.FIXED_DATA_SEED)
        boundary = pmmh.msv_theta_init(fixed)
        boundary[3 * d :] = 0.70
        self.configs = {
            "forward": schemes.SchemeConfig(n_train=50, l_max=2, n_sample=100),
            "backward": schemes.SchemeConfig(n_train=50, l_max=2, n_sample=100),
        }
        self.chains = (
            _ChainSpec("bootstrap", seeded, "bootstrap", 60, 30, pmmh.msv_theta_init(seeded), seed_seq(self.seed, 3, 0)),
            _ChainSpec("forward-l2", seeded, "forward", 10, 10, pmmh.msv_theta_init(seeded), seed_seq(self.seed, 3, 1)),
            _ChainSpec("backward-l2", fixed, "backward", 10, 10, pmmh.msv_theta_init(fixed), substream(1002, 2)),
            _ChainSpec("boundary", fixed, "bootstrap", 20, None, boundary, substream(1002, 3)),
        )

    def draws_per_call(self, kind: str) -> tuple[int, int]:
        """(all kernel draws, twisted draws) of one finished estimator call:
        a bootstrap filter is NT; a trained estimator runs a reference pass
        (NT), L iterations (2NT forward, NT backward) and one twisted filter
        at n_sample."""
        if kind == "bootstrap":
            return 300 * self.T, 0
        cfg = self.configs[kind]
        per_iter = (2 if kind == "forward" else 1) * cfg.n_train * self.T
        twisted = cfg.l_max * per_iter + cfg.n_sample * self.T
        return cfg.n_train * self.T + twisted, twisted

    def _estimator(self, spec: _ChainSpec):
        builder = pmmh.msv_model_builder(spec.ys)
        if spec.kind == "bootstrap":
            return pmmh.smc_estimator(builder, 300)
        return pmmh.trained_estimator(builder, spec.kind, self.configs[spec.kind])

    def run_round(self, tracer=None) -> Round:
        prior, transform = pmmh.msv_prior(self.D), pmmh.msv_transform(self.D)
        elapsed = 0.0
        attempted = failed = draws = 0
        latencies: list[float] = []
        chains = {}
        trace_checks = []
        for spec in self.chains:
            counter = _CountingEstimator(self._estimator(spec))
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            chain = pmmh.pmmh_run(
                counter, prior, transform, spec.theta_init, spec.steps,
                np.eye(transform.dim) * 0.01, spec.seed, estimator_name=spec.name,
                variance_every=spec.variance_every, variance_reps=self.VARIANCE_REPS,
            )
            elapsed += time.perf_counter() - t0
            finished = counter.calls - counter.failed
            attempted += counter.calls
            failed += counter.failed
            all_draws, twisted = self.draws_per_call(spec.kind)
            draws += finished * all_draws
            latencies.extend(counter.latencies)
            chains[spec.name] = (spec, chain, counter)
            if tracer is not None and counter.failed == 0:
                got = tracer.snapshot().get("twist.sample.draws", 0) - before.get("twist.sample.draws", 0)
                trace_checks.append(
                    (f"sample-draws-{spec.name}", got == finished * twisted, f"traced {got}, counters {finished * twisted}")
                )
        digest = _digest(
            {
                name: [
                    [s.step, s.theta.tobytes().hex(), float(s.log_z).hex(), s.accepted] for s in chain.states
                ]
                + [[w.step, float(w.variance).hex(), w.failures] for w in chain.variance_windows]
                + [chain.failed_proposals, counter.calls, counter.failed]
                for name, (_, chain, counter) in chains.items()
            }
        )
        return Round(elapsed, attempted, failed, draws, latencies, digest, {"chains": chains, "prior": prior}, trace_checks)

    def checks(self, rnd: Round) -> list[Check]:
        carried, support, accounted = [], [], []
        prior = rnd.data["prior"]
        for name, (spec, chain, counter) in rnd.data["chains"].items():
            prev_theta, prev_log_z = spec.theta_init.tobytes(), None
            for s in chain.states:
                if not s.accepted and (
                    s.theta.tobytes() != prev_theta
                    or (prev_log_z is not None and float(s.log_z).hex() != prev_log_z)
                ):
                    carried.append(f"{name} step {s.step}")
                if not prior.log_density(s.theta) > -np.inf:
                    support.append(f"{name} step {s.step}")
                prev_theta, prev_log_z = s.theta.tobytes(), float(s.log_z).hex()
            window_failures = sum(w.failures for w in chain.variance_windows)
            if counter.failed != chain.failed_proposals + window_failures:
                accounted.append(
                    f"{name}: {counter.failed} failed calls vs {chain.failed_proposals} + {window_failures}"
                )
        return [
            ("rejections-carry-state", not carried, ", ".join(carried[:3]) or "theta and log Z bit-identical"),
            ("states-in-prior-support", not support, ", ".join(support[:3]) or "all states"),
            ("failed-calls-accounted", not accounted, "; ".join(accounted) or "failed_proposals + window failures"),
        ]

    def run_checks(self) -> list[Check]:
        """The per-call draw counts above against the package's own
        counters, from one training run of each scheme."""
        out = []
        for kind, spec in (("forward", self.chains[1]), ("backward", self.chains[2])):
            cfg = self.configs[kind]
            reference = pmmh.msv_model_builder(spec.ys)(spec.theta_init)
            train = schemes.forward_train if kind == "forward" else schemes.controlled_smc_train
            run = train(reference, cfg, spec.seed)
            got = sum(run.kernel_samples) + cfg.n_sample * self.T
            want = self.draws_per_call(kind)[0]
            out.append((f"cost-rule-{kind}", got == want, f"counters {got}, rule {want}"))
        return out

    def describe(self, rnd: Round) -> dict:
        return {
            name: {
                "calls": counter.calls,
                "failed": counter.failures,
                "failed_proposals": chain.failed_proposals,
                "acceptance": chain.acceptance_rate,
            }
            for name, (_, chain, counter) in rnd.data["chains"].items()
        }


# ---------------------------------------------------------------------------
# msv-stream


class ObservationStream:
    """Simulates a stochastic-volatility series one observation at a time and
    hands each to the consumer as a `ModelPiece`; the potential of piece t is
    built from y_t alone, when y_t arrives.

    `gaps[t-1]` is the time the consumer spent between receiving piece t and
    pulling again: the cost of absorbing observation t.
    """

    def __init__(self, params: models.MsvParams, horizon: int, seed):
        self.params, self.horizon, self.seed = params, horizon, seed
        self.ys = np.empty((horizon, params.dim))
        self.gaps: list[float] = []

    def __iter__(self):
        p = self.params
        rng = np.random.Generator(np.random.PCG64(self.seed))
        chol_inf = np.linalg.cholesky(p.stationary_cov)
        chol_q = np.linalg.cholesky(p.transition_cov)
        drift = (1.0 - p.alpha) * p.m
        x = p.m + chol_inf @ rng.standard_normal(p.dim)
        for t in range(1, self.horizon + 1):
            if t > 1:
                x = drift + p.alpha * x + chol_q @ rng.standard_normal(p.dim)
            y = np.exp(x / 2.0) * rng.standard_normal(p.dim)
            self.ys[t - 1] = y
            one = models.build_msv_fk(p, y[None, :])
            k = one.kernels
            potential = one.fk.log_potential
            piece = schemes.ModelPiece(
                t=t,
                log_potential=lambda xp, xx, _lp=potential: _lp(1, xp, xx),
                mean=np.asarray(k.initial_mean, dtype=float) if t == 1 else None,
                trans_matrix=None if t == 1 else np.asarray(k.trans_matrix(2), dtype=float),
                trans_offset=None if t == 1 else np.asarray(k.trans_offset(2), dtype=float),
                cov=np.asarray(k.initial_cov if t == 1 else k.trans_cov(2), dtype=float),
            )
            handed = time.perf_counter()
            yield piece
            self.gaps.append(time.perf_counter() - handed)


def _twist_hex(tw) -> str:
    return tw.A.tobytes().hex() + tw.b.tobytes().hex() + float(tw.c).hex()


class MsvStream:
    """Streaming d=8 stochastic-volatility learning (the msv-d8 preset's FX
    dimension): `online_forward` with N=100, L=8, standard and fast, fed a
    T=200 series one observation at a time; then 8 twisted filters at N=600
    under the learned policy and 8 bootstrap filters at N=4500.

    The series and the training seed are fixed: on random series both
    learners raise DegenerateWeights now and then (see CHANGES.md), which
    would make the failure count depend on the seed.  The filters draw from
    --seed.
    """

    name = "msv-stream"
    D, T, L = 8, 200, 8
    N_TRAIN, N_TWISTED, N_BOOT, REPS = 100, 600, 4500, 8
    DATA_SEED = np.random.SeedSequence(20240801, spawn_key=(8, 0))
    TRAIN_SEED = np.random.SeedSequence(20240801, spawn_key=(8, 1))
    PREFIX = 40
    CHECK_SEED, CHECK_REPS = 20240802, 16

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def setup(self) -> None:
        d = self.D
        self.params = models.MsvParams(
            m=np.full(d, -1.0), alpha=np.full(d, 0.9), sigma2=np.full(d, 0.2), rho=np.full(d - 1, 0.25)
        )
        self.config = schemes.SchemeConfig(n_train=self.N_TRAIN, l_max=self.L)
        self.filter_root = seed_seq(self.seed, 4)

    def run_round(self, tracer=None) -> Round:
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        stream = ObservationStream(self.params, self.T, self.DATA_SEED)
        standard = schemes.online_forward(stream, self.config, self.TRAIN_SEED)
        fast_stream = ObservationStream(self.params, self.T, self.DATA_SEED)
        fast = schemes.online_forward(fast_stream, self.config, self.TRAIN_SEED, fast=True)
        reference = models.build_msv_fk(self.params, stream.ys)
        model = twist.build_twisted_model(reference, standard.final_policy)
        filters = {"twisted": [], "bootstrap": []}
        for i, (key, fk_model, n) in enumerate(
            (("twisted", model, self.N_TWISTED), ("bootstrap", reference.fk, self.N_BOOT))
        ):
            for r in range(self.REPS):
                trace = fk.run_smc(fk_model, n, substream(self.filter_root, i, r))
                filters[key].append((trace.log_z_total, trace.kernel_sample_count))
                del trace  # a full genealogy at N=4500 is tens of MB
        elapsed = time.perf_counter() - t0

        draws = sum(standard.kernel_samples) + sum(fast.kernel_samples)
        draws += sum(k for v in filters.values() for _, k in v)
        absorbed = self.T * (2 + 2 * self.REPS)
        trace_checks = []
        if tracer is not None:
            got = tracer.snapshot().get("twist.sample.draws", 0) - before.get("twist.sample.draws", 0)
            want = sum(standard.kernel_samples) + sum(fast.kernel_samples) + sum(k for _, k in filters["twisted"])
            trace_checks.append(("sample-draws-stream", got == want, f"traced {got}, package counters {want}"))
        digest = _digest(
            {
                "standard": [_twist_hex(tw) for tw in standard.final_policy.twists],
                "fast": [_twist_hex(tw) for tw in fast.final_policy.twists],
                "filters": {k: [float(z).hex() for z, _ in v] for k, v in filters.items()},
                "ys": stream.ys.tobytes().hex(),
            }
        )
        data = {"standard": standard, "fast": fast, "filters": filters}
        return Round(elapsed, absorbed, 0, draws, stream.gaps, digest, data, trace_checks)

    def checks(self, rnd: Round) -> list[Check]:
        n, T, L = self.N_TRAIN, self.T, self.L
        standard, fast, filters = rnd.data["standard"], rnd.data["fast"], rnd.data["filters"]
        out = []
        counters_ok = (
            tuple(standard.kernel_samples) == (0,) + (2 * n * T,) * L
            and tuple(fast.kernel_samples) == (0,) + (n * T,) * L
            and all(k == self.N_TWISTED * T for _, k in filters["twisted"])
            and all(k == self.N_BOOT * T for _, k in filters["bootstrap"])
        )
        out.append(("cost-counters", counters_ok, f"standard {standard.kernel_samples[1]}, fast {fast.kernel_samples[1]} per iteration"))
        slices = (standard.max_window_slices, fast.max_window_slices)
        out.append(("window-bound", max(slices) <= L + 1, f"max window slices {slices} (<= {L + 1})"))

        v_tw = np.var([z for z, _ in filters["twisted"]], ddof=1)
        v_bs = np.var([z for z, _ in filters["bootstrap"]], ddof=1)
        out.append(("twisted-variance-lower", v_tw < v_bs, f"var log Z: twisted {v_tw:.4f}, bootstrap {v_bs:.4f}"))
        return out

    def run_checks(self) -> list[Check]:
        """Stream order against sweep order, and twisted against bootstrap
        filters, on fixed seeds so that the verdicts do not depend on
        --seed.

        A level-l twist at t depends on observations up to t + l - 1, so
        twists t <= PREFIX - L + 1 of the final level must equal bit for bit
        those of `forward_train` on the first PREFIX observations.
        """
        stream = ObservationStream(self.params, self.T, self.DATA_SEED)
        online = schemes.online_forward(stream, self.config, self.TRAIN_SEED)
        prefix = models.build_msv_fk(self.params, stream.ys[: self.PREFIX])
        sweep = schemes.forward_train(prefix, self.config, self.TRAIN_SEED, keep_traces=False)
        upto = self.PREFIX - self.L + 1
        same = all(
            np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b) and a.c == b.c
            for a, b in zip(online.final_policy.twists[:upto], sweep.final_policy.twists[:upto])
        )
        out = [("online-matches-sweep", same, f"final-level twists 1..{upto} of a {self.PREFIX}-step prefix")]

        reference = models.build_msv_fk(self.params, stream.ys)
        model = twist.build_twisted_model(reference, online.final_policy)
        root = np.random.SeedSequence(self.CHECK_SEED)
        tw = np.array([fk.run_smc(model, self.N_TWISTED, substream(root, 0, r)).log_z_total for r in range(self.CHECK_REPS)])
        bs = np.array([fk.run_smc(reference.fk, self.N_BOOT, substream(root, 1, r)).log_z_total for r in range(self.CHECK_REPS)])
        out.append(("twisted-agrees-bootstrap", *_log_z_agree(tw, bs)))
        return out

    def describe(self, rnd: Round) -> dict:
        out = {}
        for key, values in rnd.data["filters"].items():
            z = np.array([v for v, _ in values])
            out[key] = {"mean_log_z": float(z.mean()), "var_log_z": float(z.var(ddof=1))}
        return out


WORKLOADS = {w.name: w for w in (NlobsGrid, MsvPmmh, MsvStream)}
