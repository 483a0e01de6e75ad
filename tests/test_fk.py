"""Core particle machinery: resampling, ESS, stepping, traces, estimators."""

import numpy as np
import pytest
from scipy.special import logsumexp

from twistsmc import (
    DegenerateWeights,
    FeynmanKacModel,
    InvalidModel,
    LgssmParams,
    build_lgssm_fk,
    ess,
    kalman,
    relative_weight_variance,
    resample,
    run_smc,
    simulate_lgssm,
    smc_step,
    weighted_expectation,
)
from twistsmc.rng import generator, substream


def toy_lgssm(rho=0.8, q=1.0, r=0.25):
    return LgssmParams(
        trans_matrix=[[rho]],
        trans_cov=[[q]],
        obs_matrix=[[1.0]],
        obs_cov=[[r]],
        initial_mean=[0.0],
        initial_cov=[[q / (1.0 - rho**2)]],
    )


def unit_potential_model(horizon=5, dim=1):
    return FeynmanKacModel(
        horizon=horizon,
        state_dim=dim,
        initial_sampler=lambda n, rng: rng.standard_normal((n, dim)),
        transition_sampler=lambda t, xp, rng: xp + rng.standard_normal(xp.shape),
        log_potential=lambda t, xp, x: np.zeros(x.shape[0]),
    )


class TestResample:
    def test_single_atom_takes_all(self):
        lw = np.array([0.0, -np.inf, -np.inf])
        idx = resample(lw, 5, generator(0))
        assert np.array_equal(idx, np.zeros(5, dtype=int))

    def test_uniform_frequencies_within_binomial_bounds(self):
        n, count = 10, 10_000
        idx = resample(np.zeros(n), count, generator(123))
        freqs = np.bincount(idx, minlength=n)
        expected = count / n
        sd = np.sqrt(count * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(freqs - expected) <= 4 * sd)

    def test_all_zero_weights_raise(self):
        with pytest.raises(DegenerateWeights):
            resample(np.full(4, -np.inf), 4, generator(0))

    def test_deterministic_given_stream(self):
        lw = np.log(np.array([0.2, 0.5, 0.3]))
        a = resample(lw, 100, generator(7))
        b = resample(lw, 100, generator(7))
        assert np.array_equal(a, b)

    def test_systematic_matches_weights_in_expectation(self):
        lw = np.log(np.array([0.1, 0.6, 0.3]))
        idx = resample(lw, 30_000, generator(5), method="systematic")
        freqs = np.bincount(idx, minlength=3) / 30_000
        assert np.allclose(freqs, [0.1, 0.6, 0.3], atol=0.01)

    def test_extreme_log_weights_do_not_overflow(self):
        lw = np.array([1e6, 1e6 - 1.0, -1e6])
        idx = resample(lw, 1000, generator(1))
        assert set(np.unique(idx)) <= {0, 1}


class TestEss:
    def test_uniform_weights_give_n(self):
        assert ess(np.zeros(17)) == pytest.approx(17.0)

    def test_single_atom_gives_one(self):
        lw = np.full(9, -np.inf)
        lw[3] = 2.0
        assert ess(lw) == pytest.approx(1.0)

    def test_hand_value(self):
        # weights (2, 1, 1): (2+1+1)^2 / (4+1+1) = 16/6
        assert ess(np.log([2.0, 1.0, 1.0])) == pytest.approx(16.0 / 6.0, rel=1e-12)

    def test_bounds_and_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(2, 40)
            lw = rng.normal(size=n) * rng.uniform(0.1, 30)
            val = ess(lw)
            assert 1.0 <= val <= n + 1e-9
            assert ess(lw + 123.456) == pytest.approx(val, rel=1e-10)

    def test_exact_shift_invariance_for_exact_floats(self):
        lw = np.array([0.0, -1.0, -2.0, -3.0])
        assert ess(lw) == ess(lw + 1.0)

    def test_extreme_magnitudes(self):
        assert np.isfinite(ess(np.array([1e6, -1e6])))
        assert ess(np.array([-1e6, -1e6])) == pytest.approx(2.0)

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateWeights):
            ess(np.full(3, -np.inf))


class TestSmcStep:
    def test_first_step_contract(self):
        model = unit_potential_model()
        cloud = smc_step(None, model, 1, generator(0), n_particles=8)
        assert cloud.t == 1
        assert np.array_equal(cloud.ancestors, np.arange(8))
        assert np.array_equal(cloud.log_weights, np.zeros(8))

    def test_single_particle_accumulates_potentials(self):
        params = toy_lgssm()
        _, ys = simulate_lgssm(params, 6, 3)
        ref = build_lgssm_fk(params, ys)
        trace = run_smc(ref.fk, 1, 42)
        total = sum(float(c.log_weights[0]) for c in trace.clouds)
        assert trace.log_z_total == pytest.approx(total, rel=1e-12)

    def test_mean_weight_estimates_predictive_likelihood(self):
        params = toy_lgssm()
        _, ys = simulate_lgssm(params, 5, 11)
        ref = build_lgssm_fk(params, ys)
        oracle = kalman(params, ys)
        reps = 200
        t_check = 4
        vals = []
        for r in range(reps):
            trace = run_smc(ref.fk, 256, substream(1000, r))
            lw = trace.clouds[t_check - 1].log_weights
            vals.append(np.exp(logsumexp(lw) - np.log(lw.size)))
        vals = np.asarray(vals)
        target = np.exp(oracle.predictive_logliks[t_check - 1])
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) <= 3 * se

    def test_prev_time_mismatch_rejected(self):
        model = unit_potential_model()
        cloud = smc_step(None, model, 1, generator(0), n_particles=4)
        with pytest.raises(ValueError):
            smc_step(cloud, model, 3, generator(1))


class TestRunSmc:
    def test_unbiased_normalizer_on_lgssm(self):
        params = toy_lgssm()
        _, ys = simulate_lgssm(params, 10, 21)
        ref = build_lgssm_fk(params, ys)
        log_z_true = kalman(params, ys).log_z_total
        reps = 1000
        log_zs = np.array(
            [run_smc(ref.fk, 128, substream(77, r)).log_z_total for r in range(reps)]
        )
        # compare on the natural scale where the estimator is unbiased
        zs = np.exp(log_zs - log_z_true)
        se = zs.std(ddof=1) / np.sqrt(reps)
        assert abs(zs.mean() - 1.0) <= 3 * se

    def test_unit_potentials_give_zero_log_z(self):
        trace = run_smc(unit_potential_model(horizon=7), 32, 5)
        assert trace.log_z_total == 0.0

    def test_fixed_seed_reproduces_trace_bitwise(self):
        params = toy_lgssm()
        _, ys = simulate_lgssm(params, 8, 2)
        ref = build_lgssm_fk(params, ys)
        a = run_smc(ref.fk, 64, 99)
        b = run_smc(ref.fk, 64, 99)
        assert a.log_z_total == b.log_z_total
        for ca, cb in zip(a.clouds, b.clouds):
            assert np.array_equal(ca.particles, cb.particles)
            assert np.array_equal(ca.log_weights, cb.log_weights)
            assert np.array_equal(ca.ancestors, cb.ancestors)

    def test_kernel_sample_count(self):
        trace = run_smc(unit_potential_model(horizon=6), 16, 0)
        assert trace.kernel_sample_count == 16 * 6

    def test_degenerate_step_reports_time_index(self):
        model = FeynmanKacModel(
            horizon=4,
            state_dim=1,
            initial_sampler=lambda n, rng: rng.standard_normal((n, 1)),
            transition_sampler=lambda t, xp, rng: xp,
            log_potential=lambda t, xp, x: np.full(x.shape[0], -np.inf if t == 3 else 0.0),
        )
        with pytest.raises(DegenerateWeights) as err:
            run_smc(model, 8, 0)
        assert err.value.t == 3

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_infinite_or_nan_potential_reports_time_index(self, bad):
        def log_potential(t, xp, x):
            out = np.zeros(x.shape[0])
            if t == 3:
                out[1] = bad
            return out

        model = FeynmanKacModel(
            horizon=4,
            state_dim=1,
            initial_sampler=lambda n, rng: rng.standard_normal((n, 1)),
            transition_sampler=lambda t, xp, rng: xp,
            log_potential=log_potential,
        )
        with pytest.raises(InvalidModel) as err:
            run_smc(model, 8, 0)
        assert err.value.t == 3
        assert "t=3" in str(err.value)


class TestInfiniteLogWeights:
    """A +inf log-weight is an infinite particle weight, which no model may
    produce; it is rejected like NaN rather than resampled or summarized."""

    def test_resample_rejects_positive_infinity(self):
        with pytest.raises(InvalidModel, match=r"\+inf"):
            resample(np.array([0.0, np.inf, -1.0]), 3, generator(0))

    def test_ess_rejects_positive_infinity(self):
        with pytest.raises(InvalidModel, match=r"\+inf"):
            ess(np.array([np.inf, np.inf]))

    def test_nan_still_named_when_infinity_present(self):
        with pytest.raises(InvalidModel, match="NaN"):
            ess(np.array([np.inf, np.nan, 0.0]))


class TestTrajectoriesAndEstimators:
    def test_genealogy_matches_bruteforce_chase(self):
        params = toy_lgssm()
        _, ys = simulate_lgssm(params, 5, 13)
        ref = build_lgssm_fk(params, ys)
        trace = run_smc(ref.fk, 8, 4)
        paths = trace.trajectories()
        for n in range(8):
            idx = n
            for s in range(5, 0, -1):
                assert np.array_equal(paths[n, s - 1], trace.clouds[s - 1].particles[idx])
                idx = trace.clouds[s - 1].ancestors[idx]

    def test_constant_function_normalizes_to_one(self):
        trace = run_smc(unit_potential_model(), 16, 8)
        assert weighted_expectation(trace, 3, lambda path: 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_filtering_mean_matches_kalman(self):
        params = toy_lgssm()
        _, ys = simulate_lgssm(params, 10, 31)
        ref = build_lgssm_fk(params, ys)
        oracle = kalman(params, ys)
        reps = 100
        means = np.array(
            [
                weighted_expectation(
                    run_smc(ref.fk, 256, substream(3, r)), 10, lambda path: path[-1, 0]
                )
                for r in range(reps)
            ]
        )
        se = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - oracle.filter_means[-1, 0]) <= 3 * se

    def test_one_atom_indicator(self):
        model = FeynmanKacModel(
            horizon=3,
            state_dim=1,
            initial_sampler=lambda n, rng: np.arange(n, dtype=float)[:, None],
            transition_sampler=lambda t, xp, rng: xp,
            log_potential=lambda t, xp, x: np.where(x[:, 0] == 0.0, 0.0, -np.inf),
        )
        trace = run_smc(model, 4, 0)
        val = weighted_expectation(trace, 3, lambda path: float(np.all(path == 0.0)))
        assert val == pytest.approx(1.0)


class TestRelativeWeightVariance:
    def test_equal_weights_give_zero(self):
        trace = run_smc(unit_potential_model(), 16, 1)
        assert relative_weight_variance(trace) == pytest.approx(0.0, abs=1e-12)

    def test_two_particle_hand_value(self):
        # weights (2c, 0) at the only step: n/ESS - 1 = 2/1 - 1 = 1 for any c > 0
        for c in [1e-8, 1.0, 1e8]:
            model = FeynmanKacModel(
                horizon=1,
                state_dim=1,
                initial_sampler=lambda n, rng: np.arange(n, dtype=float)[:, None],
                transition_sampler=lambda t, xp, rng: xp,
                log_potential=lambda t, xp, x, c=c: np.where(
                    x[:, 0] == 0.0, np.log(2 * c), -np.inf
                ),
            )
            trace = run_smc(model, 2, 0)
            assert relative_weight_variance(trace) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_one_step_leaves_value_unchanged(self):
        params = toy_lgssm()
        _, ys = simulate_lgssm(params, 6, 17)
        ref = build_lgssm_fk(params, ys)
        trace = run_smc(ref.fk, 32, 12)
        value = relative_weight_variance(trace)
        scaled_clouds = list(trace.clouds)
        c2 = scaled_clouds[2]
        scaled_clouds[2] = type(c2)(
            t=c2.t,
            particles=c2.particles,
            log_weights=c2.log_weights + 5.0,
            ancestors=c2.ancestors,
        )
        rescaled = type(trace)(
            clouds=tuple(scaled_clouds),
            log_z_increments=trace.log_z_increments,
            ess_path=np.array(
                [ess(c.log_weights) for c in scaled_clouds]
            ),
            kernel_sample_count=trace.kernel_sample_count,
        )
        assert relative_weight_variance(rescaled) == pytest.approx(value, rel=1e-12)
