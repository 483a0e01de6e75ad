"""Training schemes: exactness on linear-Gaussian models, order equivalence,
cost accounting, and failure recovery."""

import numpy as np
import pytest

from twistsmc import (
    FeynmanKacModel,
    InvalidModel,
    LgssmParams,
    NlObsParams,
    SchemeConfig,
    build_lgssm_fk,
    build_nlobs_fk,
    build_twisted_model,
    controlled_smc_train,
    exact_lgssm_policy,
    forward_train,
    kalman,
    online_forward,
    run_smc,
    simulate_lgssm,
    simulate_nlobs,
)
from twistsmc.rng import as_seedseq, substream
from twistsmc.twist import GaussianReference


def toy_lgssm(rho=0.8, q=1.0, r=0.1):
    return LgssmParams(
        trans_matrix=[[rho]],
        trans_cov=[[q]],
        obs_matrix=[[1.0]],
        obs_cov=[[r]],
        initial_mean=[0.0],
        initial_cov=[[q / (1.0 - rho**2)]],
    )


def lgssm_ref(T=12, seed=7, **kw):
    params = toy_lgssm(**kw)
    _, ys = simulate_lgssm(params, T, seed)
    return params, ys, build_lgssm_fk(params, ys)


def policies_equal(p, q):
    if p.horizon != q.horizon or p.log_eta0 != q.log_eta0:
        return False
    for a, b in zip(p.twists, q.twists):
        if not (np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b) and a.c == b.c):
            return False
    for a, b in zip(p.etas, q.etas):
        if not (np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b) and a.c == b.c):
            return False
    return True


def max_rel_err(p, q, floor=1e-12):
    errs = []
    for a, b in zip(p.twists, q.twists):
        errs.append(np.max(np.abs(a.A - b.A) / (np.abs(b.A) + floor)))
        errs.append(np.max(np.abs(a.b - b.b) / (np.abs(b.b) + floor)))
        errs.append(abs(a.c - b.c) / (abs(b.c) + floor))
    return max(errs)


class TestExactPolicy:
    def test_zero_lag_is_identity(self):
        params, ys, _ = lgssm_ref()
        assert exact_lgssm_policy(params, ys, lag=0).is_identity

    def test_full_policy_initial_normalizer_is_marginal_likelihood(self):
        params, ys, _ = lgssm_ref(T=25, seed=3)
        policy = exact_lgssm_policy(params, ys)
        oracle = kalman(params, ys)
        assert policy.log_eta0 == pytest.approx(oracle.log_z_total, abs=1e-8)

    def test_large_lag_saturates_to_full(self):
        params, ys, _ = lgssm_ref(T=9, seed=5)
        assert policies_equal(
            exact_lgssm_policy(params, ys, lag=9), exact_lgssm_policy(params, ys)
        ) or max_rel_err(exact_lgssm_policy(params, ys, lag=9), exact_lgssm_policy(params, ys)) < 1e-12

    def test_full_policy_gives_constant_weights(self):
        params, ys, ref = lgssm_ref(T=15, seed=8)
        model = build_twisted_model(ref, exact_lgssm_policy(params, ys))
        trace = run_smc(model, 64, 2)
        for cloud in trace.clouds:
            rel = np.exp(cloud.log_weights - cloud.log_weights.max())
            assert rel.min() >= 1.0 - 1e-8


class TestForwardTrain:
    def test_zero_iterations_reproduce_reference_run(self):
        params, ys, ref = lgssm_ref()
        cfg = SchemeConfig(n_train=32, l_max=0, seed=44)
        run = forward_train(ref, cfg)
        assert len(run.policies) == 1 and run.policies[0].is_identity
        direct = run_smc(ref.fk, 32, substream(as_seedseq(44), 0))
        assert run.log_zs[0] == direct.log_z_total
        for ca, cb in zip(run.traces[0].clouds, direct.clouds):
            assert np.array_equal(ca.particles, cb.particles)
            assert np.array_equal(ca.log_weights, cb.log_weights)

    def test_fitted_twists_match_analytic_fixed_lag(self):
        params, ys, ref = lgssm_ref(T=10, seed=10)
        cfg = SchemeConfig(n_train=512, l_max=3, mode="full", seed=0)
        run = forward_train(ref, cfg)
        for lag in (1, 2, 3):
            exact = exact_lgssm_policy(params, ys, lag=lag)
            assert max_rel_err(run.policies[lag], exact) <= 1e-4

    def test_identity_policy_each_final_weight_is_one(self):
        # eta_T stays identically one at every iteration by construction
        params, ys, ref = lgssm_ref(T=6, seed=1)
        run = forward_train(ref, SchemeConfig(n_train=64, l_max=3, seed=2))
        for policy in run.policies:
            assert policy.etas[-1].is_identity

    def test_trained_auxiliary_weight_estimates_future_likelihood(self):
        params, ys, ref = lgssm_ref(T=10, seed=21)
        lag = 2
        run = forward_train(ref, SchemeConfig(n_train=512, l_max=lag, mode="full", seed=3))
        policy = run.policies[lag]
        rng = np.random.default_rng(0)
        for t in (1, 4, 7):  # t + lag <= T
            eta = policy.etas[t - 1]
            xs = rng.normal(scale=1.5, size=50)
            for x in xs:
                pred = kalman(
                    LgssmParams(
                        trans_matrix=params.trans_matrix,
                        trans_cov=params.trans_cov,
                        obs_matrix=params.obs_matrix,
                        obs_cov=params.obs_cov,
                        initial_mean=params.trans_matrix @ np.array([x]),
                        initial_cov=params.trans_cov,
                    ),
                    ys[t : t + lag],
                ).log_z_total
                got = eta.log_values(np.array([[x]]))[0]
                assert np.exp(got - pred) == pytest.approx(1.0, rel=1e-3)

    def test_cost_accounting(self):
        params, ys, ref = lgssm_ref(T=9)
        n = 48
        run = forward_train(ref, SchemeConfig(n_train=n, l_max=3, seed=5))
        assert run.kernel_samples[0] == n * 9
        assert all(k == 2 * n * 9 for k in run.kernel_samples[1:])
        assert all(r == 9 for r in run.regression_counts[1:])

    def test_twists_depend_only_on_their_observation_window(self):
        params, ys, _ = lgssm_ref(T=12, seed=13)
        ys2 = ys.copy()
        ys2[8:] += 25.0  # perturb y_9..y_12 (1-based)
        cfg = SchemeConfig(n_train=64, l_max=3, mode="full", seed=6)
        run_a = forward_train(build_lgssm_fk(params, ys), cfg)
        run_b = forward_train(build_lgssm_fk(params, ys2), cfg)
        for lag in (1, 2, 3):
            for t in range(1, 13):
                a = run_a.policies[lag].twists[t - 1]
                b = run_b.policies[lag].twists[t - 1]
                same = (
                    np.array_equal(a.A, b.A)
                    and np.array_equal(a.b, b.b)
                    and a.c == b.c
                )
                if t + lag - 1 <= 8:
                    assert same, f"twist ({lag},{t}) should ignore later observations"
                elif t >= 9:
                    assert not same, f"twist ({lag},{t}) must see its own observation"


class TestControlledTrain:
    def test_single_iteration_recovers_exact_policy(self):
        params, ys, ref = lgssm_ref(T=25, seed=30)
        run = controlled_smc_train(ref, SchemeConfig(n_train=512, l_max=1, mode="full", seed=7))
        exact = exact_lgssm_policy(params, ys)
        assert max_rel_err(run.policies[1], exact) <= 1e-4

    def test_zero_iterations_are_bootstrap(self):
        params, ys, ref = lgssm_ref()
        run = controlled_smc_train(ref, SchemeConfig(n_train=32, l_max=0, seed=8))
        direct = run_smc(ref.fk, 32, substream(as_seedseq(8), 0))
        assert run.log_zs[0] == direct.log_z_total

    def test_cost_accounting(self):
        params, ys, ref = lgssm_ref(T=9)
        n = 48
        run = controlled_smc_train(ref, SchemeConfig(n_train=n, l_max=2, seed=9))
        assert all(k == n * 9 for k in run.kernel_samples)
        assert all(r == 9 for r in run.regression_counts[1:])

    def test_collapsed_initial_pass_logs_failures_without_aborting(self):
        params, ys, ref = lgssm_ref(T=6, seed=2)

        def knife_edge(t, xp, x):
            # only the particle with the largest coordinate survives, so every
            # regression sees a single usable point
            out = np.full(x.shape[0], -np.inf)
            out[int(np.argmax(x[:, 0]))] = 0.0
            return out

        harsh = GaussianReference(
            fk=FeynmanKacModel(
                horizon=ref.fk.horizon,
                state_dim=1,
                initial_sampler=ref.fk.initial_sampler,
                transition_sampler=ref.fk.transition_sampler,
                log_potential=knife_edge,
            ),
            kernels=ref.kernels,
        )
        run = controlled_smc_train(harsh, SchemeConfig(n_train=16, l_max=1, seed=10))
        assert len(run.failures) == 6  # one kept twist per step
        assert all(f.kind == "singular-design" for f in run.failures)
        assert run.policies[1].is_identity  # recovery kept the previous twists
        assert run.log_zs[1] is not None

    def test_variance_collapses_after_one_iteration(self):
        params, ys, ref = lgssm_ref(T=25, seed=31)
        log_zs = []
        for r in range(16):
            run = controlled_smc_train(
                ref, SchemeConfig(n_train=256, l_max=1, mode="full", seed=0), rng=substream(50, r)
            )
            log_zs.append(run.log_zs[1])
        assert np.var(log_zs, ddof=1) <= 1e-3


class TestInvalidPotentials:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize(
        "train",
        [
            forward_train,
            lambda ref, cfg: online_forward(ref, cfg),
            lambda ref, cfg: online_forward(ref, cfg, fast=True),
        ],
        ids=["forward", "online", "fast-online"],
    )
    def test_trainers_reject_infinite_potential_naming_t(self, train, bad):
        params, ys, ref = lgssm_ref(T=6, seed=4)

        def log_potential(t, xp, x):
            out = np.asarray(ref.fk.log_potential(t, xp, x), dtype=float)
            if t == 4:
                out = out.copy()
                out[0] = bad
            return out

        model = FeynmanKacModel(
            horizon=ref.fk.horizon,
            state_dim=1,
            initial_sampler=ref.fk.initial_sampler,
            transition_sampler=ref.fk.transition_sampler,
            log_potential=log_potential,
        )
        broken = GaussianReference(fk=model, kernels=ref.kernels)
        with pytest.raises(InvalidModel) as err:
            train(broken, SchemeConfig(n_train=32, l_max=2, seed=1))
        assert err.value.t == 4


class TestOnlineEquivalence:
    def test_bit_identical_to_sweep_order_on_nonlinear_model(self):
        params = NlObsParams(alpha=0.95, sigma_x2=0.1, sigma_y2=0.02, T=20)
        _, ys = simulate_nlobs(params, 17)
        ref = build_nlobs_fk(params, ys)
        cfg = SchemeConfig(n_train=64, l_max=3, mode="diagonal", seed=23)
        sweep = forward_train(ref, cfg)
        stream = online_forward(ref, cfg)
        for lag in range(cfg.l_max + 1):
            assert policies_equal(sweep.policies[lag], stream.policies[lag])
        assert tuple(sweep.log_zs[1:]) == tuple(stream.log_zs[1:])
        assert tuple(sweep.ess_mins[1:]) == tuple(stream.ess_mins[1:])
        assert tuple(sweep.weight_variances[1:]) == tuple(stream.weight_variances[1:])

    def test_window_never_exceeds_depth_plus_one(self):
        params, ys, ref = lgssm_ref(T=30)
        for l_max in (1, 2, 4):
            run = online_forward(ref, SchemeConfig(n_train=16, l_max=l_max, seed=3))
            assert run.max_window_slices <= l_max + 1

    def test_lag_one_policy_uses_one_step_lookahead_only(self):
        params, ys, ref = lgssm_ref(T=10, seed=40)
        run = online_forward(ref, SchemeConfig(n_train=512, l_max=1, mode="full", seed=4))
        exact = exact_lgssm_policy(params, ys, lag=1)
        assert max_rel_err(run.policies[1], exact) <= 1e-4

    def test_fast_variant_costs_half(self):
        params, ys, ref = lgssm_ref(T=9)
        n = 48
        run = online_forward(ref, SchemeConfig(n_train=n, l_max=3, seed=5), fast=True)
        assert all(k == n * 9 for k in run.kernel_samples[1:])
        assert run.max_window_slices <= 4

    def test_fast_variant_learns_exact_twists_on_lgssm(self):
        params, ys, ref = lgssm_ref(T=10, seed=41)
        run = online_forward(ref, SchemeConfig(n_train=256, l_max=2, mode="full", seed=6), fast=True)
        for lag in (1, 2):
            exact = exact_lgssm_policy(params, ys, lag=lag)
            assert max_rel_err(run.policies[lag], exact) <= 1e-4


class TestVarianceImprovement:
    def test_forward_variance_shrinks_with_depth(self):
        params, ys, ref = lgssm_ref(T=15, seed=50, r=0.1)
        reps = 24
        l_max = 4
        rows = []
        boot = []
        for rep in range(reps):
            run = forward_train(
                ref,
                SchemeConfig(n_train=128, l_max=l_max, mode="full", seed=0),
                rng=substream(60, rep),
                keep_traces=False,
            )
            rows.append(run.log_zs[1:])
            boot.append(run.log_zs[0])
        rows = np.asarray(rows)
        var_boot = np.var(boot, ddof=1)
        variances = rows.var(axis=0, ddof=1)
        assert variances[-1] <= 0.05 * var_boot
        for i in range(1, l_max):
            assert variances[i] <= 1.5 * variances[i - 1]
