"""Closed-form Gaussian twisting, policies, and twisted-model assembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import cho_solve

from twistsmc import (
    InvalidTwist,
    LgssmParams,
    LogQuadraticTwist,
    TwistPolicy,
    build_lgssm_fk,
    build_twisted_model,
    compose_potential_twist,
    psd_floor,
    run_smc,
    simulate_lgssm,
    twist_gaussian,
)
from twistsmc.rng import substream
from twistsmc.twist import _CovFactor, _TwistedKernel, default_psd_epsilon, integrate_twist_affine


def random_valid_twist(rng, d, cov, scale=0.6):
    """A twist whose quadratic term keeps cov^-1 + A comfortably PD."""
    prec = np.linalg.inv(cov)
    lam_min = np.linalg.eigvalsh(prec).min()
    raw = rng.standard_normal((d, d))
    a = (raw + raw.T) / 2.0
    a *= scale * lam_min / max(np.abs(np.linalg.eigvalsh(a)).max(), 1e-12)
    return LogQuadraticTwist(a, rng.standard_normal(d) * 0.5, float(rng.standard_normal()))


def random_cov(rng, d):
    m = rng.standard_normal((d, d))
    return m @ m.T + d * np.eye(d)


class TestTwistGaussian:
    def test_identity_twist_is_exact_passthrough(self):
        mean = np.array([1.5, -2.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        tm, tc, le = twist_gaussian(mean, cov, LogQuadraticTwist.identity(2))
        assert tm is mean and tc is cov
        assert le == 0.0

    def test_scalar_hand_value(self):
        tw = LogQuadraticTwist(np.array([[1.0]]), np.zeros(1), 0.0)
        tm, tc, le = twist_gaussian(np.zeros(1), np.eye(1), tw)
        assert tm[0] == pytest.approx(0.0, abs=1e-15)
        assert tc[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert le == pytest.approx(-0.5 * np.log(2.0), rel=1e-12)

    def test_scalar_integral_against_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mean = np.array([rng.normal()])
            cov = np.array([[rng.uniform(0.3, 2.0)]])
            tw = random_valid_twist(rng, 1, cov)
            _, _, le = twist_gaussian(mean, cov, tw)

            def integrand(x):
                phi = np.exp(-0.5 * tw.A[0, 0] * x**2 - tw.b[0] * x - 0.5 * tw.c)
                dens = np.exp(-0.5 * (x - mean[0]) ** 2 / cov[0, 0]) / np.sqrt(
                    2 * np.pi * cov[0, 0]
                )
                return phi * dens

            val, _ = quad(integrand, -40, 40, limit=200)
            assert np.exp(le) == pytest.approx(val, rel=1e-8)

    def test_batch_integral_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        d = 3
        cov = random_cov(rng, d)
        tw = random_valid_twist(rng, d, cov)
        means = rng.standard_normal((4, d))
        _, _, le = twist_gaussian(means, cov, tw)
        chol = np.linalg.cholesky(cov)
        n_mc = 400_000
        z = rng.standard_normal((n_mc, d))
        for i in range(4):
            draws = means[i] + z @ chol.T
            vals = np.exp(tw.log_values(draws))
            mc = vals.mean()
            se = vals.std(ddof=1) / np.sqrt(n_mc)
            assert abs(np.exp(le[i]) - mc) <= 3 * se

    def test_invalid_twist_raises(self):
        tw = LogQuadraticTwist(np.array([[-2.0]]), np.zeros(1), 0.0)
        with pytest.raises(InvalidTwist):
            twist_gaussian(np.zeros(1), np.eye(1), tw)

    def test_batch_means_match_single_calls(self):
        rng = np.random.default_rng(4)
        cov = random_cov(rng, 2)
        tw = random_valid_twist(rng, 2, cov)
        means = rng.standard_normal((5, 2))
        tm_b, tc_b, le_b = twist_gaussian(means, cov, tw)
        for i in range(5):
            tm, tc, le = twist_gaussian(means[i], cov, tw)
            assert np.allclose(tm, tm_b[i], rtol=1e-13)
            assert np.allclose(tc, tc_b, rtol=1e-13)
            assert le == pytest.approx(le_b[i], rel=1e-13)


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        tw = random_valid_twist(rng, 2, np.eye(2))
        out = compose_potential_twist(tw, LogQuadraticTwist.identity(2))
        assert np.array_equal(out.A, tw.A)
        assert np.array_equal(out.b, tw.b)
        assert out.c == tw.c

    def test_self_composition_doubles(self):
        rng = np.random.default_rng(1)
        tw = random_valid_twist(rng, 3, np.eye(3))
        out = tw.compose(tw)
        assert np.allclose(out.A, 2 * tw.A)
        assert np.allclose(out.b, 2 * tw.b)
        assert out.c == pytest.approx(2 * tw.c)

    def test_pointwise_product(self):
        rng = np.random.default_rng(2)
        f = random_valid_twist(rng, 2, np.eye(2))
        g = random_valid_twist(rng, 2, np.eye(2))
        h = compose_potential_twist(f, g)
        x = rng.standard_normal((100, 2))
        lhs = np.exp(h.log_values(x))
        rhs = np.exp(f.log_values(x)) * np.exp(g.log_values(x))
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_potential_twist(
                LogQuadraticTwist.identity(2), LogQuadraticTwist.identity(3)
            )


class TestPsdFloor:
    def test_valid_matrix_returned_unchanged(self):
        a = np.array([[0.5, 0.1], [0.1, 0.3]])
        cov = np.eye(2)
        out = psd_floor(a, cov)
        assert out is a

    def test_scalar_clamp_hand_value(self):
        out = psd_floor(np.array([[-2.0]]), np.eye(1), epsilon=1e-6)
        assert out[0, 0] == pytest.approx(-1.0 + 1e-6, rel=1e-9)

    def test_projection_achieves_floor_over_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            cov = random_cov(rng, d)
            raw = rng.standard_normal((d, d)) * 3
            a = (raw + raw.T) / 2
            eps = default_psd_epsilon(cov)
            out = psd_floor(a, cov, epsilon=eps)
            lam = np.linalg.eigvalsh(np.linalg.inv(cov) + out)
            assert lam.min() >= eps * (1 - 1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        cov = random_cov(rng, 3)
        raw = rng.standard_normal((3, 3)) * 5
        a = (raw + raw.T) / 2
        once = psd_floor(a, cov)
        twice = psd_floor(once, cov)
        assert twice is once

    def test_diagonal_mode_keeps_diagonality(self):
        cov = np.array([[1.0, 0.4], [0.4, 1.0]])
        a = np.diag([-3.0, -4.0])
        out = psd_floor(a, cov, mode="diagonal")
        assert np.array_equal(out, np.diag(np.diag(out)))
        eps = default_psd_epsilon(cov)
        assert np.linalg.eigvalsh(np.linalg.inv(cov) + out).min() >= eps * (1 - 1e-8)


class TestIntegrateAffine:
    def test_matches_pointwise_integrals(self):
        rng = np.random.default_rng(7)
        d = 2
        cov = random_cov(rng, d)
        tw = random_valid_twist(rng, d, cov)
        F = rng.standard_normal((d, d)) * 0.5
        u = rng.standard_normal(d)
        eta = integrate_twist_affine(F, u, cov, tw)
        xs = rng.standard_normal((20, d))
        means = xs @ F.T + u
        _, _, le = twist_gaussian(means, cov, tw)
        assert np.allclose(eta.log_values(xs), le, rtol=1e-11, atol=1e-11)

    def test_identity_twist_integrates_to_identity(self):
        eta = integrate_twist_affine(np.eye(2), np.zeros(2), np.eye(2), LogQuadraticTwist.identity(2))
        assert eta.is_identity


def lgssm_setup(T=10, seed=0):
    params = LgssmParams(
        trans_matrix=[[0.8]],
        trans_cov=[[1.0]],
        obs_matrix=[[1.0]],
        obs_cov=[[0.25]],
        initial_mean=[0.0],
        initial_cov=[[1.0 / (1 - 0.64)]],
    )
    _, ys = simulate_lgssm(params, T, seed)
    return params, ys, build_lgssm_fk(params, ys)


class TestTwistPolicy:
    def test_final_auxiliary_weight_must_be_identity(self):
        tw = LogQuadraticTwist(np.array([[0.5]]), np.zeros(1), 0.0)
        with pytest.raises(InvalidTwist):
            TwistPolicy(twists=(tw, tw), etas=(tw, tw), log_eta0=0.0)

    def test_serialization_round_trip_is_bit_stable(self):
        params, ys, ref = lgssm_setup(T=6, seed=9)
        from twistsmc.schemes import exact_lgssm_policy

        policy = exact_lgssm_policy(params, ys)
        payload = policy.to_json_dict()
        import json

        rebuilt = TwistPolicy.from_json_dict(
            json.loads(json.dumps(payload)), ref.kernels
        )
        for a, b in zip(policy.twists, rebuilt.twists):
            assert np.array_equal(a.A, b.A)
            assert np.array_equal(a.b, b.b)
            assert a.c == b.c
        for a, b in zip(policy.etas, rebuilt.etas):
            assert np.array_equal(a.A, b.A)
        assert policy.log_eta0 == rebuilt.log_eta0

    def test_diagonal_serialization(self, tmp_path):
        params, ys, ref = lgssm_setup(T=4, seed=2)
        tws = [
            LogQuadraticTwist(np.array([[0.1 * (t + 1)]]), np.array([0.2]), 0.3)
            for t in range(4)
        ]
        policy = TwistPolicy.from_twists(tws, ref.kernels, mode="diagonal")
        path = tmp_path / "p.json"
        policy.save(path)
        loaded = TwistPolicy.load(path, ref.kernels)
        for a, b in zip(policy.twists, loaded.twists):
            assert np.array_equal(a.A, b.A) and a.c == b.c


class TestBuildTwistedModel:
    def test_identity_policy_bit_identical_to_reference(self):
        params, ys, ref = lgssm_setup(T=8, seed=1)
        policy = TwistPolicy.identity(8, 1)
        twisted = build_twisted_model(ref, policy)
        a = run_smc(ref.fk, 64, 12345)
        b = run_smc(twisted, 64, 12345)
        assert a.log_z_total == b.log_z_total
        for ca, cb in zip(a.clouds, b.clouds):
            assert np.array_equal(ca.particles, cb.particles)
            assert np.array_equal(ca.log_weights, cb.log_weights)
            assert np.array_equal(ca.ancestors, cb.ancestors)

    def test_exact_policy_flattens_weights(self):
        params, ys, ref = lgssm_setup(T=10, seed=3)
        from twistsmc.schemes import exact_lgssm_policy

        policy = exact_lgssm_policy(params, ys)
        twisted = build_twisted_model(ref, policy)
        trace = run_smc(twisted, 128, 0)
        for cloud in trace.clouds:
            w = np.exp(cloud.log_weights - cloud.log_weights.max())
            assert w.max() - w.min() <= 1e-8

    def test_final_target_preserved_for_arbitrary_policy(self):
        params, ys, ref = lgssm_setup(T=6, seed=4)
        rng = np.random.default_rng(8)
        # the first twist must be valid against the (wider) initial covariance
        tws = [random_valid_twist(rng, 1, ref.kernels.initial_cov, scale=0.4)]
        tws += [random_valid_twist(rng, 1, np.array([[1.0]]), scale=0.4) for _ in range(5)]
        policy = TwistPolicy.from_twists(tws, ref.kernels)
        twisted = build_twisted_model(ref, policy)
        reps = 400
        z_ref = np.array(
            [np.exp(run_smc(ref.fk, 64, substream(10, r)).log_z_total) for r in range(reps)]
        )
        z_tw = np.array(
            [np.exp(run_smc(twisted, 64, substream(20, r)).log_z_total) for r in range(reps)]
        )
        se = np.sqrt(z_ref.var(ddof=1) / reps + z_tw.var(ddof=1) / reps)
        assert abs(z_ref.mean() - z_tw.mean()) <= 3 * se

    def test_rejects_policy_with_wrong_final_eta(self):
        params, ys, ref = lgssm_setup(T=3, seed=5)
        tw = LogQuadraticTwist(np.array([[0.3]]), np.zeros(1), 0.0)
        good = TwistPolicy.from_twists([tw, tw, tw], ref.kernels)
        bad_etas = (good.etas[0], good.etas[0], good.etas[0])
        with pytest.raises(InvalidTwist):
            TwistPolicy(twists=good.twists, etas=bad_etas, log_eta0=good.log_eta0)

    def test_invalid_twist_for_kernel_rejected_at_build(self):
        params, ys, ref = lgssm_setup(T=3, seed=6)
        # A = -5 makes precision + A negative for the transition variance 1
        bad = LogQuadraticTwist(np.array([[-5.0]]), np.zeros(1), 0.0)
        tws = [LogQuadraticTwist.identity(1), bad, LogQuadraticTwist.identity(1)]
        with pytest.raises(InvalidTwist):
            policy = TwistPolicy.from_twists(tws, ref.kernels)
            build_twisted_model(ref, policy)


def lapack_scalar_kernel(cov: float, a: float):
    """The LAPACK route to a 1-d kernel's factors, as every dimension took
    it before the scalar construction: (chol_lam, twisted_cov,
    logdet_cov_lam).  Raises LinAlgError where LAPACK finds lambda not
    positive definite."""
    chol_cov = np.linalg.cholesky(np.array([[cov]]))
    prec = cho_solve((chol_cov, True), np.eye(1), check_finite=False)
    prec = (prec + prec.T) / 2.0
    chol_lam = np.linalg.cholesky(prec + np.array([[a]]))
    lam_inv = cho_solve((chol_lam, True), np.eye(1), check_finite=False)
    logdet = 2.0 * (np.log(np.diag(chol_cov)).sum() + np.log(np.diag(chol_lam)).sum())
    return chol_lam, (lam_inv + lam_inv.T) / 2.0, logdet


class TestScalarKernel:
    @settings(max_examples=400, deadline=None)
    @given(
        cov=st.floats(1e-8, 1e8),
        a=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e12, 1e12)),
    )
    @example(cov=1.0, a=-1.0)  # lambda exactly zero
    @example(cov=4.0, a=-0.25)
    @example(cov=3.0, a=-1.0 / 3.0)
    @example(cov=1.0, a=-0.9999999999999999)
    def test_matches_lapack_bitwise(self, cov, a):
        twist = LogQuadraticTwist(np.array([[a]]), np.array([0.3]), 0.7)
        factor = _CovFactor(np.array([[cov]]))
        try:
            chol_lam, twisted_cov, logdet = lapack_scalar_kernel(cov, a)
        except np.linalg.LinAlgError:
            with pytest.raises(InvalidTwist):
                _TwistedKernel(factor, twist)
            return
        kern = _TwistedKernel(factor, twist)
        assert kern.chol_lam.tobytes() == chol_lam.tobytes()
        assert kern.twisted_cov.tobytes() == twisted_cov.tobytes()
        assert np.float64(kern.logdet_cov_lam).tobytes() == np.float64(logdet).tobytes()

    @pytest.mark.parametrize("a", [-np.inf, np.inf])
    def test_infinite_quadratic_term_matches_lapack(self, a):
        twist = LogQuadraticTwist(np.array([[a]]), np.zeros(1), 0.0)
        try:
            ref = lapack_scalar_kernel(2.0, a)
        except np.linalg.LinAlgError:
            with pytest.raises(InvalidTwist):
                _TwistedKernel(_CovFactor(np.array([[2.0]])), twist)
            return
        kern = _TwistedKernel(_CovFactor(np.array([[2.0]])), twist)
        assert kern.chol_lam.tobytes() == ref[0].tobytes()
        assert kern.twisted_cov.tobytes() == ref[1].tobytes()

    def test_nan_precision_raises(self):
        # LAPACK's Cholesky passes a NaN pivot through; the scalar path
        # refuses any lambda that is not positive
        factor = _CovFactor(np.array([[np.nan]]))
        with pytest.raises(InvalidTwist):
            _TwistedKernel(factor, LogQuadraticTwist(np.array([[0.5]]), np.zeros(1), 0.0))

    def test_factor_dimension_must_match_twist(self):
        with pytest.raises(ValueError):
            _TwistedKernel(_CovFactor(np.eye(2)), LogQuadraticTwist.identity(1))


class TestSymmetryCheck:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            LogQuadraticTwist(np.array([[1.0, 0.5], [0.4, 1.0]]), np.zeros(2), 0.0)

    def test_rounding_asymmetry_accepted_and_symmetrized(self):
        a = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        tw = LogQuadraticTwist(a, np.zeros(2), 0.0)
        assert np.array_equal(tw.A, tw.A.T)
        assert np.array_equal(tw.A, (a + a.T) / 2.0)

    @pytest.mark.filterwarnings("ignore:One of rtol or atol is not valid")
    @pytest.mark.parametrize("d", [1, 3])
    def test_nan_quadratic_term_rejected(self, d):
        a = np.eye(d)
        a[-1, -1] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            LogQuadraticTwist(a, np.zeros(d), 0.0)
