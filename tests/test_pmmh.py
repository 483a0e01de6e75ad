"""Parameter transforms, priors, and the pseudo-marginal chain."""

import csv

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2, invgamma

from twistsmc import (
    InvalidModel,
    LgssmParams,
    ParamTransform,
    PriorSpec,
    SingularDesign,
    eval_variance_window,
    kalman,
    pmmh_run,
    simulate_lgssm,
)
from twistsmc.pmmh import (
    improper_flat_block,
    inverse_gamma_block,
    inverse_gamma_hyperparameters,
    msv_pack,
    msv_prior,
    msv_theta_init,
    msv_transform,
    triangular_block,
    uniform01_block,
    write_variance_csv,
)
from twistsmc.rng import generator


class TestTransforms:
    KINDS = {
        "identity": (-3.0, 3.0),
        "log": (0.01, 5.0),
        "logit": (0.01, 0.99),
        "logit_sym": (-0.98, 0.98),
    }

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for kind, (lo, hi) in self.KINDS.items():
            tr = ParamTransform.from_blocks([(kind, 1)])
            for _ in range(100):
                theta = np.array([rng.uniform(lo, hi)])
                back = tr.inverse(tr.forward(theta))
                assert abs(back[0] - theta[0]) <= 1e-12

    def test_log_jacobian_against_central_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for kind, (lo, hi) in self.KINDS.items():
            tr = ParamTransform.from_blocks([(kind, 1)])
            for _ in range(100):
                z = tr.forward(np.array([rng.uniform(lo, hi)]))
                deriv = (tr.inverse(z + h)[0] - tr.inverse(z - h)[0]) / (2 * h)
                assert tr.log_jacobian(z) == pytest.approx(
                    np.log(abs(deriv)), rel=1e-6, abs=1e-8
                )

    def test_block_layout(self):
        tr = msv_transform(3)
        assert tr.dim == 3 + 3 + 3 + 2
        theta = msv_theta_init(np.random.default_rng(0).normal(size=(50, 3)))
        z = tr.forward(theta)
        assert np.allclose(tr.inverse(z), theta, atol=1e-12)


class TestPriors:
    def test_inverse_gamma_hyperparameters_solve_moment_equations(self):
        shape, scale = inverse_gamma_hyperparameters(0.2, 1.0)
        assert shape == pytest.approx(2.04, abs=1e-12)
        assert scale == pytest.approx(0.208, abs=1e-12)
        # independent verification: the inverse-gamma moments hit the targets
        mean = scale / (shape - 1.0)
        var = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
        assert mean == pytest.approx(0.2, rel=1e-12)
        assert var == pytest.approx(1.0, rel=1e-12)

    def test_proper_blocks_integrate_to_one(self):
        blocks = {
            "uniform": (uniform01_block("u", 1), (0.0, 1.0)),
            "invgamma": (inverse_gamma_block("s", 1), (0.0, np.inf)),
            "triangular": (triangular_block("r", 1), (-1.0, 1.0)),
        }
        for name, (block, (lo, hi)) in blocks.items():
            total, _ = quad(
                lambda x: np.exp(block.log_density(np.array([x]))), lo, hi, limit=400
            )
            assert total == pytest.approx(1.0, abs=1e-8), name

    def test_support_boundaries(self):
        prior = msv_prior(2)
        theta = msv_theta_init(np.random.default_rng(1).normal(size=(40, 2)))
        assert np.isfinite(prior.log_density(theta))
        bad = theta.copy()
        bad[2] = 1.5  # alpha outside (0, 1)
        assert prior.log_density(bad) == -np.inf

    def test_msv_prior_support_is_msv_params_support(self):
        prior = msv_prior(3)
        theta = np.array([-1.0, -1.0, -1.0, 0.9, 0.9, 0.9, 0.2, 0.2, 0.2, 0.75, 0.75])
        with pytest.raises(InvalidModel):
            msv_pack(theta, 3)
        assert prior.log_density(theta) == -np.inf
        theta[9:] = 0.70
        msv_pack(theta, 3)
        assert np.isfinite(prior.log_density(theta))

    def test_improper_block_contributes_zero(self):
        block = improper_flat_block("m", 3)
        assert block.log_density(np.array([1e6, -1e6, 0.0])) == 0.0


def flat_prior_setup():
    prior = PriorSpec(
        blocks=(
            uniform01_block("u", 1),
            inverse_gamma_block("s", 1),
            triangular_block("r", 1),
        )
    )
    transform = ParamTransform.from_blocks([("logit", 1), ("log", 1), ("logit_sym", 1)])
    theta0 = np.array([0.5, 0.2, 0.0])
    return prior, transform, theta0


def sample_prior_directly(n, seed):
    """Oracle sampler for the proper prior blocks, via scipy and inverse CDFs."""
    rng = generator(seed)
    u = rng.random(n)
    shape, scale = inverse_gamma_hyperparameters(0.2, 1.0)
    s = invgamma.rvs(shape, scale=scale, size=n, random_state=np.random.default_rng(seed + 1))
    v = rng.random(n)
    r = np.where(v < 0.5, np.sqrt(2 * v) - 1.0, 1.0 - np.sqrt(2 * (1 - v)))
    return np.column_stack([u, s, r])


def ks_statistic(a, b):
    grid = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class TestPmmhRun:
    def test_flat_likelihood_samples_the_prior(self):
        prior, transform, theta0 = flat_prior_setup()
        chain = pmmh_run(
            estimator=lambda theta, ss: 0.0,
            prior=prior,
            transform=transform,
            theta_init=theta0,
            steps=80_000,
            proposal_cov=np.eye(3) * 1.0,
            seed=99,
        )
        thetas = chain.thetas()[10_000::10]
        direct = sample_prior_directly(thetas.shape[0], 1234)
        n, m = thetas.shape[0], direct.shape[0]
        crit = 1.628 * np.sqrt((n + m) / (n * m))  # 1% two-sample level
        for j in range(3):
            assert ks_statistic(thetas[:, j], direct[:, j]) < crit

    def test_zero_proposal_with_deterministic_estimator_always_accepts(self):
        params = LgssmParams(
            trans_matrix=[[0.7]], trans_cov=[[1.0]], obs_matrix=[[1.0]],
            obs_cov=[[0.5]], initial_mean=[0.0], initial_cov=[[1.0]],
        )
        _, ys = simulate_lgssm(params, 10, 5)

        def estimator(theta, ss):
            p = LgssmParams(
                trans_matrix=[[theta[0]]], trans_cov=[[1.0]], obs_matrix=[[1.0]],
                obs_cov=[[0.5]], initial_mean=[0.0], initial_cov=[[1.0]],
            )
            return kalman(p, ys).log_z_total

        prior = PriorSpec(blocks=(uniform01_block("alpha", 1),))
        transform = ParamTransform.from_blocks([("logit", 1)])
        chain = pmmh_run(
            estimator, prior, transform, np.array([0.7]), 50,
            proposal_cov=np.array([[0.0]]) + 1e-300, seed=3,
        )
        # the proposal never moves and the deterministic estimate ties, so the
        # acceptance ratio is exactly one at the same point
        assert chain.acceptance_rate == 1.0
        assert np.allclose(chain.thetas(), 0.7)

    def test_proposals_outside_msv_support_rejected_without_estimator_calls(self):
        # start next to the boundary where the tridiagonal covariance stops
        # being positive definite, so many proposals fall beyond it
        d = 3
        theta0 = np.array([-1.0, -1.0, -1.0, 0.9, 0.9, 0.9, 0.2, 0.2, 0.2, 0.70, 0.70])
        calls = []

        def estimator(theta, ss):
            msv_pack(theta, d)  # raises InvalidModel beyond the support
            calls.append(theta.copy())
            return float(generator(ss).normal())

        steps = 200
        chain = pmmh_run(
            estimator, msv_prior(d), msv_transform(d), theta0, steps,
            proposal_cov=np.eye(4 * d - 1) * 0.05, seed=8,
        )
        assert chain.failed_proposals == 0
        assert len(calls) < steps + 1  # some proposals never reached the estimator

    def test_current_estimate_reused_across_rejections(self):
        prior, transform, theta0 = flat_prior_setup()
        calls = []

        def estimator(theta, ss):
            calls.append(theta.copy())
            return float(generator(ss).normal())

        chain = pmmh_run(
            estimator, prior, transform, theta0, 200,
            proposal_cov=np.eye(3) * 400.0,  # huge steps: mostly rejections
            seed=17,
        )
        states = chain.states
        for prev, cur in zip(states, states[1:]):
            if not cur.accepted:
                assert cur.log_z == prev.log_z  # bit-identical reuse

    def test_posterior_matches_grid_quadrature(self):
        params = LgssmParams(
            trans_matrix=[[0.6]], trans_cov=[[1.0]], obs_matrix=[[1.0]],
            obs_cov=[[0.3]], initial_mean=[0.0], initial_cov=[[1.0]],
        )
        _, ys = simulate_lgssm(params, 40, 8)

        def loglik(a):
            p = LgssmParams(
                trans_matrix=[[a]], trans_cov=[[1.0]], obs_matrix=[[1.0]],
                obs_cov=[[0.3]], initial_mean=[0.0], initial_cov=[[1.0]],
            )
            return kalman(p, ys).log_z_total

        grid = np.linspace(1e-4, 1 - 1e-4, 2001)
        logliks = np.array([loglik(a) for a in grid])
        dens = np.exp(logliks - logliks.max())
        dens /= np.trapezoid(dens, grid)
        post_mean = np.trapezoid(grid * dens, grid)

        prior = PriorSpec(blocks=(uniform01_block("alpha", 1),))
        transform = ParamTransform.from_blocks([("logit", 1)])
        chain = pmmh_run(
            lambda theta, ss: loglik(theta[0]), prior, transform,
            np.array([0.5]), 6000, np.array([[0.4]]), seed=11,
        )
        draws = chain.thetas()[1000:, 0]
        batches = np.array_split(draws, 20)
        means = np.array([b.mean() for b in batches])
        se = means.std(ddof=1) / np.sqrt(len(batches))
        assert abs(draws.mean() - post_mean) <= 3 * se

    def test_failed_estimator_rejects_and_counts(self):
        prior, transform, theta0 = flat_prior_setup()

        def estimator(theta, ss):
            if abs(theta[2]) > 0.2:  # fail away from the center
                raise SingularDesign()
            return 0.0

        chain = pmmh_run(estimator, prior, transform, theta0, 300, np.eye(3), seed=21)
        assert chain.failed_proposals > 0
        assert all(abs(s.theta[2]) <= 0.2 for s in chain.states)

    def test_checkpoint_resume_matches_uninterrupted_chain(self, tmp_path):
        prior, transform, theta0 = flat_prior_setup()
        est = lambda theta, ss: float(generator(ss).normal())
        full = pmmh_run(
            est, prior, transform, theta0, 120, np.eye(3) * 0.5, seed=31,
        )
        ck = tmp_path / "chain.ckpt"
        pmmh_run(
            est, prior, transform, theta0, 60, np.eye(3) * 0.5, seed=31,
            checkpoint_path=str(ck), checkpoint_every=30,
        )
        resumed = pmmh_run(
            est, prior, transform, theta0, 120, np.eye(3) * 0.5, seed=31,
            checkpoint_path=str(ck), checkpoint_every=30,
        )
        tail = {s.step: s for s in full.states}
        for s in resumed.states:
            assert s.step > 60
            assert np.array_equal(s.theta, tail[s.step].theta)
            assert s.log_z == tail[s.step].log_z


class TestVarianceWindow:
    def test_deterministic_estimator_has_zero_variance(self):
        var, fails = eval_variance_window(
            np.array([0.5]), lambda theta, ss: -12.25, replicates=10, seed=0
        )
        assert var == 0.0 and fails == 0

    def test_known_variance_within_chi2_bounds(self):
        sigma = 0.7
        reps = 40
        var, _ = eval_variance_window(
            np.zeros(1),
            lambda theta, ss: float(generator(ss).normal(0.0, sigma)),
            replicates=reps,
            seed=5,
        )
        lo = sigma**2 * chi2.ppf(0.005, reps - 1) / (reps - 1)
        hi = sigma**2 * chi2.ppf(0.995, reps - 1) / (reps - 1)
        assert lo <= var <= hi

    def test_failures_excluded_and_counted(self):
        def estimator(theta, ss):
            if generator(ss).random() < 0.3:
                raise SingularDesign()
            return float(generator(ss, 1).normal())

        var, fails = eval_variance_window(np.zeros(1), estimator, replicates=30, seed=7)
        assert fails > 0
        assert np.isfinite(var)

    def test_csv_format(self, tmp_path):
        from twistsmc.pmmh import VarianceWindow

        path = tmp_path / "var.csv"
        write_variance_csv(
            [VarianceWindow(step=100, estimator="bootstrap", variance=0.25, failures=0)], path
        )
        write_variance_csv(
            [VarianceWindow(step=100, estimator="forward", variance=0.01, failures=0)],
            path,
            append=True,
        )
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "estimator", "variance"]
        assert rows[1][:2] == ["100", "bootstrap"] and float(rows[1][2]) == 0.25
        assert rows[2][:2] == ["100", "forward"]


class TestKalmanPluggedEstimator:
    def test_exact_likelihood_gives_zero_variance_windows(self):
        params = LgssmParams(
            trans_matrix=[[0.7]], trans_cov=[[1.0]], obs_matrix=[[1.0]],
            obs_cov=[[0.5]], initial_mean=[0.0], initial_cov=[[1.0]],
        )
        _, ys = simulate_lgssm(params, 8, 2)

        def estimator(theta, ss):
            p = LgssmParams(
                trans_matrix=[[theta[0]]], trans_cov=[[1.0]], obs_matrix=[[1.0]],
                obs_cov=[[0.5]], initial_mean=[0.0], initial_cov=[[1.0]],
            )
            return kalman(p, ys).log_z_total

        prior = PriorSpec(blocks=(uniform01_block("alpha", 1),))
        transform = ParamTransform.from_blocks([("logit", 1)])
        chain = pmmh_run(
            estimator, prior, transform, np.array([0.6]), 60,
            np.array([[0.05]]), seed=13, variance_every=20, variance_reps=5,
        )
        assert len(chain.variance_windows) == 3
        assert all(w.variance == 0.0 for w in chain.variance_windows)
