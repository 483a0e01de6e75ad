"""Benchmark models, the exact filter, and data ingestion."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from twistsmc import (
    IngestError,
    InvalidModel,
    LgssmParams,
    MsvParams,
    NlObsParams,
    build_msv_fk,
    build_nlobs_fk,
    kalman,
    load_fx_returns,
    run_smc,
    simulate_lgssm,
    simulate_msv,
    simulate_nlobs,
)
from twistsmc.models import read_dataset_csv, tridiagonal_is_pd, write_dataset_csv
from twistsmc.rng import substream


class TestSimulateNlobs:
    def test_noiseless_dynamics_are_exact(self):
        params = NlObsParams(alpha=0.5, sigma_x2=0.0, sigma_y2=0.0, T=6)
        xs, ys = simulate_nlobs(params, 0, x1=1.0)
        expected_x = 0.5 ** np.arange(6)
        assert np.allclose(xs, expected_x, rtol=0, atol=0)
        assert np.allclose(ys, np.exp(expected_x) + expected_x / 10.0, rtol=0, atol=0)

    def test_initial_variance_is_stationary(self):
        params = NlObsParams(alpha=0.9, sigma_x2=0.1, sigma_y2=0.01, T=1)
        draws = np.array([simulate_nlobs(params, s)[0][0] for s in range(100_000)])
        target = params.stationary_var
        # var(x^2) for a Gaussian is 2 var^2; 3-sigma band for the MC average
        se = np.sqrt(2.0 * target**2 / draws.size)
        assert abs(draws.var() - target) <= 3 * se

    def test_lag_one_autocorrelation(self):
        params = NlObsParams(alpha=0.8, sigma_x2=0.2, sigma_y2=0.01, T=10_000)
        xs, _ = simulate_nlobs(params, 4)
        x0, x1 = xs[:-1], xs[1:]
        corr = np.corrcoef(x0, x1)[0, 1]
        se = (1.0 - params.alpha**2) / np.sqrt(xs.size)
        assert abs(corr - params.alpha) <= 3 * se

    def test_stationarity_enforced(self):
        with pytest.raises(InvalidModel):
            NlObsParams(alpha=1.0, sigma_x2=0.1, sigma_y2=0.1, T=5)


class TestBuildNlobsFk:
    def test_potential_at_emission_mode(self):
        params = NlObsParams(alpha=0.5, sigma_x2=0.1, sigma_y2=0.04, T=3)
        xs, ys = simulate_nlobs(params, 1)
        ref = build_nlobs_fk(params, ys)
        # solve f(x) = y_2 by bisection, then the potential is the density peak
        lo, hi = -20.0, 20.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if np.exp(mid) + mid / 10.0 < ys[1]:
                lo = mid
            else:
                hi = mid
        x_star = np.array([[(lo + hi) / 2]])
        val = ref.fk.log_potential(2, None, x_star)[0]
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi * params.sigma_y2), abs=1e-8)

    def test_linear_hook_recovers_lgssm(self):
        params = NlObsParams(alpha=0.7, sigma_x2=0.3, sigma_y2=0.2, T=8)
        xs, ys = simulate_nlobs(params, 9, observation_fn=lambda x: 2.0 * x)
        ref = build_nlobs_fk(params, ys, observation_fn=lambda x: 2.0 * x)
        oracle = kalman(
            LgssmParams(
                trans_matrix=[[params.alpha]],
                trans_cov=[[params.sigma_x2]],
                obs_matrix=[[2.0]],
                obs_cov=[[params.sigma_y2]],
                initial_mean=[0.0],
                initial_cov=[[params.stationary_var]],
            ),
            ys,
        )
        reps = 300
        zs = np.array(
            [
                np.exp(run_smc(ref.fk, 128, substream(5, r)).log_z_total - oracle.log_z_total)
                for r in range(reps)
            ]
        )
        se = zs.std(ddof=1) / np.sqrt(reps)
        assert abs(zs.mean() - 1.0) <= 3 * se

    def test_potential_finite_for_finite_states(self):
        params = NlObsParams(alpha=0.5, sigma_x2=0.1, sigma_y2=0.01, T=2)
        _, ys = simulate_nlobs(params, 3)
        ref = build_nlobs_fk(params, ys)
        x = np.array([[-30.0], [0.0], [5.0]])
        assert np.all(np.isfinite(ref.fk.log_potential(1, None, x)))


class TestMsv:
    def params(self, d=3):
        return MsvParams(
            m=np.linspace(-1.0, -0.5, d),
            alpha=np.full(d, 0.9),
            sigma2=np.linspace(0.2, 0.4, d),
            rho=np.full(d - 1, 0.25),
        )

    def test_scalar_stationary_variance(self):
        p = MsvParams(m=[0.0], alpha=[0.8], sigma2=[0.5], rho=np.zeros(0))
        assert p.stationary_cov[0, 0] == pytest.approx(0.5 / (1 - 0.64), rel=1e-12)

    def test_stationary_cov_solves_fixed_point(self):
        p = self.params(4)
        a = np.diag(p.alpha)
        resid = p.stationary_cov - (a @ p.stationary_cov @ a + p.transition_cov)
        assert np.max(np.abs(resid)) <= 1e-12

    def test_non_pd_covariance_rejected(self):
        # neighbour correlations of 0.9 on a 3-chain are infeasible:
        # the tridiagonal correlation matrix has eigenvalue 1 - 0.9 sqrt(2) < 0
        with pytest.raises(InvalidModel):
            MsvParams(m=np.zeros(3), alpha=np.full(3, 0.9), sigma2=np.full(3, 0.2), rho=[0.9, 0.9])
        # near the two-dimensional boundary the matrix stays PD and is accepted
        MsvParams(m=np.zeros(2), alpha=np.full(2, 0.9), sigma2=np.full(2, 0.2), rho=[0.999999])

    def test_tridiagonal_condition_matches_cholesky(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            d = int(rng.integers(2, 9))
            rho = rng.uniform(-0.95, 0.95, d - 1)
            corr = np.eye(d) + np.diag(rho, 1) + np.diag(rho, -1)
            try:
                np.linalg.cholesky(corr)
                pd = True
            except np.linalg.LinAlgError:
                pd = False
            assert tridiagonal_is_pd(rho) == pd, rho

    def test_emission_potential_matches_gaussian_density(self):
        p = self.params(2)
        ys = np.array([[0.3, -0.2]])
        ref = build_msv_fk(p, ys)
        x = np.array([[-1.0, -2.0]])
        expected = sum(
            -0.5 * (np.log(2 * np.pi) + x[0, i] + ys[0, i] ** 2 * np.exp(-x[0, i]))
            for i in range(2)
        )
        assert ref.fk.log_potential(1, None, x)[0] == pytest.approx(expected, rel=1e-12)

    def test_simulated_moments(self):
        p = self.params(2)
        xs, ys = simulate_msv(p, 20_000, 11)
        assert np.allclose(xs.mean(axis=0), p.m, atol=0.15)
        # returns are centered with variance exp(x)
        assert abs(np.mean(ys[:, 0] ** 2) - np.mean(np.exp(xs[:, 0]))) <= 0.1


class TestKalman:
    def test_scalar_single_step_hand_value(self):
        params = LgssmParams(
            trans_matrix=[[1.0]],
            trans_cov=[[1.0]],
            obs_matrix=[[1.0]],
            obs_cov=[[1.0]],
            initial_mean=[0.0],
            initial_cov=[[1.0]],
        )
        out = kalman(params, np.array([[0.0]]))
        # marginal of y_1 is N(0, 2)
        assert out.log_z_total == pytest.approx(-0.5 * np.log(4 * np.pi), rel=1e-12)

    def test_zero_observation_matrix_ignores_state(self):
        params = LgssmParams(
            trans_matrix=[[0.9]],
            trans_cov=[[1.0]],
            obs_matrix=[[0.0]],
            obs_cov=[[2.0]],
            initial_mean=[5.0],
            initial_cov=[[1.0]],
        )
        ys = np.array([[0.4], [-1.0], [2.0]])
        out = kalman(params, ys)
        expected = sum(
            -0.5 * (np.log(2 * np.pi * 2.0) + y**2 / 2.0) for y in ys[:, 0]
        )
        assert out.log_z_total == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_dense_joint_gaussian(self, seed):
        rng = np.random.default_rng(seed)
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 4))
        T = int(rng.integers(2, 6))
        F = 0.5 * rng.standard_normal((dx, dx))
        Q = np.eye(dx) * rng.uniform(0.5, 1.5)
        C = rng.standard_normal((dy, dx))
        R = np.eye(dy) * rng.uniform(0.5, 1.5)
        u = rng.standard_normal(dx) * 0.3
        mu = rng.standard_normal(dx)
        S1 = np.eye(dx)
        params = LgssmParams(
            trans_matrix=F, trans_cov=Q, obs_matrix=C, obs_cov=R,
            initial_mean=mu, initial_cov=S1, trans_offset=u,
        )
        _, ys = simulate_lgssm(params, T, seed + 100)

        # dense oracle: joint Gaussian of x_{1:T}, pushed through the
        # observation map, evaluated at the stacked observations
        mean_x = np.zeros(T * dx)
        mean_x[:dx] = mu
        for t in range(1, T):
            mean_x[t * dx : (t + 1) * dx] = F @ mean_x[(t - 1) * dx : t * dx] + u
        cov_x = np.zeros((T * dx, T * dx))
        cov_x[:dx, :dx] = S1
        for t in range(1, T):
            for s in range(t):
                blk = cov_x[(t - 1) * dx : t * dx, s * dx : (s + 1) * dx]
                cov_x[t * dx : (t + 1) * dx, s * dx : (s + 1) * dx] = F @ blk
                cov_x[s * dx : (s + 1) * dx, t * dx : (t + 1) * dx] = (F @ blk).T
            cov_x[t * dx : (t + 1) * dx, t * dx : (t + 1) * dx] = (
                F @ cov_x[(t - 1) * dx : t * dx, (t - 1) * dx : t * dx] @ F.T + Q
            )
        big_c = np.kron(np.eye(T), C)
        mean_y = big_c @ mean_x
        cov_y = big_c @ cov_x @ big_c.T + np.kron(np.eye(T), R)
        dense = multivariate_normal(mean=mean_y, cov=cov_y).logpdf(ys.reshape(-1))
        ours = kalman(params, ys).log_z_total
        assert ours == pytest.approx(dense, rel=1e-10, abs=1e-10)


class TestFxLoader:
    def write(self, tmp_path, rows, header="date,USD,EUR,INR"):
        path = tmp_path / "fx.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_constant_series_gives_zero_returns(self, tmp_path):
        rows = [f"2001-0{m}-01,100,50,7" for m in range(1, 5)]
        out = load_fx_returns(self.write(tmp_path, rows), ["USD", "EUR"])
        assert out.shape == (3, 2)
        assert np.allclose(out, 0.0)

    def test_two_rows_single_return(self, tmp_path):
        rows = ["2001-01-01,100,50,7", "2001-02-01,110,50,7"]
        out = load_fx_returns(self.write(tmp_path, rows), ["USD"])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.log(1.1), rel=1e-12)

    def test_missing_cell_reports_row_and_column(self, tmp_path):
        rows = ["2001-01-01,100,50,7", "2001-02-01,,50,7", "2001-03-01,105,50,7"]
        with pytest.raises(IngestError) as err:
            load_fx_returns(self.write(tmp_path, rows), ["USD", "EUR"])
        assert err.value.row == 3
        assert err.value.column == "USD"

    def test_missing_rows_droppable_with_flag(self, tmp_path):
        rows = ["2001-01-01,100,50,7", "2001-02-01,,50,7", "2001-03-01,105,50,7"]
        out = load_fx_returns(
            self.write(tmp_path, rows), ["USD"], allow_missing_rows=True
        )
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.log(1.05), rel=1e-12)

    def test_non_monotone_dates_rejected(self, tmp_path):
        rows = ["2001-02-01,100,50,7", "2001-01-01,101,50,7"]
        with pytest.raises(IngestError):
            load_fx_returns(self.write(tmp_path, rows), ["USD"])

    def test_dropping_a_currency_narrows_width(self, tmp_path):
        rows = [f"2001-0{m}-01,10{m},5{m},{m}" for m in range(1, 6)]
        full = load_fx_returns(self.write(tmp_path, rows), ["USD", "EUR", "INR"])
        dropped = load_fx_returns(self.write(tmp_path, rows), ["USD", "EUR"])
        assert full.shape[1] == 3
        assert dropped.shape[1] == 2
        assert np.allclose(full[:, :2], dropped)

    def test_date_range_clipping(self, tmp_path):
        rows = [f"2001-0{m}-01,10{m},50,7" for m in range(1, 7)]
        out = load_fx_returns(
            self.write(tmp_path, rows), ["USD"], start="2001-02-01", end="2001-05-01"
        )
        assert out.shape == (3, 1)


class TestDatasetRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        params = NlObsParams(alpha=0.9, sigma_x2=0.1, sigma_y2=0.01, T=12)
        xs, ys = simulate_nlobs(params, 3)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, xs, ys, {"seed": 3})
        xs2, ys2 = read_dataset_csv(path)
        assert np.array_equal(xs2[:, 0], xs)
        assert np.array_equal(ys2[:, 0], ys)
