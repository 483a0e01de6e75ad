"""Log-quadratic regression and ESS-calibrated tempering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from twistsmc import (
    LogQuadraticTwist,
    RegressionProblem,
    SingularDesign,
    ess,
    feature_count,
    fit_log_quadratic,
    temper_exponent,
)
from twistsmc.learn import _has_distinct_rows, quadratic_features


def make_targets(twist, x):
    return twist.log_values(x)


def weighted_sse(twist, x, y, w):
    resid = twist.log_values(x) - y
    return float(np.sum(w * resid**2))


def _longdouble_solve(m, v):
    """Gauss-Jordan with partial pivoting, carried out in longdouble."""
    m = m.copy()
    v = v.copy()
    n = m.shape[0]
    for i in range(n):
        p = i + int(np.argmax(np.abs(m[i:, i])))
        m[[i, p]] = m[[p, i]]
        v[[i, p]] = v[[p, i]]
        v[i] = v[i] / m[i, i]
        m[i] = m[i] / m[i, i]
        for j in range(n):
            if j != i:
                v[j] = v[j] - m[j, i] * v[i]
                m[j] = m[j] - m[j, i] * m[i]
    return v


def longdouble_wls_oracle(x, y, lw, mode):
    """Independent weighted least squares at extended precision: build the
    monomial design by hand and solve the normal equations in longdouble."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    w = np.exp(np.asarray(lw, dtype=np.longdouble) - np.max(lw))
    w /= w.sum()
    n, d = x.shape
    cols = [x[:, i] ** 2 for i in range(d)]
    if mode == "full":
        for i in range(d):
            for j in range(i + 1, d):
                cols.append(x[:, i] * x[:, j])
    cols.extend(x[:, i] for i in range(d))
    cols.append(np.ones(n, dtype=np.longdouble))
    design = np.stack(cols, axis=1)
    m = (design * w[:, None]).T @ design
    v = (design * w[:, None]).T @ y
    theta = _longdouble_solve(m, v)
    a = np.zeros((d, d), dtype=np.longdouble)
    np.fill_diagonal(a, -2.0 * theta[:d])
    pos = d
    if mode == "full":
        for i in range(d):
            for j in range(i + 1, d):
                a[i, j] = a[j, i] = -theta[pos]
                pos += 1
    b = -theta[pos : pos + d]
    c = -2.0 * theta[-1]
    return a.astype(float), b.astype(float), float(c)


class TestFitLogQuadratic:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        true = LogQuadraticTwist(np.array([[0.8, 0.1], [0.1, 0.5]]), np.array([0.3, -0.2]), 1.7)
        x = rng.standard_normal((60, 2))
        y = make_targets(true, x)
        lw = rng.normal(size=60)
        fit = fit_log_quadratic(
            RegressionProblem(prev_states=None, states=x, log_targets=y, log_weights=lw, mode="full")
        )
        assert np.max(np.abs(fit.A - true.A)) <= 1e-8
        assert np.max(np.abs(fit.b - true.b)) <= 1e-8
        assert abs(fit.c - true.c) <= 1e-8

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 1))
        kappa = 2.5
        fit = fit_log_quadratic(
            RegressionProblem(
                prev_states=None,
                states=x,
                log_targets=np.full(40, kappa),
                log_weights=None,
                mode="diagonal",
            )
        )
        assert abs(fit.A[0, 0]) <= 1e-10
        assert abs(fit.b[0]) <= 1e-10
        assert fit.c == pytest.approx(-2.0 * kappa, rel=1e-10)

    def test_noisy_fit_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 2))
        true = LogQuadraticTwist(np.diag([0.6, 0.9]), np.array([0.1, -0.4]), 0.5)
        y = make_targets(true, x) + 0.3 * rng.standard_normal(200)
        lw = rng.normal(size=200)
        fit = fit_log_quadratic(
            RegressionProblem(prev_states=None, states=x, log_targets=y, log_weights=lw, mode="diagonal")
        )
        a_o, b_o, c_o = longdouble_wls_oracle(x, y, lw, "diagonal")
        assert np.max(np.abs(fit.A - a_o)) <= 1e-6
        assert np.max(np.abs(fit.b - b_o)) <= 1e-6
        assert abs(fit.c - c_o) <= 1e-6

    def test_weight_rescaling_is_bitwise_noop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 1))
        y = make_targets(LogQuadraticTwist(np.array([[0.4]]), np.array([0.2]), -0.3), x)
        y = y + 0.1 * rng.standard_normal(50)
        lw = rng.integers(-6, 0, size=50).astype(float)
        fit1 = fit_log_quadratic(
            RegressionProblem(prev_states=None, states=x, log_targets=y, log_weights=lw, mode="diagonal")
        )
        fit2 = fit_log_quadratic(
            RegressionProblem(
                prev_states=None, states=x, log_targets=y, log_weights=lw + 3.0, mode="diagonal"
            )
        )
        assert np.array_equal(fit1.A, fit2.A)
        assert np.array_equal(fit1.b, fit2.b)
        assert fit1.c == fit2.c

    def test_fit_beats_random_candidates(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((120, 1))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(120)  # not representable
        lw = rng.normal(size=120)
        fit = fit_log_quadratic(
            RegressionProblem(prev_states=None, states=x, log_targets=y, log_weights=lw, mode="diagonal")
        )
        w = np.exp(lw - np.max(lw))
        w /= w.sum()
        best = weighted_sse(fit, x, y, w)
        for _ in range(1000):
            cand = LogQuadraticTwist(
                np.array([[rng.normal()]]), np.array([rng.normal()]), float(rng.normal())
            )
            assert weighted_sse(cand, x, y, w) >= best - 1e-12

    def test_infinite_targets_excluded_with_mass(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 1))
        true = LogQuadraticTwist(np.array([[0.4]]), np.array([-0.1]), 0.2)
        y = make_targets(true, x)
        y[:5] = -np.inf
        fit = fit_log_quadratic(
            RegressionProblem(prev_states=None, states=x, log_targets=y, log_weights=None, mode="diagonal")
        )
        assert np.max(np.abs(fit.A - true.A)) <= 1e-8

    def test_too_few_usable_points_raise(self):
        x = np.linspace(-1, 1, 10)[:, None]
        y = np.full(10, -np.inf)
        y[0] = 1.0
        with pytest.raises(SingularDesign):
            fit_log_quadratic(
                RegressionProblem(prev_states=None, states=x, log_targets=y, log_weights=None, mode="diagonal")
            )

    def test_one_atom_cloud_raises(self):
        x = np.zeros((50, 1))
        y = np.ones(50)
        with pytest.raises(SingularDesign):
            fit_log_quadratic(
                RegressionProblem(prev_states=None, states=x, log_targets=y, log_weights=None, mode="diagonal")
            )

    def test_projection_then_refit_never_hurts(self):
        # target curves upward (A < 0 unconstrained); the constrained fit must
        # clamp A and re-fitting b, c cannot increase the weighted error
        # relative to keeping the unconstrained b, c with the clamped A
        rng = np.random.default_rng(6)
        x = rng.standard_normal((150, 1)) * 1.5
        y = 0.9 * x[:, 0] ** 2 + 0.1 * rng.standard_normal(150)  # log f grows: A approx -1.8
        lw = np.zeros(150)
        cov = np.array([[1.0]])
        refit = fit_log_quadratic(
            RegressionProblem(
                prev_states=None, states=x, log_targets=y, log_weights=lw,
                mode="diagonal", constraint_cov=cov,
            )
        )
        raw = fit_log_quadratic(
            RegressionProblem(
                prev_states=None, states=x, log_targets=y, log_weights=lw,
                mode="diagonal", constraint_cov=cov, refit_after_projection=False,
            )
        )
        assert np.array_equal(refit.A, raw.A)  # same projected quadratic term
        # precision + A must respect the floor
        assert 1.0 + refit.A[0, 0] > 0
        w = np.full(150, 1.0 / 150)
        assert weighted_sse(refit, x, y, w) <= weighted_sse(raw, x, y, w) + 1e-12

    def test_feature_counts(self):
        assert feature_count(1, "diagonal") == 3
        assert feature_count(1, "full") == 3
        assert feature_count(3, "diagonal") == 7
        assert feature_count(3, "full") == 10
        assert quadratic_features(np.zeros((5, 3)), "full").shape == (5, 10)


class TestTemperExponent:
    def test_uniform_weights_untempered(self):
        out = temper_exponent(np.zeros(50), 10.0)
        assert out.alpha == 1.0
        assert out.achieved_ess == pytest.approx(50.0)

    def test_flattening_limit(self):
        # two finite weights but a target of 1.9: alpha collapses toward zero
        # and the tempered weights become uniform over the finite entries
        lw = np.array([0.0, -200.0, -np.inf, -np.inf])
        out = temper_exponent(lw, 1.9, tolerance=0.01)
        assert out.achieved_ess == pytest.approx(1.9, abs=0.01)
        assert out.alpha < 0.1

    def test_matches_grid_search(self):
        lw = np.concatenate([[0.0], np.full(99, -50.0)])
        target = 20.0
        out = temper_exponent(lw, target, tolerance=0.5)
        assert abs(out.achieved_ess - target) <= 0.5
        grid = np.linspace(1e-6, 1.0, 20001)
        shifted = lw - lw.max()
        ess_grid = np.array([ess(a * shifted) for a in grid])
        best = grid[np.argmin(np.abs(ess_grid - target))]
        assert abs(out.alpha - best) <= 2e-3

    def test_random_inputs_hit_target(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(20, 200))
            lw = rng.normal(scale=rng.uniform(5, 40), size=n)
            target = float(rng.uniform(2, n / 2))
            out = temper_exponent(lw, target, tolerance=0.5)
            if out.alpha < 1.0:
                assert abs(out.achieved_ess - target) <= 0.5
            else:
                assert ess(lw) >= target

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            temper_exponent(np.zeros(5), 0.5)
        with pytest.raises(ValueError):
            temper_exponent(np.zeros(5), 5.0)


class TestDistinctRows:
    """The first-column shortcut against the row-wise unique it stands in
    for."""

    @pytest.mark.parametrize(
        "pts, p",
        [
            # repeated first column, distinct rows: the shortcut cannot decide
            (np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0]]), 4),
            (np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]), 4),
            (np.full((5, 2), 3.0), 2),  # all rows equal
            (np.arange(4.0)[:, None], 5),  # fewer rows than features
            (np.arange(6.0).reshape(3, 2), 3),
        ],
    )
    def test_matches_unique(self, pts, p):
        assert _has_distinct_rows(pts, p) == (np.unique(pts, axis=0).shape[0] >= p)

    @settings(max_examples=300, deadline=None)
    @given(
        pts=hnp.arrays(
            float,
            st.tuples(st.integers(1, 10), st.integers(1, 3)),
            elements=st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.5, np.nan]),
        ),
        p=st.integers(1, 9),
    )
    def test_matches_unique_on_repeated_values(self, pts, p):
        assert _has_distinct_rows(pts, p) == (np.unique(pts, axis=0).shape[0] >= p)

    def test_duplicated_cloud_raises_singular_design(self):
        # two distinct points repeated: fewer distinct rows than 3 features
        x = np.repeat(np.array([[0.0], [1.0]]), 20, axis=0)
        with pytest.raises(SingularDesign):
            fit_log_quadratic(
                RegressionProblem(prev_states=None, states=x, log_targets=np.zeros(40), mode="diagonal")
            )
