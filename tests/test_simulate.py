import numpy as np
import pytest

from mafkit import (
    DegenerateSeriesError,
    ExperimentGrid,
    InvalidConfigError,
    InvalidInputError,
    SignalSpec,
    compute_maf,
    compute_pca,
    correlation_with_signal,
    gen_signal,
    gen_sn_panel,
    multi_factor_r,
    run_comparison_experiment,
    sample_covariance,
    signal_lag1_coherence,
)


class TestGenSignal:
    @pytest.mark.parametrize("kind", ["linear", "quadratic", "sinusoid-mixture"])
    def test_normalization_identities(self, kind):
        f = gen_signal(SignalSpec(kind=kind, n=500, seed=3))
        assert abs(f.sum()) < 1e-12
        assert abs(f @ f - 1.0) < 1e-12

    def test_linear_coherence_approaches_one(self):
        f = gen_signal(SignalSpec(kind="linear", n=1000))
        assert signal_lag1_coherence(f) > 0.99

    def test_piecewise_passes_through_normalized_control_points(self):
        points = ((0.0, 1.0), (0.5, -2.0), (1.0, 3.0))
        n = 101
        f = gen_signal(SignalSpec(kind="piecewise-interpolated", n=n, points=points))
        raw = np.array([v for _, v in points])
        idx = np.array([round(frac * (n - 1)) for frac, _ in points])
        # normalization is affine, so recover the map from two control points
        # and check that every control point obeys it
        assert abs(f.sum()) < 1e-12
        scale = (f[idx[2]] - f[idx[0]]) / (raw[2] - raw[0])
        shift = f[idx[0]] - scale * raw[0]
        np.testing.assert_allclose(f[idx], scale * raw + shift, atol=1e-12)

    def test_linear_and_quadratic_orthogonal(self):
        lin = gen_signal(SignalSpec(kind="linear", n=400))
        quad = gen_signal(SignalSpec(kind="quadratic", n=400))
        assert abs(lin @ quad) < 1e-10

    def test_sinusoid_deterministic_per_seed(self):
        a = gen_signal(SignalSpec(kind="sinusoid-mixture", n=200, seed=5))
        b = gen_signal(SignalSpec(kind="sinusoid-mixture", n=200, seed=5))
        np.testing.assert_array_equal(a, b)

    def test_bad_specs_rejected(self):
        with pytest.raises(InvalidInputError):
            SignalSpec(kind="sawtooth", n=100)
        with pytest.raises(InvalidInputError):
            SignalSpec(kind="piecewise-interpolated", n=100, points=((0.0, 1.0),))
        with pytest.raises(InvalidInputError):
            SignalSpec(kind="linear", n=2)


class TestGenSnPanel:
    def test_zero_strengths_give_pure_noise_covariance(self):
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=20_000, seed=1))
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        panel = gen_sn_panel(f, np.zeros(3), cov, seed=2)
        assert np.linalg.norm(sample_covariance(panel) - cov) < 0.05

    def test_column_variance_is_signal_plus_noise(self):
        n = 20_000
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=n, seed=4))
        b = np.array([0.8, 0.4, 0.2])
        panel = gen_sn_panel(f, b, (0.0, 1.0), seed=3)
        observed = panel.values.var(axis=0, ddof=1)
        expected = b ** 2 + 1.0
        # 3 Monte Carlo standard errors of a variance estimate
        se = expected * np.sqrt(2.0 / n)
        assert np.all(np.abs(observed - expected) < 3.0 * se + 0.02)

    def test_deterministic_per_seed(self):
        f = gen_signal(SignalSpec(kind="linear", n=100))
        a = gen_sn_panel(f, [1.0, 0.5], (0.2, 1.0), seed=7)
        b = gen_sn_panel(f, [1.0, 0.5], (0.2, 1.0), seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_cross_correlation_matches_rho(self):
        f = gen_signal(SignalSpec(kind="linear", n=20_000))
        panel = gen_sn_panel(f, np.zeros(4), (0.35, 1.0), seed=11)
        corr = np.corrcoef(panel.values.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off - 0.35).max() < 3.0 / np.sqrt(20_000) + 0.02

    def test_ar1_noise_lag_structure(self):
        f = gen_signal(SignalSpec(kind="linear", n=50_000))
        panel = gen_sn_panel(f, np.zeros(2), (0.0, 1.0), seed=13, ar_phi=0.6)
        x = panel.values[:, 0]
        lag_corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag_corr - 0.6) < 0.02
        assert abs(x.var(ddof=1) - 1.0) < 0.05

    def test_unnormalized_signal_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_sn_panel(np.arange(100.0), [1.0], (0.0, 1.0), seed=1)

    def test_non_spd_noise_rejected(self):
        f = gen_signal(SignalSpec(kind="linear", n=50))
        with pytest.raises(Exception):
            gen_sn_panel(f, [1.0, 1.0], np.array([[1.0, 2.0], [2.0, 1.0]]), seed=1)


class TestSignalStatistics:
    def test_correlation_with_itself(self):
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=100, seed=9))
        assert correlation_with_signal(f, f) == pytest.approx(1.0)

    def test_orthogonal_series_near_zero(self):
        lin = gen_signal(SignalSpec(kind="linear", n=300))
        quad = gen_signal(SignalSpec(kind="quadratic", n=300))
        assert correlation_with_signal(lin, quad) < 1e-8

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            correlation_with_signal(np.ones(10), np.arange(10.0))

    def test_single_factor_r_equals_correlation(self):
        rng = np.random.default_rng(14)
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=200, seed=2))
        x = 0.7 * f + 0.1 * rng.standard_normal(200)
        assert multi_factor_r(f, x) == pytest.approx(
            correlation_with_signal(x, f), abs=1e-12
        )

    def test_spanning_factors_give_one(self):
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=150, seed=6))
        factors = np.column_stack([0.5 * f + 1.0, np.arange(150.0)])
        assert multi_factor_r(f, factors) == pytest.approx(1.0)

    def test_rank_deficient_factors_rejected(self):
        f = gen_signal(SignalSpec(kind="linear", n=50))
        bad = np.column_stack([f, 2 * f])
        with pytest.raises(InvalidInputError):
            multi_factor_r(f, bad)


class TestComparisonExperiment:
    @staticmethod
    def rows_by(rows, statistic, rho=None, multiplier=None):
        out = [
            r
            for r in rows
            if r.statistic == statistic
            and (rho is None or r.rho == rho)
            and (multiplier is None or r.multiplier == multiplier)
        ]
        return out

    def test_maf_beats_pca_across_rho(self):
        grid = ExperimentGrid(
            rho_values=(0.0, 0.25, 0.5, 0.75),
            b_multipliers=(1.0,),
            base_b=(0.8, 0.4, 0.2),
            n=150,
            reps=100,
            seed=31,
        )
        rows = run_comparison_experiment(grid)
        gaps, pooled_ses = [], []
        for rho in grid.rho_values:
            maf = self.rows_by(rows, "maf1_correlation", rho=rho)[0]
            pca = self.rows_by(rows, "pca1_correlation", rho=rho)[0]
            assert maf.mean > pca.mean
            gaps.append(maf.mean - pca.mean)
            pooled_ses.append(np.hypot(maf.se, pca.se))
        # the advantage grows with noise cross-correlation (up to 1 SE slack)
        for step in range(3):
            assert gaps[step + 1] > gaps[step] - pooled_ses[step + 1]
        assert gaps[-1] > gaps[0]

    def test_maf_beats_pca_on_most_individual_draws(self):
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=150, seed=3))
        wins = 0
        for s in range(100):
            panel = gen_sn_panel(f, [0.8, 0.4, 0.2], (0.25, 1.0), seed=7000 + s)
            maf_c = correlation_with_signal(compute_maf(panel).factors[:, 0], f)
            pca_c = correlation_with_signal(compute_pca(panel).factors[:, 0], f)
            wins += maf_c > pca_c
        assert wins >= 80

    def test_correlations_increase_with_signal_strength(self):
        grid = ExperimentGrid(
            rho_values=(0.25,),
            b_multipliers=(0.5, 1.0, 1.5, 2.0, 2.5),
            base_b=(0.8, 0.4, 0.2),
            n=150,
            reps=60,
            seed=17,
        )
        rows = run_comparison_experiment(grid)
        for stat in ("maf1_correlation", "pca1_correlation"):
            means = [
                self.rows_by(rows, stat, multiplier=c)[0].mean
                for c in grid.b_multipliers
            ]
            assert np.all(np.diff(means) > -0.02)
            assert means[-1] > means[0]

    def test_deterministic_given_grid(self):
        grid = ExperimentGrid(
            rho_values=(0.25,), b_multipliers=(1.0,), base_b=(0.8, 0.4, 0.2),
            n=100, reps=5, seed=3,
        )
        assert run_comparison_experiment(grid) == run_comparison_experiment(grid)

    def test_scale_invariance_downstream(self):
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=200, seed=12))
        panel = gen_sn_panel(f, [0.8, 0.4, 0.2], (0.25, 1.0), seed=19)
        base = correlation_with_signal(compute_maf(panel).factors[:, 0], f)
        scaled = panel.values * np.array([10.0, 1.0, 1.0])
        rescaled = correlation_with_signal(compute_maf(scaled).factors[:, 0], f)
        assert abs(base - rescaled) < 1e-8

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            ExperimentGrid(
                rho_values=(0.2,), b_multipliers=(1.0,), base_b=(1.0,),
                n=100, reps=0, seed=1,
            )

    def test_negative_seeds_are_config_errors(self):
        with pytest.raises(InvalidConfigError, match="non-negative"):
            gen_signal(SignalSpec(kind="sinusoid-mixture", n=50, seed=-1))
        grid = ExperimentGrid(
            rho_values=(0.2,), b_multipliers=(1.0,), base_b=(0.8, 0.4),
            n=50, reps=3, seed=-1,
        )
        with pytest.raises(InvalidConfigError, match="non-negative"):
            run_comparison_experiment(grid)
