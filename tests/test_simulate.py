import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mafkit import (
    DegenerateSeriesError,
    ExperimentGrid,
    InvalidConfigError,
    InvalidInputError,
    SignalSpec,
    compute_maf,
    compute_pca,
    correlation_with_signal,
    empirical_snr,
    factor_autocorrelation,
    gen_signal,
    gen_sn_panel,
    loess_smooth,
    multi_factor_r,
    run_comparison_experiment,
    sample_covariance,
    signal_lag1_coherence,
)
from mafkit.cli import ingest_csv
from mafkit.datasets import example_panel_path


class TestGenSignal:
    @pytest.mark.parametrize("kind", ["linear", "quadratic", "sinusoid-mixture"])
    def test_normalization_identities(self, kind):
        f = gen_signal(SignalSpec(kind=kind, n=500, seed=3))
        assert abs(f.sum()) < 1e-12
        assert abs(f @ f - 1.0) < 1e-12

    def test_linear_coherence_approaches_one(self):
        f = gen_signal(SignalSpec(kind="linear", n=1000))
        assert signal_lag1_coherence(f) > 0.99

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
            SignalSpec(kind="piecewise-interpolated", n=100)
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


# Constant series, whose spread about their rounded mean is mostly not 0
# (np.ptp == 0 is the rule, as in compute_maf), and a non-constant series
# whose squared deviations underflow to 0.
NO_SPREAD = {f"{value}x{n}": np.full(n, value)
             for value in (0.1, 0.3, 2.7, 123.456, 1e300, 1e-300) for n in (10, 150, 3005)}


def _ramp(series):
    # a partner series as long as `series` read flat, so that a statistic that
    # flattened a block of series would return a number rather than raise
    return np.arange(float(np.size(series)))


# Every statistic of one series, as a function of that series alone.
SERIES_STATISTICS = {
    "factor_autocorrelation": factor_autocorrelation,
    "correlation_with_signal-factor": lambda s: correlation_with_signal(s, _ramp(s)),
    "correlation_with_signal-signal": lambda s: correlation_with_signal(_ramp(s), s),
    "multi_factor_r": lambda s: multi_factor_r(s, np.column_stack([_ramp(s), np.sqrt(_ramp(s))])),
    "signal_lag1_coherence": signal_lag1_coherence,
    "empirical_snr": empirical_snr,
    "loess_smooth": loess_smooth,
}


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

    @pytest.mark.parametrize("series", NO_SPREAD.values(), ids=NO_SPREAD.keys())
    def test_series_without_spread_rejected_by_every_statistic(self, series):
        ramp = np.arange(float(series.size))
        with pytest.raises(DegenerateSeriesError):
            factor_autocorrelation(series)
        with pytest.raises(DegenerateSeriesError):
            correlation_with_signal(ramp, series)
        with pytest.raises(DegenerateSeriesError):
            correlation_with_signal(series, ramp)
        with pytest.raises(DegenerateSeriesError):
            multi_factor_r(series, np.column_stack([ramp, np.sqrt(ramp)]))
        with pytest.raises(DegenerateSeriesError):
            signal_lag1_coherence(series)

    @pytest.mark.parametrize("statistic", SERIES_STATISTICS.values(), ids=SERIES_STATISTICS.keys())
    def test_only_one_finite_series_is_accepted_by_every_statistic(self, statistic):
        values = ingest_csv(example_panel_path()).values
        nan, inf = values[:, 0].copy(), values[:, 0].copy()
        nan[7], inf[7] = np.nan, np.inf
        for series in (nan, inf, values[:, :2]):
            with pytest.raises(InvalidInputError):
                statistic(series)

    @settings(max_examples=100, deadline=None)
    @given(exponent=st.floats(min_value=-300.0, max_value=300.0))
    @example(exponent=-170.0)
    @example(exponent=160.0)
    def test_statistics_are_free_of_scale(self, exponent):
        # each statistic rescales its series, and compute_maf each panel, by
        # an exact power of two first, so no square overflows or underflows
        # (a RuntimeWarning fails the test) and c * y differs from y only by
        # c's rounding
        values = ingest_csv(example_panel_path()).values
        y, f, factors = values[:, 0], values[:, 1], values[:, 2:]

        def statistics(c):
            return [empirical_snr(c * y), factor_autocorrelation(c * y),
                    correlation_with_signal(c * y, c * f), multi_factor_r(c * f, c * factors),
                    signal_lag1_coherence(c * f)]

        c = 10.0 ** exponent
        np.testing.assert_allclose(statistics(c), statistics(1.0), rtol=1e-14)
        # autocorrelations lie in [-1, 1], and c's rounding moves the one
        # near 0 (-0.0096) by a few ulps of 1, so they are compared absolutely
        np.testing.assert_allclose(compute_maf(c * values).autocorrelations,
                                   compute_maf(values).autocorrelations, rtol=0.0, atol=1e-14)

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

    def test_factors_of_three_dimensions_rejected(self):
        f = gen_signal(SignalSpec(kind="linear", n=50))
        factors = np.random.default_rng(3).standard_normal((50, 2, 1))
        with pytest.raises(InvalidInputError, match=r"got shape \(50, 2, 1\)"):
            multi_factor_r(f, factors)


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
        with pytest.raises(InvalidInputError, match="non-negative"):
            ExperimentGrid(rho_values=(0.2,), b_multipliers=(1.0, float("nan")),
                           base_b=(0.8, 0.4), n=50, reps=3, seed=1)
        for base_b in [(), (0.8, float("nan")), (float("inf"),)]:
            with pytest.raises(InvalidInputError, match="base signal strengths"):
                ExperimentGrid(rho_values=(0.2,), b_multipliers=(1.0,), base_b=base_b,
                               n=50, reps=3, seed=1)

    def test_negative_seeds_are_config_errors(self):
        with pytest.raises(InvalidConfigError, match="non-negative"):
            gen_signal(SignalSpec(kind="sinusoid-mixture", n=50, seed=-1))
        grid = ExperimentGrid(
            rho_values=(0.2,), b_multipliers=(1.0,), base_b=(0.8, 0.4),
            n=50, reps=3, seed=-1,
        )
        with pytest.raises(InvalidConfigError, match="non-negative"):
            run_comparison_experiment(grid)
