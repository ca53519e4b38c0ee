import numpy as np
import pytest
import scipy.stats

from mafkit import (
    DegenerateSeriesError,
    InvalidConfigError,
    SignalSpec,
    SmootherConfig,
    SnModelSpec,
    gen_signal,
    gen_sn_panel,
    power_curve,
    resample_maf,
    select_num_factors,
    signal_presence_test,
)

from conftest import resample_indices


def smooth_signal(n=150, seed=3):
    return gen_signal(SignalSpec(kind="sinusoid-mixture", n=n, seed=seed))


def strong_panel(seed=1, n=150):
    return gen_sn_panel(smooth_signal(n), [0.8, 0.4, 0.2], (0.25, 1.0), seed=seed)


def noise_panel(seed=2, n=150):
    return gen_sn_panel(smooth_signal(n), [0.0, 0.0, 0.0], (0.25, 1.0), seed=seed)


class TestResampleMaf:
    def test_noiseless_panel_replicates_identical(self):
        # degree-2 smoother reproduces polynomial series, so residuals vanish
        n = 80
        lin = gen_signal(SignalSpec(kind="linear", n=n))
        quad = gen_signal(SignalSpec(kind="quadratic", n=n))
        panel = np.column_stack([lin + 0.5 * quad, quad - 0.3 * lin])
        cfg = SmootherConfig(span_fraction=0.5, degree=2)
        env = resample_maf(panel, B=20, cfg=cfg, n_factors=2, seed=0)
        for j in range(2):
            spread = np.abs(env.replicate_factors[j] - env.original_factors[j]).max()
            assert spread < 1e-6

    def test_strong_signal_smoothed_original_inside_bands(self):
        env = resample_maf(strong_panel(), B=500, seed=0)
        lo, hi = env.pointwise_bands[0, :, 0], env.pointwise_bands[0, :, 1]
        inside = np.mean((env.original_smoothed[0] >= lo) & (env.original_smoothed[0] <= hi))
        assert inside >= 0.90

    def test_noise_factor_flagged(self):
        # replicate factors of a noise-dominated factor exit the bands at some
        # steps and, unlike a signal factor, stop tracking the original
        env = resample_maf(noise_panel(), B=500, seed=0)
        lo, hi = env.pointwise_bands[0, :, 0], env.pointwise_bands[0, :, 1]
        outside = np.mean((env.original_factors[0] < lo) | (env.original_factors[0] > hi))
        assert outside > 0.01

        def mean_tracking(envelope):
            reps = envelope.replicate_factors[0]
            orig = envelope.original_factors[0]
            return np.mean([abs(np.corrcoef(r, orig)[0, 1]) for r in reps])

        assert mean_tracking(env) < 0.15
        assert mean_tracking(resample_maf(strong_panel(), B=500, seed=0)) > 0.3

    def test_bands_ordered_and_quantile_based(self):
        env = resample_maf(strong_panel(), B=200, n_factors=2, seed=4, alpha=0.1)
        assert np.all(env.pointwise_bands[..., 0] <= env.pointwise_bands[..., 1])
        expected_lo = np.quantile(env.replicate_factors, 0.05, axis=1)
        np.testing.assert_allclose(env.pointwise_bands[..., 0], expected_lo, atol=1e-12)

    def test_replicate_coefficients_unit_norm(self):
        env = resample_maf(strong_panel(), B=50, n_factors=2, seed=1)
        norms = np.linalg.norm(env.replicate_coefficients, axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_coefficients_do_not_depend_on_a_common_scale(self, c):
        # coefficients scale as 1 / c; their unit columns, like the whitened
        # factors, do not, and no norm over- or underflows
        values = strong_panel().values
        base, scaled = (resample_maf(x, B=5, n_factors=2, seed=3) for x in (values, c * values))
        np.testing.assert_allclose(scaled.replicate_coefficients, base.replicate_coefficients,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(scaled.replicate_factors, base.replicate_factors,
                                   rtol=1e-12, atol=1e-12)

    def test_deterministic_given_seed(self):
        a = resample_maf(strong_panel(), B=60, block_len=5, seed=9)
        b = resample_maf(strong_panel(), B=60, block_len=5, seed=9)
        np.testing.assert_array_equal(a.replicate_factors, b.replicate_factors)
        np.testing.assert_array_equal(a.pointwise_bands, b.pointwise_bands)

    def test_block_resampling_preserves_marginal_variance(self):
        rng = np.random.default_rng(7)
        residuals = rng.standard_normal((200, 1))
        base_var = residuals.var()
        ratios = []
        for b in range(300):
            idx = resample_indices(np.random.default_rng(b), 200, 5)
            ratios.append(residuals[idx].var() / base_var)
        assert abs(np.mean(ratios) - 1.0) < 0.05

    def test_config_validation(self):
        panel = strong_panel()
        with pytest.raises(InvalidConfigError):
            resample_maf(panel, B=0)
        with pytest.raises(InvalidConfigError):
            resample_maf(panel, B=10, block_len=0)
        with pytest.raises(InvalidConfigError):
            resample_maf(panel, B=10, n_factors=7)


class TestSignalPresenceTest:
    def test_strong_signal_rejected(self):
        report = signal_presence_test(strong_panel(), B=1000, seed=1)
        assert report.p_value[0] < 0.01
        assert report.mode == "permutation"

    def test_paper_alternative_strong_parameterization(self):
        panel = gen_sn_panel(smooth_signal(), [0.4, 0.2, 0.1], (0.25, 1.0), seed=3)
        report = signal_presence_test(panel, B=999, seed=3)
        assert report.p_value[0] < 0.3

    def test_weak_signal_typically_not_rejected(self):
        pvals = []
        for s in range(20):
            panel = gen_sn_panel(
                smooth_signal(), [0.2, 0.1, 0.05], (0.25, 1.0), seed=300 + s
            )
            pvals.append(signal_presence_test(panel, B=199, seed=s).p_value[0])
        assert np.median(pvals) > 0.05

    def test_pvalue_formula_and_conservative_variant(self):
        panel = strong_panel(seed=8)
        raw = signal_presence_test(panel, B=199, seed=2)
        cons = signal_presence_test(panel, B=199, seed=2, conservative=True)
        count = int((raw.null_draws[0] >= raw.observed[0]).sum())
        assert raw.p_value[0] == count / 199
        assert cons.p_value[0] == (1 + count) / 200
        np.testing.assert_array_equal(raw.null_draws, cons.null_draws)

    def test_multi_factor_extension(self):
        report = signal_presence_test(strong_panel(), B=199, n_factors_tested=3, seed=5)
        assert report.observed.shape == (3,)
        assert report.null_draws.shape == (3, 199)
        assert report.p_value.shape == (3,)
        # only one signal is present, so later factors look like noise
        assert report.p_value[0] < report.p_value[2]

    def test_pvalues_not_anticonservative_under_null(self):
        pvals = []
        for s in range(500):
            report = signal_presence_test(noise_panel(seed=20_000 + s, n=80), B=99, seed=s)
            pvals.append(report.p_value[0])
        ks = scipy.stats.ks_1samp(pvals, scipy.stats.uniform.cdf, alternative="greater")
        assert ks.pvalue > 0.01

    def test_bootstrap_block_mode(self):
        report = signal_presence_test(
            strong_panel(), B=199, block_len=5, seed=3
        )
        assert report.mode == "bootstrap"
        assert report.block_len == 5
        assert report.p_value[0] < 0.05

    def test_deterministic_given_seed(self):
        a = signal_presence_test(strong_panel(), B=149, seed=10)
        b = signal_presence_test(strong_panel(), B=149, seed=10)
        np.testing.assert_array_equal(a.null_draws, b.null_draws)
        np.testing.assert_array_equal(a.p_value, b.p_value)

    @pytest.mark.parametrize("mode, block_len", [("permutation", 1), ("bootstrap", 5)])
    @pytest.mark.parametrize("c", [1e-300, 1e-3, 3.0, 1e3, 1e300])
    def test_null_does_not_depend_on_a_common_scale(self, mode, block_len, c):
        # MAF factors and the SNR, a ratio of two SDs, do not change when
        # every series is multiplied by one constant, so neither does the null
        values = strong_panel().values
        base, scaled = (signal_presence_test(x, B=99, mode=mode, block_len=block_len,
                                             n_factors_tested=2, seed=4)
                        for x in (values, c * values))
        np.testing.assert_allclose(scaled.null_draws, base.null_draws, rtol=1e-12, atol=0)
        np.testing.assert_allclose(scaled.observed, base.observed, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(scaled.p_value, base.p_value)

    def test_validation(self):
        panel = strong_panel()
        with pytest.raises(InvalidConfigError):
            signal_presence_test(panel, B=50)
        with pytest.raises(InvalidConfigError):
            signal_presence_test(panel, B=99, mode="permutation", block_len=5)
        constant = panel.values.copy()
        constant[:, 1] = 1.0
        with pytest.raises(DegenerateSeriesError):
            signal_presence_test(constant, B=99)


class TestPowerCurve:
    spec = SnModelSpec.equicorrelated([0.8, 0.4, 0.2], 1.0, 0.5)

    def test_null_multiplier_matches_alpha(self):
        points = power_curve(self.spec, smooth_signal(), [0.0], B=1000, seed=5)
        se = np.sqrt(0.05 * 0.95 / 1000)
        assert abs(points[0].power - 0.05) <= 3 * se

    def test_monotone_and_high_power_at_full_strength(self):
        points = power_curve(
            self.spec, smooth_signal(), [0.0, 0.25, 0.5, 0.75, 1.0], B=1000, seed=5
        )
        powers = [p.power for p in points]
        assert powers[-1] > 0.9
        # isotonic (non-decreasing) fit deviation
        iso = np.maximum.accumulate(powers)
        assert np.abs(np.array(powers) - iso).max() < 0.05

    def test_snr_statistic_dominates_autocorrelation(self):
        grid = [0.25, 0.5, 0.75, 1.0]
        snr = power_curve(self.spec, smooth_signal(), grid, B=600, seed=7)
        acf = power_curve(
            self.spec, smooth_signal(), grid, B=600, seed=7, statistic="autocorrelation"
        )
        for a, b in zip(snr, acf):
            assert a.power >= b.power - 0.05

    def test_deterministic(self):
        a = power_curve(self.spec, smooth_signal(), [0.5], B=200, seed=3)
        b = power_curve(self.spec, smooth_signal(), [0.5], B=200, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            power_curve(self.spec, smooth_signal(), [-1.0], B=100)
        with pytest.raises(InvalidConfigError):
            power_curve(self.spec, smooth_signal(), [1.0], B=100, alpha=1.5)
        with pytest.raises(InvalidConfigError, match="non-negative"):
            power_curve(self.spec, smooth_signal(), [1.0, float("nan")], B=100)


class TestSelectNumFactors:
    def test_cv_selects_two_on_noiseless_two_signal_panel(self):
        n = 160
        lin = gen_signal(SignalSpec(kind="linear", n=n))
        quad = gen_signal(SignalSpec(kind="quadratic", n=n))
        mixing = np.array([[1.0, 0.4], [-0.5, 1.0]])
        panel = np.column_stack([lin, quad]) @ mixing.T
        result = select_num_factors(panel, method="cv", holdout_frac=0.25)
        assert result.k == 2

    def test_test_method_selects_two_on_near_noiseless_panel(self):
        rng = np.random.default_rng(5)
        n = 160
        lin = gen_signal(SignalSpec(kind="linear", n=n))
        quad = gen_signal(SignalSpec(kind="quadratic", n=n))
        mixing = np.array([[1.0, -0.5], [0.4, 1.0], [0.2, 0.3]])  # p x q
        values = np.column_stack([lin, quad]) @ mixing.T * np.sqrt(n)
        values += 0.01 * rng.standard_normal(values.shape)
        result = select_num_factors(values, method="test", B=199, alpha=0.05, seed=1)
        assert result.k == 2

    def test_test_method_zero_on_pure_noise(self):
        result = select_num_factors(noise_panel(seed=23), method="test", B=199, seed=2)
        assert result.k == 0

    def test_cutoff_full_retention(self):
        # AR(1) noise keeps every factor's autocorrelation positive, so the
        # cumulative fraction reaches 1.0 only at the last factor
        panel = gen_sn_panel(
            smooth_signal(), [0.8, 0.4, 0.2], (0.25, 1.0), seed=6, ar_phi=0.5
        )
        result = select_num_factors(panel, method="cutoff", alpha_frac=1.0)
        assert result.k == 3

    def test_cutoff_small_fraction_keeps_fewer(self):
        result = select_num_factors(strong_panel(), method="cutoff", alpha_frac=0.5)
        assert 1 <= result.k < 3

    def test_scree_reports_spectrum(self):
        result = select_num_factors(strong_panel(), method="scree")
        assert result.k == 1  # one signal, largest autocorrelation gap after MAF1
        assert len(result.diagnostics["autocorrelations"]) == 3

    def test_holdout_too_small(self):
        with pytest.raises(InvalidConfigError):
            select_num_factors(strong_panel(), method="cv", holdout_frac=0.02)

    def test_unknown_method(self):
        with pytest.raises(InvalidConfigError):
            select_num_factors(strong_panel(), method="elbow")
