import numpy as np
import pytest

from mafkit import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidInputError,
    SingularMatrixError,
    combination_autocorrelation,
    compute_maf,
    compute_pca,
    factor_autocorrelation,
    gen_signal,
    gen_sn_panel,
    lag1_diff_covariance,
    sample_covariance,
    SignalSpec,
    SnModelSpec,
    population_maf_weights,
)

from mafkit.cli import ingest_csv
from mafkit.datasets import example_panel_path

from conftest import align_columns_by_sign, angle_between, random_invertible


def seeded_panel(seed=5, n=300, p=4):
    rng = np.random.default_rng(seed)
    f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=n, seed=11))
    b = rng.uniform(0.3, 1.0, size=p)
    return gen_sn_panel(f, b, (0.3, 1.0), seed=seed)


class TestComputeMaf:
    def test_trend_plus_noise_puts_weight_on_trend(self, rng):
        n = 500
        trend = np.arange(n) / n
        trend = (trend - trend.mean()) / trend.std(ddof=1)
        noise = rng.standard_normal(n)
        noise = (noise - noise.mean()) / noise.std(ddof=1)
        decomp = compute_maf(np.column_stack([trend, noise]))
        w = decomp.coefficients[:, 0]
        assert abs(w[1] / w[0]) < 0.05
        assert decomp.autocorrelations[0] > 0.99

    def test_noiseless_two_signal_recovery(self):
        n = 200
        lin = gen_signal(SignalSpec(kind="linear", n=n))
        quad = gen_signal(SignalSpec(kind="quadratic", n=n))
        mixing = np.array([[1.0, 0.6], [-0.4, 1.2]])
        panel = np.column_stack([lin, quad]) @ mixing.T
        decomp = compute_maf(panel)
        # higher-coherence signal (the line) comes out first
        assert abs(np.corrcoef(decomp.factors[:, 0], lin)[0, 1]) > 0.999
        assert abs(np.corrcoef(decomp.factors[:, 1], quad)[0, 1]) > 0.999

    def test_iid_panel_autocorrelations_near_zero(self):
        rng = np.random.default_rng(99)
        decomp = compute_maf(rng.standard_normal((5000, 3)))
        assert np.abs(decomp.autocorrelations).max() < 0.05

    def test_factors_equal_panel_times_coefficients(self):
        panel = seeded_panel()
        decomp = compute_maf(panel)
        np.testing.assert_allclose(
            decomp.factors, panel.values @ decomp.coefficients, atol=1e-12
        )

    def test_factor_columns_uncorrelated_and_unit_variance(self):
        decomp = compute_maf(seeded_panel())
        corr = np.corrcoef(decomp.factors.T)
        assert np.abs(corr - np.eye(corr.shape[0])).max() < 1e-8
        np.testing.assert_allclose(decomp.factors.var(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_eigenvalue_autocorrelation_identity(self):
        decomp = compute_maf(seeded_panel())
        np.testing.assert_allclose(
            decomp.autocorrelations, 1.0 - decomp.diff_eigenvalues / 2.0, atol=1e-12
        )
        assert np.all(np.diff(decomp.diff_eigenvalues) >= 0)
        assert np.all(np.diff(decomp.autocorrelations) <= 0)

    def test_factors_trend_upward(self):
        decomp = compute_maf(seeded_panel())
        t = np.arange(decomp.factors.shape[0]) - (decomp.factors.shape[0] - 1) / 2
        assert np.all(t @ decomp.factors >= 0)

    def test_degenerate_pair_flags_match_gap_rule(self, rng):
        # flagged pairs are exactly the adjacent eigenvalues closer than the
        # documented relative threshold; well-separated panels flag nothing
        from mafkit.maf import DEGENERATE_GAP_RTOL

        for seed in range(5):
            decomp = compute_maf(seeded_panel(seed=seed))
            k = decomp.diff_eigenvalues
            expected = tuple(
                (j, j + 1)
                for j in range(k.size - 1)
                if abs(k[j + 1] - k[j]) < DEGENERATE_GAP_RTOL * max(abs(k[j]), abs(k[j + 1]))
            )
            assert decomp.degenerate_pairs == expected
        assert compute_maf(seeded_panel()).degenerate_pairs == ()

    def test_rejects_wide_panel(self, rng):
        with pytest.raises(InsufficientDataError):
            compute_maf(rng.standard_normal((3, 3)))

    def test_rejects_two_row_single_series(self):
        # n > p holds, but one differenced row has no sample covariance
        with pytest.raises(InsufficientDataError, match="at least 3"):
            compute_maf(np.array([[1.0], [2.5]]))

    def test_rejects_collinear_panel(self, rng):
        col = rng.standard_normal(50)
        with pytest.raises(SingularMatrixError):
            compute_maf(np.column_stack([col, 2.0 * col]))


class TestInvariance:
    def test_maf_factors_invariant_under_mixing(self, rng):
        panel = seeded_panel(seed=7)
        decomp = compute_maf(panel)
        for _ in range(5):
            a = random_invertible(rng, panel.p)
            mixed = compute_maf(panel.values @ a)
            aligned = align_columns_by_sign(mixed.factors, decomp.factors)
            assert np.abs(aligned - decomp.factors).max() < 1e-6

    def test_pca_factors_change_under_scaling(self):
        panel = seeded_panel(seed=7)
        scale = np.diag([10.0, 1.0, 1.0, 1.0])
        base = compute_pca(panel, standardize=False)
        scaled = compute_pca(panel.values @ scale, standardize=False)
        aligned = align_columns_by_sign(scaled.factors, base.factors)
        assert np.abs(aligned - base.factors).max() > 0.1

    def test_maf1_beats_random_combinations(self, rng):
        panel = seeded_panel(seed=13)
        decomp = compute_maf(panel)
        cov = sample_covariance(panel)
        diff_cov = lag1_diff_covariance(panel)
        w = rng.standard_normal((10_000, panel.p))
        r = 1.0 - np.einsum("ij,jk,ik->i", w, diff_cov, w) / (
            2.0 * np.einsum("ij,jk,ik->i", w, cov, w)
        )
        assert decomp.autocorrelations[0] >= r.max() - 1e-10
        pca1 = compute_pca(panel).coefficients[:, 0]
        assert decomp.autocorrelations[0] >= combination_autocorrelation(panel, pca1)

    def test_consistency_toward_population_weights(self):
        spec = SnModelSpec.equicorrelated([0.8, 0.4, 0.2], 1.0, 0.25)
        w_pop = population_maf_weights(spec)
        medians = []
        for n in (250, 4000):
            f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=n, seed=2))
            angles = [
                angle_between(
                    compute_maf(gen_sn_panel(f, spec.b, spec.noise_cov, seed=s)).coefficients[:, 0],
                    w_pop,
                )
                for s in range(50)
            ]
            medians.append(np.median(angles))
        assert medians[1] < medians[0]


class TestComputePca:
    def test_diagonal_variances_unstandardized(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((20_000, 2)) * np.array([2.0, 1.0])
        pca = compute_pca(values, standardize=False)
        assert abs(pca.variances[0] - 4.0) < 0.15
        assert abs(abs(pca.coefficients[0, 0]) - 1.0) < 0.01

    def test_spherical_noise_pca_matches_maf_direction(self):
        n = 10_000
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=n, seed=21))
        panel = gen_sn_panel(f, [2.0, 1.2, 0.9], (0.0, 1.0), seed=6)
        maf_w = compute_maf(panel).coefficients[:, 0]
        pca_w = compute_pca(panel, standardize=False).coefficients[:, 0]
        assert angle_between(maf_w, pca_w) < np.deg2rad(2.0)

    def test_duplicate_column_panel_still_decomposes(self, rng):
        col = rng.standard_normal(100)
        other = rng.standard_normal(100)
        pca = compute_pca(np.column_stack([col, col, other]))
        assert pca.variances[-1] < 1e-10
        assert pca.coefficients.shape == (3, 3)

    @pytest.mark.parametrize("c", [1e-300, 1e-170, 1e150])
    def test_raw_pca_does_not_depend_on_scale(self, c):
        # the covariance of c * x under- or overflows at these scales; it is
        # taken of the panel scaled by a power of two, and the variances are
        # scaled back, to 0 where c**2 times them is below the smallest double
        x = ingest_csv(example_panel_path()).values
        base, scaled = compute_pca(x, standardize=False), compute_pca(c * x, standardize=False)
        np.testing.assert_allclose(scaled.coefficients, base.coefficients, rtol=0, atol=1e-13)
        np.testing.assert_allclose(scaled.factors / c, base.factors, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(scaled.variances, base.variances * c * c, rtol=1e-13, atol=0)

    def test_raw_pca_variance_past_the_largest_double_rejected(self):
        x = ingest_csv(example_panel_path()).values
        with pytest.raises(InvalidInputError, match="overflows"):
            compute_pca(1e160 * x, standardize=False)

    def test_coefficients_orthonormal(self):
        pca = compute_pca(seeded_panel())
        p = pca.coefficients.shape[0]
        np.testing.assert_allclose(
            pca.coefficients.T @ pca.coefficients, np.eye(p), atol=1e-10
        )
        assert np.all(np.diff(pca.variances) <= 1e-12)


class TestFactorAutocorrelation:
    def test_linear_series_near_one(self):
        assert factor_autocorrelation(np.arange(1000.0)) > 0.99

    def test_alternating_series_near_minus_one(self):
        y = np.resize([1.0, -1.0], 400)
        assert factor_autocorrelation(y) < -0.95

    def test_iid_noise_near_zero(self):
        rng = np.random.default_rng(12)
        assert abs(factor_autocorrelation(rng.standard_normal(10_000))) < 0.03

    def test_near_alternating_factor_clamped_like_compute_maf(self):
        # the differenced variance (n - 2 terms) can pass 4 times the variance
        # (n - 1 terms), which would put 1 - K/2 below -1
        rng = np.random.default_rng(0)
        x = np.column_stack([(-1.0) ** np.arange(12) + 0.01 * rng.standard_normal(12),
                             rng.standard_normal(12)])
        decomp = compute_maf(x)
        r = decomp.autocorrelations
        assert np.all((r >= -1.0) & (r <= 1.0))
        assert r[1] == -1.0
        np.testing.assert_allclose(
            r, [factor_autocorrelation(decomp.factors[:, j]) for j in range(2)], rtol=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            factor_autocorrelation(np.ones(10))

    def test_matches_combination_form(self):
        panel = seeded_panel(seed=17)
        w = np.array([0.3, -1.2, 0.5, 0.7])
        assert combination_autocorrelation(panel, w) == factor_autocorrelation(panel.values @ w)
