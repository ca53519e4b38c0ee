import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafkit import (
    InvalidInputError,
    MultiSignalSpec,
    ParameterPoleError,
    SingularMatrixError,
    SnModelSpec,
    appendix_closed_form,
    autocorrelation_from_snr,
    cca_population_weights,
    equicorrelation_noise_cov,
    expected_llr_snr,
    model1_asymptotics,
    model1_optimal_ratios,
    model1_snr,
    model2_maf_weights,
    population_maf_multi,
    population_maf_weights,
    signal_correlation_from_snr,
    snr_of_weights,
    subspace_principal_angles,
    sym_eig,
)

from conftest import angle_between, golden_max, random_spd


def random_sn_spec(rng, p=4):
    b = rng.uniform(0.2, 1.5, size=p) * rng.choice([-1.0, 1.0], size=p)
    return SnModelSpec(b=b, noise_cov=random_spd(rng, p))


class TestSnrOfWeights:
    def test_orthogonal_weights_zero(self):
        spec = SnModelSpec(b=[1.0, 0.0], noise_cov=np.eye(2))
        assert snr_of_weights([0.0, 1.0], spec) == 0.0

    def test_identity_noise_value(self):
        spec = SnModelSpec(b=[0.8, 0.4, 0.2], noise_cov=np.eye(3))
        assert abs(snr_of_weights(spec.b, spec) - 0.84) < 1e-12

    def test_scale_invariance(self, rng):
        spec = random_sn_spec(rng)
        w = rng.standard_normal(spec.p)
        assert snr_of_weights(2.0 * w, spec) == pytest.approx(snr_of_weights(w, spec), abs=1e-14)

    def test_zero_weights_rejected(self):
        spec = SnModelSpec(b=[1.0, 1.0], noise_cov=np.eye(2))
        with pytest.raises(InvalidInputError):
            snr_of_weights([0.0, 0.0], spec)


class TestPopulationMafWeights:
    def test_identity_noise_parallel_to_b(self):
        spec = SnModelSpec(b=[0.8, 0.4, 0.2], noise_cov=np.eye(3))
        assert angle_between(population_maf_weights(spec), spec.b) < 1e-12

    def test_diagonal_noise(self):
        spec = SnModelSpec(b=[1.0, 1.0], noise_cov=np.diag([1.0, 4.0]))
        assert angle_between(population_maf_weights(spec), [1.0, 0.25]) < 1e-12

    def test_maximizes_snr_over_random_vectors(self, rng):
        for _ in range(3):
            spec = random_sn_spec(rng)
            best = snr_of_weights(population_maf_weights(spec), spec)
            draws = rng.standard_normal((10_000, spec.p))
            snrs = (draws @ spec.b) ** 2 / np.einsum(
                "ij,jk,ik->i", draws, spec.noise_cov, draws
            )
            assert best >= snrs.max() - 1e-10

    def test_spherical_noise_population_pca_equivalence(self, rng):
        # with spherical noise the leading population PCA direction is the
        # optimal SNR direction, so the two methods coincide exactly
        for _ in range(5):
            p = int(rng.integers(2, 6))
            b = rng.uniform(0.2, 1.5, size=p)
            sigma2 = float(rng.uniform(0.3, 2.0))
            spec = SnModelSpec(b=b, noise_cov=sigma2 * np.eye(p))
            pca1 = sym_eig(np.outer(b, b) + sigma2 * np.eye(p), "descending").vectors[:, 0]
            assert angle_between(population_maf_weights(spec), pca1) < 1e-8

    def test_matches_equicorrelated_closed_form(self):
        b = np.array([0.8, 0.4, 0.2])
        sigma = np.array([1.0, 1.5, 0.7])
        rho = 0.3
        spec = SnModelSpec.equicorrelated(b, sigma, rho)
        w_dense = population_maf_weights(spec)
        w_closed = model2_maf_weights(b, sigma, rho)
        np.testing.assert_allclose(w_dense, w_closed, atol=1e-10)


class TestScalarMaps:
    def test_autocorrelation_endpoints(self):
        assert autocorrelation_from_snr(0.0, 0.9, 0.1) == pytest.approx(0.1)
        assert abs(autocorrelation_from_snr(1e12, 0.9, 0.1) - 0.9) < 1e-9
        assert autocorrelation_from_snr(1.0, 0.9, 0.1) == pytest.approx(0.5)

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_autocorrelation_bounded(self, snr):
        r = autocorrelation_from_snr(snr, 0.8, -0.2)
        assert -0.2 - 1e-12 <= r <= 0.8 + 1e-12

    def test_autocorrelation_strictly_increasing_when_kf_larger(self):
        grid = np.linspace(0.0, 50.0, 1000)
        values = [autocorrelation_from_snr(s, 0.7, 0.1) for s in grid]
        assert np.all(np.diff(values) > 0)

    def test_signal_correlation_values(self):
        assert signal_correlation_from_snr(0.0) == 0.0
        assert signal_correlation_from_snr(1.0) == pytest.approx(0.7071067811865476)
        assert signal_correlation_from_snr(3.0) == pytest.approx(0.8660254037844386)

    def test_signal_correlation_monte_carlo(self):
        # draw the combined series under the model and compare correlations
        rng = np.random.default_rng(8)
        n, snr = 40_000, 3.0
        f = rng.standard_normal(n)
        combined = np.sqrt(snr) * f + rng.standard_normal(n)
        mc = abs(np.corrcoef(f, combined)[0, 1])
        assert abs(mc - signal_correlation_from_snr(snr)) < 0.01


class TestModel1:
    def test_minimum_at_minus_inverse_gamma(self):
        assert model1_snr(-1.0 / 0.5, 1.0, 0.5, 0.3, 4) == pytest.approx(0.0, abs=1e-14)

    def test_point_value_matches_norm_squared(self):
        assert model1_snr(0.5, 1.0, 0.5, 0.0, 1) == pytest.approx(1.25)

    def test_symmetric_groups_reduce_to_two_q(self):
        # gamma=1, rho=0, nu=1: both groups equally weighted, every series equal
        for q in (1, 3, 10):
            value = model1_snr(1.0, 1.3, 1.0, 0.0, q)
            spec = SnModelSpec(b=np.full(2 * q, 1.3), noise_cov=np.eye(2 * q))
            assert value == pytest.approx(snr_of_weights(np.ones(2 * q), spec))

    def test_explicit_vector_cross_check(self):
        # group weights (1, nu) expanded to the 2q-vector form
        b1, gamma, rho, q, nu = 1.2, 0.6, 0.2, 3, 0.4
        b = np.concatenate([np.full(q, b1), np.full(q, gamma * b1)])
        w = np.concatenate([np.full(q, 1.0), np.full(q, nu)])
        spec = SnModelSpec(b=b, noise_cov=equicorrelation_noise_cov(1.0, rho, p=2 * q))
        assert model1_snr(nu, b1, gamma, rho, q) == pytest.approx(
            snr_of_weights(w, spec), rel=1e-12
        )

    def test_optimal_ratio_examples(self):
        res = model1_optimal_ratios(1.0, 1.0, 0.4, 5)
        assert res.nu_maf == pytest.approx(1.0)
        assert res.nu_pca == pytest.approx(1.0)

        res = model1_optimal_ratios(1.0, 0.5, 0.0, 1)
        assert res.nu_maf == pytest.approx(0.5)
        assert res.nu_pca == pytest.approx(0.5)  # alpha = 0.75, sqrt(1.5625) - 0.75

        res = model1_optimal_ratios(1.0, 0.5, 0.2, 5)
        assert res.nu_maf == pytest.approx(-0.1 / 1.3)

    def test_ratio_matches_golden_section(self):
        for gamma in (0.2, 0.5, 0.8):
            for rho in (0.1, 0.4, 0.7):
                for q in (1, 5, 25):
                    res = model1_optimal_ratios(1.0, gamma, rho, q)
                    nu_star = golden_max(
                        lambda nu: model1_snr(nu, 1.0, gamma, rho, q), -1.03, 3.0
                    )
                    assert abs(res.nu_maf - nu_star) < 1e-6
                    assert res.snr_maf >= res.snr_pca - 1e-12

    def test_maf_ratio_pole_detected(self):
        # denominator 1 - rho + rho q - gamma rho q = 0
        q, rho = 5, 0.5
        gamma = (1.0 - rho + rho * q) / (rho * q)
        with pytest.raises(ParameterPoleError):
            model1_optimal_ratios(1.0, gamma, rho, q)

    def test_asymptotics(self):
        exact = model1_optimal_ratios(1.0, 0.5, 0.3, 1000)
        approx = model1_asymptotics(1.0, 0.5, 0.3, 1000)
        assert 0.95 < exact.snr_maf / approx.snr_maf_approx < 1.05
        assert 0.95 < exact.snr_pca / approx.snr_pca_approx < 1.05

        # MAF SNR grows linearly in q while PCA SNR plateaus
        snr_q = model1_optimal_ratios(1.0, 0.5, 0.3, 500).snr_maf
        snr_2q = model1_optimal_ratios(1.0, 0.5, 0.3, 1000).snr_maf
        assert abs(snr_2q / snr_q - 2.0) < 0.1
        pca_ratio = (
            model1_optimal_ratios(1.0, 0.5, 0.3, 1000).snr_pca
            / model1_optimal_ratios(1.0, 0.5, 0.3, 100).snr_pca
        )
        assert pca_ratio < 1.2

    def test_snr_ratio_contours(self):
        # MAF/PCA ratio >= 1, increasing in rho and q, decreasing in gamma
        gammas = np.linspace(0.05, 0.95, 5)
        rhos = np.linspace(0.1, 0.9, 5)
        qs = (1, 5, 25)
        ratio = np.empty((len(gammas), len(rhos), len(qs)))
        for i, g in enumerate(gammas):
            for j, r in enumerate(rhos):
                for k, q in enumerate(qs):
                    res = model1_optimal_ratios(1.0, g, r, q)
                    ratio[i, j, k] = res.snr_maf / res.snr_pca
        assert np.all(ratio >= 1.0 - 1e-12)
        assert np.all(np.diff(ratio, axis=1) >= -1e-9)  # rho
        assert np.all(np.diff(ratio, axis=2) >= -1e-9)  # q
        assert np.all(np.diff(ratio, axis=0) <= 1e-9)  # gamma


class TestModel2:
    def test_uncorrelated_unit_noise_parallel_to_b(self):
        w = model2_maf_weights([0.8, 0.4, 0.2], [1.0, 1.0, 1.0], 0.0)
        assert angle_between(w, [0.8, 0.4, 0.2]) < 1e-12

    def test_exchangeable_case_equal_weights(self):
        w = model2_maf_weights([0.5, 0.5, 0.5, 0.5], [2.0, 2.0, 2.0, 2.0], 0.4)
        assert np.abs(w - w[0]).max() < 1e-12

    def test_matches_dense_inversion(self):
        b = np.array([0.8, 0.4, 0.2])
        w = model2_maf_weights(b, [1.0, 1.0, 1.0], 0.25)
        cov = equicorrelation_noise_cov(1.0, 0.25, p=3)
        dense = np.linalg.solve(cov, b)
        assert angle_between(w, dense) < 1e-10
        np.testing.assert_allclose(w, dense / np.linalg.norm(dense), atol=1e-10)


class TestAppendixClosedForm:
    def test_zero_sum_strengths_special_case(self):
        b = np.array([1.0, -0.5, -0.5])
        rho = 0.3
        res = appendix_closed_form(b, rho)
        norm2 = float(b @ b)
        expected = sorted([norm2 + 1 - rho, rho * 3 + 1 - rho], reverse=True)
        np.testing.assert_allclose(res.pc_pairs.values, expected, atol=1e-12)
        # eigenvectors are b and the constant vector, in eigenvalue order
        vecs = res.pc_pairs.vectors
        assert angle_between(vecs[:, 0], b) < 1e-12
        assert angle_between(vecs[:, 1], np.ones(3)) < 1e-12

    def test_pairs_match_generic_eigensolver(self):
        b = np.array([0.9, 0.5, 0.3, -0.2])
        rho = 0.35
        res = appendix_closed_form(b, rho)
        cov = np.outer(b, b) + rho * np.ones((4, 4)) + (1 - rho) * np.eye(4)
        generic = sym_eig(cov, order="descending")
        np.testing.assert_allclose(res.pc_pairs.values, generic.values[:2], atol=1e-8)
        np.testing.assert_allclose(res.pc_pairs.vectors, generic.vectors[:, :2], atol=1e-8)

    def test_equal_scale_weights_live_in_pc12_span(self):
        b = np.array([0.9, 0.5, 0.3, -0.2])
        res = appendix_closed_form(b, 0.35)
        assert res.in_pc12_span
        basis = res.pc_pairs.vectors
        resid = res.maf1 - basis @ (basis.T @ res.maf1)
        assert np.linalg.norm(resid) < 1e-8

    def test_matches_population_weights_any_scales(self, rng):
        for _ in range(5):
            p = int(rng.integers(3, 7))
            b = rng.uniform(-1.0, 1.5, size=p)
            if not np.any(b):
                continue
            sigma = rng.uniform(0.5, 2.0, size=p)
            rho = float(rng.uniform(-0.9 / (p - 1), 0.9))
            res = appendix_closed_form(b, rho, sigma)
            spec = SnModelSpec.equicorrelated(b, sigma, rho)
            assert angle_between(res.maf1, population_maf_weights(spec)) < 1e-6
            assert res.in_pc12_span == bool(np.allclose(sigma, sigma[0]))

    def test_rho_zero_branch(self):
        b = np.array([0.8, 0.4, 0.2])
        res = appendix_closed_form(b, 0.0)
        assert angle_between(res.maf1, b) < 1e-10
        assert res.pc_pairs.values[0] == pytest.approx(float(b @ b) + 1.0)

    def test_proportional_strengths_collapse(self):
        res = appendix_closed_form([0.7, 0.7, 0.7], 0.4)
        assert angle_between(res.maf1, np.ones(3)) < 1e-10

    def test_unequal_scale_maf_outside_pc12_span(self):
        b = np.array([0.9, 0.5, 0.3, -0.2])
        sigma = np.array([1.0, 2.0, 0.5, 1.5])
        res = appendix_closed_form(b, 0.35, sigma)
        assert not res.in_pc12_span
        # against the PCs of the raw covariance the residual is material
        cov = np.diag(sigma) @ (
            np.outer(b / sigma, b / sigma) + 0.35 * np.ones((4, 4)) + 0.65 * np.eye(4)
        ) @ np.diag(sigma)
        pcs = sym_eig(cov, order="descending").vectors[:, :2]
        resid = res.maf1 - pcs @ (pcs.T @ res.maf1)
        assert np.linalg.norm(resid) > 0.05


class TestMultiSignal:
    @staticmethod
    def make_spec(rng, p=6, q=2):
        mixing = rng.uniform(-1.0, 1.0, size=(p, q)) + np.sign(
            rng.standard_normal((p, q))
        ) * 0.3
        k_eps = 0.1
        k = np.sort(rng.uniform(0.5, 0.95, size=q))[::-1]
        return MultiSignalSpec(
            mixing=mixing,
            noise_cov=random_spd(rng, p, eig_low=0.3, eig_high=3.0),
            k=k,
            k_eps=k_eps,
        )

    def test_cca_single_signal_matches_maf_weights(self, rng):
        b = np.array([0.8, 0.4, 0.2])
        cov = random_spd(rng, 3)
        spec = MultiSignalSpec(mixing=b[:, None], noise_cov=cov, k=[0.9], k_eps=0.0)
        cca = cca_population_weights(spec)
        sn = SnModelSpec(b=b, noise_cov=cov)
        assert cca.shape == (3, 1)
        assert angle_between(cca[:, 0], population_maf_weights(sn)) < 1e-8

    def test_cca_identity_noise_orthogonal_mixing(self):
        mixing = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        spec = MultiSignalSpec(mixing=mixing, noise_cov=np.eye(3), k=[0.9, 0.8])
        cca = cca_population_weights(spec)
        assert angle_between(cca[:, 0], mixing[:, 0]) < 1e-10
        assert angle_between(cca[:, 1], mixing[:, 1]) < 1e-10

    def test_cca_columns_in_whitened_mixing_range(self, rng):
        spec = self.make_spec(rng)
        target = np.linalg.solve(spec.noise_cov, spec.mixing)
        q_basis = np.linalg.qr(target)[0]
        cca = cca_population_weights(spec)
        resid = cca - q_basis @ (q_basis.T @ cca)
        assert np.abs(resid).max() < 1e-8

    def test_maf_and_cca_span_same_subspace(self, rng):
        for _ in range(5):
            spec = self.make_spec(rng)
            angles = subspace_principal_angles(
                population_maf_multi(spec), cca_population_weights(spec)
            )
            assert angles.max() < 1e-6

    def test_single_signal_reduces_to_maf_weights(self, rng):
        cov = random_spd(rng, 4)
        b = np.array([1.0, 0.6, -0.4, 0.2])
        spec = MultiSignalSpec(mixing=b[:, None], noise_cov=cov, k=[0.9], k_eps=0.0)
        sn = SnModelSpec(b=b, noise_cov=cov)
        assert angle_between(
            population_maf_multi(spec)[:, 0], population_maf_weights(sn)
        ) < 1e-8

    def test_pca_subspace_differs_for_structured_noise(self, rng):
        spec = self.make_spec(rng)
        pca_q = sym_eig(spec.panel_cov(), order="descending").vectors[:, : spec.q]
        angles = subspace_principal_angles(pca_q, cca_population_weights(spec))
        assert angles.max() > 0.1


class TestPrincipalAngles:
    def test_identical_bases(self, rng):
        a = rng.standard_normal((6, 2))
        np.testing.assert_allclose(subspace_principal_angles(a, a), 0.0, atol=1e-7)

    def test_orthogonal_complements(self):
        a = np.eye(6)[:, :2]
        b = np.eye(6)[:, 3:5]
        np.testing.assert_allclose(
            subspace_principal_angles(a, b), np.pi / 2.0, atol=1e-12
        )

    def test_span_invariance_under_mixing(self, rng):
        a = rng.standard_normal((7, 3))
        r = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        assert subspace_principal_angles(a, a @ r).max() < 1e-7

    def test_ascending_order(self, rng):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        angles = subspace_principal_angles(a, b)
        assert np.all(np.diff(angles) >= 0)
        assert np.all((angles >= 0) & (angles <= np.pi / 2 + 1e-12))

    def test_rank_deficient_rejected(self, rng):
        a = rng.standard_normal((5, 2))
        a[:, 1] = a[:, 0]
        with pytest.raises(InvalidInputError):
            subspace_principal_angles(a, np.eye(5)[:, :2])


class TestExpectedLlr:
    def test_identity_case(self):
        spec = SnModelSpec(b=[1.0, 0.0, 0.0], noise_cov=np.eye(3))
        res = expected_llr_snr(spec)
        assert res.snr == pytest.approx(1.0)
        assert res.half_llr == pytest.approx(0.5)

    def test_consistent_with_optimal_snr(self, rng):
        spec = random_sn_spec(rng)
        res = expected_llr_snr(spec)
        assert res.snr == pytest.approx(
            snr_of_weights(population_maf_weights(spec), spec), abs=1e-10
        )

    def test_monte_carlo_log_likelihood_ratio(self, rng):
        # simulate the Gaussian model and average the exact log-likelihood ratio
        spec = SnModelSpec.equicorrelated([0.8, 0.4, 0.2], 1.0, 0.25)
        n, draws = 40, 10_000
        f = rng.standard_normal(n)
        f -= f.mean()
        f /= np.linalg.norm(f)
        chol = np.linalg.cholesky(spec.noise_cov)
        cov_inv = np.linalg.inv(spec.noise_cov)
        signal = np.outer(f, spec.b)
        stats = np.empty(draws)
        for d in range(draws):
            z = signal + rng.standard_normal((n, spec.p)) @ chol.T
            resid = z - signal
            stats[d] = 0.5 * (
                np.einsum("ti,ij,tj->", z, cov_inv, z)
                - np.einsum("ti,ij,tj->", resid, cov_inv, resid)
            )
        expected = expected_llr_snr(spec).half_llr
        se = stats.std(ddof=1) / np.sqrt(draws)
        assert abs(stats.mean() - expected) < 3.0 * se


class TestSpecValidation:
    def test_kf_must_exceed_keps(self):
        with pytest.raises(InvalidInputError):
            SnModelSpec(b=[1.0, 1.0], noise_cov=np.eye(2), k_f=0.1, k_eps=0.5)

    def test_equicorrelated_rho_bound(self):
        with pytest.raises(InvalidInputError):
            SnModelSpec.equicorrelated([1.0, 1.0, 1.0], 1.0, rho=-0.6)

    def test_singular_noise_rejected(self):
        with pytest.raises(SingularMatrixError):
            SnModelSpec(b=[1.0, 1.0], noise_cov=np.ones((2, 2)))

    def test_multi_signal_coherence_ordering(self, rng):
        with pytest.raises(InvalidInputError):
            MultiSignalSpec(
                mixing=rng.standard_normal((4, 2)),
                noise_cov=np.eye(4),
                k=[0.5, 0.9],
            )

    def test_multi_signal_k_above_keps(self, rng):
        with pytest.raises(InvalidInputError):
            MultiSignalSpec(
                mixing=rng.standard_normal((4, 2)),
                noise_cov=np.eye(4),
                k=[0.9, 0.2],
                k_eps=0.3,
            )

    def test_rank_deficient_mixing_rejected(self):
        mixing = np.ones((4, 2))
        with pytest.raises(InvalidInputError):
            MultiSignalSpec(mixing=mixing, noise_cov=np.eye(4), k=[0.9, 0.8])


# Every entry point that takes equicorrelated noise, as a function of rho
# for p = 4 series (model 1 has q = 2 series per group).
_B4, _SIGMA4 = np.linspace(1.0, 0.2, 4), np.linspace(1.0, 2.0, 4)
EQUICORRELATED = {
    "equicorrelation_noise_cov": lambda rho: equicorrelation_noise_cov(_SIGMA4, rho, p=4),
    "SnModelSpec.equicorrelated": lambda rho: SnModelSpec.equicorrelated(_B4, _SIGMA4, rho),
    "model1_snr": lambda rho: model1_snr(0.5, 1.0, 0.6, rho, 2),
    "model2_maf_weights": lambda rho: model2_maf_weights(_B4, _SIGMA4, rho),
    "appendix_closed_form": lambda rho: appendix_closed_form(_B4, rho, _SIGMA4),
}


@pytest.mark.parametrize("entry", sorted(EQUICORRELATED))
def test_one_equicorrelated_domain(entry):
    call = EQUICORRELATED[entry]
    for rho in (-1.0 / 3.0, 1.0, float("nan")):
        with pytest.raises(InvalidInputError):
            call(rho)
    for rho in (-1.0 / 3.0 + 1e-6, 1.0 - 1e-6):
        call(rho)
    # sigma must have one entry or one per series
    with pytest.raises(InvalidInputError):
        equicorrelation_noise_cov([1.0, 2.0], 0.5, p=3)


@settings(max_examples=200, deadline=None)
@given(
    snr=st.floats(min_value=0.0, max_value=1e9),
    k_f=st.floats(min_value=-0.99, max_value=1.0),
    k_eps=st.floats(min_value=-0.99, max_value=0.99),
)
def test_autocorrelation_between_coherences(snr, k_f, k_eps):
    r = autocorrelation_from_snr(snr, k_f, k_eps)
    lo, hi = min(k_f, k_eps), max(k_f, k_eps)
    assert lo - 1e-9 <= r <= hi + 1e-9
