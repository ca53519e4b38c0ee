"""Closed-form population results for the signal-plus-noise model.

These are exact expressions for optimal combination weights, SNR values,
and eigenstructure under fully specified population models. They serve two
roles: analysis tools in their own right, and independent anchors against
which the sample estimators are validated.

Only input checks and the sign convention are shared: one equicorrelated
domain check (`_equicorrelated_sigma`), one noise-covariance check
(`validated_noise_cov`), one orientation (`linalg.unit_direction`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParameterPoleError
from .linalg import EigenPairs, assert_spd, inverse_sqrt, sym_eig, unit_direction

_POLE_RTOL = 1e-12


def _equicorrelated_sigma(sigma, rho: float, p: int) -> np.ndarray:
    """Sigma as p positive scales (one shared, or one per series), after
    checking -1/(p-1) < rho < 1, where equicorrelated noise is positive definite."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    if sigma.size == 1:
        sigma = np.full(p, sigma[0])
    if sigma.shape != (p,):
        raise InvalidInputError(f"sigma needs 1 or {p} entries, got {sigma.size}")
    if np.any(sigma <= 0.0):
        raise InvalidInputError("all noise scales must be positive")
    if (p > 1 and rho <= -1.0 / (p - 1)) or not rho < 1.0:  # a NaN rho fails too
        raise InvalidInputError(f"rho must lie in (-1/(p-1), 1) for p={p}, got {rho}")
    return sigma


def validated_noise_cov(cov, p: int) -> np.ndarray:
    """`cov` as a symmetric positive definite p x p noise covariance, or raise."""
    cov = assert_spd(np.asarray(cov, dtype=float), "noise covariance")
    if cov.shape != (p, p):
        raise InvalidInputError(f"noise covariance has shape {cov.shape}, expected ({p}, {p})")
    return cov


def equicorrelation_noise_cov(sigma, rho: float, p: int | None = None) -> np.ndarray:
    """Noise covariance with per-series scales `sigma` and common correlation `rho`;
    `p` defaults to the number of scales."""
    p = np.size(sigma) if p is None else p
    sigma = _equicorrelated_sigma(sigma, rho, p)
    corr = np.full((p, p), rho)
    np.fill_diagonal(corr, 1.0)
    return corr * np.outer(sigma, sigma)


@dataclass(frozen=True)
class SnModelSpec:
    """Single-signal population model: observed = signal strength vector times a
    common normalized signal, plus stationary cross-correlated noise.

    `k_f` and `k_eps` are the lag-1 coherence of the signal and the noise
    proportionality constant; `k_f > k_eps` is the regime in which maximizing
    autocorrelation and maximizing SNR coincide.
    """

    b: np.ndarray
    noise_cov: np.ndarray
    k_f: float = 1.0
    k_eps: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).ravel()
        if b.size < 1 or not np.all(np.isfinite(b)) or not np.any(b != 0.0):
            raise InvalidInputError("signal strength vector must be finite and nonzero")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "noise_cov", validated_noise_cov(self.noise_cov, b.size))
        if not (-1.0 < self.k_f <= 1.0):
            raise InvalidInputError(f"k_f must be in (-1, 1], got {self.k_f}")
        if not (-1.0 < self.k_eps < 1.0):
            raise InvalidInputError(f"k_eps must be in (-1, 1), got {self.k_eps}")
        if self.k_f <= self.k_eps:
            raise InvalidInputError(
                f"signal coherence k_f={self.k_f} must exceed noise k_eps={self.k_eps}"
            )

    @classmethod
    def equicorrelated(cls, b, sigma=1.0, rho: float = 0.0,
                       k_f: float = 1.0, k_eps: float = 0.0) -> "SnModelSpec":
        """Compact form: the noise covariance `equicorrelation_noise_cov` builds
        from a common correlation `rho` and per-series scales `sigma`."""
        b = np.asarray(b, dtype=float).ravel()
        return cls(b=b, noise_cov=equicorrelation_noise_cov(sigma, rho, p=b.size),
                   k_f=k_f, k_eps=k_eps)

    @property
    def p(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class MultiSignalSpec:
    """Multiple-signal model: q orthogonal normalized signals mixed into p series.

    `mixing` is the p x q signal-strength matrix; `k` holds the per-signal
    lag-1 coherences in descending order, all above the noise constant `k_eps`.
    """

    mixing: np.ndarray
    noise_cov: np.ndarray
    k: np.ndarray
    k_eps: float = 0.0

    def __post_init__(self):
        mix = np.asarray(self.mixing, dtype=float)
        if mix.ndim != 2 or mix.shape[1] > mix.shape[0]:
            raise InvalidInputError(
                f"mixing matrix must be p x q with q <= p, got shape {mix.shape}"
            )
        if np.linalg.matrix_rank(mix) < mix.shape[1]:
            raise InvalidInputError("mixing matrix must have full column rank")
        object.__setattr__(self, "mixing", mix)
        object.__setattr__(self, "noise_cov", validated_noise_cov(self.noise_cov, mix.shape[0]))
        k = np.asarray(self.k, dtype=float).ravel()
        if k.size != mix.shape[1]:
            raise InvalidInputError(f"need {mix.shape[1]} signal coherences, got {k.size}")
        if np.any(np.diff(k) > 0):
            raise InvalidInputError("signal coherences must be non-increasing")
        if np.any(k > 1.0) or k.min() <= self.k_eps:
            raise InvalidInputError(
                f"signal coherences must lie in (k_eps, 1], got min {k.min()} "
                f"with k_eps={self.k_eps}"
            )
        object.__setattr__(self, "k", k)

    @property
    def p(self) -> int:
        return self.mixing.shape[0]

    @property
    def q(self) -> int:
        return self.mixing.shape[1]

    def panel_cov(self) -> np.ndarray:
        """Population covariance of the observed panel."""
        return self.mixing @ self.mixing.T + self.noise_cov

    def lag_cov(self) -> np.ndarray:
        """Population lag-1 cross-covariance of the observed panel."""
        return (self.mixing * self.k) @ self.mixing.T + self.k_eps * self.noise_cov

    def diff_cov(self) -> np.ndarray:
        """Population covariance of the differenced panel, 2(cov - lag cov)."""
        return 2.0 * (self.panel_cov() - self.lag_cov())


def snr_of_weights(w, spec: SnModelSpec) -> float:
    """Population SNR of the combined series: (w'b)^2 / (w' noise_cov w)."""
    w = np.asarray(w, dtype=float).ravel()
    if w.shape != (spec.p,):
        raise InvalidInputError(f"expected weight vector of length {spec.p}, got {w.shape}")
    if not np.any(w != 0.0):
        raise InvalidInputError("weights must be nonzero")
    return float((w @ spec.b) ** 2 / (w @ spec.noise_cov @ w))


def population_maf_weights(spec: SnModelSpec) -> np.ndarray:
    """SNR-optimal combination weights: noise_cov^{-1} b, unit-normalized."""
    return unit_direction(np.linalg.solve(spec.noise_cov, spec.b))


def autocorrelation_from_snr(snr: float, k_f: float, k_eps: float) -> float:
    """Lag-1 autocorrelation of a combined series as a function of its SNR.

    (snr * k_f + k_eps) / (snr + 1): a weighted average of the signal and
    noise coherences, strictly increasing in snr exactly when k_f > k_eps.
    """
    if snr < 0:
        raise InvalidInputError(f"snr must be non-negative, got {snr}")
    return (snr * k_f + k_eps) / (snr + 1.0)


def signal_correlation_from_snr(snr: float) -> float:
    """Correlation between a combined series and the signal: sqrt(snr/(snr+1))."""
    if snr < 0:
        raise InvalidInputError(f"snr must be non-negative, got {snr}")
    return float(np.sqrt(snr / (snr + 1.0)))


def _check_model1_params(rho: float, q: int) -> None:
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise InvalidInputError(f"q must be a positive integer, got {q}")
    _equicorrelated_sigma(1.0, rho, 2 * q)


def model1_snr(nu: float, b1: float, gamma: float, rho: float, q: int) -> float:
    """SNR of a two-group combination with within-group weights (1, nu).

    Two groups of q series each: the first carries signal strength b1 per
    series, the second gamma*b1; noise has unit variance and common
    cross-correlation rho across all 2q series.
    """
    _check_model1_params(rho, q)
    num = b1 ** 2 * q * (1.0 + nu * gamma) ** 2
    den = (1.0 - rho) * (1.0 + nu ** 2) + rho * q * (1.0 + nu) ** 2
    return num / den


@dataclass(frozen=True)
class Model1Ratios:
    nu_maf: float
    nu_pca: float
    snr_maf: float
    snr_pca: float


def model1_optimal_ratios(b1: float, gamma: float, rho: float, q: int) -> Model1Ratios:
    """Optimal group-weight ratios nu = w2/w1 for MAF and PCA in the two-group model.

    The MAF ratio maximizes `model1_snr`; the PCA ratio maximizes total
    variance. Raises ParameterPoleError at parameter combinations where
    either closed form degenerates.
    """
    _check_model1_params(rho, q)
    c = 1.0 - rho + rho * q
    den_maf = c - gamma * rho * q
    if abs(den_maf) <= _POLE_RTOL * max(abs(c), abs(gamma * rho * q), 1.0):
        raise ParameterPoleError(
            f"MAF ratio pole at gamma={gamma}, rho={rho}, q={q}"
        )
    nu_maf = (gamma * c - rho * q) / den_maf

    b2 = gamma * b1
    den_pca = 2.0 * (b1 * b2 + rho)
    if abs(den_pca) <= _POLE_RTOL * max(abs(b1 * b2), abs(rho), 1.0):
        raise ParameterPoleError(
            f"PCA ratio pole at b1={b1}, gamma={gamma}, rho={rho}"
        )
    alpha = (b1 ** 2 - b2 ** 2) / den_pca
    nu_pca = float(np.sqrt(alpha ** 2 + 1.0) - alpha)

    return Model1Ratios(
        nu_maf=nu_maf,
        nu_pca=nu_pca,
        snr_maf=model1_snr(nu_maf, b1, gamma, rho, q),
        snr_pca=model1_snr(nu_pca, b1, gamma, rho, q),
    )


@dataclass(frozen=True)
class Model1Asymptotics:
    snr_maf_approx: float
    snr_pca_approx: float


def model1_asymptotics(b1: float, gamma: float, rho: float, q: int) -> Model1Asymptotics:
    """Large-q behavior of the two-group SNRs.

    The MAF SNR grows linearly in q, approx q * b1^2 (1-gamma)^2 / (2(1-rho));
    the PCA SNR approaches the constant obtained by holding its (q-free)
    ratio fixed and letting q grow in the exact SNR expression.
    """
    _check_model1_params(rho, q)
    if not (0.0 < rho < 1.0):
        raise InvalidInputError(f"asymptotic forms need 0 < rho < 1, got {rho}")
    maf_approx = q * b1 ** 2 * (1.0 - gamma) ** 2 / (2.0 * (1.0 - rho))
    nu_pca = model1_optimal_ratios(b1, gamma, rho, q).nu_pca
    pca_approx = b1 ** 2 * (1.0 + nu_pca * gamma) ** 2 / (rho * (1.0 + nu_pca) ** 2)
    return Model1Asymptotics(snr_maf_approx=maf_approx, snr_pca_approx=pca_approx)


def model2_maf_weights(b, sigma, rho: float) -> np.ndarray:
    """Optimal weights under equicorrelated noise with unequal variances.

    w_i proportional to b_i/sigma_i^2 - rho/(1+rho(p-1)) * sum_j b_j/(sigma_i sigma_j);
    identical to population_maf_weights with the noise covariance assembled
    from (sigma, rho), but evaluated without any matrix inversion.
    """
    b = np.asarray(b, dtype=float).ravel()
    p = b.size
    sigma = _equicorrelated_sigma(sigma, rho, p)
    shrink = rho / (1.0 + rho * (p - 1))
    w = b / sigma ** 2 - shrink * np.sum(b / sigma) / sigma
    return unit_direction(w)


@dataclass(frozen=True)
class AppendixClosedForm:
    """Closed-form eigenstructure of the rank-2-update covariance model."""

    pc_pairs: EigenPairs
    maf1: np.ndarray
    in_pc12_span: bool


def appendix_closed_form(b, rho: float, sigma=None) -> AppendixClosedForm:
    """Analytic leading eigenpairs and optimal weights for equicorrelated noise.

    For the standardized model (signal strengths b/sigma, unit noise
    variances, common correlation rho) the panel covariance is a rank-2
    update of a scaled identity; its two non-degenerate eigenpairs have
    closed forms, and the optimal combination reduces to a 2x2 symmetric
    eigenproblem on those two directions. The returned weights are mapped
    back to the original per-series scales; they lie in the span of the two
    leading principal components exactly when all scales are equal.
    """
    b = np.asarray(b, dtype=float).ravel()
    p = b.size
    if p < 2:
        raise InvalidInputError("closed form needs at least 2 series")
    if not np.any(b != 0.0):
        raise InvalidInputError("signal strength vector must be nonzero")
    sigma = _equicorrelated_sigma(1.0 if sigma is None else sigma, rho, p)

    bs = b / sigma  # standardized signal strengths
    norm2 = float(bs @ bs)
    bbar = float(bs.mean())
    ones = np.ones(p)

    if abs(bbar) <= 1e-12 * np.abs(bs).max():
        # strengths sum to zero: the non-degenerate eigenvectors are bs and 1
        pairs = [
            (norm2 + 1.0 - rho, bs / np.sqrt(norm2)),
            (rho * p + 1.0 - rho, ones / np.sqrt(p)),
        ]
    elif np.abs(bs - bbar * ones).max() <= 1e-12 * np.abs(bs).max():
        # strengths proportional to 1: the rank-2 update collapses to rank 1
        v2 = np.zeros(p)
        v2[0] = 1.0
        v2 -= v2.mean()
        pairs = [
            ((bbar ** 2 + rho) * p + 1.0 - rho, ones / np.sqrt(p)),
            (1.0 - rho, v2 / np.linalg.norm(v2)),
        ]
    else:
        disc = (norm2 - rho * p) ** 2 + 4.0 * (bbar * p) ** 2 * rho
        if disc < -1e-10 * max(norm2, 1.0) ** 2:
            raise InvalidInputError(
                f"complex eigenvalues at rho={rho}: discriminant {disc:.3e}"
            )
        delta = float(np.sqrt(max(disc, 0.0)))
        pairs = []
        for s in (+1.0, -1.0):
            vec = ((rho * p - norm2 + s * delta) / (2.0 * bbar * p)) * ones + bs
            val = (rho * p + norm2 + s * delta) / 2.0 + 1.0 - rho
            pairs.append((val, vec / np.linalg.norm(vec)))

    pairs.sort(key=lambda t: -t[0])
    lam = np.array([pairs[0][0], pairs[1][0]])
    vecs = unit_direction(np.column_stack([pairs[0][1], pairs[1][1]]))

    # 2x2 reduction in whitened coordinates spanned by the two eigenvectors
    ubar = vecs.mean(axis=0)
    a = (1.0 - rho + rho * p ** 2 * ubar[0] ** 2) / lam[0]
    d = (1.0 - rho + rho * p ** 2 * ubar[1] ** 2) / lam[1]
    off = rho * p ** 2 * ubar[0] * ubar[1] / np.sqrt(lam[0] * lam[1])
    if abs(off) <= 1e-15 * max(abs(a), abs(d), 1.0):
        xy = np.array([1.0, 0.0]) if a <= d else np.array([0.0, 1.0])
    else:
        mu = (a + d - np.sqrt((a - d) ** 2 + 4.0 * off ** 2)) / 2.0
        xy = np.array([mu - d, off])
        xy /= np.linalg.norm(xy)
    w_std = vecs @ (xy / np.sqrt(lam))
    maf1 = unit_direction(w_std / sigma)

    equal_scales = np.abs(sigma - sigma[0]).max() <= 1e-12 * sigma[0]
    return AppendixClosedForm(
        pc_pairs=EigenPairs(values=lam, vectors=vecs),
        maf1=maf1,
        in_pc12_span=bool(equal_scales),
    )


def cca_population_weights(spec: MultiSignalSpec) -> np.ndarray:
    """Population canonical-correlation weights of the panel against its signals.

    Columns are the leading q eigenvectors of panel_cov^{-1} (mixing mixing'),
    computed through the symmetric whitened form; each is unit-normalized.
    """
    white = inverse_sqrt(spec.panel_cov())
    gram = spec.mixing.T @ white  # q x p
    sym = white @ spec.mixing @ gram
    eig = sym_eig(sym, order="descending")
    return unit_direction(white @ eig.vectors[:, : spec.q])


def population_maf_multi(spec: MultiSignalSpec) -> np.ndarray:
    """First q population MAF weights under the multiple-signal model.

    Eigenvectors of the whitened differenced covariance with the smallest
    eigenvalues (equivalently the largest autocorrelations), mapped back to
    the original coordinates; they span the same subspace as the canonical
    weights whenever every signal coherence exceeds the noise constant.
    """
    white = inverse_sqrt(spec.panel_cov())
    eig = sym_eig(white @ spec.diff_cov() @ white, order="ascending")
    return unit_direction(white @ eig.vectors[:, : spec.q])


def subspace_principal_angles(a, b) -> np.ndarray:
    """Principal angles between the column spans of two full-rank bases, ascending."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise InvalidInputError("bases must be 2-D with a common row dimension")
    for name, m in (("first", a), ("second", b)):
        if np.linalg.matrix_rank(m) < m.shape[1]:
            raise InvalidInputError(f"{name} basis is column rank deficient")
    qa = np.linalg.qr(a)[0]
    qb = np.linalg.qr(b)[0]
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


@dataclass(frozen=True)
class LlrSnr:
    snr: float
    half_llr: float


def expected_llr_snr(spec: SnModelSpec) -> LlrSnr:
    """Optimal SNR b' noise_cov^{-1} b and the matching expected log-likelihood ratio.

    Under Gaussian noise the expected log-likelihood ratio of the
    signal-present model against the no-signal model equals half the
    optimal SNR; both quantities are returned.
    """
    snr = float(spec.b @ np.linalg.solve(spec.noise_cov, spec.b))
    return LlrSnr(snr=snr, half_llr=snr / 2.0)
