"""Maximum-autocorrelation-factor and principal-component decompositions.

The MAF coefficients are the generalized eigenvectors of the covariance
pencil (Σ_Δ, S), the covariance of the differenced panel against the
panel's covariance (Switzer & Green 1984). They are solved on p x p
matrices only: one eigendecomposition S = U Λ U^T gives the whitener
W = U Λ^(-1/2), so that W^T S W = I, and the ascending eigenvectors V of
W^T Σ_Δ W give the coefficients W V. The factor with the
smallest differenced-covariance eigenvalue K has the largest lag-1
autocorrelation r = 1 - K/2 among all linear combinations of the input
series; successive factors maximize autocorrelation subject to being
uncorrelated with the earlier ones. `lag1_autocorrelation` is the one
autocorrelation formula and `standardize_columns` the one standardization
(PCA and the CLI's `--standardize`). `factor_autocorrelation` takes its
series through `linalg.unit_series`, the one rule for a series statistic's
input, and MAF is free of scale like it: `maf_stack` scales each series by
its own power of two first, and equilibrates its covariance by a power of
two per series, so neither the panel's scale nor each series' scale or
units matter.

`maf_stack` runs this algorithm over a stack of panels of one shape with
batched numpy linear algebra, on one time-major (m, p, n) copy of the
stack, so each reduction over time runs along contiguous memory (Golub &
Van Loan, *Matrix Computations*, §8.7); no whitened panel is formed. One
eigendecomposition yields all p factors, so it returns them all, and how
many to keep is the caller's slice. `compute_maf` is its one-panel case, and the resampling
functions in `mafkit.inference` feed it chunks of replicate panels; each
row of a stack is bitwise the decomposition `compute_maf` gives that panel,
up to the trend sign. It is the one function that scales panels, whitens
their covariances and applies the SPD rule to them; the permutation null
decomposes its residuals with it once and, in their MAF coordinates, solves
the same pencil with W = I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError, InvalidInputError
from .linalg import (
    covariance_stack,
    require_spd,
    sample_covariance,
    spd_singular,
    sym_eig,
    unit_scale_columns,
    unit_series,
)
from .panel import TimeSeriesPanel, as_panel

# Adjacent eigenvalues closer than this (relative) make factor identity ambiguous.
DEGENERATE_GAP_RTOL = 1e-8


@dataclass(frozen=True)
class MafDecomposition:
    """Result of a MAF decomposition.

    Attributes
    ----------
    coefficients : ndarray, shape (p, p)
        Column j holds the weights of factor j over the input series.
    factors : ndarray, shape (n, p)
        factors = panel values @ coefficients, ordered by decreasing
        lag-1 autocorrelation.
    diff_eigenvalues : ndarray, shape (p,)
        Ascending eigenvalues K of the pencil, the whitened differenced
        covariance W^T Σ_Δ W.
    autocorrelations : ndarray, shape (p,)
        Per-factor lag-1 autocorrelation, r = 1 - K/2 clamped to [-1, 1]
        (factors are unit-variance by construction, so r equals
        `factor_autocorrelation` of each factor up to rounding).
    degenerate_pairs : tuple of (int, int)
        Adjacent factor index pairs whose eigenvalues are numerically tied;
        factor identity within such a pair is not unique.
    """

    coefficients: np.ndarray
    factors: np.ndarray
    diff_eigenvalues: np.ndarray
    autocorrelations: np.ndarray
    degenerate_pairs: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class PcaDecomposition:
    """Principal components of a (optionally standardized) panel.

    `coefficients` columns are orthonormal eigenvectors of the sample
    covariance of the processed panel; `variances` are the matching
    eigenvalues in descending order; `factors` are the centered scores.
    """

    coefficients: np.ndarray
    factors: np.ndarray
    variances: np.ndarray
    standardized: bool


class MafStack(NamedTuple):
    """All p MAF factors of every panel of an (m, n, p) stack.

    coefficients : (m, p, p) weights, columns in ascending eigenvalue order,
        each with the sign LAPACK gave it; callers that publish factors set
        their own sign rule.
    factors : (m, n, p), panel values @ coefficients; a writable (m, n, p)
        view of `maf_stack`'s time-major (m, p, n) product, laid out for the
        SNR stage. The permutation null's stack holds only the first w
        columns, as the (m, n, w) view of its (n, m, w) buffer, where
        w = min(p, max(k, 2)) for k tested factors.
    diff_eigenvalues : (m, p) ascending eigenvalues K of the pencil, the
        whitened differenced covariance W^T Σ_Δ W; lag-1 autocorrelation
        is 1 - K/2.
    singular : (m,) True where the panel's equilibrated sample covariance
        failed the SPD rule (only possible with `allow_singular`); those panels'
        entries are NaN.
    """

    coefficients: np.ndarray
    factors: np.ndarray
    diff_eigenvalues: np.ndarray
    singular: np.ndarray


def maf_stack(x, allow_singular: bool = False) -> MafStack:
    """MAF decomposition of every panel of an (m, n, p) stack at once.

    The stack is copied once into time-major (m, p, n) layout, so every
    reduction over time below runs along the contiguous last axis. Per
    panel: exact power-of-two scaling of each series (the one power of two
    that puts the series' peak |value| in [0.5, 1)), centered covariance S
    (`covariance_stack`), equilibrated as S' = E S E with E = diag(2^-e)
    for the powers of two 2^e of the square roots of S's diagonal. One
    batched `np.linalg.eigh` of S' = U Λ U^T gives both the spectrum the
    SPD rule reads and the whitener W = E U Λ^(-1/2), so W^T S W = I. The
    covariance Σ_Δ of the scaled panel's differences along time
    (`covariance_stack`) then enters the pencil as W^T Σ_Δ W, and its
    ascending eigendecomposition (batched `np.linalg.eigh`, which reads
    one triangle) yields all p factors at once as the coefficients W V; a
    caller that needs fewer slices them. Only p x p matrices are whitened:
    no whitened (m, p, n) panel is formed. The scalings are exact, so no
    covariance over- or underflows for any |values| from about 1e-300 to
    1e300, and each coefficient row is scaled back by its series' power of
    two, so the result does not depend on the panel's scale nor on any one
    series' scale. The SPD rule applies to S', so it does not depend on
    the units of each series either; a spectrum that fails it has its
    eigenvalues taken as 1, and its panel's entries are NaN. Both
    covariances come from `covariance_stack`, exactly symmetric, so
    neither is re-checked. This is the one function that scales panels,
    whitens their covariances and applies the SPD rule to them. No
    sign rule is applied: each factor keeps LAPACK's sign, and the callers
    set theirs (`compute_maf` the trend sign, `resample_maf` alignment with
    the original factors; the test, power and comparison statistics ignore
    sign).

    Raises
    ------
    InvalidInputError
        If `x` is not a 3-D array, or a panel holds a NaN or inf (one
        finiteness check, on each series' peak |value|).
    InsufficientDataError
        If n <= p, or n < 3 (the differenced covariance needs two rows).
    SingularMatrixError
        If a panel's equilibrated sample covariance S' is numerically
        singular, unless `allow_singular`, which flags such panels in
        `singular` instead.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3:
        raise InvalidInputError(f"expected an (m, n, p) stack of panels, got shape {x.shape}")
    _, n, p = x.shape
    if p < 1:
        raise InvalidInputError("panel must have at least one series")
    if n <= max(p, 2):
        raise InsufficientDataError(
            f"MAF needs more time steps than series and at least 3, got n={n}, p={p}"
        )
    # time-major: every reduction below runs along contiguous time
    x = np.ascontiguousarray(np.swapaxes(x, 1, 2))
    # a NaN or inf is its series' peak, and a scaled panel's covariance is
    # bounded, so a finite peak is the one finiteness check
    peaks, exponents = np.frexp(np.abs(x).max(axis=2, keepdims=True))
    if not np.all(np.isfinite(peaks)):
        raise InvalidInputError("panel has non-finite values")
    x = np.ldexp(x, -exponents)
    # S' = E S E has a diagonal in [0.25, 1), so the SPD rule sees series of
    # any units alike; E is a power of two per series, so S' and the rows
    # of W = E U Λ^(-1/2) are scaled exactly
    cov = covariance_stack(x)
    _, e = np.frexp(np.sqrt(np.diagonal(cov, axis1=1, axis2=2)))
    cov_values, basis = np.linalg.eigh(np.ldexp(cov, -(e[:, :, None] + e[:, None, :])))
    singular = spd_singular(cov_values)
    if not allow_singular:
        require_spd(cov_values, "sample covariance")
    safe = np.where(singular[:, None], 1.0, cov_values)
    whitener = np.ldexp(basis / np.sqrt(safe)[:, None, :], -e[:, :, None])
    diff_cov = covariance_stack(np.diff(x, axis=2))
    diff_values, vectors = np.linalg.eigh(np.swapaxes(whitener, 1, 2) @ diff_cov @ whitener)
    coefficients = whitener @ vectors
    factors = np.swapaxes(np.swapaxes(coefficients, 1, 2) @ x, 1, 2)
    coefficients = np.ldexp(coefficients, -exponents)
    if np.any(singular):
        coefficients[singular] = factors[singular] = diff_values[singular] = np.nan
    return MafStack(coefficients, factors, diff_values, singular)


def compute_maf(panel) -> MafDecomposition:
    """Compute all p MAF factors and coefficients of a panel.

    The one-panel case of `maf_stack`, plus the trend-sign rule (every
    factor trends upward, i.e. has positive covariance with the row index)
    and the detection of numerically tied factors.

    Raises
    ------
    DegenerateSeriesError
        If a series is constant (all its values equal); checked first.
    InsufficientDataError
        If n <= p (the covariance pencil would be rank deficient), or n < 3.
    SingularMatrixError
        If the sample covariance is numerically singular.
    """
    panel = as_panel(panel)
    constant = np.flatnonzero(np.ptp(panel.values, axis=0) == 0.0)
    if constant.size:
        raise DegenerateSeriesError(f"series {constant[0] + 1} is constant")
    stack = maf_stack(panel.values[None])
    coefficients, factors = stack.coefficients[0], stack.factors[0]

    # Trend-sign rule: factor j trends upward. Using the covariance with the
    # centered row index instead of the raw weighted sum keeps the rule
    # insensitive to the factor mean.
    t_centered = np.arange(panel.n) - (panel.n - 1) / 2.0
    signs = np.sign(t_centered @ factors)
    signs[signs == 0] = 1.0
    coefficients = coefficients * signs
    factors = factors * signs

    k = stack.diff_eigenvalues[0]
    gaps = np.abs(np.diff(k))
    scale = np.maximum(np.maximum(np.abs(k[:-1]), np.abs(k[1:])), 1e-300)
    degenerate = tuple(
        (int(j), int(j + 1)) for j in np.nonzero(gaps < DEGENERATE_GAP_RTOL * scale)[0]
    )
    return MafDecomposition(
        coefficients=coefficients,
        factors=factors,
        diff_eigenvalues=k,
        autocorrelations=lag1_autocorrelation(k),
        degenerate_pairs=degenerate,
    )


def compute_pca(panel, standardize: bool = True) -> PcaDecomposition:
    """Principal components of the panel; correlation PCA by default.

    With `standardize` each column is scaled to unit variance before the
    covariance is formed (zero-variance columns are left unscaled so that
    rank-deficient panels still decompose). Factors are the centered,
    optionally scaled panel projected on the eigenvectors. The covariance is
    taken of that panel scaled by the one power of two that puts its peak
    |value| in [0.5, 1), and the variances are scaled back, so coefficients
    and factors do not depend on the panel's scale; a variance below the
    smallest double is 0.

    Raises
    ------
    InsufficientDataError
        If the panel has fewer than 2 rows.
    InvalidInputError
        If a variance is too large for a double.
    """
    panel = as_panel(panel)
    if panel.n < 2:
        raise InsufficientDataError(f"PCA needs at least 2 rows, got {panel.n}")
    x = panel.values
    x = standardize_columns(x) if standardize else x - x.mean(axis=0)
    _, exponent = np.frexp(np.abs(x).max())
    eig = sym_eig(sample_covariance(np.ldexp(x, -exponent)), order="descending")
    with np.errstate(over="ignore"):
        variances = np.ldexp(np.maximum(eig.values, 0.0), 2 * exponent)
    if not np.all(np.isfinite(variances)):
        raise InvalidInputError("a principal component's variance overflows a double")
    return PcaDecomposition(
        coefficients=eig.vectors,
        factors=x @ eig.vectors,
        variances=variances,
        standardized=standardize,
    )


def standardize_columns(values: np.ndarray) -> np.ndarray:
    """Center each column and scale it by its ddof=1 standard deviation; a
    zero-variance column is left unscaled, so rank-deficient panels decompose.
    The columns are first scaled exactly (`unit_scale_columns`), so no
    variance over- or underflows and the result does not depend on scale."""
    x, _ = unit_scale_columns(values)
    x = x - x.mean(axis=0)
    scale = x.std(axis=0, ddof=1)
    scale[scale == 0.0] = 1.0
    return x / scale


def lag1_autocorrelation(diff_var, var=1.0):
    """r = 1 - Var(diff y) / (2 Var(y)), the lag-1 autocorrelation MAF maximizes;
    1 - K/2 for a whitened factor with differenced-covariance eigenvalue K.

    Clamped to [-1, 1]: the two variances are sample estimates over n - 1 and
    n - 2 terms, so the ratio can pass 4 for a near-alternating series.
    """
    return np.clip(1.0 - diff_var / (2.0 * var), -1.0, 1.0)


def factor_autocorrelation(series) -> float:
    """Lag-1 autocorrelation of one series via the variance-ratio identity.

    `lag1_autocorrelation` of the centered sample variances of the series
    and of its differences, taken on `unit_series`, whose errors it raises
    (a series of at least 3 finite points that is not constant).
    """
    y = unit_series(series)
    return float(lag1_autocorrelation(np.diff(y).var(ddof=1), y.var(ddof=1)))


def combination_autocorrelation(panel, weights) -> float:
    """Lag-1 autocorrelation of the combined series `panel.values @ weights`,
    by `factor_autocorrelation`."""
    panel = as_panel(panel)
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape != (panel.p,):
        raise InvalidInputError(f"expected weight vector of length {panel.p}, got {w.shape}")
    if not np.any(w != 0.0):
        raise InvalidInputError("weights must be nonzero")
    return factor_autocorrelation(panel.values @ w)


__all__ = [
    "MafDecomposition",
    "MafStack",
    "PcaDecomposition",
    "TimeSeriesPanel",
    "combination_autocorrelation",
    "compute_maf",
    "compute_pca",
    "factor_autocorrelation",
    "maf_stack",
]
