"""Covariance estimation and symmetric-eigenproblem kernels.

Everything here is a pure function of its inputs. Covariances use the
centered 1/(n-1) estimator throughout; scale factors cancel in the
autocorrelation Rayleigh quotients downstream, so the choice only affects
reported magnitudes, never directions.

`covariance_stack`, `sym_eig` and `inverse_sqrt` also take stacks of
panels or matrices on leading axes, and `spd_singular` is the one rule
every singularity check applies. `covariance_stack` is the one
covariance: it takes time-major (..., p, n) panels, each series along the
last axis, the layout the MAF kernel keeps its chunks in, so its centring
and product run along contiguous time; `sample_covariance` passes it an
(n, p) panel transposed. The MAF kernel whitens its p x p covariances
itself, from one `eigh` of the equilibrated covariance E S E, and applies
the SPD rule to that spectrum; E S E's diagonal lies in [0.25, 1), so a
panel is not singular for its series' units. The entry points for
matrices from outside, `inverse_sqrt`, `sym_eig` and `assert_spd`, check
them with `_check_symmetric` first. `_fix_signs` is the one orientation of
`sym_eig`'s eigenvectors and of unit weight vectors (`unit_direction`).

`unit_series` is the one rule for the input of a series statistic (one
series of at least 3 finite points, not constant), which it rescales by
the exact power of two of `unit_scale_columns`; blocks of columns, and
stacks of blocks, go through `unit_scale_columns` itself, which rejects a
NaN or inf.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (DegenerateSeriesError, InsufficientDataError, InvalidInputError,
                     SingularMatrixError)
from .panel import as_panel

# Relative eigenvalue floor below which a matrix is treated as singular.
SPD_RTOL = 1e-12

_SYM_ATOL = 1e-12


class EigenPairs(NamedTuple):
    """Eigenvalues (sorted as requested) with matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def sample_covariance(panel) -> np.ndarray:
    """Centered sample covariance of a panel, 1/(n-1) normalization.

    Raises
    ------
    InsufficientDataError
        If the panel has fewer than 2 rows.
    """
    panel = as_panel(panel)
    if panel.n < 2:
        raise InsufficientDataError(f"covariance needs at least 2 rows, got {panel.n}")
    return covariance_stack(panel.values.T)


def covariance_stack(x: np.ndarray) -> np.ndarray:
    """Centered 1/(n-1) covariance of every time-major (p, n) panel of a
    (..., p, n) stack: each series runs along the last axis, so both the
    centring and the product reduce along contiguous time when the stack is
    C-contiguous.

    The caller guarantees n >= 2 and finite values; the result is exactly
    symmetric, shape (..., p, p).
    """
    n = x.shape[-1]
    centered = x - x.mean(axis=-1, keepdims=True)
    cov = centered @ _swap(centered) / (n - 1)
    return 0.5 * (cov + _swap(cov))


def unit_scale_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns scaled exactly, by powers of two, to peak |values| in [0.5, 1), and those peaks.

    `values` is one (n, c) block of columns or an (..., n, c) stack of them:
    each column runs along axis -2, and the peaks have shape (..., c).
    Raises InvalidInputError if a value is NaN or inf (so is its column's peak).
    """
    peaks, exponents = np.frexp(np.abs(values).max(axis=-2, initial=0.0))
    if not np.all(np.isfinite(peaks)):
        raise InvalidInputError("series contains non-finite values")
    return np.ldexp(values, -exponents[..., None, :]), peaks


def one_column(series) -> np.ndarray:
    """One series, given 1-D or as one column, as an (n, 1) float column.

    Raises InvalidInputError for any other shape, so a block of series is
    never read as one long series.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim not in (1, 2) or y.shape[1:] not in ((), (1,)):
        raise InvalidInputError(f"expected one series, 1-D or one column, got shape {y.shape}")
    return y.reshape(-1, 1)


def unit_series(series) -> np.ndarray:
    """The one rule for a series statistic's input, which it returns 1-D and
    rescaled by `unit_scale_columns`: one series (`one_column`) of at least 3
    finite points that is not constant (`np.ptp` == 0, as in `compute_maf`).

    Statistics free of scale compute on the result, so no square over- or
    underflows for a series of any magnitude.

    Raises
    ------
    InvalidInputError
        If the input is not one series, or holds a NaN or inf.
    InsufficientDataError
        If the series has fewer than 3 points.
    DegenerateSeriesError
        If the series is constant.
    """
    y = unit_scale_columns(one_column(series))[0][:, 0]
    if y.size < 3:
        raise InsufficientDataError(f"a series needs at least 3 points, got {y.size}")
    if np.ptp(y) == 0.0:
        raise DegenerateSeriesError("series is constant")
    return y


def lag1_diff_covariance(panel) -> np.ndarray:
    """Sample covariance of the row-differenced panel (n-1 rows, 1/(n-2))."""
    panel = as_panel(panel)
    if panel.n < 3:
        raise InsufficientDataError(
            f"differenced covariance needs at least 3 rows, got {panel.n}"
        )
    return sample_covariance(np.diff(panel.values, axis=0))


def _swap(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _check_symmetric(m) -> np.ndarray:
    # Accepts one matrix or a stack of them on the leading axes.
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains non-finite entries")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m - _swap(m)).max(axis=(-2, -1)) > _SYM_ATOL * scale):
        raise InvalidInputError("matrix is not symmetric within 1e-12")
    return 0.5 * (m + _swap(m))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic orientation: largest-magnitude component of each column positive.
    idx = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(vectors, idx, axis=-2))
    signs[signs == 0] = 1.0
    return vectors * signs


def unit_direction(v) -> np.ndarray:
    """Unit-normalize a vector, or each column of a matrix, and orient it as
    `sym_eig` does; a zero vector raises InvalidInputError."""
    v = np.asarray(v, dtype=float)
    columns = v.reshape(v.shape[0], -1)
    norms = np.linalg.norm(columns, axis=0)
    if np.any(norms == 0.0):
        raise InvalidInputError("cannot normalize a zero vector")
    return _fix_signs(columns / norms).reshape(v.shape)


def sym_eig(m, order: str = "descending") -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix with deterministic signs.

    `order` is "ascending" or "descending". Each returned eigenvector is
    oriented so that its largest-magnitude component is positive. A stack
    of matrices (..., p, p) is decomposed matrix by matrix.
    """
    if order not in ("ascending", "descending"):
        raise InvalidInputError(f"order must be 'ascending' or 'descending', got {order!r}")
    m = _check_symmetric(m)
    values, vectors = np.linalg.eigh(m)  # ascending
    if order == "descending":
        values = values[..., ::-1]
        vectors = vectors[..., ::-1]
    return EigenPairs(values=values, vectors=_fix_signs(np.ascontiguousarray(vectors)))


def spd_singular(values) -> np.ndarray:
    """The SPD rule: flag ascending spectra whose min eigenvalue <= SPD_RTOL * max.

    `values` holds ascending eigenvalues on its last axis, for one matrix or
    a stack; the result is a boolean of the stack's shape. A spectrum with
    no positive eigenvalue is always flagged.
    """
    values = np.asarray(values, dtype=float)
    low, high = values[..., 0], values[..., -1]
    return (low <= SPD_RTOL * np.maximum(high, 0.0)) | (high <= 0.0)


def require_spd(values, what: str = "matrix") -> None:
    """Raise SingularMatrixError if any ascending spectrum fails `spd_singular`."""
    values = np.asarray(values, dtype=float)
    bad = spd_singular(values)
    if np.any(bad):
        spectrum = values[bad][0] if values.ndim > 1 else values
        raise SingularMatrixError(
            f"{what} is numerically singular: min eigenvalue {spectrum[0]:.3e} "
            f"vs max {spectrum[-1]:.3e}"
        )


def inverse_sqrt(m) -> np.ndarray:
    """Symmetric inverse square root M^{-1/2} via spectral decomposition,
    of one matrix or of each matrix of a (..., p, p) stack.

    Raises
    ------
    InvalidInputError
        If `m` is not square, finite and symmetric within 1e-12.
    SingularMatrixError
        If the smallest eigenvalue is below SPD_RTOL times the largest.
    """
    values, vectors = np.linalg.eigh(_check_symmetric(m))
    require_spd(values)
    root = (vectors / np.sqrt(values)[..., None, :]) @ _swap(vectors)
    return 0.5 * (root + _swap(root))


def assert_spd(m, what: str = "matrix") -> np.ndarray:
    """Validate symmetric positive definiteness; returns the symmetrized matrix."""
    m = _check_symmetric(m)
    require_spd(np.linalg.eigvalsh(m), what)
    return m
