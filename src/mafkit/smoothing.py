"""Local linear regression (LOESS) with tricube weights, plus the empirical SNR.

Rows are treated as equally spaced, so the smoother is a fixed linear map
y -> L y for a given (n, config). Row i's window is the k rows around it,
shifted inward at the ends, so row i of L is one row of a (k, k) table of
local-fit weights, the one for the offset of i in its window. A degree-d
fit needs k - 1 - (k mod 2) >= d + 2 points of nonzero tricube weight, or
it would interpolate. The table is fitted in closed form, BLOCK_ROWS
offsets at a time, in coordinates centred on each row's point and scaled
by its window radius: from the weighted moments of those coordinates, with
one batched (d + 1)-square inverse. Its rows are within about 1e-14 of the
exact rational fits, relative to each row's peak, and the rows of the
second half are the first half's mirrored, so L is exactly
centro-symmetric. L itself is never built: the k // 2 head and the
k - 1 - k // 2 tail rows are table rows applied to the first and last k
values, and the n - k + 1 interior rows, which all have offset k // 2, are
applied BLOCK_ROWS at a time through one Toeplitz block of that table row.
So the operator holds O(k^2 + BLOCK_ROWS * k) floats, not n^2. Only the
most recent operator is kept, and it is dropped before the next is built.
L's trace is the smoother's degrees of freedom, which `SmoothResult`
reports.
`_fitted_columns` is the one way to apply L, to many columns at once,
writing each product in place; `smooth_columns` adds the residuals, and
`snr_columns` takes the fitted values of columns rescaled exactly
(`unit_scale_columns`, which also rejects a NaN or inf) and forms the
residuals in place in that rescaled copy. `loess_smooth` and
`empirical_snr` are their one-series cases (`one_column`). An SNR is
undefined when a column's residual SD is at most 1e-12 of its largest
magnitude, a floor that scales with the column.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import wraps
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateResidualError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidInputError,
)
from .linalg import one_column, unit_scale_columns

# Interior rows of L applied per Toeplitz block: the block holds
# BLOCK_ROWS * (BLOCK_ROWS + k - 1) floats, beside the (k, k) offset table.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class SmootherConfig:
    """Span (fraction of points per window) and local polynomial degree."""

    span_fraction: float = 0.4
    degree: int = 1

    def __post_init__(self):
        if not (0.0 < self.span_fraction <= 1.0):
            raise InvalidConfigError(
                f"span_fraction must be in (0, 1], got {self.span_fraction}"
            )
        if not isinstance(self.degree, numbers.Integral) or self.degree not in (0, 1, 2):
            raise InvalidConfigError(f"degree must be the integer 0, 1 or 2, got {self.degree!r}")

    def window_size(self, n: int) -> int:
        return int(math.ceil(self.span_fraction * n))


@dataclass(frozen=True)
class SmoothResult:
    """Fitted smooth, residuals (defined as input - fitted), and hat-trace df."""

    fitted: np.ndarray
    residuals: np.ndarray
    df: float


def _one_slot_cache(fn):
    """Cache the one most recent result of `fn`, like `lru_cache(maxsize=1)`,
    but drop the old result before computing a new one, so two smoother
    operators (offset table and Toeplitz block) are never alive together.
    `cache_info()` reports the running count of misses and whether a result
    is held; `cache_clear()` drops the held result."""
    slot: dict = {}
    misses = 0

    @wraps(fn)
    def cached(*args):
        nonlocal misses
        if args not in slot:
            misses += 1
            slot.clear()
            slot[args] = fn(*args)
        return slot[args]

    cached.cache_info = lambda: SimpleNamespace(misses=misses, currsize=len(slot))
    cached.cache_clear = slot.clear
    return cached


@_one_slot_cache
def _hat_matrix(n: int, cfg: SmootherConfig) -> tuple[np.ndarray, np.ndarray, float]:
    k = cfg.window_size(n)
    # tricube weights vanish at a window's far end, and at both ends of a
    # centred odd window: a fit on fewer than degree + 2 weighted points
    # would interpolate them
    if k - 1 - k % 2 < cfg.degree + 2:
        raise InsufficientDataError(
            f"window of {k} points cannot support a degree-{cfg.degree} local fit; "
            f"increase span_fraction or series length"
        )
    # Row i's window is its k nearest rows, distance ties broken toward the
    # lower index: [lo, lo + k) with lo = clip(i - k//2, 0, n - k). Its weights
    # depend only on the offset o = i - lo, so the table holds one row per
    # offset. Offset o is fitted in u = (j - o) / r, r = k - 1 - o being its
    # window radius for o < ceil(k / 2), so |u| <= 1 and the tricube weights
    # w = (1 - |u|^3)^3 need no clipping. The fit's value at the point is its
    # intercept, w * (c . (1, u, ..., u^d)) with c row 0 of the inverse of
    # the Hankel matrix of the moments sum(w u^a), a = 0..2d. BLOCK_ROWS
    # offsets are fitted at once; offsets from ceil(k / 2) on are the mirror
    # images table[k - 1 - o] = table[o][::-1], as in exact arithmetic.
    h, d = k // 2, cfg.degree
    j = np.arange(k, dtype=float)
    table = np.empty((k, k))
    for start in range(0, k - h, BLOCK_ROWS):
        o = np.arange(start, min(start + BLOCK_ROWS, k - h))[:, None]
        u = (j - o) / (k - 1 - o)
        w = 1.0 - np.abs(u * u * u)
        w *= w * w
        # the terms at j and 2o - j of an odd moment cancel exactly, so it
        # sums only j > 2o, and a centred row is exactly symmetric
        tail = j > 2 * o
        terms, moments = w, [w.sum(1)]
        for a in range(1, 2 * d + 1):
            terms = terms * u
            moments.append(np.where(tail, terms, 0.0).sum(1) if a % 2 else terms.sum(1))
        c = np.linalg.inv(sliding_window_view(np.stack(moments, 1), d + 1, axis=1))[:, 0]
        fit = table[start:start + len(o)]
        fit[:] = c[:, d:]
        for a in range(d - 1, -1, -1):
            fit *= u
            fit += c[:, a:a + 1]
        fit *= w
    table[k - h:] = table[h - 1::-1, ::-1]
    # the n - k + 1 interior rows all have offset h: row j of the Toeplitz
    # block holds table[h] at columns [j, j + k)
    rows = min(BLOCK_ROWS, n - k + 1)
    kernel = np.concatenate([np.zeros(rows - 1), table[h], np.zeros(rows - 1)])
    block = sliding_window_view(kernel, rows + k - 1)[::-1].copy()
    # L's diagonal in row order: head offsets 0..h-1, interior h, tail h+1..k-1
    diagonal = np.concatenate([table.diagonal()[:h], np.full(n - k, table[h, h]),
                               table.diagonal()[h:]])
    return table, block, float(diagonal.sum())


def loess_smooth(series, cfg: SmootherConfig = SmootherConfig()) -> SmoothResult:
    """Smooth one series by local weighted polynomial regression.

    Each point is fit from its `ceil(span_fraction * n)` nearest neighbors
    with tricube weights scaled by the window radius; windows become
    one-sided near the edges. This is the one-column `smooth_columns`.
    A constant series is smoothed like any other.

    Raises
    ------
    InvalidInputError
        If `series` is not one series (`one_column`), or holds a NaN or inf.
    """
    column = one_column(series)
    unit_scale_columns(column)  # rejects a NaN or inf, as for every series
    fitted, residuals, df = smooth_columns(column, cfg)
    return SmoothResult(fitted=fitted[:, 0], residuals=residuals[:, 0], df=df)


def _fitted_columns(values: np.ndarray, cfg: SmootherConfig) -> tuple[np.ndarray, float]:
    """L applied to every column of an (n, c) array, and L's trace: the one
    way to apply L, for `smooth_columns` and `snr_columns`.

    L is never built: head and tail rows are rows of the (k, k) offset
    table, and interior rows go BLOCK_ROWS at a time through the one cached
    (BLOCK_ROWS, BLOCK_ROWS + k - 1) Toeplitz block, so memory is
    O(k^2 + BLOCK_ROWS * k) for any n. Each product is written by `np.matmul`
    straight into its rows of the result, with no temporary per product.
    """
    n = values.shape[0]
    table, block, df = _hat_matrix(n, cfg)
    k, h, rows = table.shape[0], table.shape[0] // 2, block.shape[0]
    fitted = np.empty(values.shape)
    np.matmul(table[:h], values[:k], out=fitted[:h])
    np.matmul(table[h + 1:], values[n - k:], out=fitted[n - k + h + 1:])
    for lo in range(0, n - k + 1, rows):
        r = min(rows, n - k + 1 - lo)
        np.matmul(block[:r, :r + k - 1], values[lo:lo + r + k - 1],
                  out=fitted[h + lo:h + lo + r])
    return fitted, df


def smooth_columns(values: np.ndarray, cfg: SmootherConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Smooth every column of an (n, p) array at once; returns (fitted, residuals, df).

    The fitted values are L applied by `_fitted_columns`, each its row of L
    times the column; only the summation order can differ from a dense
    `L @ values`. The residuals are `values - fitted`, and df is L's trace.
    The caller guarantees finite values, as a panel, `compute_maf`'s factors
    or `unit_scale_columns` do.
    """
    fitted, df = _fitted_columns(values, cfg)
    return fitted, values - fitted, df


def snr_columns(values, cfg: SmootherConfig = SmootherConfig()) -> np.ndarray:
    """Empirical SNR of every column of an (n, c) array, with one pass of L.

    Column j's SNR is SD(L y_j) / SD(y_j - L y_j), both population
    normalized; the resampling functions in `mafkit.inference` pass the
    factors of a whole chunk of replicates as columns. The columns are
    rescaled into one C-ordered copy (`unit_scale_columns`), and the
    residuals are formed in place in that copy, so a call allocates no
    residual array and no array per product of L beyond the fitted values.
    The result is bitwise `fitted.std(0) / residuals.std(0)` of
    `smooth_columns` on the rescaled columns, whatever the input's layout.

    Raises
    ------
    InvalidInputError
        If `values` is not 2-D, or holds a NaN or inf (`unit_scale_columns`).
    DegenerateResidualError
        If any column's residual standard deviation is numerically zero,
        at most 1e-12 of the column's largest magnitude (the series is
        itself smooth at this span, or constant).
    """
    if np.ndim(values) != 2:
        raise InvalidInputError(f"expected an (n, c) array of series, got shape {np.shape(values)}")
    values, peaks = unit_scale_columns(np.ascontiguousarray(values, dtype=float))
    fitted, _ = _fitted_columns(values, cfg)
    values -= fitted  # the residuals, in the scaled copy: values is our own array
    sd_resid = values.std(axis=0)
    if np.any(sd_resid <= 1e-12 * peaks):
        raise DegenerateResidualError(
            "residual standard deviation is numerically zero; empirical SNR undefined"
        )
    return fitted.std(axis=0) / sd_resid


def empirical_snr(series, cfg: SmootherConfig = SmootherConfig()) -> float:
    """SD(smooth) / SD(residual) for one series: the one-column `snr_columns`.

    Raises
    ------
    InvalidInputError
        If `series` is not one series (`one_column`), or holds a NaN or inf.
    DegenerateResidualError
        If the residual standard deviation is numerically zero.
    """
    return float(snr_columns(one_column(series), cfg)[0])
