"""Resampling-based uncertainty bands, the signal-presence test, test power,
the MAF-vs-PCA comparison experiment, and factor-count selection.

All resampling draws come from per-replicate RNG streams derived
deterministically from (seed, replicate index): replicate b draws what
`default_rng(SeedSequence(seed).spawn(B)[b])` would, in whatever chunks
the replicates are evaluated. Results are bit-identical across runs for a
fixed CHUNK_BYTES, numpy and BLAS. Across chunk sizes the draws are the
same, but the SNR stage's BLAS products (`smoothing._fitted_columns`)
round differently for other column counts, so `null_draws` move by up to
about 1e-15 relative (at most 6.5e-16 on the packaged panel), and the
p-values stay identical.

Every resampling function and the comparison experiment run their
replicates through one driver, `_replicates`. It computes the PCG64
starting states of all the streams in bulk: numpy's SeedSequence mixes the
seed once, `_stream_words` mixes each replicate's spawn key into that pool
over arrays, and `_pcg64_state` writes out PCG64's seeding. Every
replicate, redraws included, is drawn through one reused Generator set to
its stream's state. Replicate panels are drawn one by one, each from its
own stream, then decomposed together by `maf.maf_stack` in chunks of
CHUNK_BYTES // (8 n width) panels, but of at least MIN_CHUNK_PANELS, where
width is the number of columns per replicate that the caller's statistic
smooths: k factors for the presence test, one for `power_curve`'s SNR, and
p where the statistic smooths nothing (the autocorrelation, `resample_maf`'s
aligned factors, the comparison experiment), so that a chunk is sized by
its panels. The SNR stage holds a chunk's largest arrays, n x (panels *
width) doubles, several at once; sized so, they stay near CHUNK_BYTES.
Each chunk pays a fixed cost of about 100 numpy calls. A temporary past
glibc's initial 128 KiB mmap threshold does not each time pay for a fresh
mapping: glibc raises the threshold to the size of the first such block
freed, so later ones come from the heap (a warm 4999-replicate test of 2
factors at 150 x 4 takes fewer than 300 minor page faults). Faults remain
where the top of the heap is trimmed between chunks, as in `power_curve`,
whose 106-panel chunks at 150 x 3 hold about ten (106, 3, 150) arrays of
381 KB: about 5,500 faults per `power` command, at about 2 us each. The
budget keeps memory flat in B. The floor keeps a long panel (3000 x 8 is
192 KB) from paying the kernel's per-call overhead once per replicate; it
costs holding that many panels and their copies at once, about 6 MB at
3000 x 8, which grows with n but not with B. The kernel returns all p factors of each
panel, and each caller slices the ones its statistic uses.
A singular replicate is redrawn from its own stream; more than 10% of B
redraws is an error. The bootstrap draws of `resample_maf` and of the
presence test's bootstrap null come from one block sampler,
`_block_bootstrap`, which gathers a chunk's circular blocks with one index.
The permutation null passes `_replicates` its own decomposition
(`_permutation_null`): a row permutation leaves the covariance unchanged,
so the residuals go through `maf_stack` once, and each permuted panel of
their MAF factors is decomposed from its lag-1 moments, with no covariance,
whitening or redraw per replicate. Those factors are white, so each chunk
solves `maf_stack`'s covariance pencil with W = I: one batched eigh of the
differenced covariance built from the moments. A chunk's permuted rows are
gathered with one `np.take`, and only the factor columns the test reads
are formed: w = min(p, max(k, 2)) of them for k tested factors, written
time-major into an (n, m, w) buffer, so that `_factor_snrs` reads them
without a transpose copy for every k >= 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    SingularMatrixError,
)
from .linalg import unit_scale_columns, unit_series
from .maf import MafStack, compute_maf, compute_pca, lag1_autocorrelation, maf_stack
from .panel import as_panel
from .simulate import SignalSpec, gen_signal, gen_sn_stack, noise_cholesky
from .smoothing import SmootherConfig, empirical_snr, smooth_columns, snr_columns

__all__ = [
    "ResamplingEnvelope",
    "TestReport",
    "PowerPoint",
    "SelectionResult",
    "resample_maf",
    "signal_presence_test",
    "power_curve",
    "ExperimentGrid",
    "ExperimentRow",
    "correlation_with_signal",
    "multi_factor_r",
    "run_comparison_experiment",
    "select_num_factors",
]


# A chunk of replicates holds CHUNK_BYTES of the columns its statistic
# smooths (`_replicates`' width): enough panels to amortize the fixed cost
# of a chunk, about 100 numpy calls (53 panels for the presence test's 2
# factors at 150 x 4, 26 when all 4 are tested), few enough that memory
# does not grow with B. Temporaries past glibc's initial 128 KiB mmap
# threshold come from the heap once the first is freed, since glibc then
# raises the threshold; they pay page faults only where the heap's top is
# trimmed between chunks (about 5,500 per `power` command). A chunk holds
# at least MIN_CHUNK_PANELS panels, so that long panels (3000 x 8, of which
# CHUNK_BYTES holds less than one) still share the kernel's calls; memory
# then grows with n, not with B.
CHUNK_BYTES = 128_000
MIN_CHUNK_PANELS = 4

# Constants of numpy's SeedSequence hash-mix (NEP 19) and of PCG64's LCG
# (O'Neill 2014); numpy keeps both algorithms stable by policy.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(values: np.ndarray, init: int, mult: int, start: int) -> np.ndarray:
    """SeedSequence's hashmix of each row of a uint32 array, row j being the
    hash's call start + j, counted from 0: call c xors with init * mult**c
    and multiplies by init * mult**(c + 1), both mod 2**32."""
    consts = np.array([init * pow(mult, start + j, 1 << 32) & _MASK32
                       for j in range(len(values) + 1)], np.uint32)[:, None]
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> np.uint32(16))


def _stream_words(seed: int, keys: range) -> np.ndarray:
    """PCG64 seed words of every replicate stream, as a (len(keys), 4) array.

    Row i equals `SeedSequence(seed, spawn_key=(keys[i],)).generate_state(4,
    np.uint64)`, which is `SeedSequence(seed).spawn(B)[b]` for key b. The
    keys, a non-empty range, share the seed's entropy, so they start from
    numpy's mix of it, `SeedSequence(seed).pool`; only the spawn key, their
    last entropy word, is mixed in here, over all keys at once. Before it, a
    seed of w uint32 words has used 4 * max(4, w) hashes.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise InvalidConfigError(f"seed must be non-negative, got {seed}")
    if min(keys[0], keys[-1]) < 0 or max(keys[0], keys[-1]) > _MASK32:
        raise InvalidConfigError("replicate keys must lie in [0, 2**32)")
    keys = np.tile(np.arange(keys.start, keys.stop, keys.step, dtype=np.uint32), (4, 1))
    hashed = _hashmix(keys, _INIT_A, _MULT_A, 4 * max(4, -(-seed.bit_length() // 32)))
    pool = np.random.SeedSequence(seed).pool[:, None]
    mixed = np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * hashed
    mixed ^= mixed >> np.uint32(16)
    # generate_state: eight uint32 words, paired little-endian into uint64
    state = _hashmix(np.tile(mixed, (2, 1)), _INIT_B, _MULT_B, 0).astype(np.uint64)
    return (state[::2] | state[1::2] << np.uint64(32)).T


def _pcg64_state(seed_hi: int, seed_lo: int, seq_hi: int, seq_lo: int) -> dict:
    """The `bit_generator.state` of a PCG64 seeded with these words (srandom)."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _replicates(seed: int, keys: range, n: int, width: int, draw, decompose=None):
    """Decompose one (n, p) panel per replicate key, by chunks sized by `width`.

    Replicate `keys[i]` draws exactly what `default_rng(SeedSequence(seed,
    spawn_key=(keys[i],)))` would, the `SeedSequence(seed).spawn` child of
    that index; the streams are computed in bulk by `_stream_words` and
    drawn through one reused Generator. `draw(rngs)` stacks one panel per
    generator from a lazy iterator, which sets the next replicate's state
    only when asked for it, so each replicate's draws finish first.
    `width` is the number of columns per replicate that the caller's
    per-chunk statistic smooths (k factors for the presence test's SNRs, 1
    for `power_curve`'s, p for a statistic that smooths nothing); a chunk
    holds CHUNK_BYTES // (8 n width) panels, so the SNR stage's n x (panels
    * width) arrays stay near CHUNK_BYTES, below the allocator's mmap
    threshold, or MIN_CHUNK_PANELS panels when fewer fit (about 770 KB of
    values at 3000 x 8). Each chunk goes through one `decompose` call,
    `maf_stack(panels, allow_singular=True)` by default;
    any other returns a MafStack of the same fields. A singular replicate
    is redrawn alone from its own stream, on the same Generator: its first
    draw is replayed and discarded, and each next draw's one-panel
    `decompose` is patched into the chunk until it is not singular; more
    than 10% of B redraws in all raises SingularMatrixError. Yields (start,
    stop, panels, MafStack, redraws so far), where `panels[i]` is the panel
    that the MafStack's row i decomposes: a redrawn replicate's last draw.
    """
    if decompose is None:
        decompose = partial(maf_stack, allow_singular=True)
    words = _stream_words(seed, keys)
    B = len(words)
    # the first stream checked against numpy's own seeding, once per call
    first = np.random.SeedSequence(seed, spawn_key=(keys[0],))
    rng = np.random.default_rng(first)
    bitgen = rng.bit_generator
    if not (np.array_equal(first.generate_state(4, np.uint64), words[0])
            and bitgen.state == _pcg64_state(*words[0].tolist())):
        raise RuntimeError("numpy's SeedSequence or PCG64 seeding no longer matches "
                           "mafkit's replicate streams")

    def streams(rows):
        for row in rows.tolist():
            bitgen.state = _pcg64_state(*row)
            yield rng

    size = max(MIN_CHUNK_PANELS, CHUNK_BYTES // (8 * n * width))
    budget = max(1, math.ceil(0.1 * B))
    redraws = 0
    for start in range(0, B, size):
        stop = min(start + size, B)
        panels = draw(streams(words[start:stop]))
        stack = decompose(panels)
        for i in np.flatnonzero(stack.singular):
            draw(streams(words[start + i:start + i + 1]))  # replays the first draw
            while stack.singular[i]:
                redraws += 1
                if redraws > budget:
                    raise SingularMatrixError(
                        f"singular replicates needed more than {budget} redraws, the "
                        f"budget of 10% of B={B}; panel too close to singular"
                    )
                panels[i] = draw(iter([rng]))[0]
                for old, new in zip(stack, decompose(panels[i:i + 1])):
                    old[i] = new[0]
        yield start, stop, panels, stack, redraws


def _factor_snrs(factors: np.ndarray, cfg: SmootherConfig) -> np.ndarray:
    """Empirical SNRs of an (m, n, k) stack of factors, as a (k, m) array."""
    m, n, k = factors.shape
    columns = factors.transpose(1, 0, 2).reshape(n, m * k)
    return snr_columns(columns, cfg).reshape(m, k).T


def _permutation_null(residuals: np.ndarray, k: int):
    """`draw` and `decompose` for `_replicates` over the row permutations
    of an (n, p) residual panel, in the residuals' own MAF coordinates.

    MAF is affine-invariant, so any whitening of the residuals serves the
    null, and their MAF factors are whitened. So the residuals go through
    `maf_stack` once: C is its coefficients and Z its factors, centered. A
    row permutation leaves the sample covariance unchanged, so that call's
    SPD rule covers every replicate (none can be singular, so none is
    redrawn), and a singular residual covariance raises SingularMatrixError
    naming the residuals. `draw` stacks the permuted rows Z[pi], one
    `rng.permutation(n)` per replicate, and gathers a chunk's rows with one
    `np.take`, several times faster than the fancy index it equals. The
    differenced covariance of each comes from its lag-1 moments: with
    G0 = Z^T Z, G1 = Z[pi][1:]^T Z[pi][:-1], and f and l the first and last
    rows of Z[pi],
    D = (2 G0 - f f^T - l l^T - (G1 + G1^T) - (l - f)(l - f)^T / (n - 1)) / (n - 2).
    One batched eigh of D gives the ascending eigenvalues and V; the
    coefficients are C V, and the factors Z[pi] V, centered, of which only
    the first w = min(p, max(k, 2)) are formed for k tested factors. They
    are written into an (n, m, w) buffer and returned as its (m, n, w)
    view, so that `_factor_snrs` reads their k columns for the SNR stage
    as a view for every k >= 2, with no transpose copy. At k = 1 two
    columns are formed: one would be a matrix-vector product, which rounds
    differently from the matrix products of two or more columns. The
    moments cancel when rows are strongly autocorrelated, but permuted rows
    have lag-1 autocorrelation near 0; every other replicate panel goes
    through `maf_stack`.
    """
    try:
        basis = maf_stack(residuals[None])
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"the residuals' {exc}") from exc
    coefficients, z = basis.coefficients[0], basis.factors[0]
    z = z - z.mean(axis=0)
    n, p = z.shape
    # a (p, 1) operand would send matmul to gemv, which rounds differently
    w = min(p, max(k, 2))
    twice_g0 = 2.0 * (z.T @ z)

    def draw(rngs):
        return np.take(z, np.stack([rng.permutation(n) for rng in rngs]), axis=0)

    def decompose(zs):
        first, last = zs[:, 0], zs[:, -1]
        g1 = np.swapaxes(zs[:, 1:], 1, 2) @ zs[:, :-1]
        jump = last - first

        def outer(v):  # bitwise the (p, 1) @ (1, p) matmul of each row
            return v[:, :, None] * v[:, None, :]

        diff_cov = (twice_g0 - outer(first) - outer(last) - (g1 + np.swapaxes(g1, 1, 2))
                    - outer(jump) / (n - 1)) / (n - 2)
        values, vectors = np.linalg.eigh(diff_cov)
        factors = np.empty((n, len(zs), w)).transpose(1, 0, 2)
        return MafStack(coefficients @ vectors, np.matmul(zs, vectors[..., :w], out=factors),
                        values, np.zeros(len(zs), dtype=bool))

    return draw, decompose


def _block_bootstrap(residuals: np.ndarray, block_len: int):
    """`draw` for `_replicates`: circular-block bootstrap panels of the
    (n, p) residual rows.

    Each replicate draws ceil(n / block_len) block starts uniformly from
    the n rows, `rng.integers(0, n, size=ceil(n / block_len))`; each block
    is block_len consecutive rows, wrapping at the end, and the blocks are
    cut to n rows. With block_len == 1 this is the iid bootstrap
    (Politis & Romano 1992). The blocks are a view of the residuals
    extended by their first block_len - 1 rows, so one index gathers the
    rows of a whole chunk.
    """
    n = len(residuals)
    n_blocks = -(-n // block_len)
    extended = np.concatenate([residuals, residuals[:block_len - 1]])
    blocks = np.swapaxes(sliding_window_view(extended, block_len, axis=0), 1, 2)

    def draw(rngs):
        starts = np.stack([rng.integers(0, n, size=n_blocks) for rng in rngs])
        return blocks[starts].reshape(len(starts), n_blocks * block_len, -1)[:, :n]

    return draw


@dataclass(frozen=True)
class ResamplingEnvelope:
    """Replicate draws and pointwise confidence bands for the leading factors.

    Arrays are indexed (factor, replicate, ...) for the first `n_factors`
    factors. `pointwise_bands[j, t]` holds the empirical (alpha/2,
    1 - alpha/2) quantiles of the replicate factor values at time t;
    `original_smoothed[j]` is the smoothed original factor j.
    """

    replicate_factors: np.ndarray
    replicate_coefficients: np.ndarray
    pointwise_bands: np.ndarray
    original_smoothed: np.ndarray
    original_factors: np.ndarray
    alpha: float
    block_len: int
    seed: int
    retries: int = 0


def resample_maf(panel, B: int, block_len: int = 1,
                 cfg: SmootherConfig = SmootherConfig(), n_factors: int = 1,
                 seed: int = 0, alpha: float = 0.05) -> ResamplingEnvelope:
    """Residual-resampling uncertainty bands for the MAF factors.

    Each series is smoothed; residual rows are resampled jointly across
    series in circular blocks of block_len rows (`_block_bootstrap`, the
    one block sampler; blocks of one are the iid bootstrap) and added back
    onto the smooths, one chunk of replicates at a time; MAF is recomputed
    on every rebuilt panel. Replicate factors are sign-aligned to the
    original factors and replicate coefficient columns are unit-normalized.
    A replicate whose covariance degenerates is redrawn from its own stream
    (see `_replicates`); `retries` counts the redraws. The bands are
    quantiles of the sorted replicates: the same order statistics and
    interpolation as of the unsorted ones, without numpy's partition at
    several positions.
    """
    panel = as_panel(panel)
    n, p = panel.n, panel.p
    if B < 1:
        raise InvalidConfigError(f"B must be at least 1, got {B}")
    if not (1 <= block_len <= n):
        raise InvalidConfigError(f"block_len must be in [1, {n}], got {block_len}")
    if not (1 <= n_factors <= p):
        raise InvalidConfigError(f"n_factors must be in [1, {p}], got {n_factors}")
    if not (0.0 < alpha < 1.0):
        raise InvalidConfigError(f"alpha must be in (0, 1), got {alpha}")

    original = compute_maf(panel)
    fitted, residuals, _ = smooth_columns(panel.values, cfg)

    orig_factors = original.factors[:, :n_factors]
    orig_centered = orig_factors - orig_factors.mean(axis=0)

    rep_factors = np.empty((n_factors, B, n))
    rep_coefs = np.empty((n_factors, B, p))

    rows = _block_bootstrap(residuals, block_len)

    def draw(rngs):
        return np.add(fitted, rows(rngs))

    for start, stop, _, reps, retries in _replicates(seed, range(B), n, p, draw):
        factors = reps.factors[..., :n_factors]
        coefs = reps.coefficients[..., :n_factors]
        # align each replicate factor with the original factor it estimates
        centered = factors - factors.mean(axis=1, keepdims=True)
        flips = np.where(np.einsum("mtj,tj->mj", centered, orig_centered) < 0, -1.0, 1.0)
        flips = flips[:, None, :]
        # coefficients scale as 1 / (the panel's scale): each column is first
        # scaled exactly by `unit_scale_columns`, so its norm neither over-
        # nor underflows, and the unit column keeps every bit
        coefs, _ = unit_scale_columns(coefs)
        coefs = coefs * flips / np.linalg.norm(coefs, axis=1, keepdims=True)
        rep_factors[:, start:stop] = (factors * flips).transpose(2, 0, 1)
        rep_coefs[:, start:stop] = coefs.transpose(2, 0, 1)

    bands = np.quantile(np.sort(rep_factors, axis=1), [alpha / 2.0, 1.0 - alpha / 2.0],
                        axis=1, overwrite_input=True)
    return ResamplingEnvelope(
        replicate_factors=rep_factors,
        replicate_coefficients=rep_coefs,
        pointwise_bands=np.moveaxis(bands, 0, -1),
        original_smoothed=smooth_columns(orig_factors, cfg)[0].T,
        original_factors=orig_factors.T,
        alpha=alpha,
        block_len=block_len,
        seed=seed,
        retries=retries,
    )


@dataclass(frozen=True)
class TestReport:
    """Signal-presence test result for the leading factors.

    `p_value[j]` is the share of null replicates whose factor-(j+1)
    statistic reaches the observed one. With `conservative` the
    (1 + count) / (1 + B) form is used instead of the raw proportion.
    """

    statistic_name: str
    observed: np.ndarray
    null_draws: np.ndarray
    p_value: np.ndarray
    mode: str
    block_len: int
    seed: int
    n_replicates: int
    conservative: bool = False


def signal_presence_test(panel, B: int, cfg: SmootherConfig = SmootherConfig(),
                         mode: str | None = None, block_len: int = 1,
                         n_factors_tested: int = 1, seed: int = 0,
                         conservative: bool = False) -> TestReport:
    """Test whether the leading MAF factors carry a signal rather than noise.

    The observed statistic of factor j is its empirical SNR. Null panels are
    built by smoothing each series and resampling its residual rows with no
    smooth added back; each null panel is decomposed and its factor SNRs
    form the null distribution. The residuals are not rescaled for the
    smoother's degrees of freedom: multiplying every series by one constant
    changes neither the MAF factors nor the SNR, a ratio of two SDs.

    `mode` is "permutation" (rows shuffled without replacement; requires
    block_len == 1) or "bootstrap" (circular blocks of block_len rows drawn
    with replacement by `_block_bootstrap`, the sampler of `resample_maf`).
    The default picks permutation for block_len == 1 and bootstrap
    otherwise. Permuted panels all share the residuals' covariance, so the
    residuals are decomposed once, and each null panel is decomposed from
    its lag-1 moments in their MAF coordinates (`_permutation_null`); a
    singular residual covariance raises SingularMatrixError. Singular
    bootstrap panels are redrawn (`_replicates`).
    """
    panel = as_panel(panel)
    n, p = panel.n, panel.p
    if B < 99:
        raise InvalidConfigError(f"B must be at least 99, got {B}")
    if not (1 <= n_factors_tested <= p):
        raise InvalidConfigError(
            f"n_factors_tested must be in [1, {p}], got {n_factors_tested}"
        )
    if not (1 <= block_len <= n):
        raise InvalidConfigError(f"block_len must be in [1, {n}], got {block_len}")
    if mode is None:
        mode = "permutation" if block_len == 1 else "bootstrap"
    if mode not in ("permutation", "bootstrap"):
        raise InvalidConfigError(f"mode must be 'permutation' or 'bootstrap', got {mode!r}")
    if mode == "permutation" and block_len != 1:
        raise InvalidConfigError("permutation mode requires block_len == 1")

    k = n_factors_tested
    original = compute_maf(panel)
    observed = np.array([empirical_snr(original.factors[:, j], cfg) for j in range(k)])

    _, residuals, _ = smooth_columns(panel.values, cfg)
    if mode == "permutation":
        draw, decompose = _permutation_null(residuals, k)
    else:
        draw, decompose = _block_bootstrap(residuals, block_len), None

    null_draws = np.empty((k, B))
    for start, stop, _, reps, _ in _replicates(seed, range(B), n, k, draw, decompose):
        null_draws[:, start:stop] = _factor_snrs(reps.factors[..., :k], cfg)

    exceed = (null_draws >= observed[:, None]).sum(axis=1)
    if conservative:
        p_value = (1.0 + exceed) / (1.0 + B)
    else:
        p_value = exceed / B
    return TestReport(
        statistic_name="snr",
        observed=observed,
        null_draws=null_draws,
        p_value=p_value,
        mode=mode,
        block_len=block_len,
        seed=seed,
        n_replicates=B,
        conservative=conservative,
    )


@dataclass(frozen=True)
class PowerPoint:
    multiplier: float
    power: float


def power_curve(spec, signal, multipliers, B: int, alpha: float = 0.05,
                seed: int = 0, cfg: SmootherConfig = SmootherConfig(),
                statistic: str = "snr") -> list[PowerPoint]:
    """Monte Carlo power of the signal-presence statistic vs signal strength.

    Simulates B pure-noise panels to locate the (1 - alpha) null quantile of
    the statistic, then for each multiplier c simulates B panels with signal
    strengths c * spec.b and reports the fraction of statistics beyond it.
    `statistic` is "snr" (empirical SNR of MAF1) or "autocorrelation" (MAF1's
    maximized lag-1 autocorrelation). Singular panels are redrawn (`_replicates`).
    """
    f = np.asarray(signal, dtype=float).ravel()
    multipliers = [float(c) for c in multipliers]
    if not all(c >= 0 for c in multipliers):
        raise InvalidConfigError("multipliers must be non-negative")
    if not (0.0 < alpha < 1.0):
        raise InvalidConfigError(f"alpha must be in (0, 1), got {alpha}")
    if B < 1:
        raise InvalidConfigError(f"B must be at least 1, got {B}")
    if statistic not in ("snr", "autocorrelation"):
        raise InvalidConfigError(f"unknown statistic {statistic!r}")

    n, p = f.size, spec.p
    chol = noise_cholesky(spec.noise_cov, p)
    width = 1 if statistic == "snr" else p  # the columns the statistic smooths

    def stats(b, offset: int) -> np.ndarray:
        out = np.empty(B)
        draw = partial(gen_sn_stack, f, b, chol, ar_phi=spec.k_eps)
        for start, stop, _, reps, _ in _replicates(seed, range(offset, offset + B), n, width, draw):
            if statistic == "snr":
                out[start:stop] = _factor_snrs(reps.factors[..., :1], cfg)[0]
            else:
                out[start:stop] = lag1_autocorrelation(reps.diff_eigenvalues[:, 0])
        return out

    threshold = float(np.quantile(stats(np.zeros(p), 0), 1.0 - alpha))
    return [
        PowerPoint(multiplier=c, power=float(np.mean(stats(c * spec.b, (1 + i) * B) > threshold)))
        for i, c in enumerate(multipliers)
    ]


@dataclass(frozen=True)
class ExperimentGrid:
    """Grid of noise cross-correlations and signal-strength multipliers."""

    rho_values: tuple[float, ...]
    b_multipliers: tuple[float, ...]
    base_b: tuple[float, ...]
    n: int
    reps: int
    seed: int

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidInputError(f"reps must be at least 1, got {self.reps}")
        if len(self.rho_values) < 1 or len(self.b_multipliers) < 1:
            raise InvalidInputError("grid must contain at least one cell")
        if not all(c >= 0 for c in self.b_multipliers):
            raise InvalidInputError("signal multipliers must be non-negative")
        if len(self.base_b) < 1 or not np.all(np.isfinite(self.base_b)):
            raise InvalidInputError("base signal strengths must be one or more finite values")

    def signal_spec(self) -> SignalSpec:
        """The experiment's signal: a seeded sinusoid mixture of length n."""
        return SignalSpec(kind="sinusoid-mixture", n=self.n, seed=7)


@dataclass(frozen=True)
class ExperimentRow:
    """One statistic summarized over the reps of one grid cell."""

    rho: float
    multiplier: float
    statistic: str
    mean: float
    se: float
    reps: int


EXPERIMENT_STATISTICS = ("maf1_correlation", "pca1_correlation", "pc12_multiple_r")


def correlation_with_signal(factor, f) -> float:
    """Absolute sample correlation between a factor series and the signal,
    both taken through `unit_series`, whose errors it raises."""
    x, y = unit_series(factor), unit_series(f)
    if x.shape != y.shape:
        raise InvalidInputError("factor and signal must have the same length")
    return float(abs(np.corrcoef(x, y)[0, 1]))


def multi_factor_r(f, factors) -> float:
    """sqrt(R^2) from regressing the signal on k factor series plus an intercept.

    The signal goes through `unit_series` and the factors, one series or
    one per column, through `unit_scale_columns`, whose errors it raises.
    The design is rank deficient if `lstsq` finds at most k singular values
    above max(n, k + 1) * eps times the largest.
    """
    y = unit_series(f)
    x = np.asarray(factors, dtype=float)
    if x.ndim not in (1, 2):
        raise InvalidInputError(f"expected factors 1-D or one per column, got shape {x.shape}")
    x, _ = unit_scale_columns(x[:, None] if x.ndim == 1 else x)
    n, k = x.shape
    if y.size != n:
        raise InvalidInputError("signal and factors must have the same length")
    if k >= n:
        raise InvalidInputError(f"need more observations than regressors, got n={n}, k={k}")
    design = np.column_stack([np.ones(n), x])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k + 1:
        raise InvalidInputError("factor matrix is rank deficient")
    resid = y - design @ coef
    r2 = 1.0 - float(resid @ resid) / float(np.sum((y - y.mean()) ** 2))
    return float(np.sqrt(np.clip(r2, 0.0, 1.0)))


def run_comparison_experiment(grid: ExperimentGrid) -> list[ExperimentRow]:
    """Signal-recovery comparison of MAF1, PCA1 and the PC1+PC2 regression.

    For every (rho, multiplier) cell, `reps` independent panels are drawn
    and three statistics are recorded: the correlation of MAF1 with the true
    signal, the same for PCA1 (correlation PCA), and the multiple-R of the
    signal regressed on PC1 and PC2 jointly. Returns one row per cell and
    statistic with the mean and standard error over reps; fully
    deterministic given the grid. Rep r of cell c is replicate key
    c * reps + r of `grid.seed` in the driver (`_replicates`), so a singular
    panel is redrawn from its own stream.
    """
    f = gen_signal(grid.signal_spec())
    base_b = np.asarray(grid.base_b, dtype=float)
    n, p, reps = f.size, base_b.size, grid.reps
    cells = [(rho, mult) for rho in grid.rho_values for mult in grid.b_multipliers]
    rows: list[ExperimentRow] = []
    for c, (rho, mult) in enumerate(cells):
        draw = partial(gen_sn_stack, f, mult * base_b, noise_cholesky((rho, 1.0), p))
        keys = range(c * reps, (c + 1) * reps)
        stats = np.empty((reps, 3))
        for start, _, panels, stack, _ in _replicates(grid.seed, keys, n, p, draw):
            for r, (values, maf1) in enumerate(zip(panels, stack.factors[..., 0]), start):
                pca = compute_pca(values)
                stats[r] = (correlation_with_signal(maf1, f),
                            correlation_with_signal(pca.factors[:, 0], f),
                            multi_factor_r(f, pca.factors[:, : min(2, p)]))
        means = stats.mean(axis=0)
        ses = stats.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros(3)
        for name, mean, se in zip(EXPERIMENT_STATISTICS, means, ses):
            rows.append(ExperimentRow(rho=float(rho), multiplier=float(mult), statistic=name,
                                      mean=float(mean), se=float(se), reps=reps))
    return rows


@dataclass(frozen=True)
class SelectionResult:
    k: int
    method: str
    diagnostics: dict = field(default_factory=dict)


def select_num_factors(panel, method: str, cfg: SmootherConfig = SmootherConfig(),
                       seed: int = 0, alpha_frac: float = 0.95,
                       holdout_frac: float = 0.25, B: int = 199,
                       alpha: float = 0.05) -> SelectionResult:
    """Choose how many MAF factors to retain.

    method
        "scree"  : full autocorrelation spectrum; k set after the largest gap.
        "cutoff" : smallest k whose cumulative positive-part autocorrelation
                   reaches `alpha_frac` of the total.
        "cv"     : regress each series on the leading factors fitted on the
                   head of the panel; k minimizes RMSE on the tail block of
                   `holdout_frac` rows.
        "test"   : largest k with signal-presence p-values of factors 1..k
                   all below `alpha` (permutation mode, B replicates).
    """
    panel = as_panel(panel)
    n, p = panel.n, panel.p
    if method not in ("scree", "cutoff", "cv", "test"):
        raise InvalidConfigError(f"unknown selection method {method!r}")

    if method == "test":
        if not (0.0 < alpha < 1.0):
            raise InvalidConfigError(f"alpha must be in (0, 1), got {alpha}")
        report = signal_presence_test(
            panel, B=B, cfg=cfg, mode="permutation", block_len=1,
            n_factors_tested=p, seed=seed,
        )
        k = 0
        while k < p and report.p_value[k] < alpha:
            k += 1
        return SelectionResult(
            k=k, method=method,
            diagnostics={"p_values": report.p_value.tolist(), "alpha": alpha},
        )

    decomp = compute_maf(panel)
    r = decomp.autocorrelations

    if method == "scree":
        if p == 1:
            k, gaps = 1, []
        else:
            gaps = (-np.diff(r)).tolist()
            k = int(np.argmax(-np.diff(r))) + 1
        return SelectionResult(
            k=k, method=method,
            diagnostics={"autocorrelations": r.tolist(), "gaps": gaps},
        )

    if method == "cutoff":
        if not (0.0 < alpha_frac <= 1.0):
            raise InvalidConfigError(f"alpha_frac must be in (0, 1], got {alpha_frac}")
        positive = np.clip(r, 0.0, None)
        total = positive.sum()
        if total == 0.0:
            return SelectionResult(
                k=0, method=method,
                diagnostics={"autocorrelations": r.tolist(), "alpha_frac": alpha_frac},
            )
        fractions = np.cumsum(positive) / total
        k = int(np.argmax(fractions >= alpha_frac - 1e-12)) + 1
        return SelectionResult(
            k=k, method=method,
            diagnostics={
                "autocorrelations": r.tolist(),
                "cumulative_fraction": fractions.tolist(),
                "alpha_frac": alpha_frac,
            },
        )

    # cross-validation on a trailing holdout block
    if not 0.0 < holdout_frac < 1.0:
        raise InvalidConfigError(f"holdout_frac must be in (0, 1), got {holdout_frac}")
    n_hold = int(round(holdout_frac * n))
    if n_hold < p + 2:
        raise InvalidConfigError(
            f"holdout of {n_hold} rows is too small; need at least p + 2 = {p + 2}"
        )
    n_train = n - n_hold
    if n_train <= max(p, 2):
        raise InvalidConfigError(
            f"training block of {n_train} rows cannot support a {p}-series decomposition"
        )
    train, hold = panel.values[:n_train], panel.values[n_train:]
    coefs = compute_maf(train).coefficients
    y_train, y_hold = train @ coefs, hold @ coefs
    rmse = []
    for k in range(1, p + 1):
        design = np.column_stack([np.ones(n_train), y_train[:, :k]])
        beta, _, _, _ = np.linalg.lstsq(design, train, rcond=None)
        pred = np.column_stack([np.ones(n_hold), y_hold[:, :k]]) @ beta
        rmse.append(float(np.sqrt(np.mean((hold - pred) ** 2))))
    best = int(np.argmin(rmse)) + 1
    return SelectionResult(
        k=best, method=method,
        diagnostics={"rmse": rmse, "holdout_rows": n_hold},
    )
