"""Resampling-based uncertainty bands, the signal-presence test, test power,
the MAF-vs-PCA comparison experiment, and factor-count selection.

All resampling draws come from per-replicate RNG streams derived
deterministically from (seed, replicate index): replicate b draws what
`default_rng(SeedSequence(seed).spawn(B)[b])` would, so results are
bit-identical across runs and independent of any evaluation order.

Every resampling function and the comparison experiment run their
replicates through one driver, `_replicates`. It computes the PCG64
starting states of all the streams in bulk, with numpy's SeedSequence and
PCG64 seeding written out over arrays (`_stream_words`), and draws every
replicate through one reused Generator set to its stream's state.
Replicate panels are drawn one by one, each from its own stream, then
decomposed together by `maf.maf_stack` in chunks of about CHUNK_BYTES of
values, which keeps memory flat in B. A singular replicate is redrawn from
its own stream; more than 10% of B redraws is an error.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    DegenerateSeriesError,
    InvalidConfigError,
    InvalidInputError,
    SingularMatrixError,
)
from .maf import compute_maf, compute_pca, maf_stack
from .panel import as_panel
from .simulate import SignalSpec, gen_signal, gen_sn_stack, noise_cholesky
from .smoothing import SmootherConfig, empirical_snr, hat_matrix, smooth_columns, snr_columns

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


# Replicate panels are decomposed CHUNK_BYTES of values at a time: enough
# panels to amortize the per-call overhead of the batched kernel (26 at
# 150 x 4), few enough that memory does not grow with B (1 at 3000 x 8).
CHUNK_BYTES = 128_000

# Constants of numpy's SeedSequence hash-mix (NEP 19) and of PCG64's LCG
# (O'Neill 2014); numpy keeps both algorithms stable by policy.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _stream_words(seed: int, keys) -> np.ndarray:
    """PCG64 seed words of every replicate stream, as a (len(keys), 4) array.

    Row i equals `SeedSequence(seed, spawn_key=(keys[i],)).generate_state(4,
    np.uint64)`, which is `SeedSequence(seed).spawn(B)[b]` for key b. The
    SeedSequence hash-mix runs on uint32 vectors over all keys at once; only
    the last entropy word, the spawn key, differs between them.
    """
    seed = operator.index(seed)
    keys = np.asarray(keys, dtype=np.int64)
    if seed < 0:
        raise InvalidConfigError(f"seed must be non-negative, got {seed}")
    if keys.min() < 0 or keys.max() > _MASK32:
        raise InvalidConfigError("replicate keys must lie in [0, 2**32)")
    words = []  # the seed's uint32 words, least significant first
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy = [np.full(keys.shape, w, np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(keys.astype(np.uint32))

    def hasher(hash_const, mult):
        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * mult & _MASK32
            value = value * np.uint32(hash_const)
            return value ^ (value >> np.uint32(16))
        return hashmix

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: eight uint32 words, paired little-endian into uint64
    output = hasher(_INIT_B, _MULT_B)
    state = [output(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])],
                    axis=-1)


def _pcg64_state(seed_hi: int, seed_lo: int, seq_hi: int, seq_lo: int) -> dict:
    """The `bit_generator.state` of a PCG64 seeded with these words (srandom)."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _replicates(seed: int, keys, n: int, p: int, k: int, draw):
    """Decompose one (n, p) panel per replicate key, by chunks.

    Replicate `keys[i]` draws exactly what `default_rng(SeedSequence(seed,
    spawn_key=(keys[i],)))` would, the `SeedSequence(seed).spawn` child of
    that index; the streams are computed in bulk by `_stream_words` and
    drawn through one reused Generator. `draw(rngs)` stacks one panel per
    generator from a lazy iterator, which sets the next replicate's state
    only when asked for it, so each replicate's draws finish first. Each
    chunk of at most CHUNK_BYTES of values goes through one `maf_stack`
    call. A singular replicate gets a generator of its own: its first draw
    is replayed and discarded, and it is redrawn from that generator until
    it is not singular; more than 10% of B redraws in all raises
    SingularMatrixError. Yields (start, stop, panels, MafStack, redraws so
    far), where `panels[i]` is the panel that the MafStack's row i
    decomposes: a redrawn replicate's last draw, not its discarded first.
    """
    words = _stream_words(seed, keys)
    B = len(words)
    # the first stream checked against numpy's own seeding, once per call
    first = np.random.SeedSequence(seed, spawn_key=(int(keys[0]),))
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

    size = max(1, CHUNK_BYTES // (8 * n * p))
    budget = max(1, math.ceil(0.1 * B))
    redraws = 0
    for start in range(0, B, size):
        stop = min(start + size, B)
        panels = draw(streams(words[start:stop]))
        stack = maf_stack(panels, k, allow_singular=True)
        singular = np.flatnonzero(stack.singular)
        if singular.size:
            rngs = [np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(int(keys[start + i]),))) for i in singular]
            draw(iter(rngs))  # replays the singular first draws
        while singular.size:
            redraws += singular.size
            if redraws > budget:
                raise SingularMatrixError(
                    f"singular replicates needed more than {budget} redraws, the "
                    f"budget of 10% of B={B}; panel too close to singular"
                )
            redrawn = draw(iter(rngs))
            rep = maf_stack(redrawn, k, allow_singular=True)
            panels[singular] = redrawn
            for field_values, values in zip(stack, rep):
                field_values[singular] = values
            singular = singular[rep.singular]
            rngs = [r for r, bad in zip(rngs, rep.singular) if bad]
        yield start, stop, panels, stack, redraws


def _factor_snrs(factors: np.ndarray, cfg: SmootherConfig) -> np.ndarray:
    """Empirical SNRs of an (m, n, k) stack of factors, as a (k, m) array."""
    m, n, k = factors.shape
    columns = factors.transpose(1, 0, 2).reshape(n, m * k)
    return snr_columns(columns, cfg).reshape(m, k).T


def _resample_indices(rng: np.random.Generator, n: int, block_len: int) -> np.ndarray:
    """Row indices for one bootstrap replicate.

    block_len == 1 draws n rows independently with replacement; otherwise
    circular moving blocks of block_len consecutive rows (wrapping at the
    end) are drawn until n rows are filled.
    """
    if block_len == 1:
        return rng.integers(0, n, size=n)
    n_blocks = math.ceil(n / block_len)
    starts = rng.integers(0, n, size=n_blocks)
    idx = (starts[:, None] + np.arange(block_len)[None, :]) % n
    return idx.ravel()[:n]


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
    series (in circular blocks when block_len > 1) and added back onto the
    smooths; MAF is recomputed on every rebuilt panel. Replicate factors are
    sign-aligned to the original factors and replicate coefficient columns
    are unit-normalized. A replicate whose covariance degenerates is redrawn
    from its own stream (see `_replicates`); `retries` counts the redraws.
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
    hat, _ = hat_matrix(n, cfg)

    orig_factors = original.factors[:, :n_factors]
    orig_centered = orig_factors - orig_factors.mean(axis=0)

    rep_factors = np.empty((n_factors, B, n))
    rep_coefs = np.empty((n_factors, B, p))

    def draw(rngs):
        return np.stack([fitted + residuals[_resample_indices(rng, n, block_len)]
                         for rng in rngs])

    for start, stop, _, reps, retries in _replicates(seed, range(B), n, p, n_factors, draw):
        factors, coefs = reps.factors, reps.coefficients
        # align each replicate factor with the original factor it estimates
        centered = factors - factors.mean(axis=1, keepdims=True)
        flips = np.where(np.einsum("mtj,tj->mj", centered, orig_centered) < 0, -1.0, 1.0)
        flips = flips[:, None, :]
        coefs = coefs * flips / np.linalg.norm(coefs, axis=1, keepdims=True)
        rep_factors[:, start:stop] = (factors * flips).transpose(2, 0, 1)
        rep_coefs[:, start:stop] = coefs.transpose(2, 0, 1)

    bands = np.stack(
        [
            np.quantile(rep_factors, alpha / 2.0, axis=1),
            np.quantile(rep_factors, 1.0 - alpha / 2.0, axis=1),
        ],
        axis=-1,
    )
    return ResamplingEnvelope(
        replicate_factors=rep_factors,
        replicate_coefficients=rep_coefs,
        pointwise_bands=bands,
        original_smoothed=(hat @ orig_factors).T,
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
    built by smoothing each series, inflating the residuals by
    sqrt(n / (n - df)) to undo the smoother's variance absorption, and
    resampling residual rows with no smooth added back; each null panel is
    decomposed and its factor SNRs form the null distribution.

    `mode` is "permutation" (rows shuffled without replacement; requires
    block_len == 1) or "bootstrap" (with replacement, blockwise when
    block_len > 1). The default picks permutation for block_len == 1 and
    bootstrap otherwise. Singular null panels are redrawn (`_replicates`).
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
    stds = panel.values.std(axis=0)
    if np.any(stds == 0.0):
        j = int(np.nonzero(stds == 0.0)[0][0])
        raise DegenerateSeriesError(f"series {j + 1} is constant")

    k = n_factors_tested
    original = compute_maf(panel)
    observed = np.array([empirical_snr(original.factors[:, j], cfg) for j in range(k)])

    _, residuals, df = smooth_columns(panel.values, cfg)
    inflated = residuals * np.sqrt(n / (n - df))

    def draw(rngs):
        if mode == "permutation":
            return inflated[np.stack([rng.permutation(n) for rng in rngs])]
        return inflated[np.stack([_resample_indices(rng, n, block_len) for rng in rngs])]

    null_draws = np.empty((k, B))
    for start, stop, _, reps, _ in _replicates(seed, range(B), n, p, k, draw):
        null_draws[:, start:stop] = _factor_snrs(reps.factors, cfg)

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
    if any(c < 0 for c in multipliers):
        raise InvalidConfigError("multipliers must be non-negative")
    if not (0.0 < alpha < 1.0):
        raise InvalidConfigError(f"alpha must be in (0, 1), got {alpha}")
    if B < 1:
        raise InvalidConfigError(f"B must be at least 1, got {B}")
    if statistic not in ("snr", "autocorrelation"):
        raise InvalidConfigError(f"unknown statistic {statistic!r}")

    n, p = f.size, spec.p
    chol = noise_cholesky(spec.noise_cov, p)

    def stats(b, offset: int) -> np.ndarray:
        out = np.empty(B)
        draw = partial(gen_sn_stack, f, b, chol, ar_phi=spec.k_eps)
        for start, stop, _, reps, _ in _replicates(seed, range(offset, offset + B), n, p, 1, draw):
            if statistic == "snr":
                out[start:stop] = _factor_snrs(reps.factors, cfg)[0]
            else:
                out[start:stop] = 1.0 - reps.diff_eigenvalues[:, 0] / 2.0
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
    signal: SignalSpec | None = None

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidInputError(f"reps must be at least 1, got {self.reps}")
        if len(self.rho_values) < 1 or len(self.b_multipliers) < 1:
            raise InvalidInputError("grid must contain at least one cell")
        if any(c < 0 for c in self.b_multipliers):
            raise InvalidInputError("signal multipliers must be non-negative")

    def signal_spec(self) -> SignalSpec:
        if self.signal is not None:
            return self.signal
        return SignalSpec(kind="sinusoid-mixture", n=self.n, n_waves=3, seed=7)


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
    """Absolute sample correlation between a factor series and the signal."""
    x = np.asarray(factor, dtype=float).ravel()
    y = np.asarray(f, dtype=float).ravel()
    if x.shape != y.shape:
        raise InvalidInputError("factor and signal must have the same length")
    if x.std() == 0.0 or y.std() == 0.0:
        raise DegenerateSeriesError("correlation undefined for a constant series")
    return float(abs(np.corrcoef(x, y)[0, 1]))


def multi_factor_r(f, factors) -> float:
    """sqrt(R^2) from regressing the signal on k factor series plus an intercept."""
    y = np.asarray(f, dtype=float).ravel()
    x = np.asarray(factors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, k = x.shape
    if y.size != n:
        raise InvalidInputError("signal and factors must have the same length")
    if k >= n:
        raise InvalidInputError(f"need more observations than regressors, got n={n}, k={k}")
    design = np.column_stack([np.ones(n), x])
    if np.linalg.matrix_rank(design) < k + 1:
        raise InvalidInputError("factor matrix is rank deficient")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateSeriesError("signal is constant")
    r2 = 1.0 - float(resid @ resid) / ss_tot
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
        # all p factors: with k=1 the whitener product rounds unlike compute_maf's
        for start, _, panels, stack, _ in _replicates(grid.seed, keys, n, p, p, draw):
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
    n_hold = int(round(holdout_frac * n))
    if n_hold < p + 2:
        raise InvalidConfigError(
            f"holdout of {n_hold} rows is too small; need at least p + 2 = {p + 2}"
        )
    n_train = n - n_hold
    if n_train <= p:
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
