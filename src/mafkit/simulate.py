"""Signal generators, signal-plus-noise panel simulation, and the
MAF-vs-PCA recovery comparison experiment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InvalidInputError
from .linalg import assert_spd
from .maf import compute_maf, compute_pca
from .oracles import equicorrelation_noise_cov
from .panel import TimeSeriesPanel

SIGNAL_KINDS = ("linear", "quadratic", "sinusoid-mixture", "piecewise-interpolated")


@dataclass(frozen=True)
class SignalSpec:
    """Parametric description of a normalized underlying signal.

    kind : one of `linear`, `quadratic`, `sinusoid-mixture`,
        `piecewise-interpolated`.
    n : series length.
    points : control points for the piecewise kind, as (fraction in [0, 1],
        value) pairs; fractions are snapped to the nearest grid index.
    n_waves, seed : mixture size and draw seed for the sinusoid kind.
    """

    kind: str
    n: int
    points: tuple[tuple[float, float], ...] | None = None
    n_waves: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise InvalidInputError(f"unknown signal kind {self.kind!r}")
        if self.n < 3:
            raise InvalidInputError(f"signal length must be at least 3, got {self.n}")
        if self.kind == "piecewise-interpolated":
            if self.points is None or len(self.points) < 2:
                raise InvalidInputError("piecewise signal needs at least 2 control points")
            fracs = [f for f, _ in self.points]
            if min(fracs) < 0.0 or max(fracs) > 1.0:
                raise InvalidInputError("control point positions must lie in [0, 1]")
        if self.kind == "sinusoid-mixture" and self.n_waves < 1:
            raise InvalidInputError("sinusoid mixture needs at least one component")


def gen_signal(spec: SignalSpec) -> np.ndarray:
    """Generate the signal and normalize it to zero mean and unit 2-norm."""
    n = spec.n
    t = np.arange(n, dtype=float)
    if spec.kind == "linear":
        raw = t.copy()
    elif spec.kind == "quadratic":
        raw = (t - t.mean()) ** 2
    elif spec.kind == "sinusoid-mixture":
        rng = np.random.default_rng(spec.seed)
        raw = np.zeros(n)
        for j in range(spec.n_waves):
            cycles = rng.uniform(1.0, 4.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            raw += np.sin(2.0 * np.pi * cycles * t / n + phase) / (j + 1.0)
    else:
        idx = np.array([round(f * (n - 1)) for f, _ in spec.points], dtype=float)
        vals = np.array([v for _, v in spec.points], dtype=float)
        order = np.argsort(idx)
        idx, vals = idx[order], vals[order]
        if np.any(np.diff(idx) <= 0):
            raise InvalidInputError("control points collapse onto the same grid index")
        # imported here: scipy.interpolate takes about 0.6 s to import, and
        # no other code path needs it
        from scipy.interpolate import PchipInterpolator

        raw = PchipInterpolator(idx, vals, extrapolate=True)(t)
    raw = raw - raw.mean()
    norm = np.linalg.norm(raw)
    if norm <= 1e-15:
        raise DegenerateSeriesError("generated signal is constant")
    return raw / norm


def signal_lag1_coherence(f) -> float:
    """Lag-1 coherence sum f(t) f(t+1) / sum f(t)^2 of a (normalized) signal."""
    f = np.asarray(f, dtype=float).ravel()
    if f.size < 3:
        raise InvalidInputError("coherence needs at least 3 points")
    denom = float(f @ f)
    if denom <= 0.0:
        raise DegenerateSeriesError("signal is identically zero")
    return float(f[:-1] @ f[1:]) / denom


def noise_cholesky(noise, p: int) -> np.ndarray:
    """Lower Cholesky factor of a validated p x p noise covariance.

    `noise` is a full covariance matrix or a (rho, sigma) pair for the
    equicorrelated form, as in `gen_sn_panel`.
    """
    if isinstance(noise, tuple):
        rho, sigma = noise
        cov = equicorrelation_noise_cov(sigma, rho, p=p)
    else:
        cov = assert_spd(np.asarray(noise, dtype=float), "noise covariance")
    if cov.shape[0] != p:
        raise InvalidInputError("noise covariance does not match length of b")
    return np.linalg.cholesky(cov)


def gen_sn_panel(f, b, noise, seed, ar_phi: float = 0.0) -> TimeSeriesPanel:
    """Simulate a signal-plus-noise panel: row t is sqrt(n) * f(t) * b + noise(t).

    The normalized signal is rescaled to unit mean square over time, so each
    series carries signal variance b_i^2 on top of its noise variance and
    the sample covariance converges to outer(b, b) + noise covariance.

    Parameters
    ----------
    f : normalized signal (zero mean, unit 2-norm).
    b : per-series signal strengths.
    noise : full noise covariance matrix, or a (rho, sigma) pair for the
        equicorrelated form.
    seed : int or numpy SeedSequence; the panel is deterministic given it.
    ar_phi : optional AR(1) coefficient for the noise rows; the lag-1 noise
        autocovariance is then ar_phi times the marginal covariance.
    """
    b = np.asarray(b, dtype=float).ravel()
    chol = noise_cholesky(noise, b.size)
    values = gen_sn_stack(f, b, chol, [seed], ar_phi=ar_phi)[0]
    return TimeSeriesPanel(values=values, labels=tuple(f"z{j + 1}" for j in range(b.size)))


def gen_sn_stack(f, b, noise_chol, seeds, ar_phi: float = 0.0) -> np.ndarray:
    """Simulate one signal-plus-noise panel per seed, as an (m, n, p) stack.

    Each seed is an int, a SeedSequence or a Generator, which is drawn from
    in place. Panel i equals `gen_sn_panel(f, b, noise, seeds[i],
    ar_phi).values` when `noise_chol` is `noise_cholesky(noise, p)`: each
    panel draws its shocks from its own generator, and the AR(1) recursion
    steps through time once for the whole stack. Taking the factor instead
    of the covariance lets a caller that draws many stacks factor it once.
    """
    f = np.asarray(f, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, p = f.size, b.size
    if n < 3:
        raise InvalidInputError("signal must have at least 3 time steps")
    if abs(f.mean()) > 1e-8 or abs(f @ f - 1.0) > 1e-6:
        raise InvalidInputError("signal must be normalized to zero mean and unit 2-norm")
    if not (-1.0 < ar_phi < 1.0):
        raise InvalidInputError(f"ar_phi must be in (-1, 1), got {ar_phi}")
    noise_chol = np.asarray(noise_chol, dtype=float)
    if noise_chol.shape != (p, p):
        raise InvalidInputError("noise covariance does not match length of b")
    draws = np.stack([np.random.default_rng(s).standard_normal((n, p)) for s in seeds])
    noise_rows = draws @ noise_chol.T
    if ar_phi != 0.0:
        scale = np.sqrt(1.0 - ar_phi ** 2)
        for t in range(1, n):
            noise_rows[:, t] = ar_phi * noise_rows[:, t - 1] + scale * noise_rows[:, t]
    return np.outer(np.sqrt(n) * f, b) + noise_rows


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


def run_comparison_experiment(grid: ExperimentGrid) -> list[ExperimentRow]:
    """Signal-recovery comparison of MAF1, PCA1 and the PC1+PC2 regression.

    For every (rho, multiplier) cell, `reps` independent panels are drawn
    and three statistics are recorded: the correlation of MAF1 with the true
    signal, the same for PCA1 (correlation PCA), and the multiple-R of the
    signal regressed on PC1 and PC2 jointly. Returns one row per cell and
    statistic with the mean and standard error over reps; fully
    deterministic given the grid (seeds are derived per cell and rep).
    """
    f = gen_signal(grid.signal_spec())
    base_b = np.asarray(grid.base_b, dtype=float)
    cells = [(rho, mult) for rho in grid.rho_values for mult in grid.b_multipliers]
    children = np.random.SeedSequence(grid.seed).spawn(len(cells) * grid.reps)
    rows: list[ExperimentRow] = []
    for c_idx, (rho, mult) in enumerate(cells):
        stats = np.empty((grid.reps, 3))
        for r in range(grid.reps):
            panel = gen_sn_panel(
                f, mult * base_b, (rho, 1.0), children[c_idx * grid.reps + r]
            )
            maf = compute_maf(panel)
            pca = compute_pca(panel)
            stats[r, 0] = correlation_with_signal(maf.factors[:, 0], f)
            stats[r, 1] = correlation_with_signal(pca.factors[:, 0], f)
            stats[r, 2] = multi_factor_r(f, pca.factors[:, : min(2, panel.p)])
        means = stats.mean(axis=0)
        ses = (
            stats.std(axis=0, ddof=1) / np.sqrt(grid.reps)
            if grid.reps > 1
            else np.zeros(3)
        )
        for name, mean, se in zip(EXPERIMENT_STATISTICS, means, ses):
            rows.append(
                ExperimentRow(
                    rho=float(rho),
                    multiplier=float(mult),
                    statistic=name,
                    mean=float(mean),
                    se=float(se),
                    reps=grid.reps,
                )
            )
    return rows
