"""Signal generators and signal-plus-noise panel simulation; the MAF-vs-PCA
comparison experiment on such panels is in `mafkit.inference`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InvalidConfigError, InvalidInputError
from .linalg import unit_series
from .oracles import equicorrelation_noise_cov, validated_noise_cov
from .panel import TimeSeriesPanel

SIGNAL_KINDS = ("linear", "quadratic", "sinusoid-mixture")


@dataclass(frozen=True)
class SignalSpec:
    """Parametric description of a normalized underlying signal.

    kind : one of `SIGNAL_KINDS`.
    n : series length.
    seed : draw seed for the sinusoid mixture's frequencies and phases.
    """

    kind: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise InvalidInputError(f"unknown signal kind {self.kind!r}")
        if self.n < 3:
            raise InvalidInputError(f"signal length must be at least 3, got {self.n}")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be non-negative, got {self.seed}")


def gen_signal(spec: SignalSpec) -> np.ndarray:
    """Generate the signal and normalize it to zero mean and unit 2-norm."""
    n = spec.n
    t = np.arange(n, dtype=float)
    if spec.kind == "linear":
        raw = t.copy()
    elif spec.kind == "quadratic":
        raw = (t - t.mean()) ** 2
    else:
        rng = np.random.default_rng(spec.seed)
        raw = np.zeros(n)
        for j in range(3):  # a three-component mixture
            cycles = rng.uniform(1.0, 4.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            raw += np.sin(2.0 * np.pi * cycles * t / n + phase) / (j + 1.0)
    raw = raw - raw.mean()
    norm = np.linalg.norm(raw)
    if norm <= 1e-15:
        raise DegenerateSeriesError("generated signal is constant")
    return raw / norm


def signal_lag1_coherence(f) -> float:
    """Lag-1 coherence sum f(t) f(t+1) / sum f(t)^2 of a (normalized) signal,
    taken on `unit_series`, whose errors it raises."""
    f = unit_series(f)
    return float(f[:-1] @ f[1:]) / float(f @ f)


def noise_cholesky(noise, p: int) -> np.ndarray:
    """Lower Cholesky factor of a validated p x p noise covariance.

    `noise` is a full covariance matrix or a (rho, sigma) pair for the
    equicorrelated form, as in `gen_sn_panel`.
    """
    if isinstance(noise, tuple):
        rho, sigma = noise
        return np.linalg.cholesky(equicorrelation_noise_cov(sigma, rho, p=p))
    return np.linalg.cholesky(validated_noise_cov(noise, p))


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
    seed : anything `numpy.random.default_rng` accepts; the panel is
        deterministic given it.
    ar_phi : optional AR(1) coefficient for the noise rows; the lag-1 noise
        autocovariance is then ar_phi times the marginal covariance.
    """
    b = np.asarray(b, dtype=float).ravel()
    chol = noise_cholesky(noise, b.size)
    values = gen_sn_stack(f, b, chol, [seed], ar_phi=ar_phi)[0]
    return TimeSeriesPanel(values=values, labels=tuple(f"z{j + 1}" for j in range(b.size)))


def gen_sn_stack(f, b, noise_chol, seeds, ar_phi: float = 0.0) -> np.ndarray:
    """Simulate one signal-plus-noise panel per seed, as an (m, n, p) stack.

    Each seed is anything `default_rng` accepts; a Generator is drawn from
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
