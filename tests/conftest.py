"""Shared helpers for the mafkit test suite."""

import math

import numpy as np
import pytest
from hypothesis import Phase, settings

# A failing property reports its first shrunk failure and stops: shrinking
# several distinct failures and explaining each can take minutes.
# max_examples and deadline stay as each test sets them.
settings.register_profile(
    "mafkit",
    report_multiple_bugs=False,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.load_profile("mafkit")


def random_spd(rng, p, eig_low=0.5, eig_high=2.0):
    """Random symmetric positive definite matrix with controlled spectrum."""
    q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    eigs = rng.uniform(eig_low, eig_high, size=p)
    return (q * eigs) @ q.T


def random_invertible(rng, p, max_cond=1e3):
    """Random invertible matrix, resampled until the condition number is tame."""
    while True:
        a = rng.standard_normal((p, p))
        if np.linalg.cond(a) < max_cond:
            return a


def resample_indices(rng: np.random.Generator, n: int, block_len: int) -> np.ndarray:
    """Row indices for one circular-block bootstrap replicate: the reference
    that `inference._block_bootstrap` gathers a chunk's rows by.

    ceil(n / block_len) block starts are drawn uniformly from the n rows;
    each block is block_len consecutive rows, wrapping at the end, and the
    blocks are cut to n rows. With block_len == 1 this is the iid bootstrap:
    the one draw is `rng.integers(0, n, size=n)` (Politis & Romano 1992).
    """
    n_blocks = math.ceil(n / block_len)
    starts = rng.integers(0, n, size=n_blocks)
    idx = (starts[:, None] + np.arange(block_len)[None, :]) % n
    return idx.ravel()[:n]


def golden_max(fun, lo, hi, tol=1e-10):
    """Golden-section maximizer over a coarse-grid bracket (test oracle)."""
    grid = np.linspace(lo, hi, 4001)
    vals = np.array([fun(x) for x in grid])
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    while abs(b - a) > tol:
        if fun(c) >= fun(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


def angle_between(u, v):
    """Acute angle between two directions (sign-invariant), in radians.

    2 atan2(|u - s v|, |u + s v|) of the unit vectors, s the sign of u . v:
    accurate to rounding at every angle, where arccos of the cosine cannot
    resolve angles below about 1.5e-8 (its cosine rounds to 1).
    """
    u = np.asarray(u, float).ravel()
    v = np.asarray(v, float).ravel()
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v) * (-1.0 if u @ v < 0 else 1.0)
    return float(2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def align_columns_by_sign(candidate, reference):
    """Flip candidate columns so each correlates positively with the reference."""
    c = candidate - candidate.mean(axis=0)
    r = reference - reference.mean(axis=0)
    signs = np.where(np.einsum("ij,ij->j", c, r) < 0, -1.0, 1.0)
    return candidate * signs


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
