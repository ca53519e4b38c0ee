"""The chunked, stacked MAF + SNR path against one-replicate-at-a-time loops.

Each reference loop below is the per-replicate algorithm written out from
`compute_maf` and `empirical_snr`, drawing replicate b from
`default_rng(SeedSequence(seed).spawn(B)[b])` with the same calls in the
same order, and redrawing a replicate whose covariance is singular from
its own generator until it is not. The resampling functions in
`mafkit.inference` must reproduce it to 1e-12 for every chunk size,
including one replicate per chunk, chunks that do not divide B, and all of
B in one chunk. The comparison experiment is held to the per-panel loop
it replaced (`gen_sn_panel`, `compute_maf`, `compute_pca` and the recovery
statistics on the spawned children) in the same way. The permutation null,
decomposed from lag-1 moments in the residuals' MAF coordinates, is also
held to `maf_stack` on every permuted residual panel
(`maf_stack_permutation_null`) and, bit for bit, to its own earlier chunk
arithmetic (`permutation_null_reference`). The time-major `maf_stack`,
which solves the covariance pencil on p x p matrices, is held to the
sample-major kernel it replaced, which whitened and differenced the panel
itself (`maf_stack_sample_major`).
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example as explicit_example
from hypothesis import given, settings
from hypothesis import strategies as st

from mafkit import (
    DegenerateSeriesError,
    ExperimentGrid,
    InvalidConfigError,
    InvalidInputError,
    SignalSpec,
    SingularMatrixError,
    SmootherConfig,
    SnModelSpec,
    compute_maf,
    compute_pca,
    correlation_with_signal,
    empirical_snr,
    gen_signal,
    gen_sn_panel,
    multi_factor_r,
    power_curve,
    resample_maf,
    run_comparison_experiment,
    select_num_factors,
    signal_presence_test,
)
from mafkit import inference
from mafkit import maf as maf_module
from mafkit.cli import ingest_csv, main
from mafkit.datasets import example_panel_path
from mafkit.linalg import (
    _check_symmetric,
    _fix_signs,
    covariance_stack,
    require_spd,
    spd_singular,
)
from mafkit.maf import MafStack, maf_stack
from mafkit.panel import as_panel
from mafkit.simulate import gen_sn_stack, noise_cholesky
from mafkit.smoothing import snr_columns

from conftest import random_invertible, resample_indices

TOL = 1e-12

# Chunks hold CHUNK_BYTES // (8 n width) panels, width being the columns
# per replicate that the caller's statistic smooths: 1 replicate per chunk
# (with the panel floor lowered to 1); 28 // width at n = 150 (7 at width 4,
# 9 at 3, 14 at 2, 28 at 1), which divides none of the B used here; the
# default (26 at 150 x 4 and width 4, 53 at width 2, 106 at width 1);
# everything in one chunk.
CHUNK_BYTES = [1, 8 * 150 * 4 * 7, inference.CHUNK_BYTES, 10**9]


@pytest.fixture(params=CHUNK_BYTES, ids=["chunk1", "chunk7", "default", "one-chunk"])
def chunk_bytes(request, monkeypatch):
    monkeypatch.setattr(inference, "CHUNK_BYTES", request.param)
    if request.param == 1:
        monkeypatch.setattr(inference, "MIN_CHUNK_PANELS", 1)
    return request.param


@pytest.fixture(scope="module")
def example():
    return ingest_csv(example_panel_path())


def spawn(seed, count):
    return np.random.SeedSequence(seed).spawn(count)


def redrawn(draw, rng):
    """compute_maf of draw(rng), drawing again until the covariance is not
    singular (a constant column makes it singular); returns (decomposition,
    number of redraws)."""
    redraws = 0
    while True:
        try:
            return compute_maf(draw(rng)), redraws
        except (SingularMatrixError, DegenerateSeriesError):
            redraws += 1


def checked_maf_stack(x, allow_singular):
    """`maf_stack`'s decomposition as it was when the kernel re-checked both
    covariances (`_check_symmetric`) and oriented each eigenvector
    (`_fix_signs`, largest-magnitude component positive). The covariances
    are built in the kernel's time-major (m, p, n) layout, and the pencil
    solved as in `maf_stack`: S' = E S E, E = diag(2^-e) for the powers of
    two 2^e of the square roots of S's diagonal, S' = U Λ U^T, whitener
    W = E U Λ^(-1/2), and the eigenvectors of W^T Σ_Δ W. That product is
    symmetric only up to rounding, so it goes to `np.linalg.eigh`, which
    reads one triangle, not to `sym_eig`, whose check would average it with
    its transpose."""
    x = np.ascontiguousarray(np.swapaxes(x, 1, 2))
    cov = _check_symmetric(covariance_stack(x))
    _, e = np.frexp(np.sqrt(np.diagonal(cov, axis1=1, axis2=2)))
    cov_values, basis = np.linalg.eigh(np.ldexp(cov, -(e[:, :, None] + e[:, None, :])))
    singular = spd_singular(cov_values)
    if not allow_singular:
        require_spd(cov_values, "sample covariance")
    safe = np.where(singular[:, None], 1.0, cov_values)
    whitener = np.ldexp(basis / np.sqrt(safe)[:, None, :], -e[:, :, None])
    diff_cov = _check_symmetric(covariance_stack(np.diff(x, axis=2)))
    diff_values, vectors = np.linalg.eigh(np.swapaxes(whitener, 1, 2) @ diff_cov @ whitener)
    coefficients = whitener @ _fix_signs(vectors)
    factors = np.swapaxes(np.swapaxes(coefficients, 1, 2) @ x, 1, 2)
    if np.any(singular):
        coefficients[singular] = factors[singular] = diff_values[singular] = np.nan
    return MafStack(coefficients, factors, diff_values, singular)


def sample_major_covariance(x):
    """Centered 1/(n-1) covariance of every (n, p) panel of an (..., n, p)
    stack, reducing over the middle (time) axis."""
    n = x.shape[-2]
    centered = x - x.mean(axis=-2, keepdims=True)
    cov = np.swapaxes(centered, -1, -2) @ centered / (n - 1)
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def symmetric_inverse_sqrt(m):
    """Symmetric inverse square roots of a stack of covariances, and their
    ascending eigenvalues; a spectrum that fails the SPD rule is taken as
    all ones, so its root is the identity up to rounding."""
    values, vectors = np.linalg.eigh(m)
    safe = np.where(spd_singular(values)[..., None], 1.0, values)
    root = (vectors / np.sqrt(safe)[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2)), values


def maf_stack_sample_major(x, allow_singular=False):
    """`maf_stack` as it was before the time-major layout and the covariance
    pencil, kept as the reference: both covariances reduce over the middle
    axis of the (m, n, p) stack, the panel itself is whitened by
    E S'^(-1/2) and then differenced, and each panel is scaled by the one
    power of two of its peak |value| (so a series far below the panel's
    peak may underflow)."""
    x = np.asarray(x, dtype=float)
    _, exponents = np.frexp(np.abs(x).max(axis=(1, 2), keepdims=True))
    x = np.ldexp(x, -exponents)
    cov = sample_major_covariance(x)
    _, e = np.frexp(np.sqrt(np.diagonal(cov, axis1=1, axis2=2)))
    root, cov_values = symmetric_inverse_sqrt(np.ldexp(cov, -(e[:, :, None] + e[:, None, :])))
    whitener = np.ldexp(root, -e[:, :, None])
    singular = spd_singular(cov_values)
    if not allow_singular:
        require_spd(cov_values, "sample covariance")
    diff_values, vectors = np.linalg.eigh(sample_major_covariance(np.diff(x @ whitener, axis=1)))
    coefficients = whitener @ vectors
    factors = x @ coefficients
    coefficients = np.ldexp(coefficients, -exponents)
    if np.any(singular):
        coefficients[singular] = factors[singular] = diff_values[singular] = np.nan
    return MafStack(coefficients, factors, diff_values, singular)


def loop_presence(panel, B, cfg=SmootherConfig(), mode="permutation", block_len=1,
                  k=1, seed=0):
    """(null SNR draws, (k, B), redraws), one replicate at a time."""
    panel = as_panel(panel)
    n = panel.n
    _, residuals, df = inference.smooth_columns(panel.values, cfg)
    inflated = residuals * np.sqrt(n / (n - df))

    def draw(rng):
        if mode == "permutation":
            return inflated[rng.permutation(n)]
        return inflated[resample_indices(rng, n, block_len)]

    null = np.empty((k, B))
    redraws = 0
    for b, child in enumerate(spawn(seed, B)):
        rep, extra = redrawn(draw, np.random.default_rng(child))
        redraws += extra
        for j in range(k):
            null[j, b] = empirical_snr(rep.factors[:, j], cfg)
    return null, redraws


def maf_stack_permutation_null(panel, B, k, seed, cfg=SmootherConfig()):
    """The permutation null with every permuted residual panel decomposed by
    `maf_stack` in the driver, as before the null was whitened once: its
    (k, B) SNR draws and the (B, p) differenced-covariance eigenvalues."""
    panel = as_panel(panel)
    _, residuals, _ = inference.smooth_columns(panel.values, cfg)

    def draw(rngs):
        return residuals[np.stack([rng.permutation(panel.n) for rng in rngs])]

    null, spectra = np.empty((k, B)), np.empty((B, panel.p))
    for start, stop, _, reps, _ in inference._replicates(seed, range(B), panel.n, panel.p, draw):
        null[:, start:stop] = inference._factor_snrs(reps.factors[..., :k], cfg)
        spectra[start:stop] = reps.diff_eigenvalues
    return null, spectra


def permutation_null_reference(residuals):
    """`inference._permutation_null` as it was before its chunks were laid
    out for the SNR stage: the chunk's rows gathered by a fancy index, the
    outer products of the first, last and jump rows as (p, 1) @ (1, p)
    matmuls, 2 G0 formed per chunk, and sample-major (m, n, p) factors."""
    basis = maf_stack(residuals[None])
    coefficients, z = basis.coefficients[0], basis.factors[0]
    z = z - z.mean(axis=0)
    n = len(z)
    g0 = z.T @ z

    def draw(rngs):
        return z[np.stack([rng.permutation(n) for rng in rngs])]

    def decompose(zs):
        first, last = zs[:, :1], zs[:, -1:]
        g1 = np.swapaxes(zs[:, 1:], 1, 2) @ zs[:, :-1]
        jump = last - first

        def outer(v):
            return np.swapaxes(v, 1, 2) @ v

        diff_cov = (2.0 * g0 - outer(first) - outer(last) - (g1 + np.swapaxes(g1, 1, 2))
                    - outer(jump) / (n - 1)) / (n - 2)
        values, vectors = np.linalg.eigh(diff_cov)
        return MafStack(coefficients @ vectors, zs @ vectors, values,
                        np.zeros(len(zs), dtype=bool))

    return draw, decompose


def count_maf_stack(monkeypatch) -> list:
    """Patch `maf_stack` where `compute_maf` and the driver look it up;
    returns the list that each call appends its number of panels to."""
    calls = []

    def counted(x, allow_singular=False):
        calls.append(len(x))
        return maf_stack(x, allow_singular)

    monkeypatch.setattr(inference, "maf_stack", counted)
    monkeypatch.setattr(maf_module, "maf_stack", counted)
    return calls


def count_chunks(monkeypatch) -> list:
    """`count_maf_stack`, and the permutation null's `decompose` counted into
    the same list: one entry per call, its number of panels."""
    calls = count_maf_stack(monkeypatch)
    permutation_null = inference._permutation_null

    def counted_null(residuals):
        draw, decompose = permutation_null(residuals)

        def counted(zs):
            calls.append(len(zs))
            return decompose(zs)

        return draw, counted

    monkeypatch.setattr(inference, "_permutation_null", counted_null)
    return calls


def chunks(size, B) -> list:
    """Panels per chunk of B replicates, `size` to a chunk."""
    return [size] * (B // size) + [B % size] * (B % size > 0)


def loop_draw(f, b, chol, rng, ar_phi):
    """One signal-plus-noise panel, with the AR(1) recursion row by row."""
    n, p = f.size, b.size
    shocks = np.random.default_rng(rng).standard_normal((n, p)) @ chol.T
    noise = shocks.copy()
    for t in range(1, n):
        noise[t] = ar_phi * noise[t - 1] + np.sqrt(1.0 - ar_phi ** 2) * shocks[t]
    return np.outer(np.sqrt(n) * f, b) + noise


def loop_power(spec, f, multipliers, B, alpha=0.05, seed=0, cfg=SmootherConfig(),
               statistic="snr"):
    chol = np.linalg.cholesky(spec.noise_cov)
    children = spawn(seed, (1 + len(multipliers)) * B)

    def stat(b, child):
        decomp, _ = redrawn(lambda rng: loop_draw(f, b, chol, rng, spec.k_eps),
                            np.random.default_rng(child))
        if statistic == "snr":
            return empirical_snr(decomp.factors[:, 0], cfg)
        return decomp.autocorrelations[0]

    def stats(b, offset):
        return np.array([stat(b, children[offset + i]) for i in range(B)])

    threshold = np.quantile(stats(np.zeros(spec.p), 0), 1.0 - alpha)
    return [float(np.mean(stats(c * spec.b, (1 + i) * B) > threshold))
            for i, c in enumerate(multipliers)]


def loop_resample(panel, B, block_len=1, cfg=SmootherConfig(), n_factors=1, seed=0):
    """(replicate factors, replicate coefficients, retries) as `resample_maf` defines them."""
    panel = as_panel(panel)
    n, p = panel.n, panel.p
    orig = compute_maf(panel).factors[:, :n_factors]
    orig_centered = orig - orig.mean(axis=0)
    fitted, residuals, _ = inference.smooth_columns(panel.values, cfg)
    rep_factors = np.empty((n_factors, B, n))
    rep_coefs = np.empty((n_factors, B, p))

    def draw(rng):
        return fitted + residuals[resample_indices(rng, n, block_len)]

    retries = 0
    for b, child in enumerate(spawn(seed, B)):
        rep, extra = redrawn(draw, np.random.default_rng(child))
        retries += extra
        factors = rep.factors[:, :n_factors]
        coefs = rep.coefficients[:, :n_factors]
        centered = factors - factors.mean(axis=0)
        flips = np.where(np.einsum("tj,tj->j", centered, orig_centered) < 0, -1.0, 1.0)
        rep_factors[:, b] = (factors * flips).T
        rep_coefs[:, b] = (coefs * flips / np.linalg.norm(coefs, axis=0)).T
    return rep_factors, rep_coefs, retries


def loop_experiment(grid):
    """(rho, multiplier, statistic, mean, se) rows of the comparison
    experiment, one panel at a time: rep r of cell c is `gen_sn_panel` on
    child c * reps + r of `SeedSequence(seed).spawn(cells * reps)`."""
    f = gen_signal(grid.signal_spec())
    base_b = np.asarray(grid.base_b, dtype=float)
    cells = [(rho, mult) for rho in grid.rho_values for mult in grid.b_multipliers]
    children = spawn(grid.seed, len(cells) * grid.reps)
    rows = []
    for c, (rho, mult) in enumerate(cells):
        stats = np.empty((grid.reps, 3))
        for r in range(grid.reps):
            panel = gen_sn_panel(f, mult * base_b, (rho, 1.0), children[c * grid.reps + r])
            maf, pca = compute_maf(panel), compute_pca(panel)
            stats[r] = (correlation_with_signal(maf.factors[:, 0], f),
                        correlation_with_signal(pca.factors[:, 0], f),
                        multi_factor_r(f, pca.factors[:, : min(2, panel.p)]))
        ses = stats.std(axis=0, ddof=1) / np.sqrt(grid.reps)
        for name, mean, se in zip(("maf1_correlation", "pca1_correlation",
                                   "pc12_multiple_r"), stats.mean(axis=0), ses):
            rows.append((rho, mult, name, mean, se))
    return rows


def sparse_panel(n=30, rows=(3, 11, 20), seed=0):
    """Noise plus a column that is nonzero only at `rows`: a row resample that
    misses all of them has a constant column and a singular covariance."""
    rng = np.random.default_rng(seed)
    spike = np.zeros(n)
    spike[list(rows)] = 1.0
    return np.column_stack([rng.standard_normal(n), spike])


@pytest.fixture
def unsmoothed(monkeypatch):
    # With a zero smooth every replicate (of the library and of the loops
    # above) is a plain row resample of the panel, so a replicate's
    # covariance can be singular while its neighbours' are not.
    def no_smoothing(values, cfg):
        values = np.asarray(values, dtype=float)
        return np.zeros_like(values), values.copy(), 0.0

    monkeypatch.setattr(inference, "smooth_columns", no_smoothing)


class TestKernel:
    def test_stack_matches_compute_maf_per_panel(self, rng):
        # every row of a stack is bitwise the stack of that panel alone, and
        # compute_maf of it up to the trend sign, which is all it adds on top
        for m, n, p in [(5, 60, 3), (4, 30, 1), (26, 150, 4), (3, 8, 6), (9, 3, 1)]:
            x = rng.standard_normal((m, n, p)).cumsum(axis=1) + rng.standard_normal((m, n, p))
            stack = maf_stack(x)
            assert stack.factors.shape == (m, n, p) and stack.coefficients.shape == (m, p, p)
            assert not stack.singular.any()
            for i in range(m):
                alone = maf_stack(x[i:i + 1])
                for name, values in stack._asdict().items():
                    np.testing.assert_array_equal(values[i], getattr(alone, name)[0],
                                                  err_msg=name)
                one = compute_maf(x[i])
                signs = np.where(np.sum(one.coefficients * stack.coefficients[i], axis=0) < 0,
                                 -1.0, 1.0)
                np.testing.assert_array_equal(stack.coefficients[i] * signs, one.coefficients)
                np.testing.assert_array_equal(stack.factors[i] * signs, one.factors)
                np.testing.assert_array_equal(stack.diff_eigenvalues[i], one.diff_eigenvalues)

    @pytest.mark.parametrize("shape", [(4, 3005, 8), (106, 150, 3), (53, 150, 4)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_whitens_no_panel(self, rng, shape):
        # chunk shapes of a long bootstrap, of `power` and of a bootstrap
        # null; the pencil whitens p x p covariances only, so a warm call's
        # peak holds the time-major copy of the stack, the differenced panel
        # and its centred copy, but no whitened (m, p, n) panel, which took
        # the peak past 4 times the stack
        x = rng.standard_normal(shape).cumsum(axis=1)
        maf_stack(x)
        tracemalloc.start()
        try:
            maf_stack(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * x.nbytes

    def test_singular_panel_flagged_or_raised(self, rng):
        x = rng.standard_normal((4, 40, 2))
        x[2, :, 1] = 3.0 * x[2, :, 0]
        with pytest.raises(SingularMatrixError, match="eigenvalue"):
            maf_stack(x)
        stack = maf_stack(x, allow_singular=True)
        np.testing.assert_array_equal(stack.singular, [False, False, True, False])
        assert np.isnan(stack.factors[2]).all()
        np.testing.assert_allclose(stack.factors[3], maf_stack(x[3:]).factors[0], atol=TOL)

    def test_rejects_non_finite_and_bad_shapes(self, rng):
        x = rng.standard_normal((3, 20, 2))
        x[1, 5, 0] = np.nan
        with pytest.raises(InvalidInputError):
            maf_stack(x)
        x[1, 5, 0] = np.inf
        with pytest.raises(InvalidInputError, match="non-finite"):
            maf_stack(x)
        with pytest.raises(InvalidInputError):
            maf_stack(np.zeros((20, 2)))

    @pytest.mark.parametrize("allow_singular", [False, True])
    def test_overflowing_panel_decomposes_like_the_unscaled_one(self, rng, allow_singular):
        # values of 1e160 square past the largest float; each panel is scaled
        # by a power of two before its covariance, and only the coefficients
        # keep the scale
        x = rng.standard_normal((3, 60, 3))
        huge = maf_stack(x * 1e160, allow_singular=allow_singular)
        plain = maf_stack(x, allow_singular=allow_singular)
        signs = np.sign(np.einsum("mtj,mtj->mj", huge.factors, plain.factors))[:, None, :]
        np.testing.assert_allclose(huge.diff_eigenvalues, plain.diff_eigenvalues, rtol=1e-13)
        np.testing.assert_allclose(huge.factors * signs, plain.factors, atol=1e-12)
        np.testing.assert_allclose(huge.coefficients * signs * 1e160, plain.coefficients,
                                   atol=1e-12)

    def test_overflowing_panel_decomposes_like_the_unscaled_one_in_the_cli(self, rng, tmp_path):
        values = rng.standard_normal((60, 3))
        artifacts = []
        for name, scale in (("plain", 1.0), ("huge", 1e160)):
            path = tmp_path / f"{name}.csv"
            rows = [",".join(repr(float(v)) for v in row) for row in values * scale]
            path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
            assert main(["decompose", "--input", str(path), "--output", str(tmp_path / name)]) == 0
            # the spectrum and the factors (MAF and standardized PCA) are free of scale
            artifacts.append([np.loadtxt(tmp_path / name / f"{artifact}.csv", delimiter=",",
                                         skiprows=1) for artifact in ("spectrum", "factors")])
        for huge, plain in zip(artifacts[1], artifacts[0]):
            np.testing.assert_allclose(huge, plain, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e6, 1e16, 1e160, 1e200, 1e-200])
    def test_one_series_in_other_units_decomposes_like_the_panel(self, example, scale):
        # MAF is invariant to per-series scaling: the covariance is
        # equilibrated before the SPD rule, so series 4 in other units is not
        # a singular panel, and only its coefficients keep the scale; each
        # series is scaled by its own power of two first, so a series 1e200
        # times larger or smaller than the others neither pushes them into
        # subnormal numbers nor underflows itself
        values = example.values.copy()
        values[:, 3] *= scale
        plain, scaled = compute_maf(example), compute_maf(values)
        np.testing.assert_allclose(scaled.autocorrelations, plain.autocorrelations,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(scaled.factors, plain.factors, rtol=0, atol=1e-12)
        coefficients = scaled.coefficients * np.array([1.0, 1.0, 1.0, scale])[:, None]
        np.testing.assert_allclose(coefficients, plain.coefficients, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e6, 1e16, 1e160, 1e200, 1e-200])
    def test_one_series_in_other_units_decomposes_like_the_panel_in_the_cli(self, example,
                                                                             scale, tmp_path):
        values = example.values.copy()
        values[:, 3] *= scale
        artifacts = []
        for name, panel in (("plain", example.values), ("scaled", values)):
            path = tmp_path / f"{name}.csv"
            rows = [",".join(repr(float(v)) for v in row) for row in panel]
            path.write_text("a,b,c,d\n" + "\n".join(rows) + "\n")
            assert main(["decompose", "--input", str(path), "--output", str(tmp_path / name)]) == 0
            # the spectrum and the factors (MAF and standardized PCA) are free of units
            artifacts.append([np.loadtxt(tmp_path / name / f"{artifact}.csv", delimiter=",",
                                         skiprows=1) for artifact in ("spectrum", "factors")])
        for scaled, plain in zip(artifacts[1], artifacts[0]):
            np.testing.assert_allclose(scaled, plain, rtol=0, atol=1e-12)

    def test_snr_columns_matches_empirical_snr(self, rng):
        y = rng.standard_normal((120, 5)).cumsum(axis=0) + rng.standard_normal((120, 5))
        cfg = SmootherConfig(span_fraction=0.3)
        expected = [empirical_snr(y[:, j], cfg) for j in range(5)]
        np.testing.assert_allclose(snr_columns(y, cfg), expected, rtol=TOL)

    @pytest.mark.parametrize("ar_phi", [0.0, 0.6])
    def test_gen_sn_stack_matches_panel_draws(self, ar_phi):
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=90, seed=3))
        b = np.array([0.7, 0.2, -0.1])
        seeds = spawn(4, 5)
        stack = gen_sn_stack(f, b, noise_cholesky((0.4, 1.5), 3), seeds, ar_phi=ar_phi)
        chol = np.linalg.cholesky(SnModelSpec.equicorrelated(b, 1.5, 0.4).noise_cov)
        for i, seed in enumerate(seeds):
            np.testing.assert_allclose(stack[i], loop_draw(f, b, chol, seed, ar_phi), atol=TOL)
            np.testing.assert_array_equal(
                stack[i], gen_sn_panel(f, b, (0.4, 1.5), seed, ar_phi=ar_phi).values
            )


# one-key ranges, as the driver takes its keys
STREAM_KEYS = [range(key, key + 1) for key in (0, 1, 4998, 5999, 65536, 2**32 - 1)]
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 5]


class TestStreams:
    def test_words_match_spawned_children(self):
        expected = [child.generate_state(4, np.uint64) for child in spawn(0, 20_000)]
        np.testing.assert_array_equal(inference._stream_words(0, range(20_000)), expected)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_words_and_states_match_numpy(self, seed):
        children = [np.random.SeedSequence(seed, spawn_key=(keys[0],)) for keys in STREAM_KEYS]
        for keys, child in zip(STREAM_KEYS, children):
            np.testing.assert_array_equal(inference._stream_words(seed, keys),
                                          [child.generate_state(4, np.uint64)])
        # the driver's shared generator holds each child's starting state
        states = []

        def draw(rngs):
            panels = []
            for rng in rngs:
                states.append(rng.bit_generator.state)
                panels.append(rng.standard_normal((10, 2)))
            return np.stack(panels)

        for keys in STREAM_KEYS:
            list(inference._replicates(seed, keys, 10, 2, draw))
        assert states == [np.random.default_rng(child).bit_generator.state
                          for child in children]

    @pytest.mark.parametrize("seed, keys", [(-1, range(1)), (0, range(2**32, 2**32 + 1)),
                                            (0, range(2**32 - 1, 2**32 + 1)),
                                            (0, range(-1, 0))])
    def test_rejects_negative_seed_and_wide_keys(self, seed, keys):
        with pytest.raises(InvalidConfigError):
            inference._stream_words(seed, keys)

    @pytest.mark.parametrize("constant", ["_INIT_B", "_PCG64_MULT"])
    def test_driver_checks_seeding_against_numpy(self, monkeypatch, constant):
        monkeypatch.setattr(inference, constant, getattr(inference, constant) ^ 2)
        with pytest.raises(RuntimeError, match="no longer matches"):
            next(inference._replicates(0, range(3), 10, 2, lambda rngs: None))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**512),
       start=st.integers(min_value=0, max_value=2**32 - 4),
       length=st.integers(min_value=1, max_value=4))
@explicit_example(seed=2**128 - 1, start=0, length=1)  # the largest 4-word seed: 16 hashes
@explicit_example(seed=2**128, start=0, length=1)  # the smallest 5-word seed: 20 hashes
def test_stream_words_match_seed_sequence(seed, start, length):
    # seeds of 1 to 17 uint32 words cover both sides of the 4 * max(4, w)
    # hash count that `_stream_words` skips past
    keys = range(start, start + length)
    expected = [np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(4, np.uint64)
                for key in keys]
    np.testing.assert_array_equal(inference._stream_words(seed, keys), expected)


def start_state(rng):
    """The PCG64 (state, increment) of `rng`, as it is before its next draw."""
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


def collinear_draw(seed, B, collinear):
    """A draw for the driver of 150 x 4 normal panels, in which the first
    collinear[b] panels of replicate b's stream are collinear.

    A draw is told apart by its generator's state when it starts: replicate
    b's first draw starts where `default_rng(child b)` does, and each later
    draw of its stream starts where the previous one left off.
    """
    owner = {start_state(np.random.default_rng(child)): (b, 0)
             for b, child in enumerate(spawn(seed, B))}

    def draw(rngs):
        panels = []
        for rng in rngs:
            b, i = owner.get(start_state(rng), (None, 0))
            panel = rng.standard_normal((150, 4))
            if b is not None:
                owner[start_state(rng)] = (b, i + 1)
                if i < collinear.get(b, 0):
                    panel[:, 1] = panel[:, 0]
            panels.append(panel)
        return np.stack(panels)

    return draw


def loop_collinear(seed, B, collinear):
    """The panels `collinear_draw` replicates end on, one stream at a time:
    replicate b skips its collinear[b] collinear panels."""
    panels = []
    for b, child in enumerate(spawn(seed, B)):
        rng = np.random.default_rng(child)
        for _ in range(collinear.get(b, 0)):
            rng.standard_normal((150, 4))
        panels.append(rng.standard_normal((150, 4)))
    return np.stack(panels)


class TestDriver:
    def check_redraws(self, seed, B, collinear):
        chunks = list(inference._replicates(seed, range(B), 150, 4,
                                            collinear_draw(seed, B, collinear)))
        _, stop, _, _, redraws = chunks[-1]
        assert stop == B and redraws == sum(collinear.values())
        panels = loop_collinear(seed, B, collinear)
        # the yielded panels are the ones the stacks decompose, redraws included
        np.testing.assert_array_equal(np.concatenate([chunk[2] for chunk in chunks]), panels)
        expected = maf_stack(panels)
        for name, values in expected._asdict().items():
            got = np.concatenate([getattr(stack, name) for _, _, _, stack, _ in chunks])
            np.testing.assert_allclose(got, values, rtol=TOL, atol=TOL, err_msg=name)
        return chunks

    def test_redraw_replaces_every_field(self, chunk_bytes):
        # replicate 5's first panel is collinear, so the chunk must hold the
        # decomposition of the next panel of its stream in every field
        self.check_redraws(41, 12, {5: 1})

    def test_two_singular_replicates_in_one_chunk(self, chunk_bytes):
        # replicates 5 and 6 share a chunk unless it holds one replicate;
        # 5 is singular on two draws, so the second round redraws it alone
        # (3 redraws, the budget for B=30)
        chunks = self.check_redraws(42, 30, {5: 2, 6: 1})
        assert any(start <= 5 and 6 < stop for start, stop, _, _, _ in chunks) == (
            chunk_bytes > 8 * 150 * 4)

    def test_redraws_build_no_seed_sequence(self, monkeypatch):
        # a redraw resets the driver's one Generator to the replicate's
        # stream, so the pool and the first stream's self-check stay the only
        # SeedSequences however many replicates are redrawn
        draw = collinear_draw(42, 30, {5: 2, 6: 1})
        built = []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        chunks = list(inference._replicates(42, range(30), 150, 4, draw))
        assert chunks[-1][-1] == 3 and len(built) == 2


class TestPresence:
    def test_permutation_matches_loop(self, example, chunk_bytes):
        report = signal_presence_test(example, B=99, n_factors_tested=2, seed=11)
        null, _ = loop_presence(example, B=99, k=2, seed=11)
        np.testing.assert_allclose(report.null_draws, null, rtol=TOL, atol=TOL)
        observed = [empirical_snr(compute_maf(example).factors[:, j]) for j in range(2)]
        np.testing.assert_allclose(report.observed, observed, rtol=TOL)
        np.testing.assert_array_equal(
            report.p_value, (null >= report.observed[:, None]).mean(axis=1)
        )

    def test_block_bootstrap_matches_loop(self, example, chunk_bytes):
        cfg = SmootherConfig(span_fraction=0.3)
        report = signal_presence_test(example, B=101, cfg=cfg, block_len=6,
                                      n_factors_tested=3, seed=12)
        assert report.mode == "bootstrap"
        null, _ = loop_presence(example, B=101, cfg=cfg, mode="bootstrap", block_len=6,
                                k=3, seed=12)
        np.testing.assert_allclose(report.null_draws, null, rtol=TOL, atol=TOL)

    def test_below_one_default_chunk(self, rng):
        # 40 x 3 panels: one default chunk holds 133 replicates, more than B
        panel = rng.standard_normal((40, 3)).cumsum(axis=0) + rng.standard_normal((40, 3))
        assert inference.CHUNK_BYTES // (8 * 40 * 3) > 99
        report = signal_presence_test(panel, B=99, n_factors_tested=3, seed=2)
        null, _ = loop_presence(panel, B=99, k=3, seed=2)
        np.testing.assert_allclose(report.null_draws, null, rtol=TOL, atol=TOL)

    def test_select_test_method_matches_loop(self, example, chunk_bytes):
        result = select_num_factors(example, method="test", B=99, seed=13)
        null, _ = loop_presence(example, B=99, k=4, seed=13)
        observed = np.array(
            [empirical_snr(compute_maf(example).factors[:, j]) for j in range(4)]
        )
        p_values = (null >= observed[:, None]).mean(axis=1)
        np.testing.assert_array_equal(result.diagnostics["p_values"], p_values)
        k = 0
        while k < 4 and p_values[k] < 0.05:
            k += 1
        assert result.k == k

    def test_permutation_null_stack_matches_maf_stack(self, example):
        # every field, on the same permuted residual panels; the moments
        # factors are centered
        residuals = inference.smooth_columns(example.values, SmootherConfig())[1]
        draw, decompose = inference._permutation_null(residuals)
        stack = decompose(draw(np.random.default_rng(s) for s in range(30)))
        rows = np.stack([np.random.default_rng(s).permutation(example.n) for s in range(30)])
        reference = maf_stack(residuals[rows])
        assert not stack.singular.any()
        np.testing.assert_allclose(stack.diff_eigenvalues, reference.diff_eigenvalues,
                                   rtol=TOL, atol=0)
        panels = residuals[rows] - residuals.mean(axis=0)
        np.testing.assert_allclose(panels @ stack.coefficients, stack.factors, rtol=0, atol=TOL)
        signs = np.sign(np.sum(stack.coefficients * reference.coefficients, axis=1,
                               keepdims=True))
        np.testing.assert_allclose(stack.coefficients * signs, reference.coefficients,
                                   rtol=0, atol=TOL * np.abs(reference.coefficients).max())
        expected = reference.factors - reference.factors.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(stack.factors * signs, expected, rtol=0, atol=TOL)

    def test_permutation_null_chunk_is_bitwise_the_reference(self, example):
        # one np.take gather and factors in an (n, m, p) buffer change no
        # bit of any field against the fancy-index, sample-major reference
        residuals = inference.smooth_columns(example.values, SmootherConfig())[1]
        stacks = [decompose(draw(np.random.default_rng(s) for s in range(30)))
                  for draw, decompose in (inference._permutation_null(residuals),
                                          permutation_null_reference(residuals))]
        for field, got, expected in zip(MafStack._fields, *stacks):
            np.testing.assert_array_equal(got, expected, err_msg=field)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_permutation_null_draws_are_bitwise_the_reference(self, example, monkeypatch,
                                                              chunk_bytes, k):
        report = signal_presence_test(example, B=199, n_factors_tested=k, seed=8)
        monkeypatch.setattr(inference, "_permutation_null", permutation_null_reference)
        reference = signal_presence_test(example, B=199, n_factors_tested=k, seed=8)
        np.testing.assert_array_equal(report.null_draws, reference.null_draws)

    @pytest.mark.parametrize("B", [99, 1000])
    def test_permutation_null_never_calls_maf_stack(self, example, monkeypatch, B):
        # no call per chunk: the two calls are compute_maf's, on the observed
        # panel, and the null's, on the residuals
        calls = count_maf_stack(monkeypatch)
        signal_presence_test(example, B=B, n_factors_tested=2, seed=4)
        assert calls == [1, 1]
        calls.clear()
        select_num_factors(example, method="test", B=B, seed=4)
        assert calls == [1, 1]

    @pytest.mark.parametrize("B", [99, 1000])
    def test_bootstrap_null_calls_maf_stack_once_per_chunk(self, example, monkeypatch, B):
        calls = count_maf_stack(monkeypatch)
        k = 1
        signal_presence_test(example, B=B, block_len=5, n_factors_tested=k, seed=4)
        size = inference.CHUNK_BYTES // (8 * example.n * k)
        assert calls == [1] + [size] * (B // size) + [B % size] * (B % size > 0)

    def test_permutation_null_rejects_singular_residuals(self):
        # the residual covariance is checked once, so no replicate is
        # redrawn. The panel is noise, and the same noise plus a line, which
        # the smoother reproduces, plus 1e-7 of other noise: the observed
        # factors have SNRs, but the residual covariance's eigenvalues
        # differ by a factor of about 1e-14
        noise = np.random.default_rng(3).standard_normal((60, 2))
        panel = np.column_stack([noise[:, 0], noise[:, 0] + 0.5 * np.arange(60)
                                 + 1e-7 * noise[:, 1]])
        with pytest.raises(SingularMatrixError, match="residuals"):
            signal_presence_test(panel, B=99, mode="permutation", seed=3)

    def test_singular_replicates_redrawn_from_own_stream(self, unsmoothed, chunk_bytes):
        panel = sparse_panel()
        # replicate 0 is fine; later draws that miss every spike row are redrawn
        draws = [resample_indices(np.random.default_rng(c), 30, 1) for c in spawn(3, 99)]
        misses = [not np.isin([3, 11, 20], idx).any() for idx in draws]
        assert not misses[0] and any(misses)
        report = signal_presence_test(panel, B=99, mode="bootstrap", seed=3)
        null, redraws = loop_presence(panel, B=99, mode="bootstrap", seed=3)
        assert redraws == 3  # within the budget of 10
        np.testing.assert_allclose(report.null_draws, null, rtol=TOL, atol=TOL)

    def test_singular_replicate_raises(self, unsmoothed, chunk_bytes):
        # once redraws exceed 10% of B: one spike row, which ~36% of row
        # resamples miss
        panel = sparse_panel(rows=(7,))
        with pytest.raises(SingularMatrixError, match="10%"):
            signal_presence_test(panel, B=99, mode="bootstrap", seed=3)


class TestChunkSizes:
    """Panels per chunk by caller, counted in `decompose` and `maf_stack`
    calls: CHUNK_BYTES // (8 n width), at least MIN_CHUNK_PANELS, where width
    is the number of columns per replicate that the caller's statistic
    smooths. The first calls are `compute_maf`'s on the observed panel and,
    for the permutation null, `maf_stack`'s on the residuals."""

    @pytest.mark.parametrize("k, size", [(2, 53), (1, 106)], ids=["presence", "test-factors-1"])
    def test_permutation_null_by_factors_tested(self, example, monkeypatch, k, size):
        calls = count_chunks(monkeypatch)
        signal_presence_test(example, B=250, n_factors_tested=k, seed=1)
        assert calls == [1, 1] + chunks(size, 250)

    def test_select_by_test_keeps_p_columns(self, example, monkeypatch):
        calls = count_chunks(monkeypatch)
        select_num_factors(example, method="test", B=250, seed=1)
        assert calls == [1, 1] + chunks(26, 250)

    @pytest.mark.parametrize("statistic, size", [("snr", 106), ("autocorrelation", 35)])
    def test_power_by_statistic(self, monkeypatch, statistic, size):
        # the SNR smooths MAF1 alone; the autocorrelation smooths nothing,
        # so its chunks keep the panel's p columns
        calls = count_chunks(monkeypatch)
        spec = SnModelSpec.equicorrelated(b=[0.5, 0.4, 0.3], sigma=1.0, rho=0.5)
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=150, seed=7))
        power_curve(spec, f, [0.5], B=250, seed=1, statistic=statistic)
        assert calls == chunks(size, 250) * 2

    def test_resample_keeps_p_columns(self, example, monkeypatch):
        calls = count_chunks(monkeypatch)
        resample_maf(example, B=60, block_len=5, n_factors=2, seed=1)
        assert calls == [1] + chunks(26, 60)

    def test_long_resample_at_the_panel_floor(self, monkeypatch):
        rng = np.random.default_rng(9)
        panel = np.cumsum(rng.standard_normal((3005, 8)), axis=0) + rng.standard_normal((3005, 8))
        calls = count_chunks(monkeypatch)
        resample_maf(panel, B=9, block_len=20, n_factors=2, seed=1)
        assert calls == [1] + chunks(4, 9)

    def test_experiment_keeps_p_columns(self, monkeypatch):
        calls = count_chunks(monkeypatch)
        grid = ExperimentGrid(rho_values=(0.5,), b_multipliers=(1.0,), base_b=(0.8, 0.4, 0.2),
                              n=150, reps=50, seed=33)
        run_comparison_experiment(grid)
        assert calls == chunks(35, 50)

    @pytest.mark.parametrize("mode, block_len, B", [("permutation", 1, 4999),
                                                    ("bootstrap", 5, 999)])
    def test_chunking_moves_null_draws_by_rounding_only(self, example, monkeypatch,
                                                         mode, block_len, B):
        # `smooth_columns`'s interior block product rounds with its column
        # count, so the null draws depend on the chunks by rounding only
        run = partial(signal_presence_test, example, B=B, mode=mode, block_len=block_len,
                      n_factors_tested=2, seed=0)
        default = run()
        monkeypatch.setattr(inference, "CHUNK_BYTES", 1)
        monkeypatch.setattr(inference, "MIN_CHUNK_PANELS", 1)
        single = run()
        np.testing.assert_array_equal(default.p_value, single.p_value)
        np.testing.assert_allclose(default.null_draws, single.null_draws, rtol=1e-15, atol=0)


class TestPower:
    @pytest.mark.parametrize("statistic", ["snr", "autocorrelation"])
    def test_matches_loop(self, statistic, chunk_bytes):
        spec = SnModelSpec.equicorrelated(b=[0.5, 0.4, 0.3], sigma=1.0, rho=0.5)
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=150, seed=7))
        multipliers = [0.0, 0.3, 0.6]
        points = power_curve(spec, f, multipliers, B=40, seed=21, statistic=statistic)
        expected = loop_power(spec, f, multipliers, B=40, seed=21, statistic=statistic)
        assert [pt.multiplier for pt in points] == multipliers
        np.testing.assert_allclose([pt.power for pt in points], expected, atol=TOL)

    def test_ar_noise_matches_loop(self, chunk_bytes):
        spec = SnModelSpec.equicorrelated(b=[0.5, 0.4, 0.3], sigma=1.0, rho=0.2, k_eps=0.4)
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=80, seed=2))
        points = power_curve(spec, f, [0.5], B=30, seed=22)
        expected = loop_power(spec, f, [0.5], B=30, seed=22)
        np.testing.assert_allclose([pt.power for pt in points], expected, atol=TOL)

    def test_singular_replicate_raises(self, monkeypatch, chunk_bytes):
        # null replicate 13 is collinear on every draw, so its redraws use
        # up the budget of 2 (10% of B=20); its draws are told apart by the
        # generator's state when each starts, as in `collinear_draw`
        spec = SnModelSpec.equicorrelated(b=[0.5, 0.4, 0.3], sigma=1.0, rho=0.5)
        f = gen_signal(SignalSpec(kind="sinusoid-mixture", n=150, seed=7))
        bad = {start_state(np.random.default_rng(spawn(23, 2 * 20)[13]))}
        draw = inference.gen_sn_stack

        def collinear_13(f, b, chol, rngs, ar_phi=0.0):
            marked = []

            def tagged():
                for rng in rngs:
                    marked.append(start_state(rng) in bad)
                    yield rng
                    if marked[-1]:
                        bad.add(start_state(rng))

            panels = draw(f, b, chol, tagged(), ar_phi=ar_phi)
            for i in np.flatnonzero(marked):
                panels[i, :, 1] = 2.0 * panels[i, :, 0]
            return panels

        monkeypatch.setattr(inference, "gen_sn_stack", collinear_13)
        with pytest.raises(SingularMatrixError, match="10%"):
            power_curve(spec, f, [1.0], B=20, seed=23)


class TestResample:
    def test_bands_and_coefficients_match_loop(self, example, chunk_bytes):
        env = resample_maf(example, B=45, block_len=5, n_factors=2, seed=31, alpha=0.1)
        factors, coefs, retries = loop_resample(example, B=45, block_len=5, n_factors=2,
                                                seed=31)
        assert env.retries == retries == 0
        np.testing.assert_allclose(env.replicate_factors, factors, atol=TOL)
        np.testing.assert_allclose(env.replicate_coefficients, coefs, atol=TOL)
        bands = np.stack([np.quantile(factors, 0.05, axis=1),
                          np.quantile(factors, 0.95, axis=1)], axis=-1)
        np.testing.assert_allclose(env.pointwise_bands, bands, atol=TOL)
        # one quantile call over both levels gives the two calls' values exactly
        np.testing.assert_array_equal(env.pointwise_bands, np.stack(
            [np.quantile(env.replicate_factors, 0.05, axis=1),
             np.quantile(env.replicate_factors, 0.95, axis=1)], axis=-1))

    def test_below_one_chunk(self, example):
        env = resample_maf(example, B=10, n_factors=4, seed=32)
        factors, coefs, _ = loop_resample(example, B=10, n_factors=4, seed=32)
        np.testing.assert_allclose(env.replicate_factors, factors, atol=TOL)
        np.testing.assert_allclose(env.replicate_coefficients, coefs, atol=TOL)

    def test_singular_replicates_retried_from_own_stream(self, unsmoothed, chunk_bytes):
        panel = sparse_panel()
        B, seed = 60, 7  # first draws of replicates 13, 31 and 42 are singular
        env = resample_maf(panel, B=B, n_factors=2, seed=seed)
        factors, coefs, retries = loop_resample(panel, B=B, n_factors=2,
                                                seed=seed)
        assert 3 <= env.retries == retries <= math.ceil(0.1 * B)
        np.testing.assert_allclose(env.replicate_factors, factors, atol=TOL)
        np.testing.assert_allclose(env.replicate_coefficients, coefs, atol=TOL)

    def test_retry_budget_still_enforced(self, unsmoothed):
        # one spike row: ~36% of row resamples miss it, far above the 10% budget
        panel = sparse_panel(rows=(7,))
        with pytest.raises(SingularMatrixError, match="10%"):
            resample_maf(panel, B=40, seed=1)

    @pytest.mark.parametrize("block_len", [1, 7, 20, 151])
    def test_block_gather_matches_resample_indices(self, block_len):
        # n = 151 is divisible by none of 7 and 20, so the last block is cut;
        # the gathered rows are the reference's rows bit for bit, and each
        # stream is left where the reference's draw leaves it
        residuals = np.random.default_rng(5).standard_normal((151, 3))
        draw = inference._block_bootstrap(residuals, block_len)
        rngs = [np.random.default_rng(s) for s in range(6)]
        got = draw(iter(rngs))
        references = [np.random.default_rng(s) for s in range(6)]
        expected = np.stack([residuals[resample_indices(rng, 151, block_len)]
                             for rng in references])
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert [rng.bit_generator.state for rng in rngs] == [
            rng.bit_generator.state for rng in references]

    def test_long_panel_envelopes_do_not_depend_on_the_panel_floor(self, monkeypatch):
        # at 3005 x 8 a panel is more than CHUNK_BYTES, so the floor alone
        # sets the chunks: 1 panel each, or 4, 4 and 1
        rng = np.random.default_rng(9)
        panel = np.cumsum(rng.standard_normal((3005, 8)), axis=0) + rng.standard_normal((3005, 8))
        assert inference.CHUNK_BYTES < 8 * 3005 * 8
        envelopes = []
        for floor in (1, 4):
            monkeypatch.setattr(inference, "MIN_CHUNK_PANELS", floor)
            envelopes.append(resample_maf(panel, B=9, block_len=7, n_factors=3, seed=5))
        for name in ("replicate_factors", "replicate_coefficients", "pointwise_bands",
                     "original_smoothed", "original_factors"):
            a, b = (getattr(env, name) for env in envelopes)
            assert a.tobytes() == b.tobytes(), name
        assert envelopes[0].retries == envelopes[1].retries == 0

    @pytest.mark.parametrize("B, alpha", [(10, 0.05), (45, 0.1), (199, 0.05), (200, 0.37)])
    def test_bands_are_the_quantiles_of_the_replicates(self, example, B, alpha):
        # the bands are taken from the sorted replicates; the values are
        # np.quantile's of the unsorted ones, bit for bit
        env = resample_maf(example, B=B, block_len=3, n_factors=2, seed=B, alpha=alpha)
        expected = np.quantile(env.replicate_factors, [alpha / 2.0, 1.0 - alpha / 2.0], axis=1)
        assert env.pointwise_bands.tobytes() == np.moveaxis(expected, 0, -1).tobytes()


EXPERIMENT_GRIDS = {
    # 9 panels per chunk at chunk7, so a cell's 20 reps span three chunks
    "p3": ExperimentGrid(rho_values=(0.0, 0.5), b_multipliers=(0.5, 2.0),
                         base_b=(0.8, 0.4, 0.2), n=150, reps=20, seed=33),
    "p1": ExperimentGrid(rho_values=(0.3,), b_multipliers=(1.0, 3.0), base_b=(1.0,),
                         n=60, reps=10, seed=34),
    "wide-seed": ExperimentGrid(rho_values=(0.25, 0.6), b_multipliers=(1.0,),
                                base_b=(0.8, 0.4, 0.2, 0.1), n=150, reps=15,
                                seed=2**64 + 35),
}


class TestExperiment:
    @pytest.mark.parametrize("grid", EXPERIMENT_GRIDS.values(), ids=EXPERIMENT_GRIDS.keys())
    def test_matches_loop(self, grid, chunk_bytes):
        rows = run_comparison_experiment(grid)
        expected = loop_experiment(grid)
        assert len(rows) == len(expected)
        for row, (rho, mult, name, mean, se) in zip(rows, expected):
            assert (row.rho, row.multiplier, row.statistic, row.reps) == (
                rho, mult, name, grid.reps)
            np.testing.assert_allclose([row.mean, row.se], [mean, se], rtol=TOL, atol=TOL)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=400).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n),
                        st.integers(min_value=0, max_value=2**32 - 1))))
def test_resample_indices_in_range(args):
    n, block_len, seed = args
    idx = resample_indices(np.random.default_rng(seed), n, block_len)
    assert idx.shape == (n,)
    assert idx.min() >= 0 and idx.max() < n


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=3, max_value=4000),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       skip=st.integers(min_value=0, max_value=3))
def test_blocks_of_one_are_the_iid_bootstrap(n, seed, skip):
    # the reference is the iid bootstrap's own draw, n rows with replacement;
    # both generators start from the same state, part way into the stream
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for gen in (rng, reference):
        gen.integers(0, n, size=skip)
    np.testing.assert_array_equal(resample_indices(rng, n, 1),
                                  reference.integers(0, n, size=n))
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(m=st.integers(min_value=1, max_value=4), n=st.integers(min_value=20, max_value=120),
       p=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_maf_stack_spectrum_invariant(m, n, p, seed):
    # the differenced eigenvalues depend only on the span of the series and
    # on the lag-1 structure, so permuting or mixing the series and reversing
    # time leave them unchanged
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n, p)).cumsum(axis=1) + rng.standard_normal((m, n, p))
    expected = maf_stack(x).diff_eigenvalues
    transformed = [x[..., rng.permutation(p)], x[:, ::-1], x @ random_invertible(rng, p)]
    for y in transformed:
        np.testing.assert_allclose(maf_stack(y).diff_eigenvalues, expected, rtol=1e-8, atol=0)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(min_value=1, max_value=8), p=st.integers(min_value=1, max_value=6),
       extra_rows=st.integers(min_value=1, max_value=40),
       singular_frac=st.sampled_from([0.0, 0.3, 1.0]), allow_singular=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_maf_stack_matches_the_checked_and_oriented_kernel(m, p, extra_rows, singular_frac,
                                                           allow_singular, seed):
    # eigh on the covariances covariance_stack built gives the same spectra,
    # singular flags and NaNs bit for bit, and the same factors up to the
    # sign of each column, as the re-checking kernel did
    rng = np.random.default_rng(seed)
    n = max(p + extra_rows, 3)
    x = rng.standard_normal((m, n, p)).cumsum(axis=1) + rng.standard_normal((m, n, p))
    x *= 10.0 ** (rng.integers(-8, 9) + rng.uniform(-2.0, 2.0, size=p))
    for i in np.flatnonzero(rng.random(m) < singular_frac):
        if p > 1:
            x[i, :, -1] = rng.uniform(-2.0, 2.0) * x[i, :, 0]
        else:
            x[i] = 1.5
    try:
        expected = checked_maf_stack(x, allow_singular)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            maf_stack(x, allow_singular)
        return
    stack = maf_stack(x, allow_singular)
    np.testing.assert_array_equal(stack.diff_eigenvalues, expected.diff_eigenvalues)
    np.testing.assert_array_equal(stack.singular, expected.singular)
    dots = np.sum(stack.coefficients * expected.coefficients, axis=1, keepdims=True)
    signs = np.where(dots < 0.0, -1.0, 1.0)
    np.testing.assert_array_equal(stack.coefficients * signs, expected.coefficients)
    np.testing.assert_array_equal(stack.factors * signs, expected.factors)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=1, max_value=4), p=st.integers(min_value=1, max_value=5),
       extra_rows=st.integers(min_value=1, max_value=60),
       powers=st.lists(st.integers(min_value=-900, max_value=900), min_size=5, max_size=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@explicit_example(m=2, p=3, extra_rows=40, powers=[900, -900, 0, 0, 0], seed=0)
def test_maf_stack_exact_under_per_series_powers_of_two(m, p, extra_rows, powers, seed):
    # every scaling in the kernel is a power of two per series, so series j
    # times 2**k_j gives the same spectra and factors bit for bit, and
    # coefficient row j times 2**-k_j, however far apart the k_j are
    rng = np.random.default_rng(seed)
    n = max(p + extra_rows, 3)
    x = rng.standard_normal((m, n, p)).cumsum(axis=1) + rng.standard_normal((m, n, p))
    k = np.array(powers[:p])
    plain = maf_stack(x)
    scaled = maf_stack(np.ldexp(x, k))
    np.testing.assert_array_equal(scaled.diff_eigenvalues, plain.diff_eigenvalues)
    np.testing.assert_array_equal(scaled.factors, plain.factors)
    np.testing.assert_array_equal(np.ldexp(scaled.coefficients, k[:, None]), plain.coefficients)
    np.testing.assert_array_equal(scaled.singular, plain.singular)


def relative_gaps(spectra: np.ndarray) -> np.ndarray:
    """(p, B) distance of each ascending eigenvalue to its nearest neighbour,
    relative to the largest; 1 for a single factor."""
    gaps = np.diff(spectra, axis=1) / spectra[:, -1:]
    padded = np.pad(gaps, ((0, 0), (1, 1)), constant_values=1.0)
    return np.minimum(padded[:, :-1], padded[:, 1:]).T


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=1, max_value=6), p=st.integers(min_value=1, max_value=6),
       extra_rows=st.integers(min_value=1, max_value=200),
       mixing=st.sampled_from([1e1, 1e3, 1e5]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_maf_stack_matches_the_sample_major_kernel(m, p, extra_rows, mixing, seed):
    # the time-major kernel sums both covariances in another order than the
    # sample-major one, so S and the differenced covariance differ by
    # rounding: an eigenvalue moves by that rounding times cond(S), and a
    # factor or coefficient column by that times cond(S) over its relative
    # eigen-gap, as in the permutation-null property below; noise and
    # random walks mixed by a matrix of condition number below `mixing`,
    # in units of series from 1e-10 to 1e10. The kernel also whitens only
    # the p x p covariances, where the reference whitened and differenced
    # the panel. On 10 728 such panels the largest moves were 3.1% of the
    # bound below for an eigenvalue and 2.7% for a factor or a coefficient
    # column (at most 1.2e-15 * cond(S) / gap), a margin of over thirty
    rng = np.random.default_rng(seed)
    n = max(p + extra_rows, 3)
    x = rng.standard_normal((m, n, p)).cumsum(axis=1) + rng.standard_normal((m, n, p))
    x = x @ random_invertible(rng, p, max_cond=mixing)
    x *= 10.0 ** (rng.integers(-8, 9) + rng.uniform(-2.0, 2.0, size=p))
    stack, reference = maf_stack(x), maf_stack_sample_major(x)
    np.testing.assert_array_equal(stack.singular, reference.singular)
    # cond(S) of the correlation matrix, the equilibrated S up to powers of two
    cond = np.array([np.linalg.cond(np.atleast_2d(np.corrcoef(panel.T))) for panel in x])
    spectra = reference.diff_eigenvalues
    assert np.all(np.abs(stack.diff_eigenvalues - spectra)
                  <= np.maximum(1e-12, 2e-14 * cond[:, None]) * spectra[:, -1:])
    rtol = np.maximum(1e-12, 2e-14 * cond[:, None] / relative_gaps(spectra).T)
    signs = np.where(np.sum(stack.coefficients * reference.coefficients, axis=1) < 0.0,
                     -1.0, 1.0)[:, None, :]
    # coefficient row j in units of series j's standard deviation, so that
    # each column is compared on the scale of its factor
    units = x.std(axis=1)[:, :, None]
    for got, want in ((stack.coefficients * signs * units, reference.coefficients * units),
                      (stack.factors * signs, reference.factors)):
        scale = np.abs(want).max(axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= rtol * scale)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=1, max_value=6), n_extra=st.integers(min_value=0, max_value=194),
       walks=st.integers(min_value=0, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_permutation_null_matches_maf_stack_reference(p, n_extra, walks, seed):
    # n in [p + 6, 200], at least 8 rows for the default smoother's window;
    # noise and random-walk series mixed by a matrix of condition number
    # below 1e2
    n = max(min(p + 6 + n_extra, 200), 8)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[:, :min(walks, p)] = x[:, :min(walks, p)].cumsum(axis=0)
    x = x @ random_invertible(rng, p, max_cond=1e2)
    report = signal_presence_test(x, B=99, n_factors_tested=p, seed=seed)
    null, spectra = maf_stack_permutation_null(x, B=99, k=p, seed=seed)
    # the reference whitens each permuted panel again, by a covariance that
    # differs from the one S in its rounding; a factor moves by that rounding
    # times cond(S) over its relative eigen-gap (at most 3.0e-15 times that
    # ratio on 2100 such panels), and by 1e-12 at most on well-separated
    # factors of a well-conditioned S
    residuals = inference.smooth_columns(x, SmootherConfig())[1]
    cond = np.linalg.cond(np.atleast_2d(np.cov(residuals.T)))
    rtol = np.maximum(1e-12, 2e-14 * cond / relative_gaps(spectra))
    assert np.all(np.abs(report.null_draws - null) <= rtol * null)
    # p-values are equal unless a null draw ties the observed value to rtol
    observed = report.observed[:, None]
    tied = np.any(np.abs(null - observed) <= rtol * observed, axis=1)
    expected = (null >= observed).mean(axis=1)
    np.testing.assert_array_equal(report.p_value[~tied], expected[~tied])
