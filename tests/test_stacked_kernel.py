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
statistics on the spawned children) in the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafkit import (
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
from mafkit.cli import ingest_csv
from mafkit.datasets import example_panel_path
from mafkit.inference import _resample_indices
from mafkit.maf import maf_stack
from mafkit.panel import as_panel
from mafkit.simulate import gen_sn_stack, noise_cholesky
from mafkit.smoothing import snr_columns

from conftest import random_invertible

TOL = 1e-12

# 1 replicate per chunk; 7 at 150 x 4 (9 at 150 x 3), which divides none of
# the B used here; the default (26 at 150 x 4); everything in one chunk.
CHUNK_BYTES = [1, 8 * 150 * 4 * 7, inference.CHUNK_BYTES, 10**9]


@pytest.fixture(params=CHUNK_BYTES, ids=["chunk1", "chunk7", "default", "one-chunk"])
def chunk_bytes(request, monkeypatch):
    monkeypatch.setattr(inference, "CHUNK_BYTES", request.param)
    return request.param


@pytest.fixture(scope="module")
def example():
    return ingest_csv(example_panel_path())


def spawn(seed, count):
    return np.random.SeedSequence(seed).spawn(count)


def redrawn(draw, rng):
    """compute_maf of draw(rng), drawing again until the covariance is not
    singular; returns (decomposition, number of redraws)."""
    redraws = 0
    while True:
        try:
            return compute_maf(draw(rng)), redraws
        except SingularMatrixError:
            redraws += 1


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
        return inflated[_resample_indices(rng, n, block_len)]

    null = np.empty((k, B))
    redraws = 0
    for b, child in enumerate(spawn(seed, B)):
        rep, extra = redrawn(draw, np.random.default_rng(child))
        redraws += extra
        for j in range(k):
            null[j, b] = empirical_snr(rep.factors[:, j], cfg)
    return null, redraws


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
        return fitted + residuals[_resample_indices(rng, n, block_len)]

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
        x = rng.standard_normal((5, 60, 3)).cumsum(axis=1) + rng.standard_normal((5, 60, 3))
        stack = maf_stack(x, 2)
        assert stack.factors.shape == (5, 60, 2) and stack.coefficients.shape == (5, 3, 2)
        assert not stack.singular.any()
        for i in range(5):
            one = compute_maf(x[i])
            # compute_maf only adds the trend-sign rule on top
            signs = np.sign(np.sum(one.coefficients[:, :2] * stack.coefficients[i], axis=0))
            np.testing.assert_allclose(stack.coefficients[i] * signs,
                                       one.coefficients[:, :2], atol=TOL)
            np.testing.assert_allclose(stack.factors[i] * signs, one.factors[:, :2], atol=TOL)
            np.testing.assert_allclose(stack.diff_eigenvalues[i], one.diff_eigenvalues, atol=TOL)

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
        with pytest.raises(InvalidInputError):
            maf_stack(np.zeros((20, 2)))
        with pytest.raises(InvalidInputError):
            maf_stack(rng.standard_normal((2, 20, 2)), k=3)

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


STREAM_KEYS = [0, 1, 4998, 5999, 65536, 2**32 - 1]
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 5]


class TestStreams:
    def test_words_match_spawned_children(self):
        expected = [child.generate_state(4, np.uint64) for child in spawn(0, 20_000)]
        np.testing.assert_array_equal(inference._stream_words(0, range(20_000)), expected)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_words_and_states_match_numpy(self, seed):
        words = inference._stream_words(seed, STREAM_KEYS)
        children = [np.random.SeedSequence(seed, spawn_key=(key,)) for key in STREAM_KEYS]
        for row, child in zip(words, children):
            np.testing.assert_array_equal(row, child.generate_state(4, np.uint64))
        # the driver's shared generator holds each child's starting state
        states = []

        def draw(rngs):
            panels = []
            for rng in rngs:
                states.append(rng.bit_generator.state)
                panels.append(rng.standard_normal((10, 2)))
            return np.stack(panels)

        list(inference._replicates(seed, STREAM_KEYS, 10, 2, 1, draw))
        assert states == [np.random.default_rng(child).bit_generator.state
                          for child in children]

    @pytest.mark.parametrize("seed, keys", [(-1, [0]), (0, [2**32]), (0, [-1])])
    def test_rejects_negative_seed_and_wide_keys(self, seed, keys):
        with pytest.raises(InvalidConfigError):
            inference._stream_words(seed, keys)

    @pytest.mark.parametrize("constant", ["_INIT_B", "_PCG64_MULT"])
    def test_driver_checks_seeding_against_numpy(self, monkeypatch, constant):
        monkeypatch.setattr(inference, constant, getattr(inference, constant) ^ 2)
        with pytest.raises(RuntimeError, match="no longer matches"):
            next(inference._replicates(0, range(3), 10, 2, 1, lambda rngs: None))


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
        chunks = list(inference._replicates(seed, range(B), 150, 4, 2,
                                            collinear_draw(seed, B, collinear)))
        _, stop, _, _, redraws = chunks[-1]
        assert stop == B and redraws == sum(collinear.values())
        panels = loop_collinear(seed, B, collinear)
        # the yielded panels are the ones the stacks decompose, redraws included
        np.testing.assert_array_equal(np.concatenate([chunk[2] for chunk in chunks]), panels)
        expected = maf_stack(panels, 2)
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

    def test_singular_replicates_redrawn_from_own_stream(self, unsmoothed, chunk_bytes):
        panel = sparse_panel()
        # replicate 0 is fine; later draws that miss every spike row are redrawn
        draws = [_resample_indices(np.random.default_rng(c), 30, 1) for c in spawn(3, 99)]
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
    idx = _resample_indices(np.random.default_rng(seed), n, block_len)
    assert idx.shape == (n,)
    assert idx.min() >= 0 and idx.max() < n


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
