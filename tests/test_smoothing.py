import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafkit import (
    DegenerateResidualError,
    InvalidConfigError,
    SmootherConfig,
    empirical_snr,
    loess_smooth,
)
from mafkit import smoothing
from mafkit.errors import InsufficientDataError
from mafkit.linalg import unit_scale_columns
from mafkit.smoothing import _hat_matrix, _one_slot_cache, smooth_columns, snr_columns


def brute_force_loess(y, span_fraction, degree):
    """Independent pointwise local regression (no hat matrix, no caching)."""
    y = np.asarray(y, float)
    n = y.size
    t = np.arange(n, dtype=float)
    k = int(np.ceil(span_fraction * n))
    fitted = np.empty(n)
    for i in range(n):
        d = np.abs(t - t[i])
        window = np.sort(np.argsort(d, kind="stable")[:k])
        h = d[window].max()
        w = np.clip(1.0 - (d[window] / h) ** 3, 0.0, 1.0) ** 3
        # weighted polynomial fit centered at t[i]
        x = np.vander(t[window] - t[i], N=degree + 1, increasing=True)
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(x * sw[:, None], y[window] * sw, rcond=None)
        fitted[i] = beta[0]
    return fitted


def argsort_windows(n, k):
    """Row i's window, found by a stable argsort of distances: its k nearest
    rows, ties broken toward the lower index, in increasing order."""
    t = np.arange(n)
    dist = np.abs(t[None, :] - t[:, None])
    return np.sort(np.argsort(dist, axis=1, kind="stable")[:, :k], axis=1)


def check_window(n, cfg):
    k = cfg.window_size(n)
    # tricube weights are zero at the far end of a window and at both ends
    # of a centred odd one, so fewer than degree + 2 points carry weight
    if k - 1 - k % 2 < cfg.degree + 2:
        raise InsufficientDataError(
            f"window of {k} points cannot support a degree-{cfg.degree} local fit; "
            f"increase span_fraction or series length"
        )
    return k


def reference_hat_matrix(n, span_fraction, degree):
    """Dense reference L: windows by `argsort_windows`, weights by a batched
    SVD least-squares fit (`pinv`) of the sqrt(w)-weighted design in offsets
    centred on each row and scaled by its window radius. That design's
    condition number is the square root of the normal equations' one, so
    this is at least as accurate as the kernel."""
    k = check_window(n, SmootherConfig(span_fraction=span_fraction, degree=degree))
    rows = np.arange(n)[:, None]
    windows = argsort_windows(n, k)
    x = (windows - rows).astype(float)
    x /= np.abs(x).max(axis=1, keepdims=True)
    sw = np.sqrt(np.clip(1.0 - np.abs(x) ** 3, 0.0, 1.0) ** 3)
    design = sw[..., None] * np.vander(x.ravel(), degree + 1, increasing=True).reshape(n, k, -1)
    hat = np.zeros((n, n))
    # local fit evaluated at the row's own point is the intercept coefficient
    hat[rows, windows] = np.linalg.pinv(design)[:, 0] * sw
    return hat, float(np.trace(hat))


def exact_offset_row(k, offset, degree):
    """Row `offset` of the (k, k) offset table in exact integer arithmetic,
    rounded once to floats: the tricube weights (1 - |x/r|^3)^3 times r^9
    are the integers (r^3 - |x|^3)^3, and the intercept of the weighted fit
    in x = j - offset is Cramer's rule on the integer normal equations."""
    r = max(offset, k - 1 - offset)
    xs = [j - offset for j in range(k)]
    weights = [(r ** 3 - abs(x) ** 3) ** 3 for x in xs]
    moments = [sum(w * x ** a for w, x in zip(weights, xs)) for a in range(2 * degree + 1)]
    normal = [[moments[a + b] for b in range(degree + 1)] for a in range(degree + 1)]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** c * m[0][c] * det([row[:c] + row[c + 1:] for row in m[1:]])
                   for c in range(len(m)))

    # coefficient a solves the normal equations for e_0: column a replaced by it
    numerators = [det([[int(i == 0) if c == a else normal[i][c] for c in range(degree + 1)]
                       for i in range(degree + 1)]) for a in range(degree + 1)]
    denominator = det(normal)
    # int / int is correctly rounded
    return np.array([w * sum(c * x ** a for a, c in enumerate(numerators)) / denominator
                     for w, x in zip(weights, xs)])


class TestLoessSmooth:
    def test_constant_series_reproduced(self):
        res = loess_smooth(np.full(60, 3.0), SmootherConfig())
        np.testing.assert_allclose(res.fitted, 3.0, atol=1e-12)
        np.testing.assert_allclose(res.residuals, 0.0, atol=1e-12)
        assert res.df >= 1.0

    def test_linear_series_reproduced_exactly(self):
        y = 2.5 * np.arange(80) - 7.0
        res = loess_smooth(y, SmootherConfig(degree=1))
        assert np.abs(res.residuals).max() < 1e-10

    def test_quadratic_reproduced_at_degree_two(self):
        t = np.arange(90.0)
        y = 0.02 * t ** 2 - t + 4.0
        res = loess_smooth(y, SmootherConfig(degree=2))
        assert np.abs(res.residuals).max() < 1e-9

    def test_matches_brute_force_reimplementation(self):
        rng = np.random.default_rng(42)
        t = np.arange(150)
        y = np.sin(2 * np.pi * t / 70.0) + 0.3 * rng.standard_normal(150)
        for degree in (0, 1, 2):
            cfg = SmootherConfig(span_fraction=0.4, degree=degree)
            res = loess_smooth(y, cfg)
            oracle = brute_force_loess(y, 0.4, degree)
            np.testing.assert_allclose(res.fitted, oracle, atol=1e-10)

    def test_fitted_plus_residuals_is_input(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(100)
        res = loess_smooth(y)
        # residuals are defined as input - fitted, so this direction is exact
        np.testing.assert_array_equal(res.residuals, y - res.fitted)
        np.testing.assert_allclose(res.fitted + res.residuals, y, rtol=0, atol=1e-15)

    def test_df_between_zero_and_n(self):
        rng = np.random.default_rng(2)
        res = loess_smooth(rng.standard_normal(120))
        assert 0.0 < res.df < 120.0

    def test_df_decreases_with_span(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(150)
        dfs = [
            loess_smooth(y, SmootherConfig(span_fraction=s)).df
            for s in (0.1, 0.2, 0.4, 0.8)
        ]
        assert np.all(np.diff(dfs) < 0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(90)
        base = loess_smooth(y).fitted
        # power-of-two scaling commutes with rounding, so this is bit-exact
        np.testing.assert_array_equal(loess_smooth(4.0 * y).fitted, 4.0 * base)
        np.testing.assert_allclose(loess_smooth(3.0 * y).fitted, 3.0 * base, rtol=1e-13)

    def test_window_too_small(self):
        with pytest.raises(InsufficientDataError):
            loess_smooth(np.arange(10.0), SmootherConfig(span_fraction=0.2, degree=2))

    @pytest.mark.parametrize("kwargs", [{"span_fraction": 0.0}, {"degree": 3},
                                        {"degree": 1.0}, {"degree": 2.5}])
    def test_config_validation(self, kwargs):
        with pytest.raises(InvalidConfigError):
            SmootherConfig(**kwargs)


class TestEmpiricalSnr:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 400), span=st.floats(0.02, 1.0), degree=st.integers(0, 2),
           columns=st.integers(1, 300), fortran=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_snr_columns_is_the_ratio_of_smooth_columns_sds(self, n, span, degree, columns,
                                                            fortran, seed):
        # bitwise, with the residuals formed in place in the scaled copy;
        # the column layout of the input does not change a bit
        cfg = SmootherConfig(span_fraction=span, degree=degree)
        values = scaled_columns(n, columns, seed)
        scaled, peaks = unit_scale_columns(values)
        try:
            fitted, residuals, _ = smooth_columns(scaled, cfg)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                snr_columns(values, cfg)
            return
        if fortran:
            values = np.asfortranarray(values)
        sd_resid = residuals.std(axis=0)
        if np.any(sd_resid <= 1e-12 * peaks):
            with pytest.raises(DegenerateResidualError):
                snr_columns(values, cfg)
            return
        got = snr_columns(values, cfg)
        assert got.tobytes() == (fitted.std(axis=0) / sd_resid).tobytes()
        assert values.tobytes() == scaled_columns(n, columns, seed).tobytes()

    def test_iid_noise_scores_low(self):
        values = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            values.append(empirical_snr(rng.standard_normal(1000)))
        assert np.median(values) < 0.5

    def test_noiseless_smooth_trend_degenerate(self):
        with pytest.raises(DegenerateResidualError):
            empirical_snr(np.linspace(0.0, 5.0, 100), SmootherConfig(degree=1))

    def test_trend_scores_above_noise_on_shared_draws(self):
        # paired comparison: same noise with and without a smooth trend
        t = np.arange(150)
        trend = 1.5 * np.sin(2 * np.pi * t / 150.0)
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(150)
            if empirical_snr(trend + noise) > empirical_snr(noise):
                wins += 1
        assert wins >= 18

    def test_scale_invariance(self):
        # the residual floor scales with the series, so no scale is degenerate
        rng = np.random.default_rng(9)
        y = rng.standard_normal(200)
        expected = empirical_snr(y)
        for c in [2.5, *10.0 ** np.arange(-150, 151, 10)]:
            assert empirical_snr(c * y) == pytest.approx(expected, rel=1e-12), c

    @pytest.mark.parametrize("value", [0.1, 123.456, 0.0, 1e300, 1e-300])
    def test_constant_series_degenerate(self, value):
        with pytest.raises(DegenerateResidualError):
            empirical_snr(np.full(150, value))


def assigned_fitted(values, cfg):
    """L applied with each product assigned into its rows, through a
    temporary per product: the reference for `smooth_columns`' products
    written in place."""
    n = values.shape[0]
    table, block, _ = _hat_matrix(n, cfg)
    k, h, rows = table.shape[0], table.shape[0] // 2, block.shape[0]
    fitted = np.empty(values.shape)
    fitted[:h] = table[:h] @ values[:k]
    fitted[n - k + h + 1:] = table[h + 1:] @ values[n - k:]
    for lo in range(0, n - k + 1, rows):
        r = min(rows, n - k + 1 - lo)
        fitted[h + lo:h + lo + r] = block[:r, :r + k - 1] @ values[lo:lo + r + k - 1]
    return fitted


def scaled_columns(n, columns, seed):
    """Normal columns scaled by powers of ten from 1e-150 to 1e150."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, columns)) * 10.0 ** rng.uniform(-150, 150, columns)


def block_edge_lengths(span):
    """Series lengths n whose n - k + 1 interior rows fill BLOCK_ROWS - 1 to
    BLOCK_ROWS + 2 rows: one partial block, one full block, and one or two
    rows past it."""
    rows = smoothing.BLOCK_ROWS
    found = {}
    for n in range(4, 4 * rows):
        interior = n - SmootherConfig(span_fraction=span).window_size(n) + 1
        if rows - 1 <= interior <= rows + 2:
            found.setdefault(interior, n)
    return sorted(found.values())


def operator_lengths(span):
    """Every n from 4 to 40, some odd and even ones, and the block edges."""
    return [*range(4, 41), 61, 150, 151, 700, 1000, *block_edge_lengths(span)]


class TestHatMatrix:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("span", [0.1, 0.25, 0.4, 0.5, 1.0])
    def test_offset_table_matches_argsort_windows(self, span, degree):
        # L rebuilt by applying the operator to the identity holds, bit for
        # bit, row i's offset-table row on the argsort window, in its order,
        # and zeros elsewhere; 700 and 1000 at span 0.1 give several
        # interior blocks and a partial last one
        cfg = SmootherConfig(span_fraction=span, degree=degree)
        for n in operator_lengths(span):
            try:
                windows = argsort_windows(n, check_window(n, cfg))
            except InsufficientDataError:
                with pytest.raises(InsufficientDataError):
                    _hat_matrix(n, cfg)
                continue
            hat, _, df = smooth_columns(np.eye(n), cfg)
            table = _hat_matrix(n, cfg)[0]
            expected = np.zeros((n, n))
            rows = np.arange(n)
            expected[rows[:, None], windows] = table[rows - windows[:, 0]]
            assert np.array_equal(hat, expected), (n, span, degree)
            # df is the sum of L's diagonal in row order
            assert df == np.trace(hat), (n, span, degree)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("span", [0.1, 0.25, 0.4, 0.5, 1.0])
    def test_operator_is_centro_symmetric(self, span, degree):
        # as the exact L is: row n - 1 - i's window and weights are row
        # i's, mirrored
        cfg = SmootherConfig(span_fraction=span, degree=degree)
        for n in operator_lengths(span):
            try:
                hat = smooth_columns(np.eye(n), cfg)[0]
            except InsufficientDataError:
                continue
            assert np.array_equal(hat, hat[::-1, ::-1]), (n, span, degree)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("k", [60, 601, 1202])
    def test_table_rows_match_exact_rational_fits(self, k, degree):
        table = _hat_matrix(k, SmootherConfig(span_fraction=1.0, degree=degree))[0]
        for offset in (0, 1, k // 4, k // 2, k - 1):
            exact = exact_offset_row(k, offset, degree)
            error = np.abs(table[offset] - exact).max()
            assert error <= 1e-14 * np.abs(exact).max(), (offset, error)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 900), span=st.floats(0.02, 1.0), degree=st.integers(0, 2),
           columns=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
    def test_smooth_columns_matches_dense_hat(self, n, span, degree, columns, seed):
        cfg = SmootherConfig(span_fraction=span, degree=degree)
        values = np.random.default_rng(seed).standard_normal((n, columns))
        values *= 10.0 ** np.linspace(-3, 3, columns)
        try:
            hat, expected_df = reference_hat_matrix(n, span, degree)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                smooth_columns(values, cfg)
            return
        fitted, residuals, df = smooth_columns(values, cfg)
        # both operators' rows are within about 1e-14 of the exact ones,
        # relative to row peaks of at most 1, and a row's absolute sum is a
        # few units: so a fitted value is within 1e-13 of its column's peak
        # (1e-14 is seen), and df, a sum of n diagonal entries, within
        # n * 1e-14
        peaks = np.abs(values).max(axis=0)
        assert np.all(np.abs(fitted - hat @ values) <= 1e-13 * peaks)
        np.testing.assert_array_equal(residuals, values - fitted)
        assert abs(df - expected_df) <= n * 1e-14

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 400), span=st.floats(0.02, 1.0), degree=st.integers(0, 2),
           columns=st.integers(1, 300), layout=st.sampled_from(["C", "F", "strided"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_products_written_in_place_match_assigned_products(self, n, span, degree,
                                                               columns, layout, seed):
        # bitwise: np.matmul writes the same products that were assigned
        cfg = SmootherConfig(span_fraction=span, degree=degree)
        values = scaled_columns(n, 2 * columns, seed)
        values = {"C": values[:, :columns], "F": np.asfortranarray(values[:, :columns]),
                  "strided": values[:, ::2]}[layout]
        try:
            expected = assigned_fitted(values, cfg)
        except InsufficientDataError:
            return
        fitted, residuals, _ = smooth_columns(values, cfg)
        assert fitted.tobytes() == expected.tobytes()
        assert residuals.tobytes() == (values - expected).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 900), span=st.floats(0.02, 1.0), degree=st.integers(0, 2))
    def test_rows_reproduce_polynomials_up_to_degree(self, n, span, degree):
        # a local fit of degree d reproduces a polynomial of degree <= d at
        # its own point; on [0, 1] the error is rounding in the rows
        cfg = SmootherConfig(span_fraction=span, degree=degree)
        powers = np.vander(np.linspace(0.0, 1.0, n), degree + 1, increasing=True)
        try:
            fitted = smooth_columns(powers, cfg)[0]
        except InsufficientDataError:
            return
        assert np.abs(fitted - powers).max() <= 1e-13

    def test_fitted_values_do_not_depend_on_block_rows(self, monkeypatch):
        rng = np.random.default_rng(11)
        for n, span, degree in [(700, 0.1, 1), (301, 0.25, 2), (150, 0.4, 0), (40, 1.0, 1)]:
            cfg = SmootherConfig(span_fraction=span, degree=degree)
            values = rng.standard_normal((n, 5))
            peaks = np.abs(values).max(axis=0)
            _hat_matrix.cache_clear()
            default = smooth_columns(values, cfg)
            for rows in (1, 7):
                monkeypatch.setattr(smoothing, "BLOCK_ROWS", rows)
                _hat_matrix.cache_clear()
                fitted, _, df = smooth_columns(values, cfg)
                assert np.all(np.abs(fitted - default[0]) <= 1e-12 * peaks), (n, rows)
                assert df == default[2]
            monkeypatch.undo()
        _hat_matrix.cache_clear()

    def test_operator_memory_is_far_below_a_dense_hat(self):
        # a dense L at n = 3000 is 72 MB; the offset table and one Toeplitz
        # block are about 13 MB at the default span
        n = 3000
        values = np.random.default_rng(12).standard_normal((n, 8))
        _hat_matrix.cache_clear()
        tracemalloc.start()
        try:
            smooth_columns(values, SmootherConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _hat_matrix.cache_clear()
        assert peak < 0.4 * 8 * n * n, peak

    @pytest.mark.parametrize("degree, interpolating, smallest",
                             [(0, (2, 3), 4), (1, (3,), 4), (2, (4, 5), 6)])
    def test_smallest_window_does_not_interpolate(self, degree, interpolating, smallest):
        # a fit on `interpolating` windows gives L = I, or df within 1 of n
        n = 150
        for k in (*interpolating, smallest):
            cfg = SmootherConfig(span_fraction=k / n, degree=degree)
            assert cfg.window_size(n) == k
            if k < smallest:
                with pytest.raises(InsufficientDataError):
                    _hat_matrix(n, cfg)
            else:
                *_, df = _hat_matrix(n, cfg)
                assert df < 0.6 * n

    def test_one_hat_kept(self):
        rng = np.random.default_rng(5)
        loess_smooth(rng.standard_normal(50))
        loess_smooth(rng.standard_normal(70))
        assert _hat_matrix.cache_info().currsize == 1

    def test_old_hat_released_before_the_next_is_built(self):
        # two n x n hats are never alive together
        built, alive_at_build = [], []

        def build(n):
            alive_at_build.append(any(ref() is not None for ref in built))
            hat = np.zeros((n, n))
            built.append(weakref.ref(hat))
            return hat

        cached = _one_slot_cache(build)
        cached(3)
        cached(3)
        cached(4)
        assert alive_at_build == [False, False]
        info = cached.cache_info()
        assert (info.misses, info.currsize) == (2, 1)

    def test_hit_survives_a_miss_made_between_its_check_and_its_read(self):
        # another thread's miss can replace the slot in the middle of a hit;
        # here the key's hash makes that call, on the second hash of the hit
        cached = _one_slot_cache(lambda key: [key])

        class Key:
            hashes_to_nested_call = None

            def __hash__(self):
                if self.hashes_to_nested_call is not None:
                    self.hashes_to_nested_call -= 1
                    if self.hashes_to_nested_call == 0:
                        cached("other")
                return 0

        key = Key()
        first = cached(key)
        key.hashes_to_nested_call = 2
        assert cached(key) is first
