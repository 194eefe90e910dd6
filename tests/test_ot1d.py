import itertools

import numpy as np
import pytest

from dppmm.ot1d import (
    KDE_BINS,
    KDE_MARGIN,
    RegularizedMap1D,
    _dct2,
    SortedMap1D,
    bandwidth_isj,
    bandwidth_scott,
    fft_kde,
    fit_regularized_map,
    fit_sorted_map,
    resolve_bandwidth,
)


class TestResolveBandwidth:
    def test_unknown_rule_raises(self):
        s = np.array([0.0, 1.0, 2.0])
        assert resolve_bandwidth(s, "scott", span=1.0) == bandwidth_scott(s)[0]
        for rule in ("silverman", "fixed:0.25", 0.25):
            with pytest.raises(ValueError, match="bandwidth rule"):
                resolve_bandwidth(s, rule, span=1.0)
        with pytest.raises(ValueError, match="bandwidth rule"):
            fit_regularized_map(s, s, "silverman")


class TestSortedMap1D:
    def test_hand_example_with_extension(self):
        m = SortedMap1D(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.0]))
        # interior: linear between knots
        assert m(0.5) == 1.0
        assert m(2.0) == 2.0
        # constant beyond the extreme knots: the end target knots
        assert m(-1.0) == 0.0
        assert m(5.0) == 2.0
        np.testing.assert_array_equal(m(np.array([-1e30, 1e30])), [0.0, 2.0])

    def test_duplicate_edge_knot_clamps_slope(self):
        m = SortedMap1D(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
        assert m(-3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SortedMap1D(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            SortedMap1D(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            SortedMap1D(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        knots = np.tile([0.0, 1.0, 2.0], (3, 1))
        with pytest.raises(ValueError, match="nondecreasing"):  # last row only
            SortedMap1D(knots, np.vstack([knots[:2], knots[2, ::-1]]))

    @pytest.mark.parametrize("shape", [(3,), (1, 3)])
    def test_knots_are_private_copies(self, shape):
        kx = np.array([0.0, 1.0, 2.0]).reshape(shape)
        ky = np.array([0.0, 2.0, 4.0]).reshape(shape)
        m = SortedMap1D(kx, ky)
        kx.flat[1] = -3.0  # would make the stored knots decreasing
        ky.flat[2] = 9.0
        assert kx.flags.writeable
        np.testing.assert_array_equal(m.knots_x, [[0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(m.knots_y, [[0.0, 2.0, 4.0]])
        assert m(1.5) == 3.0

    def test_scalar_and_array_calls(self):
        m = SortedMap1D(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert isinstance(m(0.5), float)
        out = m(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0])

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(20)
        m = fit_sorted_map(rng.normal(size=300), rng.normal(size=300) ** 3)
        t = np.linspace(-6, 6, 4001)
        assert np.all(np.diff(m(t)) >= 0)


class TestFitSortedMap:
    def test_equal_sizes_pair_order_statistics(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=50)
        y = rng.normal(size=50) * 2 + 1
        m = fit_sorted_map(x, y)
        np.testing.assert_array_equal(m.knots_x[0], np.sort(x))
        np.testing.assert_array_equal(m.knots_y[0], np.sort(y))
        np.testing.assert_array_equal(np.sort(m(x)), np.sort(y))

    def test_sorted_pairing_minimizes_squared_cost(self):
        # brute-force: among all 720 pairings of 6 points, matching sorted
        # order statistics attains the minimal sum of squared displacements
        rng = np.random.default_rng(22)
        x = rng.normal(size=6)
        y = rng.normal(size=6) * 1.5 - 0.3
        best = min(
            float(np.sum((x - np.asarray(perm)) ** 2))
            for perm in itertools.permutations(y)
        )
        sorted_cost = float(np.sum((np.sort(x) - np.sort(y)) ** 2))
        np.testing.assert_allclose(sorted_cost, best, rtol=1e-12)

    def test_affine_target_recovers_affine_map(self):
        # y = 2x + 3 elementwise makes the fitted map exactly affine inside
        # the knot range, and it holds the end knots outside it
        rng = np.random.default_rng(23)
        x = rng.normal(size=100)
        m = fit_sorted_map(x, 2.0 * x + 3.0)
        lo, hi = x.min(), x.max()
        t = np.linspace(lo, hi, 101)
        np.testing.assert_allclose(m(t), 2.0 * t + 3.0, rtol=1e-12, atol=1e-12)
        outside = np.array([-8.0, lo - 1e-9, hi + 1e-9, 8.0])
        np.testing.assert_array_equal(m(outside), [m.knots_y[0, 0]] * 2 + [m.knots_y[0, -1]] * 2)
        np.testing.assert_allclose(m.knots_y[0, [0, -1]], 2.0 * np.array([lo, hi]) + 3.0, rtol=1e-12)

    def test_unequal_sizes_hand_example(self):
        m = fit_sorted_map(np.array([1.0, 0.0]), np.array([2.0, 0.0, 1.0]))
        # source plotting positions 0.25, 0.75 against target quantile
        # function through (1/6, 0), (1/2, 1), (5/6, 2)
        np.testing.assert_allclose(m.knots_x[0], [0.0, 1.0])
        np.testing.assert_allclose(m.knots_y[0], [0.25, 1.75])

    def test_unequal_sizes_quantile_consistency(self):
        rng = np.random.default_rng(24)
        big = rng.normal(size=5000)
        small = rng.choice(big, size=500, replace=False)
        m_big = fit_sorted_map(np.linspace(-1, 1, 400), big)
        m_small = fit_sorted_map(np.linspace(-1, 1, 400), small)
        t = np.linspace(-0.9, 0.9, 50)
        assert np.max(np.abs(m_big(t) - m_small(t))) < 0.2


class TestFftKde:
    def grid(self, b=1024):
        return np.linspace(-1.0, 1.0, b)

    def test_unit_mass(self):
        rng = np.random.default_rng(30)
        z = self.grid()
        s = rng.uniform(-0.8, 0.8, size=500)
        dens = fft_kde(s, 0.05, z)
        step = z[1] - z[0]
        np.testing.assert_allclose(dens.sum() * step, 1.0, rtol=1e-12)
        assert np.all(dens >= 0)

    def test_matches_direct_convolution_of_binned_weights(self):
        # oracle: O(B^2) direct Gaussian convolution of the same linearly
        # binned weights; the FFT path must agree to near machine precision
        rng = np.random.default_rng(31)
        z = self.grid(512)
        step = z[1] - z[0]
        s = rng.normal(0.0, 0.25, size=400)
        s = s[np.abs(s) <= 1.0]
        h = 0.07

        pos = (s - z[0]) / step
        idx = np.floor(pos).astype(int)
        frac = pos - idx
        weights = np.zeros(z.shape[0])
        np.add.at(weights, idx, 1.0 - frac)
        keep = idx + 1 <= z.shape[0] - 1
        np.add.at(weights, idx[keep] + 1, frac[keep])
        direct = np.array(
            [np.sum(weights * np.exp(-0.5 * ((zj - z) / h) ** 2)) for zj in z]
        )
        direct = np.maximum(direct, 0.0)
        direct = direct / (direct.sum() * step)

        dens = fft_kde(s, h, z)
        assert np.max(np.abs(dens - direct)) <= 1e-10

    def test_single_spike_close_to_gaussian_density(self):
        # one sample at an off-grid point: the KDE is that point's Gaussian
        # bump up to linear-binning error, bounded well below the bump height
        z = self.grid(2048)
        c, h = 0.3456, 0.1
        dens = fft_kde(np.array([c]), h, z)
        exact = np.exp(-0.5 * ((z - c) / h) ** 2) / (h * np.sqrt(2 * np.pi))
        assert np.max(np.abs(dens - exact)) <= 1e-3

    def test_error_conditions(self):
        z = self.grid()
        with pytest.raises(ValueError, match="at least 8"):
            fft_kde(np.array([0.0]), 0.1, np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="equispaced"):
            fft_kde(np.array([0.5]), 0.1, np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 1.0]))
        with pytest.raises(ValueError, match="bandwidth"):
            fft_kde(np.array([0.0]), 0.0, z)
        with pytest.raises(ValueError, match="outside"):
            fft_kde(np.array([2.0]), 0.1, z)

    def test_symmetry(self):
        z = self.grid(256)
        dens = fft_kde(np.array([-0.5, 0.5]), 0.2, z)
        np.testing.assert_allclose(dens, dens[::-1], rtol=1e-10, atol=1e-12)


class TestBandwidthScott:
    def test_standard_normal_value(self):
        rng = np.random.default_rng(40)
        s = rng.normal(size=10000)
        h, degenerate = bandwidth_scott(s)
        assert not degenerate
        assert abs(h - 10000 ** (-0.2)) < 0.01

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(41)
        s = rng.normal(size=500)
        h1, _ = bandwidth_scott(s)
        h2, _ = bandwidth_scott(2.0 * s)
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-14)

    def test_robust_to_outliers(self):
        rng = np.random.default_rng(42)
        s = rng.normal(size=1000)
        spiked = np.concatenate([s, [1e6]])
        h, _ = bandwidth_scott(spiked)
        assert h < 1.0  # IQR branch wins over the exploded std

    def test_degenerate_spread(self):
        h, degenerate = bandwidth_scott(np.zeros(100), span=4.0)
        assert degenerate
        assert h == 4e-3


class TestBandwidthIsj:
    def test_small_sample_falls_back(self):
        rng = np.random.default_rng(43)
        s = rng.normal(size=30)
        h, fell_back = bandwidth_isj(s)
        assert fell_back
        assert h == bandwidth_scott(s)[0]

    def test_degenerate_range_falls_back(self):
        h, fell_back = bandwidth_isj(np.zeros(100), span=2.0)
        assert fell_back
        assert h == 2e-3

    def test_bimodal_beats_scott(self):
        # widely separated modes: Scott oversmooths, ISJ tracks the local
        # structure and comes out several times smaller
        rng = np.random.default_rng(44)
        comp = rng.integers(0, 2, size=10000)
        s = np.where(comp == 0, -5.0, 5.0) + rng.normal(size=10000) * 0.5
        h_isj, fell_back = bandwidth_isj(s)
        h_scott, _ = bandwidth_scott(s)
        assert not fell_back
        assert h_isj < 0.5 * h_scott

    def test_unimodal_comparable_to_scott(self):
        rng = np.random.default_rng(45)
        s = rng.normal(size=5000)
        h_isj, fell_back = bandwidth_isj(s)
        h_scott, _ = bandwidth_scott(s)
        assert not fell_back
        assert 0.5 < h_isj / h_scott < 2.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(46)
        s = rng.normal(size=2000)
        h1, f1 = bandwidth_isj(s)
        h2, f2 = bandwidth_isj(2.0 * s)
        assert not f1 and not f2
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-12)


    @pytest.mark.parametrize(
        "seed, kind, n, expected",
        [
            (45, "normal", 5000, 0.17955497731281092),
            (46, "normal", 2000, 0.23647775983133157),
            (47, "lognormal", 3000, 0.07851489936408859),
        ],
    )
    def test_pinned_values(self, seed, kind, n, expected):
        # values of the earlier scipy DCT + brentq solve; measured rel
        # deviation 1.4e-12, 8.3e-11, 1.2e-10 (both solves stop at xtol 2e-12)
        s = getattr(np.random.default_rng(seed), kind)(size=n)
        h, fell_back = bandwidth_isj(s)
        assert not fell_back
        np.testing.assert_allclose(h, expected, rtol=1e-9)

    def test_dct_matches_direct_cosine_sum(self):
        # unnormalized DCT-II against its O(N^2) definition, with the angle
        # reduced exactly in integers; measured max rel deviation 2.7e-13
        n = 256
        x = np.random.default_rng(48).normal(size=n)
        r = (np.arange(n)[:, None] * (2 * np.arange(n) + 1)) % (4 * n)
        direct = 2.0 * np.sum(x * np.cos(np.pi * r / (2 * n)), axis=1)
        np.testing.assert_allclose(_dct2(x), direct, rtol=1e-12, atol=0)


class TestRegularizedMap1D:
    def test_validation(self):
        good = np.linspace(0.01, 0.99, 16)
        with pytest.raises(ValueError, match="one shape"):
            RegularizedMap1D(good, good[:-1], (0.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            RegularizedMap1D(np.full(16, 0.5), good, (0.0, 1.0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RegularizedMap1D(good, good + 0.5, (0.0, 1.0))
        with pytest.raises(ValueError, match="lo < hi"):
            RegularizedMap1D(good, good, (1.0, 0.0))
        with pytest.raises(ValueError, match="lo < hi"):
            RegularizedMap1D(good, good, (0.0, np.inf))
        with pytest.raises(ValueError, match="domain has shape"):
            RegularizedMap1D(good, good, (0.0, 0.5, 1.0))
        # k = 3 maps with the fault in the last row only
        rows = np.tile(good, (3, 1))
        domain = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="lo < hi"):
            RegularizedMap1D(rows, rows, domain)
        with pytest.raises(ValueError, match="domain has shape"):
            RegularizedMap1D(rows, rows, domain[:2])
        flat = rows.copy()
        flat[-1, 5] = flat[-1, 4]
        with pytest.raises(ValueError, match="strictly increasing"):
            RegularizedMap1D(rows, flat, domain[:1].repeat(3, axis=0))

    def test_rows_evaluate_as_separate_maps(self):
        m = SortedMap1D([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 3.0]])
        assert len(m) == 2
        assert m(0.5) == 0.5 and m(0.5, row=1) == 2.0
        cdf = np.linspace(0.01, 0.99, 16)
        r = RegularizedMap1D([cdf, cdf], [cdf, cdf], [[0.0, 1.0], [2.0, 3.0]])
        assert r(0.5, row=0) == 0.5 and r(0.5, row=1) == 0.5  # outside [2, 3]
        np.testing.assert_array_equal(r.grid[1], np.linspace(2.0, 3.0, 16))

    def test_cdfs_and_domain_are_private_copies(self):
        f = np.linspace(0.01, 0.99, 16)[None]
        g = f ** 2
        domain = np.array([[0.0, 1.0]])
        m = RegularizedMap1D(f, g, domain)
        before = m(0.3)
        f[0, 3] = 0.0  # would break strict monotonicity
        g[0, :] = 0.5
        domain[0] = (5.0, 4.0)  # would break lo < hi
        np.testing.assert_array_equal(m.cdf_source, [np.linspace(0.01, 0.99, 16)])
        np.testing.assert_array_equal(m.cdf_target, [np.linspace(0.01, 0.99, 16) ** 2])
        np.testing.assert_array_equal(m.domain, [[0.0, 1.0]])
        assert m(0.3) == before

    def test_grid_is_derived_from_domain_and_cdf_length(self):
        good = np.linspace(0.01, 0.99, 16)
        m = RegularizedMap1D(good, good, (-0.5, 2.0))
        np.testing.assert_array_equal(m.grid, [np.linspace(-0.5, 2.0, 16)])
        assert not m.grid.flags.writeable

    def test_identity_outside_domain(self):
        rng = np.random.default_rng(50)
        m = fit_regularized_map(rng.normal(size=200), rng.normal(size=200) + 1)
        lo, hi = m.domain[0]
        assert m(lo - 5.0) == lo - 5.0
        assert m(hi + 2.5) == hi + 2.5
        out = m(np.array([lo - 1.0, hi + 1.0]))
        np.testing.assert_array_equal(out, [lo - 1.0, hi + 1.0])

    def test_self_map_is_identity_inside(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=400)
        m = fit_regularized_map(x, x.copy())
        t = np.linspace(*m.domain[0], 777)
        assert np.max(np.abs(m(t) - t)) <= 1e-12

    def test_monotone_inside(self):
        rng = np.random.default_rng(52)
        m = fit_regularized_map(
            rng.normal(size=500), rng.uniform(-2, 2, size=700)
        )
        t = np.linspace(*m.domain[0], 2000)
        assert np.all(np.diff(m(t)) >= 0)

    def test_gaussian_to_gaussian_closed_form(self):
        # exact monotone map between N(0, 0.5^2) and N(1, 1) is t -> 2t + 1;
        # compare at central quantiles where KDE estimates are reliable
        rng = np.random.default_rng(53)
        x = rng.normal(0.0, 0.5, size=8000)
        y = rng.normal(1.0, 1.0, size=8000)
        m = fit_regularized_map(x, y)
        t = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        np.testing.assert_allclose(m(t), 2.0 * t + 1.0, atol=0.1)  # measured 0.042

    def test_scalar_call_returns_float(self):
        rng = np.random.default_rng(54)
        m = fit_regularized_map(rng.normal(size=100), rng.normal(size=100))
        assert isinstance(m(0.1), float)


class TestFitRegularizedMap:
    def test_grid_spans_padded_pooled_range(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([-1.0, 0.5, 3.0])
        m = fit_regularized_map(x, y)
        lo, hi = m.domain[0]
        assert lo == -1.0 - KDE_MARGIN
        assert hi == 3.0 + KDE_MARGIN
        assert m.grid.shape == (1, KDE_BINS)
        assert m.grid[0, 0] == lo and m.grid[0, -1] == hi

    def test_cdfs_strictly_increasing_to_one(self):
        rng = np.random.default_rng(55)
        m = fit_regularized_map(rng.normal(size=300), rng.normal(size=300) * 2)
        for cdf in (m.cdf_source[0], m.cdf_target[0]):
            assert np.all(np.diff(cdf) > 0)
            np.testing.assert_allclose(cdf[-1], 1.0, rtol=1e-9)

    def test_pushforward_matches_target_quantiles(self):
        # mapped source samples should be distributed like the target:
        # compare deciles of eta(x) against deciles of y
        rng = np.random.default_rng(56)
        x = rng.normal(size=6000)
        y = rng.gamma(3.0, 1.0, size=6000)
        m = fit_regularized_map(x, y)
        q = np.linspace(10, 90, 9)
        np.testing.assert_allclose(  # measured 0.035
            np.percentile(m(x), q), np.percentile(y, q), atol=0.15
        )
