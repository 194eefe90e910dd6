import itertools

import numpy as np
import pytest

from dppmm.ot1d import (
    KDE_BINS,
    KDE_MARGIN,
    _kde_cdf,
    fft_kde,
    fit_regularized_map,
    fit_sorted_map,
    resolve_bandwidth,
)


class TestFitSortedMap:
    def test_equal_sizes_pair_order_statistics(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=50)
        y = rng.normal(size=50) * 2 + 1
        kx, ky = fit_sorted_map(x, y)
        np.testing.assert_array_equal(kx, np.sort(x))
        np.testing.assert_array_equal(ky, np.sort(y))
        np.testing.assert_array_equal(np.sort(np.interp(x, kx, ky)), np.sort(y))

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
        kx, ky = fit_sorted_map(x, 2.0 * x + 3.0)
        lo, hi = x.min(), x.max()
        t = np.linspace(lo, hi, 101)
        np.testing.assert_allclose(np.interp(t, kx, ky), 2.0 * t + 3.0, rtol=1e-12, atol=1e-12)
        outside = np.array([-8.0, lo - 1e-9, hi + 1e-9, 8.0])
        np.testing.assert_array_equal(np.interp(outside, kx, ky), [ky[0]] * 2 + [ky[-1]] * 2)
        np.testing.assert_allclose(ky[[0, -1]], 2.0 * np.array([lo, hi]) + 3.0, rtol=1e-12)

    def test_unequal_sizes_hand_example(self):
        kx, ky = fit_sorted_map(np.array([1.0, 0.0]), np.array([2.0, 0.0, 1.0]))
        # source plotting positions 0.25, 0.75 against target quantile
        # function through (1/6, 0), (1/2, 1), (5/6, 2)
        np.testing.assert_allclose(kx, [0.0, 1.0])
        np.testing.assert_allclose(ky, [0.25, 1.75])

    def test_unequal_sizes_quantile_consistency(self):
        rng = np.random.default_rng(24)
        big = rng.normal(size=5000)
        small = rng.choice(big, size=500, replace=False)
        t = np.linspace(-0.9, 0.9, 50)
        source = np.linspace(-1, 1, 400)
        on_big, on_small = (np.interp(t, *fit_sorted_map(source, c)) for c in (big, small))
        assert np.max(np.abs(on_big - on_small)) < 0.2

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(20)
        knots = fit_sorted_map(rng.normal(size=300), rng.normal(size=300) ** 3)
        t = np.linspace(-6, 6, 4001)
        assert np.all(np.diff(np.interp(t, *knots)) >= 0)


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
        h = resolve_bandwidth(s, 1.0)
        assert abs(h - 10000 ** (-0.2)) < 0.01

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(41)
        s = rng.normal(size=500)
        h1 = resolve_bandwidth(s, 1.0)
        h2 = resolve_bandwidth(2.0 * s, 1.0)
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-14)

    def test_robust_to_outliers(self):
        rng = np.random.default_rng(42)
        s = rng.normal(size=1000)
        spiked = np.concatenate([s, [1e6]])
        h = resolve_bandwidth(spiked, 1.0)
        assert h < 1.0  # IQR branch wins over the exploded std

    def test_degenerate_spread(self):
        assert resolve_bandwidth(np.zeros(100), 4.0) == 4e-3


class TestFitRegularizedMap:
    def test_grid_spans_padded_pooled_range(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([-1.0, 0.5, 3.0])
        kx, ky = fit_regularized_map(x, y)
        assert kx.shape == ky.shape == (KDE_BINS,)
        np.testing.assert_array_equal(kx, np.linspace(-1.0 - KDE_MARGIN, 3.0 + KDE_MARGIN, KDE_BINS))

    def test_cdfs_strictly_increasing_to_one(self):
        rng = np.random.default_rng(55)
        x, y = rng.normal(size=300), rng.normal(size=300) * 2
        grid, _ = fit_regularized_map(x, y)
        for cdf in (_kde_cdf(x, grid), _kde_cdf(y, grid)):
            assert np.all(np.diff(cdf) > 0)
            np.testing.assert_allclose(cdf[-1], 1.0, rtol=1e-9)

    def test_clamped_beyond_the_grid(self):
        # the knots are the grid, so past its ends the map holds its end
        # values, which stay inside the grid, instead of acting as the identity
        rng = np.random.default_rng(50)
        kx, ky = fit_regularized_map(rng.normal(size=200), rng.normal(size=200) + 1)
        (lo, hi), (y_lo, y_hi) = kx[[0, -1]], ky[[0, -1]]
        assert lo <= y_lo < y_hi <= hi
        assert np.interp(lo - 5.0, kx, ky) == y_lo and np.interp(hi + 2.5, kx, ky) == y_hi
        np.testing.assert_array_equal(
            np.interp([-1e30, lo, hi, 1e30], kx, ky), [y_lo, y_lo, y_hi, y_hi]
        )

    def test_self_map_is_identity_inside(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=400)
        kx, ky = fit_regularized_map(x, x.copy())
        t = np.linspace(kx[0], kx[-1], 777)
        assert np.max(np.abs(np.interp(t, kx, ky) - t)) <= 1e-12

    def test_monotone_inside(self):
        rng = np.random.default_rng(52)
        kx, ky = fit_regularized_map(
            rng.normal(size=500), rng.uniform(-2, 2, size=700)
        )
        t = np.linspace(kx[0], kx[-1], 2000)
        assert np.all(np.diff(np.interp(t, kx, ky)) >= 0)

    def test_gaussian_to_gaussian_closed_form(self):
        # exact monotone map between N(0, 0.5^2) and N(1, 1) is t -> 2t + 1;
        # compare at central quantiles where KDE estimates are reliable
        rng = np.random.default_rng(53)
        x = rng.normal(0.0, 0.5, size=8000)
        y = rng.normal(1.0, 1.0, size=8000)
        knots = fit_regularized_map(x, y)
        t = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        np.testing.assert_allclose(np.interp(t, *knots), 2.0 * t + 1.0, atol=0.1)  # measured 0.042

    def test_pushforward_matches_target_quantiles(self):
        # mapped source samples should be distributed like the target:
        # compare deciles of eta(x) against deciles of y
        rng = np.random.default_rng(56)
        x = rng.normal(size=6000)
        y = rng.gamma(3.0, 1.0, size=6000)
        knots = fit_regularized_map(x, y)
        q = np.linspace(10, 90, 9)
        np.testing.assert_allclose(  # measured 0.035
            np.percentile(np.interp(x, *knots), q), np.percentile(y, q), atol=0.15
        )

    def test_target_without_spread_is_a_constant_map(self):
        # without the constant map, the zero-spread bandwidth fallback spreads
        # these fresh draws over [0.49523, 0.50377]; like the sorted map, the
        # fit must send them to exactly 0.5, on the usual knot grid
        rng = np.random.default_rng(0)
        x = 0.1 * rng.standard_normal(1000)
        kx, ky = fit_regularized_map(x, np.full(1000, 0.5))
        assert kx.shape == ky.shape == (KDE_BINS,)
        fresh = 0.1 * rng.standard_normal(1000)
        np.testing.assert_array_equal(np.interp(fresh, kx, ky), 0.5)
        sorted_knots = fit_sorted_map(x, np.full(1000, 0.5))
        np.testing.assert_array_equal(np.interp(fresh, *sorted_knots), 0.5)
