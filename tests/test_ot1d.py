import itertools

import numpy as np
import pytest

from dppmm.ot1d import (
    KDE_BINS,
    KDE_MARGIN,
    Map1D,
    _kde_cdf,
    fft_kde,
    fit_regularized_map,
    fit_sorted_map,
    resolve_bandwidth,
)


class TestMap1D:
    def test_hand_example_with_extension(self):
        m = Map1D(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.0]))
        # interior: linear between knots
        assert m(0.5) == 1.0
        assert m(2.0) == 2.0
        # constant beyond the extreme knots: the end target knots
        assert m(-1.0) == 0.0
        assert m(5.0) == 2.0
        np.testing.assert_array_equal(m(np.array([-1e30, 1e30])), [0.0, 2.0])

    def test_duplicate_edge_knot_clamps_slope(self):
        m = Map1D(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
        assert m(-3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Map1D(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Map1D(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Map1D(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        knots = np.tile([0.0, 1.0, 2.0], (3, 1))
        with pytest.raises(ValueError, match="nondecreasing"):  # last row only
            Map1D(knots, np.vstack([knots[:2], knots[2, ::-1]]))

    @pytest.mark.parametrize("shape", [(3,), (1, 3)])
    def test_knots_are_private_copies(self, shape):
        kx = np.array([0.0, 1.0, 2.0]).reshape(shape)
        ky = np.array([0.0, 2.0, 4.0]).reshape(shape)
        m = Map1D(kx, ky)
        kx.flat[1] = -3.0  # would make the stored knots decreasing
        ky.flat[2] = 9.0
        assert kx.flags.writeable
        np.testing.assert_array_equal(m.knots_x, [[0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(m.knots_y, [[0.0, 2.0, 4.0]])
        assert m(1.5) == 3.0

    def test_rows_evaluate_as_separate_maps(self):
        m = Map1D([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 3.0]])
        assert len(m) == 2
        assert m(0.5) == 0.5 and m(0.5, row=1) == 2.0

    def test_scalar_and_array_calls(self):
        m = Map1D(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
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
        m = fit_regularized_map(x, y)
        assert m.knots_x.shape == m.knots_y.shape == (1, KDE_BINS)
        np.testing.assert_array_equal(
            m.knots_x[0], np.linspace(-1.0 - KDE_MARGIN, 3.0 + KDE_MARGIN, KDE_BINS)
        )

    def test_cdfs_strictly_increasing_to_one(self):
        rng = np.random.default_rng(55)
        x, y = rng.normal(size=300), rng.normal(size=300) * 2
        grid = fit_regularized_map(x, y).knots_x[0]
        for cdf in (_kde_cdf(x, grid), _kde_cdf(y, grid)):
            assert np.all(np.diff(cdf) > 0)
            np.testing.assert_allclose(cdf[-1], 1.0, rtol=1e-9)

    def test_clamped_beyond_the_grid(self):
        # the knots are the grid, so past its ends the map holds its end
        # values, which stay inside the grid, instead of acting as the identity
        rng = np.random.default_rng(50)
        m = fit_regularized_map(rng.normal(size=200), rng.normal(size=200) + 1)
        (lo, hi), (y_lo, y_hi) = m.knots_x[0, [0, -1]], m.knots_y[0, [0, -1]]
        assert lo <= y_lo < y_hi <= hi
        assert m(lo - 5.0) == y_lo and m(hi + 2.5) == y_hi
        np.testing.assert_array_equal(m(np.array([-1e30, lo, hi, 1e30])), [y_lo, y_lo, y_hi, y_hi])

    def test_self_map_is_identity_inside(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=400)
        m = fit_regularized_map(x, x.copy())
        t = np.linspace(m.knots_x[0, 0], m.knots_x[0, -1], 777)
        assert np.max(np.abs(m(t) - t)) <= 1e-12

    def test_monotone_inside(self):
        rng = np.random.default_rng(52)
        m = fit_regularized_map(
            rng.normal(size=500), rng.uniform(-2, 2, size=700)
        )
        t = np.linspace(m.knots_x[0, 0], m.knots_x[0, -1], 2000)
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

    def test_target_without_spread_is_a_constant_map(self):
        # without the constant map, the zero-spread bandwidth fallback spreads
        # these fresh draws over [0.49523, 0.50377]; like the sorted map, the
        # fit must send them to exactly 0.5, on the usual knot grid
        rng = np.random.default_rng(0)
        x = 0.1 * rng.standard_normal(1000)
        m = fit_regularized_map(x, np.full(1000, 0.5))
        assert m.knots_x.shape == m.knots_y.shape == (1, KDE_BINS)
        fresh = 0.1 * rng.standard_normal(1000)
        np.testing.assert_array_equal(m(fresh), 0.5)
        np.testing.assert_array_equal(fit_sorted_map(x, np.full(1000, 0.5))(fresh), 0.5)
