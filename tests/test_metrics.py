import numpy as np
import pytest

from dppmm.core import Snapshot, SnapshotSeries
from dppmm.metrics import (
    _EXP_ZERO,
    BandwidthGrid,
    avg_gmmd2,
    choose_estimator,
    gaussian_kernel,
    gmmd2,
    linear_mmd2,
    mmd2,
    per_snapshot_gmmd2,
)


def mmd2_reference(x, y, sigma):
    """Direct loop-free reference: unbiased within terms, all-pairs cross term."""
    kxx = gaussian_kernel(x, x, sigma)
    kyy = gaussian_kernel(y, y, sigma)
    kxy = gaussian_kernel(x, y, sigma)
    n1, n2 = x.shape[0], y.shape[0]
    sxx = kxx.sum() - np.trace(kxx)
    syy = kyy.sum() - np.trace(kyy)
    return (
        sxx / (n1 * (n1 - 1))
        + syy / (n2 * (n2 - 1))
        - 2.0 * kxy.sum() / (n1 * n2)
    )


class TestBandwidthGrid:
    def test_default_grid(self):
        grid = BandwidthGrid.default()
        assert len(grid) == 15
        np.testing.assert_allclose(grid.values[0], 1e-2)
        np.testing.assert_allclose(grid.values[-1], 1e2)
        # log-spaced: constant ratio between consecutive entries
        ratios = grid.values[1:] / grid.values[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([]))
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            BandwidthGrid(np.array([1.0, 1.0]))


class TestGaussianKernel:
    def test_hand_values(self):
        u = np.array([[0.0, 0.0], [3.0, 4.0]])
        k = gaussian_kernel(u, u, sigma=5.0)
        # |u0 - u1|^2 = 25, so off-diagonal is exp(-25 / 50)
        np.testing.assert_allclose(np.diag(k), 1.0)
        np.testing.assert_allclose(k[0, 1], np.exp(-0.5), rtol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros((2, 1)), np.zeros((2, 1)), 0.0)


class TestMmd2:
    def test_hand_computed_tiny_case(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[0.0], [2.0]])
        sigma = 1.0
        e = np.exp
        # within-x: 2*e(-0.5)/2; within-y: 2*e(-2)/2
        # cross pairs: (0,0), (0,2), (1,0), (1,2) -> 1, e(-2), e(-0.5), e(-0.5)
        expected = (
            e(-0.5) + e(-2.0) - 2.0 * (1.0 + e(-2.0) + 2.0 * e(-0.5)) / 4.0
        )
        np.testing.assert_allclose(mmd2(x, y, sigma), expected, rtol=1e-12)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(80)
        x = rng.normal(size=(137, 3))
        y = rng.normal(size=(211, 3)) + 0.3
        for sigma in (0.1, 1.0, 7.0):
            np.testing.assert_allclose(
                mmd2(x, y, sigma), mmd2_reference(x, y, sigma), rtol=1e-10
            )

    def test_symmetric_in_arguments_exactly(self):
        rng = np.random.default_rng(81)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=(150, 2)) * 2
        assert mmd2(x, y, 1.0) == mmd2(y, x, 1.0)
        assert gmmd2(x, y) == gmmd2(y, x)

    def test_identical_matrices_land_in_unbiased_band(self):
        # the unbiased estimator on x vs an identical copy equals
        # -(sum_offdiag)/(n(n-1)) shifted, landing in [-2/n, 0), not at 0
        rng = np.random.default_rng(82)
        n = 50
        x = rng.normal(size=(n, 2))
        for sigma in (0.05, 1.0, 20.0):
            v = mmd2(x, x.copy(), sigma)
            assert -2.0 / n <= v < 0.0

    def test_detects_mean_shift(self):
        rng = np.random.default_rng(83)
        x = rng.normal(size=(400, 2))
        y = rng.normal(size=(400, 2)) + 1.0
        z = rng.normal(size=(400, 2))
        assert mmd2(x, y, 1.0) > 20.0 * abs(mmd2(x, z, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            mmd2(np.zeros((2, 1)), np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError):
            mmd2(np.zeros((1, 1)), np.zeros((2, 1)), 1.0)
        with pytest.raises(ValueError):
            mmd2(np.zeros((2, 1)), np.zeros((2, 1)), -1.0)

    def test_blockwise_consistency_across_sizes(self):
        # one set larger than the tile edge: off-diagonal tiles, a one-row
        # last diagonal tile (2049 rows), and bandwidths where all or part of
        # the kernel terms underflow must agree with the dense reference
        rng = np.random.default_rng(84)
        y = rng.normal(size=(300, 2))
        for n in (2049, 2500):
            x = rng.normal(size=(n, 2))
            for sigma in (0.005, 0.1, 1.0, 2.0, 10.0):
                np.testing.assert_allclose(
                    mmd2(x, y, sigma), mmd2_reference(x, y, sigma), rtol=1e-10
                )

    def test_translation_invariant(self):
        # |a|^2 + |b|^2 - 2 a.b cancels far from the origin: before the inputs
        # were centred, offset 0 gave -6.012e-5 and offset 1e6 -1.110e-4
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=(200, 3))
        at_origin = mmd2(x, y, 0.1)
        np.testing.assert_allclose(at_origin, -6.012e-5, rtol=1e-3)
        for off in (1e3, 1e6):
            shifted = mmd2(x + off, y + off, 0.1)
            # the same rounded points moved back to the origin: only the
            # estimator's own rounding separates the two
            np.testing.assert_allclose(
                shifted, mmd2((x + off) - off, (y + off) - off, 0.1), rtol=1e-12
            )
            # x + 1e6 rounds each coordinate to 1.2e-10, which moves the
            # value by 1.5e-9 relative
            np.testing.assert_allclose(shifted, at_origin, rtol=1e-8)

    def test_exp_zero_threshold_underflows(self):
        # kernel terms below the threshold are skipped as exact zeros
        assert np.exp(_EXP_ZERO) == 0.0
        # every term skipped: all pairs are 10 apart at sigma 0.1
        assert mmd2([[0.0], [10.0]], [[20.0], [30.0]], 0.1) == 0.0


class TestLinearMmd2:
    def test_hand_computed_case(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([[0.0], [0.0], [0.0], [0.0]])
        sigma = 1.0
        e = np.exp
        # pairs (x0,x1),(x2,x3) and (y0,y1),(y2,y3)
        # h1 = k(0,1) + k(0,0) - k(0,0) - k(1,0) = e(-.5) + 1 - 1 - e(-.5) = 0
        # h2 = k(2,3) + k(0,0) - k(2,0) - k(3,0)
        expected = (e(-0.5) + 1.0 - (e(-2.0) + e(-4.5))) / 2.0
        np.testing.assert_allclose(linear_mmd2(x, y, sigma), expected, rtol=1e-12)

    def test_unbiasedness_against_quadratic(self):
        # both estimate the same population quantity; on a large mean-shift
        # sample the two agree to within sampling error
        rng = np.random.default_rng(85)
        x = rng.normal(size=(6000, 2))
        y = rng.normal(size=(6000, 2)) + 0.5
        q = mmd2(x, y, 1.0)
        l = linear_mmd2(x, y, 1.0)
        assert abs(q - l) < 0.02
        assert l > 0.05

    def test_odd_count_warns_and_drops(self):
        rng = np.random.default_rng(86)
        x = rng.normal(size=(9, 2))
        y = rng.normal(size=(9, 2))
        with pytest.warns(UserWarning, match="odd sample count"):
            v_odd = linear_mmd2(x, y, 1.0)
        v_even = linear_mmd2(x[:8], y[:8], 1.0)
        assert v_odd == v_even

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(87)
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=(100, 3)) * 1.3
        assert linear_mmd2(x, y, 0.7) == linear_mmd2(y, x, 0.7)

    def test_requires_equal_shapes(self):
        with pytest.raises(ValueError, match="equal shapes"):
            linear_mmd2(np.zeros((6, 1)), np.zeros((8, 1)), 1.0)
        with pytest.raises(ValueError, match="at least 4"):
            linear_mmd2(np.zeros((3, 1)), np.zeros((3, 1)), 1.0)


class TestGmmd2:
    def test_is_max_over_grid(self):
        rng = np.random.default_rng(88)
        x = rng.normal(size=(200, 2))
        y = rng.normal(size=(200, 2)) * 1.5
        grid = BandwidthGrid.default()
        per_sigma = [mmd2(x, y, s) for s in grid.values]
        np.testing.assert_allclose(gmmd2(x, y, grid), max(per_sigma), rtol=1e-12)

    def test_custom_grid_and_estimators(self):
        rng = np.random.default_rng(89)
        x = rng.normal(size=(64, 2))
        y = rng.normal(size=(64, 2)) + 2.0
        grid = BandwidthGrid(np.array([0.5, 1.0, 2.0]))
        vq = gmmd2(x, y, grid, estimator="quadratic")
        vl = gmmd2(x, y, grid, estimator="linear")
        assert vq > 0.1 and vl > 0.1
        with pytest.raises(ValueError, match="estimator"):
            gmmd2(x, y, grid, estimator="cubic")

    def test_linear_estimator_shape_requirements(self):
        with pytest.raises(ValueError, match="equal shapes"):
            gmmd2(np.zeros((10, 1)), np.zeros((12, 1)), estimator="linear")

    def test_same_distribution_near_zero_different_far(self):
        rng = np.random.default_rng(90)
        x = rng.normal(size=(500, 2))
        z = rng.normal(size=(500, 2))
        y = rng.normal(size=(500, 2)) + 1.0
        assert abs(gmmd2(x, z)) < 0.02
        assert gmmd2(x, y) > 0.2


class TestChooseEstimator:
    def test_rule(self):
        assert choose_estimator(2001, 2001) == "linear"
        assert choose_estimator(2000, 2000) == "quadratic"
        assert choose_estimator(5000, 4999) == "quadratic"
        assert choose_estimator(100, 100) == "quadratic"


class TestAvgGmmd2:
    def make_pair(self, seed, n=120, shift=0.0):
        rng = np.random.default_rng(seed)
        times = (0.0, 0.5, 1.0)
        a = SnapshotSeries(
            tuple(Snapshot(t, rng.normal(size=(n, 2))) for t in times)
        )
        b = SnapshotSeries(
            tuple(Snapshot(t, rng.normal(size=(n, 2)) + shift) for t in times)
        )
        return a, b

    def test_mean_of_per_snapshot_values(self):
        a, b = self.make_pair(91, shift=0.7)
        per = [
            gmmd2(sa.samples, sb.samples, estimator="quadratic")
            for sa, sb in zip(a, b)
        ]
        np.testing.assert_allclose(
            avg_gmmd2(a, b, estimator="quadratic"), np.mean(per), rtol=1e-12
        )
        assert per_snapshot_gmmd2(a, b) == [
            (sa.time, v, "quadratic") for sa, v in zip(a, per)
        ]

    def test_time_mismatch_rejected(self):
        a, _ = self.make_pair(92)
        shifted = SnapshotSeries(
            tuple(Snapshot(s.time + 1e-6, s.samples) for s in a)
        )
        with pytest.raises(ValueError, match="times differ"):
            avg_gmmd2(a, shifted)

    def test_length_mismatch_rejected(self):
        a, b = self.make_pair(93)
        short = SnapshotSeries(b.snapshots[:2])
        with pytest.raises(ValueError, match="counts differ"):
            avg_gmmd2(a, short)

    def test_auto_estimator_follows_size_rule(self):
        # small snapshots use the quadratic path: auto must equal quadratic
        a, b = self.make_pair(94, n=60, shift=0.3)
        assert avg_gmmd2(a, b) == avg_gmmd2(a, b, estimator="quadratic")
