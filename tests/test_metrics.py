import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dppmm.core import SnapshotSeries, _usable_cpus
from dppmm.metrics import (
    _BLOCK,
    _EXP_FLOOR,
    BANDWIDTHS,
    _exp_sums,
    choose_estimator,
    gmmd2,
    per_snapshot_gmmd2,
)


def _gaussian_kernel(u, v, sigma: float) -> np.ndarray:
    """Dense kernel matrix exp(-|u_i - v_j|^2 / (2 sigma^2)), subnormals kept."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    d2 = (
        np.sum(u * u, axis=1)[:, None]
        + np.sum(v * v, axis=1)[None, :]
        - 2.0 * (u @ v.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * sigma * sigma))


def mmd2_reference(x, y, sigma):
    """Direct loop-free reference: unbiased within terms, all-pairs cross term."""
    kxx = _gaussian_kernel(x, x, sigma)
    kyy = _gaussian_kernel(y, y, sigma)
    kxy = _gaussian_kernel(x, y, sigma)
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
        assert BANDWIDTHS.shape == (15,)
        np.testing.assert_allclose(BANDWIDTHS[0], 1e-2)
        np.testing.assert_allclose(BANDWIDTHS[-1], 1e2)
        # log-spaced: constant ratio between consecutive entries
        ratios = BANDWIDTHS[1:] / BANDWIDTHS[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            BANDWIDTHS[0] = 1.0

    def test_validation(self):
        for grid, message in (
            ([], "bandwidths needs at least 1 entries, got 0"),
            ([0.0, 1.0], "bandwidths must be positive"),
            ([1.0, 1.0], "bandwidths must be finite and strictly increasing"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                gmmd2(np.zeros((2, 1)), np.ones((2, 1)), np.array(grid))


class TestGaussianKernel:
    def test_hand_values(self):
        u = np.array([[0.0, 0.0], [3.0, 4.0]])
        k = _gaussian_kernel(u, u, sigma=5.0)
        # |u0 - u1|^2 = 25, so off-diagonal is exp(-25 / 50)
        np.testing.assert_allclose(np.diag(k), 1.0)
        np.testing.assert_allclose(k[0, 1], np.exp(-0.5), rtol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            _gaussian_kernel(np.zeros((2, 1)), np.zeros((2, 1)), 0.0)


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
        value = gmmd2(x, y, [sigma])
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(80)
        x = rng.normal(size=(137, 3))
        y = rng.normal(size=(211, 3)) + 0.3
        for sigma in (0.1, 1.0, 7.0):
            np.testing.assert_allclose(
                gmmd2(x, y, [sigma]),
                mmd2_reference(x, y, sigma),
                rtol=1e-10,
            )

    def test_symmetric_in_arguments_exactly(self):
        rng = np.random.default_rng(81)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=(150, 2)) * 2
        one = [1.0]
        assert gmmd2(x, y, one) == gmmd2(y, x, one)
        assert gmmd2(x, y) == gmmd2(y, x)

    def test_identical_matrices_land_in_unbiased_band(self):
        # the unbiased estimator on x vs an identical copy equals
        # -(sum_offdiag)/(n(n-1)) shifted, landing in [-2/n, 0), not at 0
        rng = np.random.default_rng(82)
        n = 50
        x = rng.normal(size=(n, 2))
        for sigma in (0.05, 1.0, 20.0):
            v = gmmd2(x, x.copy(), [sigma])
            assert -2.0 / n <= v < 0.0

    def test_detects_mean_shift(self):
        rng = np.random.default_rng(83)
        x = rng.normal(size=(400, 2))
        y = rng.normal(size=(400, 2)) + 1.0
        z = rng.normal(size=(400, 2))
        one = [1.0]
        assert gmmd2(x, y, one) > 20.0 * abs(gmmd2(x, z, one))

    def test_validation(self):
        one = [1.0]
        with pytest.raises(ValueError):
            gmmd2(np.zeros((2, 1)), np.zeros((2, 2)), one)
        with pytest.raises(ValueError):
            gmmd2(np.zeros((1, 1)), np.zeros((2, 1)), one)
        with pytest.raises(ValueError):
            gmmd2(np.zeros((2, 1)), np.zeros((2, 1)), [-1.0])

    def test_blockwise_consistency_across_sizes(self):
        # sets larger than the tile edge: off-diagonal tiles, a one-row last
        # diagonal tile (_BLOCK + 1 rows), a partial last tile, and bandwidths
        # where all or part of the kernel terms underflow must agree with the
        # dense reference
        rng = np.random.default_rng(84)
        y = rng.normal(size=(300, 2))
        for n in (_BLOCK + 1, 2 * _BLOCK + _BLOCK // 3):
            x = rng.normal(size=(n, 2))
            for sigma in (0.005, 0.1, 1.0, 2.0, 10.0):
                np.testing.assert_allclose(
                    gmmd2(x, y, [sigma]),
                    mmd2_reference(x, y, sigma),
                    rtol=1e-10,
                )

    def test_translation_invariant(self):
        # |a|^2 + |b|^2 - 2 a.b cancels far from the origin: before the inputs
        # were centred, offset 0 gave -6.012e-5 and offset 1e6 -1.110e-4
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=(200, 3))
        grid = [0.1]
        at_origin = gmmd2(x, y, grid)
        np.testing.assert_allclose(at_origin, -6.012e-5, rtol=1e-3)
        for off in (1e3, 1e6):
            shifted = gmmd2(x + off, y + off, grid)
            # the same rounded points moved back to the origin: only the
            # estimator's own rounding separates the two
            np.testing.assert_allclose(
                shifted, gmmd2((x + off) - off, (y + off) - off, grid), rtol=1e-12
            )
            # x + 1e6 rounds each coordinate to 1.2e-10, which moves the
            # value by 1.5e-9 relative
            np.testing.assert_allclose(shifted, at_origin, rtol=1e-8)

    def test_exp_floor_threshold(self):
        # kernel terms below exp(_EXP_FLOOR) are dropped as exact zeros; the
        # floor itself is a normal double, far below any term that counts
        assert np.finfo(float).tiny < np.exp(_EXP_FLOOR) < 1e-300
        sums = _exp_sums(np.array([0.5, 1.0, 2.0]), np.array([-1.0, -710.0, -1e4]))
        np.testing.assert_allclose(
            sums[:2], [np.exp(-0.5) + np.exp(-1.0) + np.exp(-2.0), np.exp(-355.0)],
            rtol=1e-15,
        )
        assert sums[2] == 0.0
        # every term dropped: all pairs are 10 apart at sigma 0.1
        assert gmmd2([[0.0], [10.0]], [[20.0], [30.0]], [0.1]) == 0.0

    def test_no_exp_argument_below_floor(self, monkeypatch):
        # numpy's exp is 17-150 times slower below about -708; no argument
        # under the floor may reach it, whichever estimator runs. At sigma
        # 0.01 the pair exponents -5000 |x_i - y_j|^2 span about [-2000, 0],
        # and the shuffled rows spread the linear estimator's pairs as well.
        rng = np.random.default_rng(97)
        x = rng.permutation(np.linspace(0.0, np.sqrt(0.4), 64))[:, None]
        y = rng.permutation(x) + 0.002
        smallest = []
        exp = np.exp

        def recording_exp(arg, *args, **kwargs):
            if np.size(arg):
                smallest.append(float(np.min(arg)))
            return exp(arg, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recording_exp)
        for estimator in ("quadratic", "linear"):
            smallest.clear()
            gmmd2(x, y, [0.01, 0.1, 1.0], estimator)
            # arguments below the floor existed and were clamped to it
            assert min(smallest) == _EXP_FLOOR, estimator

    def test_floor_matches_reference_that_keeps_subnormals(self):
        # adjacent points 0.38 apart: at sigma 0.01 their exponent is -722,
        # between the floor and exp's underflow to zero, so the dense
        # reference sums them as subnormals and gmmd2 drops them; the cross
        # pairs 0.05 apart (exponent -12.5) dominate the value
        x = 0.38 * np.arange(40.0)[:, None]
        y = x + 0.05
        grid = [0.01]
        within = -5000.0 * (x - x.T) ** 2
        assert np.count_nonzero((within >= -746.0) & (within < _EXP_FLOOR)) == 78
        np.testing.assert_allclose(
            gmmd2(x, y, grid), mmd2_reference(x, y, 0.01), rtol=1e-10
        )


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
        value = gmmd2(x, y, [sigma], "linear")
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_unbiasedness_against_quadratic(self):
        # both estimate the same population quantity; on a large mean-shift
        # sample the two agree to within sampling error
        rng = np.random.default_rng(85)
        x = rng.normal(size=(6000, 2))
        y = rng.normal(size=(6000, 2)) + 0.5
        one = [1.0]
        q = gmmd2(x, y, one)
        l = gmmd2(x, y, one, "linear")
        assert abs(q - l) < 0.02
        assert l > 0.05

    def test_odd_count_warns_and_drops(self):
        rng = np.random.default_rng(86)
        x = rng.normal(size=(9, 2))
        y = rng.normal(size=(9, 2))
        one = [1.0]
        with pytest.warns(UserWarning, match="odd sample count"):
            v_odd = gmmd2(x, y, one, "linear")
        v_even = gmmd2(x[:8], y[:8], one, "linear")
        assert v_odd == v_even

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(87)
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=(100, 3)) * 1.3
        grid = [0.7]
        assert gmmd2(x, y, grid, "linear") == gmmd2(y, x, grid, "linear")

    def test_requires_equal_shapes(self):
        one = [1.0]
        with pytest.raises(ValueError, match="equal shapes"):
            gmmd2(np.zeros((6, 1)), np.zeros((8, 1)), one, "linear")
        with pytest.raises(ValueError, match="at least 4"):
            gmmd2(np.zeros((3, 1)), np.zeros((3, 1)), one, "linear")


class TestGmmd2:
    def test_is_max_over_grid(self):
        rng = np.random.default_rng(88)
        x = rng.normal(size=(200, 2))
        y = rng.normal(size=(200, 2)) * 1.5
        per_sigma = [gmmd2(x, y, [s]) for s in BANDWIDTHS]
        np.testing.assert_allclose(gmmd2(x, y), max(per_sigma), rtol=1e-12)

    def test_custom_grid_and_estimators(self):
        rng = np.random.default_rng(89)
        x = rng.normal(size=(64, 2))
        y = rng.normal(size=(64, 2)) + 2.0
        grid = [0.5, 1.0, 2.0]
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


def average(pairs) -> float:
    """Mean over the (time, value, estimator) triples of per_snapshot_gmmd2."""
    return float(np.mean([value for _, value, _ in pairs]))


class TestAvgGmmd2:
    def make_pair(self, seed, n=120, shift=0.0):
        rng = np.random.default_rng(seed)
        times = (0.0, 0.5, 1.0)
        a = SnapshotSeries(times, [rng.normal(size=(n, 2)) for _ in times])
        b = SnapshotSeries(times, [rng.normal(size=(n, 2)) + shift for _ in times])
        return a, b

    def test_mean_of_per_snapshot_values(self):
        a, b = self.make_pair(91, shift=0.7)
        per = [gmmd2(x, y, estimator="quadratic") for x, y in zip(a.samples, b.samples)]
        pairs = per_snapshot_gmmd2(a, b)
        np.testing.assert_allclose(average(pairs), np.mean(per), rtol=1e-12)
        assert pairs == [
            (t, v, "quadratic") for t, v in zip([0.0, 0.5, 1.0], per)
        ]

    def test_time_mismatch_rejected(self):
        a, _ = self.make_pair(92)
        shifted = SnapshotSeries(a.times + [0.0, 0.0, 1e-6], a.samples)
        with pytest.raises(ValueError, match=r"times differ: 1\.0 vs 1\.000001$"):
            per_snapshot_gmmd2(a, shifted)

    def test_length_mismatch_rejected(self):
        a, b = self.make_pair(93)
        short = SnapshotSeries(b.times[:2], b.samples[:2])
        with pytest.raises(ValueError, match="counts differ"):
            per_snapshot_gmmd2(a, short)

    def test_concurrent_pairs_match_sequential_calls(self):
        # more pairs than cores, mixed and unequal sizes, both estimators;
        # at the grid's smallest bandwidth 0.01 the 300 x 300 pair has
        # exponents on both sides of the floor, so the keep-mask path runs
        # under the pool with terms both kept and dropped
        rng = np.random.default_rng(95)
        pairs = max(7, _usable_cpus() + 1)
        sizes = [(40, 60), (_BLOCK + 1, 300), (2002, 2002), (120, 120), (7, 9), (300, 300)]
        sizes = [sizes[j % len(sizes)] for j in range(pairs)]
        times = [0.25 * j for j in range(pairs)]
        a = SnapshotSeries(times, [rng.normal(size=(n1, 3)) for n1, _ in sizes])
        b = SnapshotSeries(
            times, [rng.normal(size=(n2, 3)) + 0.1 * j for j, (_, n2) in enumerate(sizes)]
        )
        x, y = a.samples[5], b.samples[5]
        exponents = -0.5 / BANDWIDTHS[0] ** 2 * np.sum((x[:, None] - y) ** 2, axis=2)
        assert exponents.min() < _EXP_FLOOR <= exponents.max()
        sequential = []
        for t, x, y in zip(times, a.samples, b.samples):
            chosen = choose_estimator(len(x), len(y))
            sequential.append((t, gmmd2(x, y, BANDWIDTHS, chosen), chosen))
        assert {est for _, _, est in sequential} == {"linear", "quadratic"}
        assert per_snapshot_gmmd2(a, b) == sequential
        assert per_snapshot_gmmd2(a, b) == per_snapshot_gmmd2(a, b)

    def test_worker_error_reaches_caller(self):
        # a one-row snapshot passes the series checks and fails gmmd2's row
        # check inside the pool
        a, b = self.make_pair(96, n=40)
        one_row = SnapshotSeries(b.times, [b.samples[0], b.samples[1][:1], b.samples[2]])
        with pytest.raises(ValueError, match="y needs at least 2 rows, got 1"):
            per_snapshot_gmmd2(a, one_row)

    def test_auto_estimator_follows_size_rule(self):
        # small snapshots use the quadratic path: auto must equal quadratic
        a, b = self.make_pair(94, n=60, shift=0.3)
        per = [gmmd2(x, y, estimator="quadratic") for x, y in zip(a.samples, b.samples)]
        assert average(per_snapshot_gmmd2(a, b)) == float(np.mean(per))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
    def test_pool_size_follows_cpu_affinity(self):
        # a process pinned to one CPU scores its pairs on one worker, however
        # many CPUs the machine has
        code = """
import os
import numpy as np
import dppmm.metrics as metrics
from dppmm.core import SnapshotSeries
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sizes = []
class Pool(metrics.ThreadPoolExecutor):
    def __init__(self, max_workers):
        sizes.append(max_workers)
        super().__init__(max_workers)
metrics.ThreadPoolExecutor = Pool
series = SnapshotSeries([0.0, 1.0, 2.0], [np.arange(6.0).reshape(3, 2)] * 3)
metrics.per_snapshot_gmmd2(series, series)
print(sizes)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[1]"
