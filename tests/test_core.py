import numpy as np
import pytest

from dppmm.core import (
    AffineRescaler,
    Snapshot,
    SnapshotSeries,
    fit_rescaler,
    read_snapshot_csv,
    read_snapshot_dir,
    write_snapshot_dir,
)
from dppmm.metrics import gmmd2
from dppmm.ppmm import PPMMMap, eval_ppmm, fit_ppmm
from dppmm.projection import save_direction


def make_series(rng, times=(0.0, 1.0, 2.0), n=50, d=3, spread=2.0):
    snaps = []
    for t in times:
        snaps.append(Snapshot(t, rng.normal(size=(n, d)) * spread + t))
    return SnapshotSeries(tuple(snaps))


class TestSnapshot:
    def test_basic_properties(self):
        s = Snapshot(1.5, np.zeros((4, 2)))
        assert s.n == 4
        assert s.dim == 2
        assert s.time == 1.5

    def test_samples_are_read_only(self):
        s = Snapshot(0.0, np.ones((3, 2)))
        with pytest.raises(ValueError):
            s.samples[0, 0] = 7.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Snapshot(0.0, np.zeros(5))
        with pytest.raises(ValueError):
            Snapshot(0.0, np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            Snapshot(0.0, bad)
        with pytest.raises(ValueError):
            Snapshot(np.inf, np.ones((3, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Snapshot(0.0, np.zeros((0, 2)))


@pytest.mark.parametrize(
    "call",
    [
        lambda z: Snapshot(0.0, z),
        lambda z: gmmd2(z, z),
        lambda z: save_direction(z, z),
        lambda z: fit_ppmm(z, z),
        lambda z: eval_ppmm(PPMMMap(np.zeros((0, 1))), z),
    ],
    ids=["Snapshot", "gmmd2", "save_direction", "fit_ppmm", "eval_ppmm"],
)
def test_zero_columns_rejected_alike(call):
    # every entry point that takes a sample matrix shares one validator
    with pytest.raises(ValueError, match=r"^(x|samples) has no columns$"):
        call(np.zeros((5, 0)))


class TestSnapshotSeries:
    def test_single_snapshot_allowed(self):
        series = SnapshotSeries((Snapshot(0.0, np.zeros((2, 1))),))
        assert len(series) == 1

    def test_times_must_increase(self):
        a = Snapshot(1.0, np.zeros((2, 1)))
        b = Snapshot(0.5, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            SnapshotSeries((a, b))
        with pytest.raises(ValueError):
            SnapshotSeries((a, a))

    def test_dimensions_must_agree(self):
        a = Snapshot(0.0, np.zeros((2, 1)))
        b = Snapshot(1.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SnapshotSeries((a, b))

    def test_iteration_and_indexing(self):
        rng = np.random.default_rng(0)
        series = make_series(rng)
        assert [s.time for s in series] == [0.0, 1.0, 2.0]
        assert series[1].time == 1.0
        np.testing.assert_array_equal(series.times, [0.0, 1.0, 2.0])
        assert series.dim == 3

    def test_unequal_sample_counts_allowed(self):
        a = Snapshot(0.0, np.zeros((2, 1)))
        b = Snapshot(1.0, np.zeros((5, 1)))
        series = SnapshotSeries((a, b))
        assert [s.n for s in series] == [2, 5]


class TestAffineRescaler:
    def test_apply_invert_round_trip(self):
        rng = np.random.default_rng(1)
        r = AffineRescaler(np.array([1.0, -2.0]), np.array([2.0, 0.5]))
        x = rng.normal(size=(100, 2)) * 5
        np.testing.assert_allclose(r.invert(r.apply(x)), x, rtol=1e-13, atol=1e-15)

    def test_identity(self):
        r = AffineRescaler.identity(3)
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(r.apply(x), x)

    def test_dimension_mismatch(self):
        r = AffineRescaler.identity(3)
        with pytest.raises(ValueError):
            r.apply(np.zeros((2, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineRescaler(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            AffineRescaler(np.array([np.nan, 0.0]), np.ones(2))


class TestFitRescaler:
    def test_maps_pooled_range_to_unit_cube(self):
        rng = np.random.default_rng(2)
        series = make_series(rng, times=(0.0, 3.0, 10.0), spread=7.0)
        r = fit_rescaler(series)
        scaled = r.apply_series(series)
        pooled = np.vstack([s.samples for s in scaled])
        assert pooled.min() >= -1.0 - 1e-12
        assert pooled.max() <= 1.0 + 1e-12
        # both extremes attained per dimension
        np.testing.assert_allclose(pooled.min(axis=0), -1.0, atol=1e-12)
        np.testing.assert_allclose(pooled.max(axis=0), 1.0, atol=1e-12)
        np.testing.assert_array_equal(scaled.times, [0.0, 3.0, 10.0])

    def test_degenerate_dimension(self):
        x0 = np.column_stack([np.zeros(10), np.arange(10.0)])
        x1 = np.column_stack([np.zeros(10), np.arange(10.0) + 1])
        series = SnapshotSeries((Snapshot(0.0, x0), Snapshot(1.0, x1)))
        r = fit_rescaler(series)
        assert r.scale[0] == 1.0
        assert r.shift[0] == 0.0
        scaled = r.apply_series(series)
        np.testing.assert_array_equal(scaled[0].samples[:, 0], 0.0)

    def test_requires_two_snapshots(self):
        series = SnapshotSeries((Snapshot(0.0, np.zeros((2, 1))),))
        with pytest.raises(ValueError):
            fit_rescaler(series)


class TestSnapshotIO:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        series = make_series(rng, times=(0.25, 1.75, 2.5), n=17, d=4)
        write_snapshot_dir(series, tmp_path / "snaps")
        back = read_snapshot_dir(tmp_path / "snaps")
        assert len(back) == len(series)
        for a, b in zip(series, back):
            assert a.time == b.time
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        series = make_series(rng)
        write_snapshot_dir(series, tmp_path / "a")
        write_snapshot_dir(read_snapshot_dir(tmp_path / "a"), tmp_path / "b")
        for name in ("manifest.json", "snapshot_0000.csv", "snapshot_0002.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            read_snapshot_dir(tmp_path)

    def test_shape_mismatch_detected(self, tmp_path):
        rng = np.random.default_rng(5)
        series = make_series(rng, n=6, d=2)
        write_snapshot_dir(series, tmp_path / "snaps")
        csv_path = tmp_path / "snaps" / "snapshot_0001.csv"
        lines = csv_path.read_text().strip().splitlines()
        csv_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="shape"):
            read_snapshot_dir(tmp_path / "snaps")

    def test_read_csv_with_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_bytes(b"\r\n1.5,2.5\r\n\r\n-3.0,4.0\r\n\r\n")
        np.testing.assert_array_equal(
            read_snapshot_csv(path).samples, [[1.5, 2.5], [-3.0, 4.0]]
        )

    def test_empty_csv_rejected_without_warning(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty CSV"):
            read_snapshot_csv(path)
        assert len(recwarn) == 0

    def test_read_single_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.5,2.5\n-3.0,4.0\n")
        snap = read_snapshot_csv(path, time=2.0)
        assert snap.time == 2.0
        np.testing.assert_array_equal(snap.samples, [[1.5, 2.5], [-3.0, 4.0]])
