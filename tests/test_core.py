import numpy as np
import pytest

from dppmm.core import (
    AffineRescaler,
    SnapshotSeries,
    fit_rescaler,
    read_snapshot_csv,
    read_snapshot_dir,
    write_snapshot_dir,
)
from dppmm.dynamic import DPPMMModel, fit_transport_splines
from dppmm.metrics import BandwidthGrid, gmmd2
from dppmm.ot1d import Map1D
from dppmm.ppmm import PPMMMap, eval_ppmm, fit_ppmm
from dppmm.projection import save_direction
from dppmm.sde import SDESystem


def make_series(rng, times=(0.0, 1.0, 2.0), n=50, d=3, spread=2.0):
    return SnapshotSeries(times, [rng.normal(size=(n, d)) * spread + t for t in times])


def one_snapshot(x, time=0.0):
    return SnapshotSeries([time], [x])


class TestSnapshot:
    """The checks each snapshot of a series gets: one time, one sample matrix."""

    def test_basic_properties(self):
        s = one_snapshot(np.zeros((4, 2)), 1.5)
        assert s.samples[0].shape == (4, 2)
        assert s.dim == 2
        assert s.times.tolist() == [1.5]

    def test_samples_are_read_only(self):
        s = one_snapshot(np.ones((3, 2)))
        with pytest.raises(ValueError):
            s.samples[0][0, 0] = 7.0
        with pytest.raises(ValueError):
            s.times[0] = 7.0

    def test_caller_array_stays_writable(self):
        x = np.zeros((2, 2))
        s = one_snapshot(x)
        assert x.flags.writeable and not s.samples[0].flags.writeable

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            one_snapshot(np.zeros(5))
        with pytest.raises(ValueError):
            one_snapshot(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            one_snapshot(bad)
        with pytest.raises(ValueError, match="snapshot times must be finite"):
            one_snapshot(np.ones((3, 2)), np.inf)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            one_snapshot(np.zeros((0, 2)))


@pytest.mark.parametrize(
    "call",
    [
        lambda z: one_snapshot(z),
        lambda z: gmmd2(z, z),
        lambda z: save_direction(z, z),
        lambda z: fit_ppmm(z, z),
        lambda z: eval_ppmm(PPMMMap(np.zeros((0, 1))), z),
    ],
    ids=["SnapshotSeries", "gmmd2", "save_direction", "fit_ppmm", "eval_ppmm"],
)
def test_zero_columns_rejected_alike(call):
    # every entry point that takes a sample matrix shares one validator
    with pytest.raises(ValueError, match=r"^(x|samples) has no columns$"):
        call(np.zeros((5, 0)))


# name -> (the caller's arrays, a constructor taking them, the object's array fields)
FROZEN_TYPES = {
    "SnapshotSeries": (
        lambda: [np.array([0.0, 1.0]), np.zeros((3, 2)), np.ones((3, 2))],
        lambda t, *x: SnapshotSeries(t, x),
        ("times", "samples"),
    ),
    "AffineRescaler": (lambda: [np.zeros(2), np.ones(2)], AffineRescaler, ("shift", "scale")),
    "BandwidthGrid": (lambda: [np.array([0.5, 1.0, 2.0])], BandwidthGrid, ("values",)),
    "DPPMMModel": (
        lambda: [np.array([0.0, 1.0])],
        lambda t: DPPMMModel(
            AffineRescaler(np.zeros(2), np.ones(2)), t, (PPMMMap(np.zeros((0, 2))),) * 2
        ),
        ("times",),
    ),
    "SplineBundle": (
        lambda: [np.array([0.0, 0.5, 1.0]), *(np.full((2, 2), v) for v in (0.0, 1.0, 3.0))],
        lambda t, *knots: fit_transport_splines(t, knots),
        ("times", "values", "second"),
    ),
    "SDESystem": (
        lambda: [np.array([[1.0, 1.0]])],
        lambda m: SDESystem("vdp", 2, 1.0, 0.0, 1.0, m, 0.1),
        ("init_means",),
    ),
    "PPMMMap": (
        lambda: [np.array([[1.0, 0.0]])],
        lambda p: PPMMMap(p, Map1D([0.0, 1.0], [0.0, 1.0])),
        ("directions",),
    ),
    "Map1D": (
        lambda: [np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0])],
        Map1D,
        ("knots_x", "knots_y"),
    ),
}


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_checked_types_hold_read_only_arrays(name):
    arrays, make, fields = FROZEN_TYPES[name]
    caller = arrays()
    obj = make(*caller)
    held = [getattr(obj, f) for f in fields]
    if name == "SnapshotSeries":
        # samples are views, so that bulk samples are never copied
        held, views = held[:1], held[1]
        assert all(np.shares_memory(v, x) for v, x in zip(views, caller[1:]))
        assert not any(v.flags.writeable for v in views)
    before = [a.copy() for a in held]
    for a in caller:
        assert a.flags.writeable
        a.flat[0] = -3.0  # mostly a value the constructor would reject
    assert not any(a.flags.writeable for a in held)
    for a, b in zip(held, before):
        np.testing.assert_array_equal(a, b)


class TestSnapshotSeries:
    def test_single_snapshot_allowed(self):
        series = one_snapshot(np.zeros((2, 1)))
        assert len(series) == 1

    def test_times_must_increase(self):
        x = np.zeros((2, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            SnapshotSeries([1.0, 0.5], [x, x])
        with pytest.raises(ValueError, match="strictly increasing"):
            SnapshotSeries([1.0, 1.0], [x, x])

    def test_dimensions_must_agree(self):
        with pytest.raises(ValueError, match="dimension"):
            SnapshotSeries([0.0, 1.0], [np.zeros((2, 1)), np.zeros((2, 2))])

    def test_one_sample_matrix_per_time(self):
        with pytest.raises(ValueError, match="2 snapshot times for 1 sample matrices"):
            SnapshotSeries([0.0, 1.0], [np.zeros((2, 1))])

    def test_iteration_and_indexing(self):
        rng = np.random.default_rng(0)
        series = make_series(rng)
        assert [(t, x.shape) for t, x in zip(series.times.tolist(), series.samples)] == [
            (0.0, (50, 3)), (1.0, (50, 3)), (2.0, (50, 3))
        ]
        assert series.times[1] == 1.0
        assert isinstance(series.samples, tuple)
        assert series.dim == 3

    def test_unequal_sample_counts_allowed(self):
        series = SnapshotSeries([0.0, 1.0], [np.zeros((2, 1)), np.zeros((5, 1))])
        assert [len(x) for x in series.samples] == [2, 5]


class TestAffineRescaler:
    def test_apply_invert_round_trip(self):
        rng = np.random.default_rng(1)
        r = AffineRescaler(np.array([1.0, -2.0]), np.array([2.0, 0.5]))
        x = rng.normal(size=(100, 2)) * 5
        np.testing.assert_allclose(r.invert(r.apply(x)), x, rtol=1e-13, atol=1e-15)

    def test_dimension_mismatch(self):
        r = AffineRescaler(np.zeros(3), np.ones(3))
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
        pooled = r.apply(np.vstack(series.samples))
        assert pooled.min() >= -1.0 - 1e-12
        assert pooled.max() <= 1.0 + 1e-12
        # both extremes attained per dimension
        np.testing.assert_allclose(pooled.min(axis=0), -1.0, atol=1e-12)
        np.testing.assert_allclose(pooled.max(axis=0), 1.0, atol=1e-12)

    def test_degenerate_dimension(self):
        x0 = np.column_stack([np.zeros(10), np.arange(10.0)])
        x1 = np.column_stack([np.zeros(10), np.arange(10.0) + 1])
        r = fit_rescaler(SnapshotSeries([0.0, 1.0], [x0, x1]))
        assert r.scale[0] == 1.0
        assert r.shift[0] == 0.0
        np.testing.assert_array_equal(r.apply(x0)[:, 0], 0.0)

    def test_requires_two_snapshots(self):
        with pytest.raises(ValueError):
            fit_rescaler(one_snapshot(np.zeros((2, 1))))


class TestSnapshotIO:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        series = make_series(rng, times=(0.25, 1.75, 2.5), n=17, d=4)
        write_snapshot_dir(series, tmp_path / "snaps")
        back = read_snapshot_dir(tmp_path / "snaps")
        assert back.times.tolist() == [0.25, 1.75, 2.5]
        assert len(back.samples) == 3
        for a, b in zip(series.samples, back.samples):
            np.testing.assert_array_equal(a, b)

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
            read_snapshot_csv(path).samples[0], [[1.5, 2.5], [-3.0, 4.0]]
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
        series = read_snapshot_csv(path)
        assert series.times.tolist() == [0.0]
        assert len(series.samples) == 1
        np.testing.assert_array_equal(series.samples[0], [[1.5, 2.5], [-3.0, 4.0]])
