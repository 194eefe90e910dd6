import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from dppmm import core
from dppmm.core import (
    SnapshotSeries,
    _write_csv_matrix,
    checked_array,
    fit_rescaler,
    read_snapshot_csv,
    read_snapshot_dir,
    write_snapshot_dir,
)
from dppmm.dynamic import DPPMMModel, fit_transport_splines
from dppmm.metrics import gmmd2
from dppmm.ot1d import Map1D
from dppmm.ppmm import eval_ppmm, fit_ppmm
from dppmm.projection import save_direction
from dppmm.sde import SDESystem, make_benchmark


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
        lambda z: eval_ppmm(np.zeros((0, 1)), *np.zeros((2, 0, 2)), z),
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
    "DPPMMModel": (
        lambda: [
            np.zeros(2), np.ones(2), np.array([0.0, 1.0]), np.array([1, 0]),
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[0.0, 2.0]]),
        ],
        DPPMMModel,
        ("shift", "scale", "times", "steps", "directions", "knots_x", "knots_y"),
    ),
    "SplineBundle": (
        lambda: [np.array([0.0, 0.5, 1.0]), *(np.full((2, 2), v) for v in (0.0, 1.0, 3.0))],
        lambda t, *knots: fit_transport_splines(t, knots),
        ("times", "values"),
    ),
    "SDESystem": (
        lambda: [np.array([[1.0, 1.0]])],
        lambda m: SDESystem("vdp", 2, 1.0, 0.0, 1.0, m, 0.1),
        ("init_means",),
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



def test_checked_copy_keeps_views_of_bytes():
    # nothing can write through a view of a bytes object, so a loaded
    # model's entries are held as read instead of copied once more
    entry = np.frombuffer(np.arange(4.0).tobytes()).reshape(2, 2)
    held = checked_array(entry, "entry", frozen="copy")
    assert np.shares_memory(held, entry)
    with pytest.raises(ValueError):
        held.setflags(write=True)
    writable = np.arange(4.0).reshape(2, 2)
    assert not np.shares_memory(checked_array(writable, "writable", frozen="copy"), writable)


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


class TestFitRescaler:
    def test_maps_pooled_range_to_unit_cube(self):
        rng = np.random.default_rng(2)
        series = make_series(rng, times=(0.0, 3.0, 10.0), spread=7.0)
        shift, scale = fit_rescaler(series)
        pooled = (np.vstack(series.samples) - shift) / scale
        assert pooled.min() >= -1.0 - 1e-12
        assert pooled.max() <= 1.0 + 1e-12
        # both extremes attained per dimension
        np.testing.assert_allclose(pooled.min(axis=0), -1.0, atol=1e-12)
        np.testing.assert_allclose(pooled.max(axis=0), 1.0, atol=1e-12)

    def test_degenerate_dimension(self):
        x0 = np.column_stack([np.zeros(10), np.arange(10.0)])
        x1 = np.column_stack([np.zeros(10), np.arange(10.0) + 1])
        shift, scale = fit_rescaler(SnapshotSeries([0.0, 1.0], [x0, x1]))
        assert scale[0] == 1.0
        assert shift[0] == 0.0
        np.testing.assert_array_equal(((x0 - shift) / scale)[:, 0], 0.0)

    def test_requires_two_snapshots(self):
        with pytest.raises(ValueError):
            fit_rescaler(one_snapshot(np.zeros((2, 1))))

    def test_equals_pooled_min_max_bit_for_bit(self):
        rng = np.random.default_rng(5)
        samples = [rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4, size=3)
                   for n in (7, 1, 30, 4)]
        for x in samples:
            x[:, 1] = -2.5  # a constant column: shift -2.5, scale 1
        shift, scale = fit_rescaler(SnapshotSeries(range(4), samples))
        pooled = np.vstack(samples)
        lo, hi = pooled.min(axis=0), pooled.max(axis=0)
        span = hi - lo
        expected = (np.where(span <= 0, lo, (lo + hi) / 2.0), np.where(span <= 0, 1.0, span / 2.0))
        for got, want in zip((shift, scale), expected):
            assert got.tobytes() == want.tobytes()
        assert (shift[1], scale[1]) == (-2.5, 1.0)

    def test_memory_peak_holds_no_pooled_copy(self):
        # 11 snapshots of 2500 x 10, as one benchmark split: pooling them with
        # np.vstack peaked at 2.20 MB, the per-snapshot extremes at 0.005 MB
        series = SnapshotSeries(
            range(11), list(np.random.default_rng(6).normal(size=(11, 2500, 10)))
        )
        tracemalloc.start()
        try:
            fit_rescaler(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1e6


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

    def test_manifest_files_stay_inside_the_directory(self, tmp_path):
        (tmp_path / "outside.csv").write_text("0.5,0.5\n")
        root = tmp_path / "snaps"
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "a.csv").write_text("1.5,2.5\n")
        (root / "link.csv").symlink_to(tmp_path / "outside.csv")

        def read(*names):
            entries = [{"time": float(j), "file": f, "n": 1} for j, f in enumerate(names)]
            (root / "manifest.json").write_text(json.dumps({"d": 2, "snapshots": entries}))
            return read_snapshot_dir(root)

        series = read("sub/a.csv", "link.csv")
        np.testing.assert_array_equal(np.vstack(series.samples), [[1.5, 2.5], [0.5, 0.5]])
        for name in ("../outside.csv", str(tmp_path / "outside.csv"), "sub/../../outside.csv"):
            with pytest.raises(ValueError, match="names a file outside its directory"):
                read("sub/a.csv", name)

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


def written_bytes(tmp_path, x) -> bytes:
    """What `_write_csv_matrix` writes for ``x``, with every warning an error."""
    path = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _write_csv_matrix(path, x)
    return path.read_bytes()


def savetxt_bytes(x) -> bytes:
    buf = io.BytesIO()
    np.savetxt(buf, x, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def percent_bytes(x) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in x.tolist()).encode()


def random_bit_patterns(rng, n, exponents=(0, 2047)):
    """``n`` finite doubles of random mantissa and sign, with biased binary
    exponents drawn uniformly from the half-open range ``exponents``."""
    bits = rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
    bits |= rng.integers(*exponents, size=n, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


def powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-8, 19)])
    return np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])


WRITER_CASES = ["all exponents", "exact-path exponents", "decimal scales", "powers of ten",
                "extremes", "one row", "one column"]


def writer_case(case) -> np.ndarray:
    rng = np.random.default_rng(17)
    if case == "all exponents":
        x = random_bit_patterns(rng, 100_000)
    elif case == "exact-path exponents":
        # binary exponents -24..57 hold every decimal exponent -7..17
        x = random_bit_patterns(rng, 100_000, (1023 - 24, 1023 + 58))
    elif case == "decimal scales":
        x = rng.uniform(-10, 10, size=(4000, 25)) * 10.0 ** np.arange(-7, 18)
    elif case == "powers of ten":
        x = powers_of_ten_and_neighbours()
        x = np.concatenate([x, -x])
    elif case == "extremes":
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                      -1.7976931348623157e308, 1e15 + 0.25, 1e15 + 0.75, 1.0, -1.0])
    elif case == "one row":
        x = rng.normal(size=(1, 7))
    else:
        x = rng.normal(size=(9, 1))
    if x.ndim == 1:
        x = x[: x.size // 10 * 10].reshape(-1, 10)
    return x


class TestCsvWriter:
    """`_write_csv_matrix` writes exactly the bytes of np.savetxt(fmt="%.17g")."""

    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_matches_savetxt_and_percent_format(self, tmp_path, case):
        x = writer_case(case)
        got = written_bytes(tmp_path, x)
        assert got == savetxt_bytes(x)
        assert got == percent_bytes(x)

    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_small_blocks_match_savetxt(self, tmp_path, monkeypatch, case):
        # 7-value blocks: rows of 10 or 25 values take one row per block,
        # 9 rows of 1 value a full block of 7 and a partial one of 2
        monkeypatch.setattr(core, "_CSV_BLOCK_VALUES", 7)
        x = writer_case(case)
        assert written_bytes(tmp_path, x) == savetxt_bytes(x)

    def test_lorenz96_split_matches_savetxt(self, tmp_path):
        train, _ = make_benchmark("lorenz96", 10, 2500, seed=3, m=3, dt=0.01)
        for x in train.samples:
            assert written_bytes(tmp_path, x) == savetxt_bytes(x)

    @pytest.mark.parametrize(
        "value, text",
        [
            (1e15 + 0.25, "1000000000000000.2"),
            (1e15 + 0.75, "1000000000000000.8"),
            (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
            (1e-4, "0.0001"),
            (np.nextafter(1e16, 0.0), "9999999999999998"),
            (1e16, "10000000000000000"),
            (1e17, "1e+17"),
            (np.nextafter(1e17, 0.0), "99999999999999984"),
            (-0.0, "-0"),
            (0.0, "0"),
            (5e-324, "4.9406564584124654e-324"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
        ],
    )
    def test_pinned_texts(self, tmp_path, value, text):
        assert written_bytes(tmp_path, np.array([[value, -value]])) == (
            f"{text},{text[1:] if text.startswith('-') else '-' + text}\n".encode()
        )

    @pytest.mark.parametrize("rows", [2500, 10_000])
    def test_memory_peak_of_one_benchmark_file(self, tmp_path, rows):
        # one Lorenz-96 d=10 snapshot has 2500 rows of 10 columns; the writer
        # that formatted 4096-row blocks with %.17g peaked at 1.55 MB there
        # and 2.50 MB at 10000 rows, while 10000-value blocks of digit
        # arithmetic peak at 1.36 MB at both: one block's buffers
        x = np.random.default_rng(23).uniform(-1.0, 1.0, size=(rows, 10))
        tracemalloc.start()
        try:
            _write_csv_matrix(tmp_path / "x.csv", x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.53e6
