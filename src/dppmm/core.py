"""Shared domain types: a snapshot series and its affine rescaling.

A snapshot series is a vector of strictly increasing times plus one (N_j, d)
sample matrix per time, each drawn from the density at that time.

The transport maps are fit and applied in rescaled coordinates: sample
coordinates x mapped to (x - shift) / scale, which lies in [-1, 1]^d over
all snapshots pooled. Snapshot times keep the units they came in. The two
vectors are fit once on the training series, stored inside the model, and
every generated sample is mapped back by x * scale + shift, so sampling
returns the units of the training data; interpolation and evaluation work
in the units of their inputs.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SnapshotSeries",
    "fit_rescaler",
    "read_snapshot_dir",
    "read_snapshot_csv",
    "write_snapshot_dir",
]


_ORDERS = {"strictly increasing": np.greater, "nondecreasing": np.greater_equal}


def _views_bytes(x) -> bool:
    while isinstance(x, np.ndarray):
        x = x.base
    return isinstance(x, bytes)


def checked_array(
    x, name: str, min_rows: int = 1, dim: int | None = None, *,
    ndim: int = 2, order: str | None = None, frozen: str | None = None,
) -> np.ndarray:
    """``x`` as a finite float64 array; anything else raises ValueError naming ``name``.

    ``ndim`` 2 asks for an (N, d) matrix and 3 for an (M, N, d) stack of
    them, with N >= min_rows and d >= 1 (d == dim when given); ``ndim`` 1
    flattens ``x`` of any shape into a vector of at least min_rows entries
    (exactly dim when given). ``order`` "strictly increasing" or
    "nondecreasing" also asks for that order along the last axis. ``frozen``
    "view" returns a read-only view, so that bulk samples are never copied,
    and "copy" a private read-only copy, so that no caller can change a
    checked array behind its checks; a view of a ``bytes`` object is not
    copied, as nothing can write through it.
    """
    copy = frozen == "copy" and not _views_bytes(x)
    x = (np.array if copy else np.asarray)(x, dtype=np.float64)
    if ndim == 1:
        x = x.reshape(-1)
    elif x.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got ndim={x.ndim}")
    n, d = x.shape[0 if ndim == 1 else -2], x.shape[-1]
    rows, cols = ("entries", "entries") if ndim == 1 else ("rows", "columns")
    if n < min_rows:
        raise ValueError(f"{name} needs at least {min_rows} {rows}, got {n}")
    if d < 1 and ndim > 1:
        raise ValueError(f"{name} has no {cols}")
    if dim is not None and d != dim:
        raise ValueError(f"{name} has {d} {cols}, expected {dim}")
    finite = np.all(np.isfinite(x))
    if order is not None:
        if not (finite and np.all(_ORDERS[order](np.diff(x, axis=-1), 0))):
            raise ValueError(f"{name} must be finite and {order}")
    elif not finite:
        raise ValueError(f"{name} contains non-finite entries")
    if frozen is not None:
        x = x.view()
        x.setflags(write=False)
    return x


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SnapshotSeries:
    """Samples of a single evolving density at strictly increasing times.

    ``times`` is a private read-only (M,) copy. ``samples`` holds M
    read-only views of (N_j, d) matrices, so that bulk samples are never
    copied: all share d, and the sample counts N_j may differ. A single
    snapshot is allowed so that evaluation can compare lone sample files;
    training requires M >= 2, enforced at the training boundary.
    """

    times: np.ndarray  # (M,)
    samples: tuple[np.ndarray, ...]  # M matrices (N_j, d)

    def __post_init__(self):
        times = checked_array(
            self.times, "snapshot times", ndim=1, order="strictly increasing", frozen="copy"
        )
        samples = tuple(checked_array(x, "samples", frozen="view") for x in self.samples)
        if len(samples) != len(times):
            raise ValueError(f"{len(times)} snapshot times for {len(samples)} sample matrices")
        dims = {x.shape[1] for x in samples}
        if len(dims) != 1:
            raise ValueError(f"snapshots disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def dim(self) -> int:
        return self.samples[0].shape[1]


def fit_rescaler(series: SnapshotSeries) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``(shift, scale)`` whose map x -> (x - shift) / scale sends a
    raw series into [-1, 1]^d, pooling min/max over all snapshots (each
    snapshot's, then theirs, so that no pooled copy is made).

    Dimensions with zero pooled range are centered at their value and left
    unscaled (scale 1), keeping the map invertible.
    """
    if len(series) < 2:
        raise ValueError("rescaler fitting needs at least two snapshots")
    lo = np.min([x.min(axis=0) for x in series.samples], axis=0)
    hi = np.max([x.max(axis=0) for x in series.samples], axis=0)
    span = hi - lo
    degenerate = span <= 0
    scale = np.where(degenerate, 1.0, span / 2.0)
    shift = np.where(degenerate, lo, (lo + hi) / 2.0)
    return shift, scale


def write_snapshot_dir(series: SnapshotSeries, path) -> None:
    """Write a series as ``manifest.json`` plus one headerless CSV per snapshot.

    CSV floats carry 17 significant digits so a read-back is lossless.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for j, (time, x) in enumerate(zip(series.times.tolist(), series.samples)):
        fname = f"snapshot_{j:04d}.csv"
        _write_csv_matrix(root / fname, x)
        entries.append({"time": time, "file": fname, "n": x.shape[0]})
    manifest = {"d": series.dim, "snapshots": entries}
    with open(root / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# Values formatted per block of rows, about 136 bytes each: 1.36 MB, under
# the 1.53 MB the writer's memory test allows (11000 would leave 3% of it).
# Against 2048-value blocks (13 per 2500x10 matrix, not 3), a benchmark
# round's 22 snapshot files took 133 against 205 ms to write on Lorenz-96
# d=10 and 29 against 40 ms on OU d=8 (medians of 12 rounds, 2 cores); as
# fit_rescaler pools no copy, a run's peak RSS still fell 1.2% and 0.6%.
_CSV_BLOCK_VALUES = 10_000


def _write_csv_matrix(path, x: np.ndarray) -> None:
    # the bytes of np.savetxt(fmt="%.17g", delimiter=","); see _csv_text
    block_rows = max(1, _CSV_BLOCK_VALUES // x.shape[1])
    with open(path, "wb") as fh:
        for start in range(0, x.shape[0], block_rows):
            fh.write(_csv_text(x[start : start + block_rows]))


# %.17g prints x != 0 from its decimal exponent X = floor(log10|x|) and its
# 17 significant digits, the integer D nearest to |x| * 10**(16 - X), ties to
# even (a D of 1e17 would print as 1e16 with X + 1). X picks the layout:
# "ddd.ddd" for 0 <= X <= 16, "0.000ddd" for -4 <= X < 0, else "d.ddde-05";
# trailing zeros of D are dropped. For X in -6..16 the product is formed
# exactly, as hi + lo from the exact doubles 1e0..1e22 by Dekker's
# two-product (Numer. Math. 18, 1971). Values of any other exponent, and
# non-finite ones, are formatted with "%.17g" one at a time.
_CSV_WIDTH = 25  # the longest %.17g text, 24 characters, then a separator
_FALLBACK = 23  # layout class of the values formatted one at a time
_TEN = 10.0 ** np.arange(23)


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_TEN_HI, _TEN_LO = _split(_TEN)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == a * 10**k exactly, with hi = fl(a * 10**k)."""
    hi = a * _TEN[k]
    ah, al = _split(a)
    bh, bl = _TEN_HI[k], _TEN_LO[k]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _significands(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's layout class X + 6 and its D as an int64. Zeros are class
    6 with D = 0; values outside the exact range are class _FALLBACK."""
    a = np.abs(v)
    exact = (a >= 1e-7) & (a < 1e18)  # false for NaN
    a[~exact] = 0.0
    e = np.floor(np.log10(a, out=np.zeros_like(a), where=exact))
    e = np.clip(e, -6, 16).astype(np.intp)
    hi, lo = _scaled(a, 16 - e)
    # log10 may be one off next to a power of ten; hi + lo must be in [1e16, 1e17)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = exact & ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    e += up
    e -= down
    exact &= (e >= -6) & (e <= 16)
    fix = up | down
    a[~exact], e[~exact] = 0.0, 0
    hi[fix], lo[fix] = _scaled(a[fix], 16 - e[fix])
    # hi >= 1e16 is an even integer, so hi + rint(lo) rounds hi + lo half-even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # no double of exponent -6..16 lies close enough below a power of ten to
    # round up to D = 1e17; should one do so, it takes the per-value path
    exact &= (d >= 10**16) & (d < 10**17)
    cls = (e + 6).astype(np.int8)
    cls[~exact & (v != 0)] = _FALLBACK
    return cls, d


def _digit_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each D as ASCII, one row per digit, and the number of
    digits before the trailing zeros."""
    high, low = np.divmod(d, 10**8)
    chars = np.empty((17, d.size), np.uint8)
    zeros = np.ones(d.size, bool)
    nsig = np.full(d.size, 17, np.uint8)
    for part, ks in ((low.astype(np.uint32), range(16, 8, -1)),
                     (high.astype(np.uint32), range(8, -1, -1))):
        for k in ks:
            rest = part // 10
            chars[k] = part - 10 * rest
            zeros &= chars[k] == 0
            nsig -= zeros
            part = rest
    chars += ord("0")
    return chars, nsig


def _csv_layouts():
    """Per layout class X + 6 (X = -6..16): the text of a negative value with
    digits 0 and a trailing ",", the number of digits before the point, the
    slot of the digit after it and the slots of the exponent."""
    layouts = []
    for x in range(-6, 17):
        exponent = slice(0, 0)
        if 0 <= x <= 16:
            text, cut, after = "-" + "0" * (x + 1) + "." + "0" * (16 - x), x + 1, x + 3
        elif -4 <= x < 0:
            text, cut, after = "-0." + "0" * (16 - x), 0, 2 - x
        else:
            text, cut, after = "-0." + "0" * 16 + f"e{x:+03d}", 1, 3
            exponent = slice(len(text) - 4, len(text))
        text = text.ljust(_CSV_WIDTH - 1) + ","
        layouts.append((np.frombuffer(text.encode(), np.uint8), cut, after, exponent))
    return layouts


_CSV_LAYOUTS = _csv_layouts()


def _csv_text(x: np.ndarray) -> bytes:
    """The rows of ``x`` as %.17g text, values separated by "," and rows
    ended by "\\n"."""
    v = x.ravel()
    cls, d = _significands(v)
    # one run of rows per layout class, in class order, the fallback last
    order = np.argsort(cls, kind="stable")
    counts = np.bincount(cls, minlength=_FALLBACK + 1)
    chars, nsig = _digit_rows(d[order[: v.size - counts[_FALLBACK]]])
    # each value's text in a fixed-width row, and which of its slots to keep
    out = np.empty((v.size, _CSV_WIDTH), np.uint8)
    keep = np.zeros((v.size, _CSV_WIDTH), bool)
    slots = np.arange(_CSV_WIDTH, dtype=np.uint8)
    start = 0
    for c in np.flatnonzero(counts[:_FALLBACK]):
        rows = slice(start, start + counts[c])
        text, cut, after, exponent = _CSV_LAYOUTS[c]
        out[rows] = text
        out[rows, 1 : 1 + cut] = chars[:cut, rows].T
        out[rows, after : after + 17 - cut] = chars[cut:, rows].T
        n = nsig[rows]
        end = np.where(n > cut, n + (after - cut), cut + 1)
        np.less(slots, end[:, None], out=keep[rows])
        keep[rows, exponent] = True
        start = rows.stop
    inverse = np.empty_like(order)
    inverse[order] = np.arange(v.size)
    out = np.take(out, inverse, axis=0)
    keep = np.take(keep, inverse, axis=0)
    keep[:, 0] = np.signbit(v)
    keep[:, -1] = True
    out[:, -1] = ord(",")
    out.reshape(*x.shape, _CSV_WIDTH)[:, -1, -1] = ord("\n")
    for i in np.flatnonzero(cls == _FALLBACK):
        text = np.frombuffer(b"%.17g" % v[i], np.uint8)
        out[i, : text.size] = text
        keep[i, : text.size] = True
    return out[keep].tobytes()


def read_snapshot_dir(path) -> SnapshotSeries:
    """Read a snapshot directory written by `write_snapshot_dir` (or by hand)."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"no manifest.json in {root}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    try:
        d = manifest["d"]
        entries = [(e["time"], e["file"], e["n"]) for e in manifest["snapshots"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"manifest {manifest_path} invalid: {exc!r}") from exc
    # JSON types exactly: a bool is no count or time, and int() or float()
    # would accept 2.5 rows or the string "0"; the exact comparison also
    # refuses NaN, infinities and integers past the float range
    if not entries:
        raise ValueError(f"manifest {manifest_path} lists no snapshots")
    if not all(type(c) is int and c >= 1 for c in [d, *(n for _, _, n in entries)]):
        raise ValueError(f"manifest {manifest_path} needs d and every n to be integers >= 1")
    if not all(
        type(t) in (int, float) and abs(t) <= sys.float_info.max and type(f) is str
        for t, f, _ in entries
    ):
        raise ValueError(f"manifest {manifest_path} needs finite times and string file names")
    # a manifest names files under its own directory, never beside or above it
    if any(Path(f).is_absolute() or ".." in Path(f).parts for _, f, _ in entries):
        raise ValueError(f"manifest {manifest_path} names a file outside its directory")
    samples = []
    for _, fname, n in entries:
        csv_path = root / fname
        if not csv_path.is_file():
            raise ValueError(f"manifest {manifest_path} names a missing file {csv_path}")
        x = _read_csv_matrix(csv_path)
        if x.shape != (n, d):
            raise ValueError(f"{csv_path}: expected shape ({n}, {d}), got {x.shape}")
        samples.append(x)
    return SnapshotSeries([float(time) for time, _, _ in entries], samples)


def read_snapshot_csv(path) -> SnapshotSeries:
    """Read a single headerless CSV file as a one-snapshot series at time 0."""
    return SnapshotSeries([0.0], [_read_csv_matrix(path)])


def _read_csv_matrix(path) -> np.ndarray:
    with warnings.catch_warnings():
        # an empty file is reported below, not as loadtxt's "no data" warning
        warnings.simplefilter("ignore", UserWarning)
        x = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8")
    if x.shape[0] == 0:
        raise ValueError(f"{path}: empty CSV")
    return x
