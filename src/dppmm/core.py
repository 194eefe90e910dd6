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

    Each CSV holds the bytes of ``np.savetxt(fmt="%+.16e", delimiter=",")``:
    17 significant digits, so a read-back is lossless, in 24 bytes per value
    (25 for a value whose decimal exponent has three digits).
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


# Values formatted per block of rows, about 91 bytes each: 0.91 MB. On one
# 2500x10 file (2 cores, numpy 2.4.6, minimum of 40 writes), blocks of 2500,
# 5000, 10,000 and 25,000 values took 2.4, 2.0, 1.9 and 2.4 ms.
_CSV_BLOCK_VALUES = 10_000


def _write_csv_matrix(path, x: np.ndarray) -> None:
    # the bytes of np.savetxt(fmt="%+.16e", delimiter=","); see _csv_text
    block_rows = max(1, _CSV_BLOCK_VALUES // x.shape[1])
    with open(path, "wb") as fh:
        for start in range(0, x.shape[0], block_rows):
            fh.write(_csv_text(x[start : start + block_rows]))


# %+.16e prints x as its sign, the 17 significant digits "d.ddd" of the
# integer D nearest to |x| * 10**(16 - X), ties to even, and "e" with the
# decimal exponent X = floor(log10|x|) in at least two digits (a D of 1e17
# would print as 1e16 with X + 1). For X in -6..16 the product is formed
# exactly, as hi + lo from the exact doubles 1e0..1e22 by Dekker's
# two-product (Numer. Math. 18, 1971). Values of any other exponent are
# formatted with "%+.16e" one at a time, and a block holding a three-digit
# exponent (0 < |x| < 1e-99 or |x| >= 1e100, which are exactly the doubles
# that print one) is formatted whole that way.
_CSV_SLOT = np.frombuffer(b"+0.0000000000000000e+00,", np.uint8)
# the ASCII of 0000..9999 and of "-06,".."+16,", each as the uint32 of its 4 bytes
_DIGITS = np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGITS = _DIGITS.astype(np.uint8).view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(b"".join(b"%+03d," % x for x in range(-6, 17)), np.uint32)
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


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each absolute value's X, its D as an int64 and whether both are exact;
    overwrites ``a``. Zeros and values outside the exact range get X = 0 and
    D = 0, which is exact for zeros only."""
    exact = (a >= 1e-7) & (a < 1e18)
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
    return e, d, exact


def _put_digits(d: np.ndarray, out: np.ndarray) -> None:
    """The 17 digits of each D as ASCII into its row of ``out``: the first in
    column 1, the other 16 in columns 3..18, looked up four at a time."""
    for k in (15, 11, 7, 3):
        q = d // 10**4
        out[:, k : k + 4].view(np.uint32)[:, 0] = _DIGITS[d - 10**4 * q]
        d = q
    out[:, 1] = d + ord("0")


def _csv_text(x: np.ndarray) -> bytes:
    """The rows of ``x`` as %+.16e text, values separated by "," and rows
    ended by "\\n"."""
    v = x.ravel()
    a = np.abs(v)
    if not np.all((a < 1e100) & ((a >= 1e-99) | (a == 0))):
        row = ",".join(["%+.16e"] * x.shape[1]) + "\n"
        return "".join(row % tuple(r) for r in x.tolist()).encode()
    e, d, exact = _significands(a)
    out = np.empty((v.size, _CSV_SLOT.size), np.uint8)
    out[:] = _CSV_SLOT
    out[:, 0] = np.where(np.signbit(v), ord("-"), ord("+"))
    _put_digits(d, out)
    out.view(np.uint32)[:, 5] = _EXPONENTS[e + 6]
    out.reshape(*x.shape, -1)[:, -1, -1] = ord("\n")
    for i in np.flatnonzero(~exact & (v != 0)):
        out[i, :-1] = np.frombuffer(b"%+.16e" % v[i], np.uint8)
    return out.tobytes()


def read_snapshot_dir(path) -> SnapshotSeries:
    """Read a snapshot directory written by `write_snapshot_dir` (or by hand)."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"no manifest.json in {root}")
    with open(manifest_path, encoding="utf-8-sig") as fh:
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
        x = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8-sig")
    if x.shape[0] == 0:
        raise ValueError(f"{path}: empty CSV")
    return x
