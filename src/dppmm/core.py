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
    checked array behind its checks.
    """
    x = (np.array if frozen == "copy" else np.asarray)(x, dtype=np.float64)
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
    raw series into [-1, 1]^d, pooling min/max over all snapshots.

    Dimensions with zero pooled range are centered at their value and left
    unscaled (scale 1), keeping the map invertible.
    """
    if len(series) < 2:
        raise ValueError("rescaler fitting needs at least two snapshots")
    pooled = np.vstack(series.samples)
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
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


_CSV_BLOCK_ROWS = 4096


def _write_csv_matrix(path, x: np.ndarray) -> None:
    # One %-format per block of rows instead of one per row; the bytes match
    # np.savetxt(fmt="%.17g", delimiter=",").
    row = ",".join(["%.17g"] * x.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for start in range(0, x.shape[0], _CSV_BLOCK_ROWS):
            block = x[start : start + _CSV_BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


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
    # would accept 2.5 rows or the string "0"
    if not entries:
        raise ValueError(f"manifest {manifest_path} lists no snapshots")
    if not all(type(c) is int and c >= 1 for c in [d, *(n for _, _, n in entries)]):
        raise ValueError(f"manifest {manifest_path} needs d and every n to be integers >= 1")
    if not all(type(t) in (int, float) and type(f) is str for t, f, _ in entries):
        raise ValueError(f"manifest {manifest_path} needs numeric times and string file names")
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
