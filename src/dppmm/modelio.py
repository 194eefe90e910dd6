"""Model persistence: trained chains as a schema-versioned array archive.

A model file is an uncompressed zip of ``.npy`` entries, readable with
plain ``numpy.load(path, allow_pickle=False)``. The arrays are stacked by
kind: per map, one (steps, d) direction matrix and one matrix per 1D-map
field, so a file holds a few dozen entries however long the chains are. A
small ``header.json`` entry carries the schema version, each map's variant
and the provenance.

Entries have a fixed order and a fixed timestamp, so saving is
byte-reproducible and save -> load -> save is byte-identical; arrays keep
their float64 bits, so loaded models evaluate bit-exactly. Loading refuses
pickled or non-float64 entries, checks every shape, and rebuilds every
domain object through its validating constructor, so a corrupt file fails
with the invariant it breaks.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .core import AffineRescaler
from .dynamic import DPPMMModel
from .ot1d import RegularizedMap1D, SortedMap1D
from .ppmm import PPMMMap, PPMMStep
from .projection import Direction

__all__ = ["SCHEMA_VERSION", "save_model", "load_model"]

SCHEMA_VERSION = 5
_HEADER = "header.json"
_DATE_TIME = (1980, 1, 1, 0, 0, 0)  # the earliest zip timestamp

# per-step fields of each 1D map variant, in entry order
_VARIANTS = {
    "sorted": ("knots_x", "knots_y"),
    "regularized": ("cdf_source", "cdf_target", "domain"),
}
_VARIANT_OF = {SortedMap1D: "sorted", RegularizedMap1D: "regularized"}


def reports_to_list(reports) -> list[dict]:
    return [{"w2_history": list(r.w2_history), "stop_reason": r.stop_reason} for r in reports]


def _map_variant(j: int, ppmm_map: PPMMMap) -> str | None:
    """The variant shared by all steps of a map; None for a map without steps."""
    variants = {_VARIANT_OF[type(step.map1d)] for step in ppmm_map.steps}
    if len(variants) > 1:
        raise ValueError(f"map {j} mixes 1D map variants")
    return variants.pop() if variants else None


def _step_field(map1d, name: str) -> np.ndarray:
    if name == "domain":
        return np.array([map1d.lo, map1d.hi])
    return getattr(map1d, name)


def _npy(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def save_model(path, model: DPPMMModel, provenance: dict) -> None:
    """Write the model archive to exactly ``path``."""
    variants = [_map_variant(j, m) for j, m in enumerate(model.maps)]
    header = {"schema_version": SCHEMA_VERSION, "maps": variants, "provenance": provenance}
    entries = [
        (_HEADER, json.dumps(header, separators=(",", ":"), allow_nan=False).encode()),
        ("shift.npy", _npy(model.rescaler.shift)),
        ("scale.npy", _npy(model.rescaler.scale)),
        ("times.npy", _npy(model.times)),
    ]
    for j, (ppmm_map, variant) in enumerate(zip(model.maps, variants)):
        steps = ppmm_map.steps
        directions = np.array([s.direction.components for s in steps]).reshape(-1, model.dim)
        entries.append((f"map{j}/direction.npy", _npy(directions)))
        for name in _VARIANTS.get(variant, ()):
            stacked = np.stack([_step_field(s.map1d, name) for s in steps])
            entries.append((f"map{j}/{name}.npy", _npy(stacked)))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, data in entries:
            archive.writestr(zipfile.ZipInfo(name, _DATE_TIME), data)


def _read_array(archive: zipfile.ZipFile, name: str, shape: tuple) -> np.ndarray:
    """Read a float64 entry whose shape matches ``shape`` (None matches any)."""
    arr = np.lib.format.read_array(
        io.BytesIO(archive.read(name + ".npy")), allow_pickle=False
    )
    if arr.dtype != np.float64:
        raise ValueError(f"entry {name} has dtype {arr.dtype}, expected float64")
    if arr.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(arr.shape, shape)
    ):
        raise ValueError(f"entry {name} has shape {arr.shape}, expected {shape}")
    return arr


def _read_map(archive, j: int, variant, d: int) -> PPMMMap:
    if variant is not None and variant not in _VARIANTS:
        raise ValueError(f"unknown 1D map variant {variant!r} for map {j}")
    directions = _read_array(archive, f"map{j}/direction", (None, d))
    k = directions.shape[0]
    if variant is None:
        if k:
            raise ValueError(f"map {j} has {k} directions but no 1D map variant")
        return PPMMMap((), d)
    if variant == "sorted":
        kx = _read_array(archive, f"map{j}/knots_x", (k, None))
        ky = _read_array(archive, f"map{j}/knots_y", kx.shape)
        maps1d = [SortedMap1D(x, y) for x, y in zip(kx, ky)]
    else:
        f = _read_array(archive, f"map{j}/cdf_source", (k, None))
        g = _read_array(archive, f"map{j}/cdf_target", f.shape)
        domain = _read_array(archive, f"map{j}/domain", (k, 2))
        maps1d = [
            RegularizedMap1D(fi, gi, float(lo), float(hi))
            for fi, gi, (lo, hi) in zip(f, g, domain)
        ]
    steps = tuple(PPMMStep(Direction(p), m) for p, m in zip(directions, maps1d))
    return PPMMMap(steps, d)


def load_model(path) -> tuple[DPPMMModel, dict]:
    """Read and validate a model archive; returns (model, provenance)."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"model file not found: {path}")
    try:
        with zipfile.ZipFile(path) as archive:
            header = json.loads(archive.read(_HEADER))
            version = header["schema_version"]
            if version != SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
                )
            variants = header["maps"]
            provenance = header["provenance"]
            if not isinstance(variants, list) or not isinstance(provenance, dict):
                raise ValueError("header needs a list of map variants and a provenance object")
            shift = _read_array(archive, "shift", (None,))
            rescaler = AffineRescaler(shift, _read_array(archive, "scale", shift.shape))
            times = _read_array(archive, "times", (len(variants),))
            maps = tuple(
                _read_map(archive, j, v, rescaler.dim) for j, v in enumerate(variants)
            )
    except zipfile.BadZipFile as exc:
        raise ValueError(
            f"{path} is not a schema-{SCHEMA_VERSION} model archive ({exc}); "
            "JSON models of schema 1-4 are no longer read"
        ) from exc
    except (KeyError, TypeError, EOFError, json.JSONDecodeError) as exc:
        raise ValueError(f"model file invalid: {exc!r}") from exc
    return DPPMMModel(rescaler=rescaler, times=times, maps=maps), provenance
