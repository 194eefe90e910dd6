"""Model persistence: trained chains as a schema-versioned array archive.

A model file is an uncompressed zip of ``.npy`` entries, readable with
plain ``numpy.load(path, allow_pickle=False)``. The arrays are stacked by
kind, as the chain holds them in memory: per map, its (steps, d) direction
matrix and the matrices its 1D-map object names in ``FIELDS``, so a file
holds a few dozen entries however long the chains are. A small
``header.json`` entry carries the schema version, each map's variant and
the provenance.

Entries have a fixed order and a fixed timestamp, so saving is
byte-reproducible and save -> load -> save is byte-identical; arrays keep
their float64 bits, so loaded models evaluate bit-exactly. Loading refuses
pickled or non-float64 entries and checks the shape of each entry, then
hands each stacked matrix to its validating constructor, which checks it
once, so a corrupt file fails with the invariant it breaks.
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
from .ppmm import PPMMMap

__all__ = ["SCHEMA_VERSION", "save_model", "load_model"]

SCHEMA_VERSION = 5
_HEADER = "header.json"
_DATE_TIME = (1980, 1, 1, 0, 0, 0)  # the earliest zip timestamp

# the 1D map class of each variant named in the header
_VARIANTS = {"sorted": SortedMap1D, "regularized": RegularizedMap1D}
_VARIANT_OF = {cls: name for name, cls in _VARIANTS.items()}


def reports_to_list(reports) -> list[dict]:
    return [{"w2_history": list(r.w2_history), "stop_reason": r.stop_reason} for r in reports]


def _npy(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def save_model(path, model: DPPMMModel, provenance: dict) -> None:
    """Write the model archive to exactly ``path``."""
    variants = [None if m.maps1d is None else _VARIANT_OF[type(m.maps1d)] for m in model.maps]
    header = {"schema_version": SCHEMA_VERSION, "maps": variants, "provenance": provenance}
    entries = [
        (_HEADER, json.dumps(header, separators=(",", ":"), allow_nan=False).encode()),
        ("shift.npy", _npy(model.rescaler.shift)),
        ("scale.npy", _npy(model.rescaler.scale)),
        ("times.npy", _npy(model.times)),
    ]
    for j, ppmm_map in enumerate(model.maps):
        entries.append((f"map{j}/direction.npy", _npy(ppmm_map.directions)))
        for name in getattr(ppmm_map.maps1d, "FIELDS", ()):
            entries.append((f"map{j}/{name}.npy", _npy(getattr(ppmm_map.maps1d, name))))
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
    if variant is None:
        if len(directions):
            raise ValueError(f"map {j} has {len(directions)} directions but no 1D map variant")
        return PPMMMap(directions)
    cls = _VARIANTS[variant]
    fields = [_read_array(archive, f"map{j}/{name}", (None, None)) for name in cls.FIELDS]
    return PPMMMap(directions, cls(*fields))


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
