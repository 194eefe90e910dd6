"""Model persistence: trained chains as a schema-versioned array archive.

A model file is an uncompressed zip of ``.npy`` entries, readable with
plain ``numpy.load(path, allow_pickle=False)``. The arrays are stacked by
kind, as the chain holds them in memory: per map, its (steps, d) direction
matrix and, for a map with steps, the two knot matrices of its 1D maps, so
a file holds a few dozen entries however long the chains are. The map count
is the length of ``times``. A small ``header.json`` entry carries the schema
version and the provenance.

Entries have a fixed order and a fixed timestamp, so saving is
byte-reproducible and save -> load -> save is byte-identical; arrays keep
their float64 bits, so loaded models evaluate bit-exactly. Loading refuses
pickled or non-float64 entries and any set of entry names other than the
one the maps' step counts imply, checks the shape of each entry, then
hands each stacked matrix to its validating constructor, which checks it
once, so a corrupt file fails with the invariant it breaks.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .dynamic import DPPMMModel
from .ot1d import Map1D
from .ppmm import PPMMMap

__all__ = ["SCHEMA_VERSION", "save_model", "load_model"]

SCHEMA_VERSION = 6
_HEADER = "header.json"
_DATE_TIME = (1980, 1, 1, 0, 0, 0)  # the earliest zip timestamp
_KNOTS = ("knots_x", "knots_y")


def reports_to_list(reports) -> list[dict]:
    return [{"w2_history": list(r.w2_history), "stop_reason": r.stop_reason} for r in reports]


def _npy(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def save_model(path, model: DPPMMModel, provenance: dict) -> None:
    """Write the model archive to exactly ``path``."""
    header = {"schema_version": SCHEMA_VERSION, "provenance": provenance}
    entries = [
        (_HEADER, json.dumps(header, separators=(",", ":"), allow_nan=False).encode()),
        ("shift.npy", _npy(model.shift)),
        ("scale.npy", _npy(model.scale)),
        ("times.npy", _npy(model.times)),
    ]
    for j, ppmm_map in enumerate(model.maps):
        entries.append((f"map{j}/direction.npy", _npy(ppmm_map.directions)))
        if ppmm_map.maps1d is not None:
            for name in _KNOTS:
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


def _entry_names(directions) -> set[str]:
    """The entry names of an archive whose maps have these direction matrices."""
    names = {_HEADER, "shift.npy", "scale.npy", "times.npy"}
    for j, p in enumerate(directions):
        names.update(f"map{j}/{name}.npy" for name in ("direction", *(_KNOTS if len(p) else ())))
    return names


def _read_map(archive: zipfile.ZipFile, j: int, directions: np.ndarray) -> PPMMMap:
    if not len(directions):
        return PPMMMap(directions)
    knots = (_read_array(archive, f"map{j}/{name}", (len(directions), None)) for name in _KNOTS)
    return PPMMMap(directions, Map1D(*knots))


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
            provenance = header["provenance"]
            if not isinstance(provenance, dict):
                raise ValueError("header needs a provenance object")
            shift = _read_array(archive, "shift", (None,))
            scale = _read_array(archive, "scale", shift.shape)
            times = _read_array(archive, "times", (None,))
            directions = [
                _read_array(archive, f"map{j}/direction", (None, len(shift)))
                for j in range(len(times))
            ]
            names, expected = set(archive.namelist()), _entry_names(directions)
            if names != expected:
                raise ValueError(
                    f"entries do not match {len(times)} maps: unexpected "
                    f"{sorted(names - expected)}, missing {sorted(expected - names)}"
                )
            maps = tuple(_read_map(archive, j, p) for j, p in enumerate(directions))
    except zipfile.BadZipFile as exc:
        raise ValueError(
            f"{path} is not a schema-{SCHEMA_VERSION} model archive ({exc}); "
            "JSON models of schema 1-4 are no longer read"
        ) from exc
    except (KeyError, TypeError, EOFError, json.JSONDecodeError) as exc:
        raise ValueError(f"model file invalid: {exc!r}") from exc
    return DPPMMModel(shift, scale, times, maps), provenance
