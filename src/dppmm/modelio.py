"""Model persistence: trained chains as a schema-versioned array archive.

A model file is an uncompressed zip of ``.npy`` entries, readable with
plain ``numpy.load(path, allow_pickle=False)``. It holds the model's arrays
as ``DPPMMModel`` holds them in memory, one entry each: the rescaling, the
times, the int64 step count of each map and the stacked directions and
knots of all steps, so every file has the same eight entries however long
the chains are. A small ``header.json`` entry carries the schema version
and the provenance.

Entries have a fixed order and a fixed timestamp, so saving is
byte-reproducible and save -> load -> save is byte-identical; arrays keep
their bits, so loaded models evaluate bit-exactly. Loading refuses any
other set of entry names, pickled entries, entries of another dtype or
rank, and entries whose data size differs from what their header declares,
before it reads any data. It then hands the arrays to ``DPPMMModel``, which
checks them once, so a corrupt file fails with the invariant it breaks.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from pathlib import Path

import numpy as np

from .dynamic import DPPMMModel

__all__ = ["SCHEMA_VERSION", "save_model", "load_model"]

SCHEMA_VERSION = 7
_HEADER = "header.json"
_DATE_TIME = (1980, 1, 1, 0, 0, 0)  # the earliest zip timestamp
# entry -> (dtype, ndim), in file order; DPPMMModel checks everything else
_ARRAYS = {
    "shift": (np.float64, 1),
    "scale": (np.float64, 1),
    "times": (np.float64, 1),
    "steps": (np.int64, 1),
    "directions": (np.float64, 2),
    "knots_x": (np.float64, 2),
    "knots_y": (np.float64, 2),
}
_ENTRIES = {_HEADER, *(f"{name}.npy" for name in _ARRAYS)}


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
        *((f"{name}.npy", _npy(getattr(model, name))) for name in _ARRAYS),
    ]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, data in entries:
            archive.writestr(zipfile.ZipInfo(name, _DATE_TIME), data)


def _read_array(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """Read an entry after checking its header against ``_ARRAYS`` and its size."""
    fmt = np.lib.format
    data = archive.read(name + ".npy")
    buf = io.BytesIO(data)
    major, _ = fmt.read_magic(buf)
    read_header = fmt.read_array_header_1_0 if major == 1 else fmt.read_array_header_2_0
    shape, _, dtype = read_header(buf)
    want, ndim = _ARRAYS[name]
    if dtype != want:
        raise ValueError(f"entry {name} has dtype {dtype}, expected {np.dtype(want)}")
    if len(shape) != ndim:
        raise ValueError(f"entry {name} has shape {shape}, expected {ndim} dimensions")
    held, declared = len(data) - buf.tell(), math.prod(shape) * dtype.itemsize
    if held != declared:
        raise ValueError(f"entry {name} holds {held} data bytes, its header declares {declared}")
    buf.seek(0)
    return fmt.read_array(buf, allow_pickle=False)


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
            names = set(archive.namelist())
            if names != _ENTRIES:
                raise ValueError(
                    f"model file invalid: unexpected entries {sorted(names - _ENTRIES)}, "
                    f"missing {sorted(_ENTRIES - names)}"
                )
            arrays = {name: _read_array(archive, name) for name in _ARRAYS}
    except zipfile.BadZipFile as exc:
        raise ValueError(
            f"{path} is not a schema-{SCHEMA_VERSION} model archive ({exc}); "
            "JSON models of schema 1-4 are no longer read"
        ) from exc
    except (KeyError, TypeError, EOFError, json.JSONDecodeError) as exc:
        raise ValueError(f"model file invalid: {exc!r}") from exc
    return DPPMMModel(**arrays), provenance
