"""Model persistence: trained chains as schema-versioned UTF-8 JSON.

Floats serialize through Python's shortest round-trip repr, so
save -> load -> save is byte-identical and loaded models evaluate
bit-exactly. Loading reconstructs every domain object through its
validating constructor, so a corrupt file fails with the specific
invariant it breaks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import AffineRescaler
from .dynamic import DPPMMModel
from .ot1d import RegularizedMap1D, SortedMap1D
from .ppmm import PPMMMap, PPMMStep
from .projection import Direction

__all__ = ["SCHEMA_VERSION", "save_model", "load_model", "model_to_dict", "model_from_dict"]

SCHEMA_VERSION = 4


def _map1d_to_dict(map1d) -> dict:
    if isinstance(map1d, SortedMap1D):
        return {
            "variant": "sorted",
            "knots_x": map1d.knots_x.tolist(),
            "knots_y": map1d.knots_y.tolist(),
        }
    if isinstance(map1d, RegularizedMap1D):
        return {
            "variant": "regularized",
            "cdf_source": map1d.cdf_source.tolist(),
            "cdf_target": map1d.cdf_target.tolist(),
            "lo": map1d.lo,
            "hi": map1d.hi,
        }
    raise ValueError(f"unknown 1D map type {type(map1d).__name__}")


def _map1d_from_dict(d: dict):
    variant = d["variant"]
    if variant == "sorted":
        return SortedMap1D(np.asarray(d["knots_x"]), np.asarray(d["knots_y"]))
    if variant == "regularized":
        return RegularizedMap1D(
            np.asarray(d["cdf_source"]),
            np.asarray(d["cdf_target"]),
            float(d["lo"]),
            float(d["hi"]),
        )
    raise ValueError(f"unknown 1D map variant {variant!r}")


def reports_to_list(reports) -> list[dict]:
    return [{"w2_history": list(r.w2_history), "stop_reason": r.stop_reason} for r in reports]


def model_to_dict(model: DPPMMModel, provenance: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "rescaler": {
            "shift": model.rescaler.shift.tolist(),
            "scale": model.rescaler.scale.tolist(),
        },
        "times": model.times.tolist(),
        "maps": [
            {
                "steps": [
                    {
                        "direction": step.direction.components.tolist(),
                        "map1d": _map1d_to_dict(step.map1d),
                    }
                    for step in ppmm_map.steps
                ]
            }
            for ppmm_map in model.maps
        ],
        "provenance": provenance,
    }


def model_from_dict(doc: dict) -> tuple[DPPMMModel, dict]:
    try:
        version = doc["schema_version"]
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        rescaler = AffineRescaler(
            shift=np.asarray(doc["rescaler"]["shift"]),
            scale=np.asarray(doc["rescaler"]["scale"]),
        )
        maps = tuple(
            PPMMMap(
                steps=tuple(
                    PPMMStep(
                        direction=Direction(np.asarray(s["direction"])),
                        map1d=_map1d_from_dict(s["map1d"]),
                    )
                    for s in entry["steps"]
                ),
                dim=rescaler.dim,
            )
            for entry in doc["maps"]
        )
        model = DPPMMModel(
            rescaler=rescaler, times=np.asarray(doc["times"]), maps=maps
        )
        provenance = doc.get("provenance", {})
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"model file invalid: {exc!r}") from exc
    return model, provenance


def save_model(path, model: DPPMMModel, provenance: dict) -> None:
    """Write the model as compact deterministic JSON."""
    doc = model_to_dict(model, provenance)
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path) -> tuple[DPPMMModel, dict]:
    """Read and validate a model file; returns (model, provenance)."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"model file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
