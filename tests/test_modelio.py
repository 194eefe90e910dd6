import json

import numpy as np
import pytest

from dppmm.core import Snapshot, SnapshotSeries
from dppmm.dynamic import generate, train_dppmm
from dppmm.modelio import (
    SCHEMA_VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    reports_to_list,
    save_model,
)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(140)
    snaps = tuple(
        Snapshot(float(j), rng.normal(size=(400, 2)) * 0.4 + j)
        for j in range(3)
    )
    model, reports = train_dppmm(SnapshotSeries(snaps), seed=4)
    provenance = {
        "seed": 4,
        "alpha": 1e-3,
        "reports": reports_to_list(reports),
    }
    return model, reports, provenance


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path, trained):
        model, _, provenance = trained
        p1 = tmp_path / "model.json"
        p2 = tmp_path / "model2.json"
        save_model(p1, model, provenance)
        loaded, loaded_prov = load_model(p1)
        save_model(p2, loaded, loaded_prov)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_evaluates_bit_exactly(self, tmp_path, trained):
        model, _, provenance = trained
        path = tmp_path / "model.json"
        save_model(path, model, provenance)
        loaded, _ = load_model(path)
        a = generate(model, 300, seed=7)
        b = generate(loaded, 300, seed=7)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    def test_provenance_preserved(self, tmp_path, trained):
        model, reports, provenance = trained
        path = tmp_path / "model.json"
        save_model(path, model, provenance)
        _, loaded_prov = load_model(path)
        assert loaded_prov["seed"] == 4
        assert loaded_prov["reports"] == reports_to_list(reports)

    def test_file_layout(self, tmp_path, trained):
        model, _, provenance = trained
        path = tmp_path / "model.json"
        save_model(path, model, provenance)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert set(doc) == {
            "schema_version",
            "rescaler",
            "times",
            "maps",
            "provenance",
        }
        # compact separators: no spaces after commas or colons
        assert ", " not in text and ": " not in text
        # a regularized step stores no grid: it is linspace(lo, hi, len(cdf))
        map1d = doc["maps"][0]["steps"][0]["map1d"]
        assert set(map1d) == {"variant", "cdf_source", "cdf_target", "lo", "hi"}
        assert map1d["variant"] == "regularized"


class TestValidationOnLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_model(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_model(path)

    def test_wrong_schema_version(self, trained):
        model, _, provenance = trained
        doc = model_to_dict(model, provenance)
        doc["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            model_from_dict(doc)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_schema_version_rejected(self, trained, version):
        model, _, provenance = trained
        doc = model_to_dict(model, provenance)
        doc["schema_version"] = version
        with pytest.raises(ValueError, match="schema_version"):
            model_from_dict(doc)

    def test_missing_key_reports_invalid(self, trained):
        model, _, provenance = trained
        doc = model_to_dict(model, provenance)
        del doc["rescaler"]
        with pytest.raises(ValueError, match="invalid"):
            model_from_dict(doc)

    def test_corrupt_direction_caught_by_domain_validation(self, trained):
        model, _, provenance = trained
        doc = json.loads(json.dumps(model_to_dict(model, provenance)))
        doc["maps"][0]["steps"][0]["direction"] = [5.0, 5.0]
        with pytest.raises(ValueError, match="unit norm"):
            model_from_dict(doc)

    def test_unknown_map_variant(self, trained):
        model, _, provenance = trained
        doc = json.loads(json.dumps(model_to_dict(model, provenance)))
        doc["maps"][0]["steps"][0]["map1d"]["variant"] = "spline"
        with pytest.raises(ValueError, match="variant"):
            model_from_dict(doc)

    @pytest.mark.parametrize("where", ["cdf_source", "knots_x", "times"])
    def test_nan_in_file_rejected(self, tmp_path, trained, where):
        # json accepts the NaN literal, so the domain constructors must refuse it
        model, _, provenance = trained
        doc = model_to_dict(model, provenance)
        if where == "times":
            doc["times"][1] = float("nan")
        elif where == "cdf_source":
            doc["maps"][0]["steps"][0]["map1d"]["cdf_source"][3] = float("nan")
        else:
            doc["maps"][0]["steps"][0]["map1d"] = {
                "variant": "sorted", "knots_x": [0.0, float("nan"), 1.0],
                "knots_y": [0.0, 1.0, 2.0],
            }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        with pytest.raises(ValueError, match="finite"):
            load_model(path)

    def test_nan_rejected_at_save(self, trained):
        model, _, _ = trained
        with pytest.raises(ValueError):
            save_model("/dev/null", model, {"bad": float("nan")})
