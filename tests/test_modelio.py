import hashlib
import io
import json
import re
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from dppmm.cli import main
from dppmm.core import SnapshotSeries, write_snapshot_dir
from dppmm.dynamic import generate, train_dppmm
from dppmm.modelio import SCHEMA_VERSION, load_model, reports_to_list, save_model
from dppmm.ot1d import KDE_BINS

README = Path(__file__).resolve().parents[1] / "README.md"


def drifting_series(seed=140):
    rng = np.random.default_rng(seed)
    return SnapshotSeries(range(3), [rng.normal(size=(400, 2)) * 0.4 + j for j in range(3)])


def fit(series, **kwargs):
    model, reports = train_dppmm(series, seed=4, **kwargs)
    provenance = {"seed": 4, "alpha": 1e-3, "reports": reports_to_list(reports)}
    return model, reports, provenance


@pytest.fixture(scope="module")
def trained():
    return fit(drifting_series())


@pytest.fixture(scope="module")
def sorted_model():
    return fit(drifting_series(), bandwidth=None)


@pytest.fixture(scope="module")
def zero_step_model():
    # snapshot 1 repeats snapshot 0, so map 1 stops before its first step
    x0, _, x2 = drifting_series().samples
    model, reports, provenance = fit(SnapshotSeries(range(3), [x0, x0, x2]))
    assert reports[1].stop_reason == "no_informative_direction"
    assert reports[1].k_final == 0 and model.steps[1] == 0
    return model, reports, provenance


def entries(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def write_entries(path, content: dict[str, bytes]) -> None:
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in content.items():
            archive.writestr(name, data)


def npy(arr, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=allow_pickle)
    return buf.getvalue()


def array(content, name) -> np.ndarray:
    return np.lib.format.read_array(io.BytesIO(content[name + ".npy"])).copy()


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path, trained):
        model, _, provenance = trained
        p1 = tmp_path / "model.npz"
        p2 = tmp_path / "model2.npz"
        save_model(p1, model, provenance)
        loaded, loaded_prov = load_model(p1)
        save_model(p2, loaded, loaded_prov)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_evaluates_bit_exactly(self, tmp_path, trained):
        model, _, provenance = trained
        path = tmp_path / "model.npz"
        save_model(path, model, provenance)
        loaded, _ = load_model(path)
        a = generate(model, 300, seed=7)
        b = generate(loaded, 300, seed=7)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    @pytest.mark.parametrize("fixture", ["sorted_model", "zero_step_model"])
    def test_edge_case_round_trip(self, tmp_path, request, fixture):
        model, _, provenance = request.getfixturevalue(fixture)
        p1 = tmp_path / "model.npz"
        p2 = tmp_path / "model2.npz"
        save_model(p1, model, provenance)
        loaded, loaded_prov = load_model(p1)
        save_model(p2, loaded, loaded_prov)
        assert p1.read_bytes() == p2.read_bytes()
        for ma, mb in zip(generate(model, 300, seed=7), generate(loaded, 300, seed=7)):
            np.testing.assert_array_equal(ma, mb)

    def test_fortran_order_entries_load_alike(self, tmp_path, trained):
        model, _, provenance = trained
        save_model(tmp_path / "model.npz", model, provenance)
        content = entries(tmp_path / "model.npz")
        matrices = ("directions", "knots_x", "knots_y")
        for name in matrices:
            content[name + ".npy"] = npy(np.asfortranarray(getattr(model, name)))
            assert b"'fortran_order': True" in content[name + ".npy"]
        write_entries(tmp_path / "fortran.npz", content)
        loaded, _ = load_model(tmp_path / "fortran.npz")
        for name in matrices:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))

    def test_provenance_preserved(self, tmp_path, trained):
        model, reports, provenance = trained
        path = tmp_path / "model.npz"
        save_model(path, model, provenance)
        _, loaded_prov = load_model(path)
        assert loaded_prov["seed"] == 4
        assert loaded_prov["reports"] == reports_to_list(reports)

    def test_writes_exactly_the_given_path(self, tmp_path, trained):
        model, _, provenance = trained
        save_model(tmp_path / "model.json", model, provenance)
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch, trained):
        model, _, provenance = trained
        real_localtime = time.localtime
        paths = []
        for k, now in enumerate((1.0e9, 2.0e9)):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            monkeypatch.setattr(
                time, "localtime", lambda secs=None, now=now: real_localtime(now)
            )
            paths.append(tmp_path / f"m{k}.npz")
            save_model(paths[-1], model, provenance)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_file_layout(self, tmp_path, zero_step_model):
        model, reports, provenance = zero_step_model
        path = tmp_path / "model.npz"
        save_model(path, model, provenance)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert all(i.compress_type == zipfile.ZIP_STORED for i in infos)
        assert all(i.date_time == (1980, 1, 1, 0, 0, 0) for i in infos)
        assert [i.filename for i in infos] == [
            "header.json", "shift.npy", "scale.npy", "times.npy", "steps.npy",
            "directions.npy", "knots_x.npy", "knots_y.npy",
        ]
        content = entries(path)
        header = json.loads(content["header.json"])
        assert header == {"schema_version": SCHEMA_VERSION, "provenance": provenance}
        steps = array(content, "steps")
        assert steps.dtype == np.int64 and steps.tolist() == [r.k_final for r in reports]
        assert array(content, "directions").shape == (steps.sum(), 2)
        # KDE maps: knots_x is each step's grid, knots_y its image
        knots_x = array(content, "knots_x")
        assert knots_x.shape == array(content, "knots_y").shape == (steps.sum(), KDE_BINS)
        assert np.all(np.diff(knots_x, axis=1) > 0)

    def test_cli_train_file_bytes_are_pinned(self, tmp_path):
        # SHA-256 of the schema-7 file that `train` (scott maps) writes; a
        # refactor of the in-memory chain must keep the file byte for byte
        write_snapshot_dir(drifting_series(), tmp_path / "data")
        path = tmp_path / "model.npz"
        assert main(["train", "--data", str(tmp_path / "data"), "--out", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "6c2a5b16082b869baf303d4e6e4a283ffe6121e220d3198b4a27d4bc662f3a2e"

    @pytest.mark.parametrize(
        "fixture, digest",
        [
            ("sorted_model", "5b3534d19726912e4f78d66296ff916a1037f65b4a3046b8fa5d534791f0b69e"),
            ("zero_step_model", "7903a2fc55a44194b5a78917a6287d06059a1b3cdfde840e8ffda337dbaf4598"),
        ],
    )
    def test_saved_file_bytes_are_pinned(self, tmp_path, request, fixture, digest):
        model, _, provenance = request.getfixturevalue(fixture)
        path = tmp_path / "model.npz"
        save_model(path, model, provenance)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_sorted_map_layout(self, tmp_path, sorted_model):
        model, reports, provenance = sorted_model
        path = tmp_path / "model.npz"
        save_model(path, model, provenance)
        content = entries(path)
        steps = sum(r.k_final for r in reports)
        assert array(content, "knots_x").shape == array(content, "knots_y").shape == (steps, 400)


def readme_entry_names() -> set[str]:
    section = README.read_text(encoding="utf-8").split("## Model file format")[1]
    block = section.split("```")[1]
    return {line.split()[0] for line in block.splitlines()[1:] if line[:1].strip()}


def test_cli_model_opens_with_plain_numpy_and_matches_readme(tmp_path):
    write_snapshot_dir(drifting_series(), tmp_path / "data")
    path = tmp_path / "model.json"
    rc = main(["train", "--data", str(tmp_path / "data"), "--out", str(path)])
    assert rc == 0
    with np.load(path, allow_pickle=False) as archive:
        names = set(archive.files)
        header = json.loads(archive["header.json"])
        assert archive["times"].tolist() == [0.0, 1.0, 2.0]
        assert archive["directions"].shape[1] == 2
    assert header["schema_version"] == SCHEMA_VERSION
    assert names == readme_entry_names()


def edit(fn):
    """A corruption that rewrites the archive's entries with fn(entries)."""

    def make(src: Path, dst: Path):
        content = entries(src)
        fn(content)
        write_entries(dst, content)

    return make


def set_array(name, change):
    def fn(content):
        content[name + ".npy"] = npy(change(array(content, name)))

    return edit(fn)


def set_header(**changes):
    def fn(content):
        header = json.loads(content["header.json"])
        header.update(changes)
        content["header.json"] = json.dumps(header).encode()

    return edit(fn)


def set_item(index, value):
    def change(arr):
        arr[index] = value
        return arr

    return change


def huge_times(content):
    # a times entry whose header declares 8 TiB of float64 over 24 data bytes
    buf = io.BytesIO()
    header = {"descr": "<f8", "fortran_order": False, "shape": (2**40,)}
    np.lib.format.write_array_header_1_0(buf, header)
    content["times.npy"] = buf.getvalue() + bytes(24)


V4_JSON = (
    '{"schema_version":4,"rescaler":{"shift":[0.0,0.0],"scale":[1.0,1.0]},'
    '"times":[0.0],"maps":[{"steps":[]}],"provenance":{}}\n'
)

# name -> (make(src, dst) writing a corrupted copy of the model at src, match)
CORRUPTIONS = {
    "schema-v4 json": (
        lambda src, dst: dst.write_text(V4_JSON, encoding="utf-8"), "not a schema-7"
    ),
    "truncated archive": (
        lambda src, dst: dst.write_bytes(src.read_bytes()[: src.stat().st_size // 2]),
        "not a schema-7",
    ),
    "missing entry": (edit(lambda c: c.pop("directions.npy")), "invalid"),
    "missing knots": (edit(lambda c: c.pop("knots_y.npy")), r"missing \['knots_y.npy'\]"),
    "missing steps": (edit(lambda c: c.pop("steps.npy")), r"missing \['steps.npy'\]"),
    # an entry of the per-map layout of schema 6: the entry set is fixed
    "stray entry": (
        edit(lambda c: c.update({"map3/direction.npy": npy(np.zeros((0, 2)))})),
        r"unexpected entries \['map3/direction.npy'\]",
    ),
    # steps but no 1D maps for them
    "steps without variant": (
        edit(lambda c: [c.pop(f"knots_{a}.npy") for a in "xy"]),
        r"missing \['knots_x.npy', 'knots_y.npy'\]",
    ),
    "missing header": (edit(lambda c: c.pop("header.json")), "invalid"),
    # refused by its header, before any pickle is read
    "object dtype": (
        edit(lambda c: c.update(
            {"directions.npy": npy(np.array([[1.0, 0.0]], dtype=object), True)}
        )),
        "entry directions has dtype object",
    ),
    "float32 entry": (set_array("times", lambda a: a.astype(np.float32)), "float32"),
    "float64 steps": (
        set_array("steps", lambda a: a.astype(np.float64)),
        "entry steps has dtype float64, expected int64",
    ),
    "header declares more data": (
        edit(huge_times), "entry times holds 24 data bytes, its header declares 8796093022208"
    ),
    # the trained maps are KDE maps: knots_y holds G^-1 (o) F on the grid,
    # so the "cdf" cases corrupt what the CDFs of schema 5 became
    "wrong-shape cdf": (set_array("knots_y", lambda a: a[:, :-1]), "shape"),
    "wrong-shape direction": (
        set_array("directions", lambda a: a[:, :1]), "directions has 1 columns, expected 2"
    ),
    "scale longer than shift": (
        set_array("scale", lambda a: np.append(a, 1.0)), "scale has 3 entries, expected 2"
    ),
    "nan in cdf": (set_array("knots_y", set_item((0, 3), np.nan)), "finite"),
    # the last row, the last step of the last map: a check of row 0 alone
    # misses these
    "nan in last cdf row": (set_array("knots_y", set_item((-1, 3), np.nan)), "finite"),
    "non-unit last direction": (set_array("directions", set_item(-1, [0.6, 0.6])), "unit norm"),
    # map 1's count goes to map 0 and one more, so the sum still holds
    "negative step count": (
        set_array("steps", lambda a: a + [a[1] + 1, -a[1] - 1, 0]),
        r"step count >= 0 per time, got steps \[\d+, -1, \d+\]",
    ),
    "steps not summing to directions": (
        set_array("steps", lambda a: a + [0, 0, 1]), r"step counts sum to \d+, but \d+ directions"
    ),
    "knot rows not direction rows": (
        edit(lambda c: c.update(
            {f"knots_{a}.npy": npy(array(c, f"knots_{a}")[:-1]) for a in "xy"}
        )),
        r"(\d+) directions but (?!\1)\d+ knot rows",
    ),
    "wrong schema_version": (set_header(schema_version=999), "schema_version"),
    "provenance not an object": (set_header(provenance=[]), "provenance object"),
}


@pytest.fixture
def saved(tmp_path, trained):
    model, reports, provenance = trained
    assert reports[-1].k_final >= 2  # so the last-row cases miss row 0
    path = tmp_path / "good.npz"
    save_model(path, model, provenance)
    return path


def rejected(src, make, match):
    """Load the corrupted copy of src; the error must mention match."""
    dst = src.with_name("bad.npz")
    make(src, dst)
    with pytest.raises(ValueError, match=match):
        load_model(dst)


class TestValidationOnLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_model(tmp_path / "absent.npz")

    def test_invalid_json(self, saved):
        rejected(saved, edit(lambda c: c.update({"header.json": b"{not json"})), "invalid")

    def test_wrong_schema_version(self, saved):
        rejected(saved, set_header(schema_version=999), "schema_version")

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_older_schema_version_rejected(self, saved, version):
        rejected(saved, set_header(schema_version=version), "schema_version")

    def test_missing_key_reports_invalid(self, saved):
        rejected(saved, edit(lambda c: c.pop("shift.npy")), "invalid")

    def test_corrupt_direction_caught_by_domain_validation(self, saved):
        rejected(saved, set_array("directions", set_item(0, [5.0, 5.0])), "unit norm")

    @pytest.mark.parametrize("where", ["knots_x", "times"])
    def test_nan_in_file_rejected(self, tmp_path, trained, sorted_model, where):
        model, _, provenance = sorted_model if where == "knots_x" else trained
        path = tmp_path / "good.npz"
        save_model(path, model, provenance)
        index = 1 if where == "times" else (0, 3)
        rejected(path, set_array(where, set_item(index, np.nan)), "finite")

    def test_unknown_map_variant(self, saved):
        # a map stored in any layout but knots is refused by its entry names
        rejected(
            saved,
            edit(lambda c: c.update({"spline.npy": c.pop("knots_y.npy")})),
            r"unexpected entries \['spline.npy'\], missing \['knots_y.npy'\]",
        )

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_load_rejects(self, saved, case):
        rejected(saved, *CORRUPTIONS[case])

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_cli_exits_2(self, saved, case, tmp_path, capsys):
        make, match = CORRUPTIONS[case]
        bad = tmp_path / "bad.npz"
        make(saved, bad)
        rc = main(["sample", "--model", str(bad), "--n", "5", "--out", str(tmp_path / "gen")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and re.search(match, err)
        assert not (tmp_path / "gen").exists()

    def test_nan_rejected_at_save(self, trained):
        model, _, _ = trained
        with pytest.raises(ValueError):
            save_model("/dev/null", model, {"bad": float("nan")})

    def test_decreasing_knots_in_last_row_rejected(self, tmp_path, sorted_model):
        model, reports, provenance = sorted_model
        assert reports[-1].k_final >= 2
        path = tmp_path / "good.npz"
        save_model(path, model, provenance)
        rejected(path, set_array("knots_x", set_item((-1, 0), 1e6)), "nondecreasing")
