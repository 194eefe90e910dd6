import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dppmm.cli import main
from dppmm.core import Snapshot, SnapshotSeries, read_snapshot_dir, write_snapshot_dir
from dppmm.dynamic import train_dppmm
from dppmm.modelio import load_model


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate -> train -> sample run shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli")
    data = base / "data"
    model = base / "model.json"
    gen = base / "gen"
    rc = main(
        [
            "simulate", "--system", "vdp", "--n", "300", "--m", "5",
            "--dt", "0.005", "--seed", "3", "--out", str(data),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train", "--data", str(data / "train"), "--out", str(model),
            "--seed", "5",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "sample", "--model", str(model), "--n", "200", "--seed", "7",
            "--out", str(gen),
        ]
    )
    assert rc == 0
    return {"base": base, "data": data, "model": model, "gen": gen}


class TestSimulate:
    def test_writes_train_and_test_splits(self, pipeline):
        for split in ("train", "test"):
            series = read_snapshot_dir(pipeline["data"] / split)
            assert len(series) == 5
            assert all(s.n == 300 for s in series)
            assert series.dim == 2

    def test_byte_reproducible(self, pipeline, tmp_path):
        rc = main(
            [
                "simulate", "--system", "vdp", "--n", "300", "--m", "5",
                "--dt", "0.005", "--seed", "3", "--out", str(tmp_path / "again"),
            ]
        )
        assert rc == 0
        for split in ("train", "test"):
            for name in ("manifest.json", "snapshot_0000.csv", "snapshot_0004.csv"):
                assert (tmp_path / "again" / split / name).read_bytes() == (
                    pipeline["data"] / split / name
                ).read_bytes()

    def test_invalid_dimension_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--system", "vdp", "--d", "3", "--n", "10",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_system_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--system", "heat", "--out", str(tmp_path / "x")])
        assert info.value.code == 2


class TestTrain:
    def test_model_is_loadable_with_provenance(self, pipeline):
        model, provenance = load_model(pipeline["model"])
        assert len(model.maps) == 5
        assert provenance["seed"] == 5
        assert provenance["bandwidth"] == "scott"
        assert provenance["alpha"] == 1e-3
        assert len(provenance["reports"]) == 5

    def test_retrain_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "model2.json"
        rc = main(
            [
                "train", "--data", str(pipeline["data"] / "train"),
                "--out", str(out), "--seed", "5",
            ]
        )
        assert rc == 0
        assert out.read_bytes() == pipeline["model"].read_bytes()

    def test_threaded_training_same_bytes(self, pipeline, tmp_path):
        out = tmp_path / "model_par.json"
        rc = main(
            [
                "train", "--data", str(pipeline["data"] / "train"),
                "--out", str(out), "--seed", "5",
                "--threads", "3",
            ]
        )
        assert rc == 0
        assert out.read_bytes() == pipeline["model"].read_bytes()

    def test_progress_lines_then_summary(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "train", "--data", str(pipeline["data"] / "train"),
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        pair_lines, summary = lines[:-1], lines[-1]
        assert [e["pair"] for e in pair_lines] == [0, 1, 2, 3, 4]
        for entry in pair_lines:
            assert entry["stop_reason"] in (
                "tolerance", "max_iter", "no_informative_direction"
            )
            assert entry["k_final"] >= 0 and entry["w2"] >= 0.0
        assert summary["command"] == "train"
        assert summary["maps"] == 5
        assert summary["seconds"] >= 0.0

    def test_bad_bandwidth_exits_2(self, pipeline, tmp_path, capsys):
        for text in ("gauss", "fixed:0.075"):
            with pytest.raises(SystemExit) as info:
                main(
                    [
                        "train", "--data", str(pipeline["data"] / "train"),
                        "--out", str(tmp_path / "m.json"), "--bandwidth", text,
                    ]
                )
            assert info.value.code == 2
        assert "--bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("parallel", [[], ["--parallel"]], ids=["sequential", "parallel"])
    def test_threads_below_one_exits_2(self, pipeline, tmp_path, capsys, threads, parallel):
        out = tmp_path / "m.json"
        rc = main(
            [
                "train", "--data", str(pipeline["data"] / "train"),
                "--out", str(out), "--threads", threads, *parallel,
            ]
        )
        assert rc == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestSample:
    def test_output_layout_and_units(self, pipeline):
        series = read_snapshot_dir(pipeline["gen"])
        assert len(series) == 5
        assert all(s.n == 200 for s in series)
        # simulate writes times in [0, 1] and sample writes the training times
        np.testing.assert_allclose(series.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)

    def test_seed_reproducible(self, pipeline, tmp_path):
        rc = main(
            [
                "sample", "--model", str(pipeline["model"]), "--n", "200",
                "--seed", "7", "--out", str(tmp_path / "again"),
            ]
        )
        assert rc == 0
        for name in ("manifest.json", "snapshot_0003.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (
                pipeline["gen"] / name
            ).read_bytes()

    def test_times_stay_in_data_units(self, tmp_path):
        # a time rescaling round trip wrote 0.09999999999999999 for 0.1 here
        times = (0.0, 0.1, 2.9)
        rng = np.random.default_rng(0)
        series = SnapshotSeries(
            tuple(Snapshot(t, rng.normal(t, 1.0, size=(50, 2))) for t in times)
        )
        write_snapshot_dir(series, tmp_path / "data")
        model = tmp_path / "model.json"
        rc = main(
            [
                "train", "--data", str(tmp_path / "data"), "--out", str(model),
                "--max-iter", "2",
            ]
        )
        assert rc == 0
        rc = main(
            ["sample", "--model", str(model), "--n", "20", "--out", str(tmp_path / "gen")]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "gen" / "manifest.json").read_text())
        assert [e["time"] for e in manifest["snapshots"]] == list(times)
        rc = main(
            [
                "interpolate", "--model", str(model), "--n", "20",
                "--times", "0.0", "1.5", "2.9", "--out", str(tmp_path / "mid"),
            ]
        )
        assert rc == 0
        np.testing.assert_array_equal(read_snapshot_dir(tmp_path / "mid").times, [0.0, 1.5, 2.9])

    def test_missing_model_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "sample", "--model", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestInterpolate:
    def test_knot_time_matches_sample_output_exactly(self, pipeline, tmp_path):
        manifest = json.loads((pipeline["gen"] / "manifest.json").read_text())
        knot = manifest["snapshots"][1]["time"]
        out = tmp_path / "interp"
        rc = main(
            [
                "interpolate", "--model", str(pipeline["model"]),
                "--times", repr(knot), "--n", "200", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "snapshot_0000.csv").read_bytes() == (
            pipeline["gen"] / "snapshot_0001.csv"
        ).read_bytes()

    def test_between_knots_blends_neighbors(self, pipeline, tmp_path):
        out = tmp_path / "mid"
        rc = main(
            [
                "interpolate", "--model", str(pipeline["model"]),
                "--times", "0.125", "0.375", "--n", "200", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        series = read_snapshot_dir(out)
        assert len(series) == 2
        np.testing.assert_allclose(series.times, [0.125, 0.375])
        gen = read_snapshot_dir(pipeline["gen"])
        # trajectories are continuous: the interpolant stays near the
        # bracketing snapshots
        mid = series[0].samples
        spread = np.abs(gen[0].samples - gen[1].samples).max()
        assert np.abs(mid - gen[0].samples).max() < 2.0 * spread

    def test_out_of_range_time_exits_2(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "interpolate", "--model", str(pipeline["model"]),
                "--times", "7.5", "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "outside" in capsys.readouterr().err

    def test_non_increasing_times_exit_2(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "interpolate", "--model", str(pipeline["model"]),
                "--times", "0.5", "0.25", "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "increasing" in capsys.readouterr().err


class TestEvaluate:
    def test_report_structure_and_average(self, pipeline, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "evaluate", "--a", str(pipeline["data"] / "train"),
                "--b", str(pipeline["data"] / "test"),
                "--out", str(report_path),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        report = json.loads(stdout)
        assert report_path.read_text() == stdout
        assert report["command"] == "evaluate"
        assert len(report["grid"]) == 15
        assert report["grid"][0] == pytest.approx(1e-2)
        assert report["grid"][-1] == pytest.approx(1e2)
        per = report["per_snapshot"]
        assert len(per) == 5
        assert all(e["estimator"] == "quadratic" for e in per)
        np.testing.assert_allclose(
            report["average_gmmd2"], np.mean([e["gmmd2"] for e in per]), rtol=1e-12
        )
        # independent draws of the same law: small discrepancy
        assert report["average_gmmd2"] < 0.05

    def test_directory_against_itself_lands_in_unbiased_band(
        self, pipeline, capsys
    ):
        rc = main(
            [
                "evaluate", "--a", str(pipeline["data"] / "train"),
                "--b", str(pipeline["data"] / "train"),
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for entry in report["per_snapshot"]:
            assert -2.0 / 300 <= entry["gmmd2"] < 0.0

    def test_single_csv_inputs(self, pipeline, capsys):
        csv = pipeline["data"] / "train" / "snapshot_0002.csv"
        rc = main(["evaluate", "--a", str(csv), "--b", str(csv)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["per_snapshot"]) == 1

    @pytest.mark.parametrize(
        "text",
        ["", "1.0,2.0\n3.0,abc\n", "1.0,2.0\n3.0\n"],
        ids=["empty", "non-numeric", "ragged"],
    )
    def test_bad_csv_exits_2(self, pipeline, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        csv = pipeline["data"] / "train" / "snapshot_0000.csv"
        rc = main(["evaluate", "--a", str(bad), "--b", str(csv)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest",
        [
            {},
            {"d": 2},
            [],
            {"d": 2, "snapshots": [{"time": 0.0, "n": 1}]},
            {"d": 2, "snapshots": [{"time": 0.0, "file": "nope.csv", "n": 1}]},
        ],
        ids=["empty", "no-snapshots", "list", "entry-without-file", "missing-file"],
    )
    def test_malformed_manifest_exits_2(self, pipeline, tmp_path, capsys, manifest):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["evaluate", "--a", str(bad), "--b", str(pipeline["data"] / "test")])
        assert rc == 2
        rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error: manifest") == 2
        assert "Traceback" not in err

    def test_count_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        csv = pipeline["data"] / "train" / "snapshot_0000.csv"
        rc = main(
            ["evaluate", "--a", str(pipeline["data"] / "train"), "--b", str(csv)]
        )
        assert rc == 2
        assert "counts differ" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_data_dir_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "train", "--data", str(tmp_path / "absent"),
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        assert "manifest" in capsys.readouterr().err

    def test_unwritable_output_exits_1(self, pipeline, capsys):
        rc = main(
            [
                "train", "--data", str(pipeline["data"] / "train"),
                "--out", "/nonexistent-dir-for-test/model.json",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", "x", "--out", "y", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["train", "--data", "x", "--out", "y"], ["--bins", "200"]),
            (["train", "--data", "x", "--out", "y"], ["--margin", "0.25"]),
            (["train", "--data", "x", "--out", "y"], ["--floor", "1e-8"]),
            (["sample", "--model", "x", "--out", "y"], ["--keep-rescaled"]),
            (
                ["interpolate", "--model", "x", "--times", "0", "--out", "y"],
                ["--keep-rescaled"],
            ),
            (["evaluate", "--a", "x", "--b", "y"], ["--grid-min", "0.1"]),
            (["evaluate", "--a", "x", "--b", "y"], ["--grid-max", "10"]),
            (["evaluate", "--a", "x", "--b", "y"], ["--grid-size", "5"]),
        ],
        ids=[
            "train-bins", "train-margin", "train-floor", "sample-keep-rescaled",
            "interpolate-keep-rescaled", "evaluate-grid-min", "evaluate-grid-max",
            "evaluate-grid-size",
        ],
    )
    def test_removed_flag_is_usage_error(self, command, flag):
        with pytest.raises(SystemExit) as info:
            main([*command, *flag])
        assert info.value.code == 2

    def test_help_via_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dppmm.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "evaluate" in proc.stdout


def _run_python(code: str, *dirs: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with the repo's ``dirs`` on PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*(str(root / d) for d in dirs), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


class TestImport:
    def test_import_does_not_load_scipy(self):
        # the library is numpy-only; scipy would add most of every call's startup
        code = (
            "import sys, dppmm.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = _run_python(code, "src")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_benchmark_tracer_finds_what_it_wraps(self):
        # the traced benchmark pass wraps package functions by name and reads
        # train_dppmm's parallel keyword; renaming either breaks that pass
        proc = _run_python("from tracing import Tracer; Tracer().install()", "src", "perfbench")
        assert proc.returncode == 0, proc.stderr
        assert "parallel" in inspect.signature(train_dppmm).parameters
