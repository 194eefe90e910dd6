import argparse
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dppmm
from dppmm.cli import _build_parser, main
from dppmm.core import SnapshotSeries, read_snapshot_dir, write_snapshot_dir
from dppmm.dynamic import train_dppmm
from dppmm.modelio import load_model

README = Path(__file__).resolve().parents[1] / "README.md"

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
            assert all(len(x) == 300 for x in series.samples)
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

    @pytest.mark.parametrize(
        "system,d,rule",
        [("ou", "0", "the ou system requires d >= 2, got d = 0"),
         ("lorenz96", "0", "the lorenz96 system requires d >= 4, got d = 0"),
         ("ou", "-3", "the ou system requires d >= 2, got d = -3")],
        ids=["ou-0", "lorenz96-0", "ou-minus-3"],
    )
    def test_too_small_dimension_exits_2_naming_the_rule(
        self, tmp_path, capsys, system, d, rule
    ):
        rc = main(
            ["simulate", "--system", system, "--d", d, "--n", "10", "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {rule}\n"
        assert not (tmp_path / "x").exists()

    def test_unknown_system_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--system", "heat", "--out", str(tmp_path / "x")])
        assert info.value.code == 2


class TestTrain:
    def test_model_is_loadable_with_provenance(self, pipeline):
        model, provenance = load_model(pipeline["model"])
        assert len(model.maps) == 5
        assert provenance["seed"] == 5
        # train runs the library's fixed fit settings, so only the seed is an input
        assert "bandwidth" not in provenance
        assert "alpha" not in provenance and "max_iter" not in provenance
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
        assert all(len(x) == 200 for x in series.samples)
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
        series = SnapshotSeries(times, [rng.normal(t, 1.0, size=(50, 2)) for t in times])
        write_snapshot_dir(series, tmp_path / "data")
        model = tmp_path / "model.json"
        rc = main(
            [
                "train", "--data", str(tmp_path / "data"), "--out", str(model),
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

    def test_summary_reports_max_abs_of_written_snapshots(self, pipeline, tmp_path, capsys):
        for command, extra in (("sample", []), ("interpolate", ["--times", "0.1", "0.6"])):
            out = tmp_path / command
            rc = main(
                [
                    command, "--model", str(pipeline["model"]), "--n", "50",
                    "--seed", "3", *extra, "--out", str(out),
                ]
            )
            assert rc == 0
            summary = json.loads(capsys.readouterr().out)
            written = read_snapshot_dir(out)
            assert summary["max_abs"] == [float(np.abs(x).max()) for x in written.samples]

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
        mid = series.samples[0]
        spread = np.abs(gen.samples[0] - gen.samples[1]).max()
        assert np.abs(mid - gen.samples[0]).max() < 2.0 * spread

    def test_matches_not_a_knot_spline_through_sample_output(self, pipeline, tmp_path):
        # interpolate fits its splines on the data-unit matrices sample
        # writes, so scipy's spline through those CSVs reproduces it; measured
        # worst error 5.6e-16
        interp = pytest.importorskip("scipy.interpolate")
        out = tmp_path / "between"
        times = ["0.1", "0.3", "0.6", "0.95"]
        rc = main(
            [
                "interpolate", "--model", str(pipeline["model"]),
                "--times", *times, "--n", "200", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        gen = read_snapshot_dir(pipeline["gen"])
        oracle = interp.CubicSpline(
            gen.times, np.stack(gen.samples), axis=0, bc_type="not-a-knot"
        )
        between = read_snapshot_dir(out)
        for t, mat in zip(between.times, between.samples):
            np.testing.assert_allclose(mat, oracle(t), rtol=0, atol=1e-12)

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
        # the largest |x| of each compared snapshot sits beside its figure
        for name, key in (("train", "max_abs_a"), ("test", "max_abs_b")):
            series = read_snapshot_dir(pipeline["data"] / name)
            assert [e[key] for e in per] == [float(np.abs(x).max()) for x in series.samples]
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
            {"d": 2, "snapshots": []},
            {"d": 2.5, "snapshots": [{"time": 0.0, "file": "x.csv", "n": 1}]},
            {"d": True, "snapshots": [{"time": 0.0, "file": "x.csv", "n": 1}]},
            {"d": 2, "snapshots": [{"time": 0.0, "file": "x.csv", "n": 1.5}]},
            {"d": 2, "snapshots": [{"time": 0.0, "file": "x.csv", "n": 0}]},
            {"d": 2, "snapshots": [{"time": "0", "file": "x.csv", "n": 1}]},
            {"d": 2, "snapshots": [{"time": True, "file": "x.csv", "n": 1}]},
            {"d": 2, "snapshots": [{"time": 0.0, "file": ["x.csv"], "n": 1}]},
        ],
        ids=[
            "empty", "no-snapshots", "list", "entry-without-file", "missing-file",
            "empty-snapshots", "fractional-d", "bool-d", "fractional-n", "zero-n",
            "string-time", "bool-time", "list-file",
        ],
    )
    def test_malformed_manifest_exits_2(self, pipeline, tmp_path, capsys, manifest):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps(manifest))
        # a file that int(d), int(n) and float(time) would have accepted
        (bad / "x.csv").write_text("0.5,0.5\n")
        rc = main(["evaluate", "--a", str(bad), "--b", str(pipeline["data"] / "test")])
        assert rc == 2
        rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error: manifest") == 2
        assert "Traceback" not in err

    def test_worker_thread_error_exits_2(self, pipeline, tmp_path, capsys):
        # a one-row snapshot passes the directory checks; gmmd2 rejects it in
        # a worker thread, and the error still reaches the exit code
        test = read_snapshot_dir(pipeline["data"] / "test")
        samples = list(test.samples)
        samples[2] = samples[2][:1]
        write_snapshot_dir(SnapshotSeries(test.times, samples), tmp_path / "one_row")
        rc = main(
            [
                "evaluate", "--a", str(tmp_path / "one_row"),
                "--b", str(pipeline["data"] / "test"),
            ]
        )
        assert rc == 2
        assert "x needs at least 2 rows, got 1" in capsys.readouterr().err

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
            (["train", "--data", "x", "--out", "y"], ["--bandwidth", "scott"]),
            (["train", "--data", "x", "--out", "y"], ["--bandwidth", "isj"]),
            (["sample", "--model", "x", "--out", "y"], ["--keep-rescaled"]),
            (
                ["interpolate", "--model", "x", "--times", "0", "--out", "y"],
                ["--keep-rescaled"],
            ),
            (["evaluate", "--a", "x", "--b", "y"], ["--grid-min", "0.1"]),
            (["evaluate", "--a", "x", "--b", "y"], ["--grid-max", "10"]),
            (["evaluate", "--a", "x", "--b", "y"], ["--grid-size", "5"]),
            (["train", "--data", "x", "--out", "y"], ["--alpha", "1e-3"]),
            (["train", "--data", "x", "--out", "y"], ["--max-iter", "2"]),
            (["evaluate", "--a", "x", "--b", "y"], ["--estimator", "linear"]),
        ],
        ids=[
            "train-bins", "train-margin", "train-floor", "train-bandwidth-scott",
            "train-bandwidth-isj", "sample-keep-rescaled",
            "interpolate-keep-rescaled", "evaluate-grid-min", "evaluate-grid-max",
            "evaluate-grid-size", "train-alpha", "train-max-iter", "evaluate-estimator",
        ],
    )
    def test_removed_flag_is_usage_error(self, command, flag):
        with pytest.raises(SystemExit) as info:
            main([*command, *flag])
        assert info.value.code == 2

    def test_settable_value_count(self):
        # every option and positional of every subcommand except --help; a new
        # one changes this count and the README's together
        subparsers = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        settable = {
            name: [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            for name, sub in subparsers.choices.items()
        }
        assert {name: len(dests) for name, dests in settable.items()} == {
            "simulate": 7, "train": 5, "sample": 4, "interpolate": 5, "evaluate": 3,
        }
        assert sum(len(dests) for dests in settable.values()) == 24

    def test_library_knob_count(self):
        # every parameter with a default of every public function of every
        # module, and every defaulted init field of every public dataclass;
        # a new library knob changes these counts and the README's together
        knobs, fields = {}, {}
        for info in pkgutil.iter_modules(dppmm.__path__):
            module = importlib.import_module(f"dppmm.{info.name}")
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    params = inspect.signature(obj).parameters.values()
                    knobs[f"{info.name}.{name}"] = [
                        p.name for p in params if p.default is not p.empty
                    ]
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    fields[f"{info.name}.{name}"] = [
                        f.name
                        for f in dataclasses.fields(obj)
                        if f.init
                        and (
                            f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING
                        )
                    ]
        assert {name: len(k) for name, k in knobs.items() if k} == {
            "cli.main": 1,
            "dynamic.train_dppmm": 6,
            "metrics.gmmd2": 2,
            "metrics.per_snapshot_gmmd2": 1,
            "ppmm.fit_ppmm": 3,
            "sde.benchmark_system": 1,
            "sde.euler_maruyama": 2,
            "sde.make_benchmark": 2,
        }
        assert sum(len(k) for k in knobs.values()) == 18
        assert {name: k for name, k in fields.items() if k} == {"ppmm.PPMMMap": ["maps1d"]}

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

    def test_readme_library_block_runs(self):
        # the README's library example, run as written in a fresh interpreter
        text = README.read_text(encoding="utf-8").split("## Library")[1]
        block = text.split("```python\n")[1].split("```")[0]
        proc = _run_python(block, "src")
        assert proc.returncode == 0, proc.stderr

    def test_benchmark_tracer_finds_what_it_wraps(self, tmp_path):
        # the traced benchmark pass wraps package functions by name, reads the
        # IO functions' path argument by position and train_dppmm's parallel
        # keyword; a tiny traced pipeline must fill every per-layer metric
        code = f"""
import contextlib, io, json
from pathlib import Path
from run import PER_LAYER
from tracing import Tracer
tracer = Tracer()
tracer.install()
from dppmm.cli import main
base = Path({str(tmp_path)!r})
data, model = base / "data", str(base / "model")
calls = [
    ["simulate", "--system", "ou", "--d", "3", "--n", "120", "--m", "5", "--dt", "0.05",
     "--out", str(data)],
    ["train", "--data", str(data / "train"), "--out", model, "--parallel", "--threads", "2"],
    ["train", "--data", str(data / "train"), "--out", model],
    ["sample", "--model", model, "--n", "120", "--out", str(base / "gen")],
    ["interpolate", "--model", model, "--n", "120", "--times", "0.125", "0.375",
     "--out", str(base / "mid")],
    ["evaluate", "--a", str(base / "gen"), "--b", str(data / "test")],
    ["evaluate", "--a", str(base / "gen" / "snapshot_0000.csv"),
     "--b", str(data / "test" / "snapshot_0000.csv")],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
print(json.dumps({{"codes": codes, "metrics": tracer.metrics(), "expected": sorted(PER_LAYER)}}))
"""
        proc = _run_python(code, "src", "perfbench")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["codes"] == [0] * 7
        metrics = out["metrics"]
        # run.py adds trace.overhead_s itself, from the traced round's times
        assert sorted(metrics) == [k for k in out["expected"] if k != "trace.overhead_s"]
        assert {k for k, v in metrics.items() if not v > 0} <= {"ppmm.maps_at_cap"}
        assert "parallel" in inspect.signature(train_dppmm).parameters
