"""Benchmark of the dppmm pipeline: simulate, train, sample, interpolate, evaluate.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload lorenz96-d10 --seed 1 --seconds 25 --trace 0

One worker process (``worker.py``) runs whole rounds of the five CLI stages
of one workload until ``--seconds`` of stage time are measured; each round
has its own seed derived from ``--seed``. Every round's outputs are then
checked against the benchmark's own computations (``reference.py``). With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics, means over the rounds. With ``--trace 1`` a second worker runs
one traced round on the inputs of the first, and the object holds the
per-layer metrics instead. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import reference
from workloads import (EVAL_GRID, FLOOR_FACTOR, MMD_BANDWIDTHS, MMD_ROWS, SAMPLE_BOX,
                       WORKLOADS, round_seed)

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
STAGES = ("simulate", "train", "sample", "interpolate", "evaluate")
# every CLI call of a round, in the order the worker makes them
CALLS = ("simulate", "train", "sample", "interpolate",
         "evaluate_knots", "evaluate_heldout", "train_sequential")
# per-layer metric -> unit
PER_LAYER = {
    "sde.euler_maruyama_s": "s", "sde.drift_s": "s", "sde.steps": "count",
    "core.read_s": "s", "core.write_s": "s",
    "core.bytes_read": "bytes", "core.bytes_written": "bytes",
    "modelio.save_s": "s", "modelio.load_s": "s",
    "projection.save_direction_s": "s", "projection.calls": "count",
    "ot1d.fit_regularized_map_s": "s", "ot1d.bandwidth_s": "s", "ot1d.fft_kde_s": "s",
    "ot1d.calls": "count",
    "ppmm.fit_sum_s": "s", "ppmm.fit_max_s": "s", "ppmm.steps": "count",
    "ppmm.maps_at_cap": "count", "ppmm.eval_s": "s",
    "dynamic.train_s": "s", "dynamic.train_sequential_s": "s",
    "dynamic.train_cpu_per_wall": "ratio", "dynamic.generate_s": "s",
    "dynamic.spline_fit_s": "s", "dynamic.spline_eval_s": "s",
    "metrics.gmmd2_s": "s", "metrics.kernel_evals": "count",
    "metrics.kernel_evals_per_s": "1/s",
    "trace.overhead_s": "s",
}
WORKER_TIMEOUT_S = 170


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_dir(path: Path) -> tuple[list[float], list[np.ndarray]]:
    """Read a snapshot directory with numpy alone: (times, matrices)."""
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    times, mats = [], []
    for entry in manifest["snapshots"]:
        mats.append(np.loadtxt(path / entry["file"], delimiter=",", ndmin=2))
        times.append(float(entry["time"]))
    return times, mats


def setup_seconds(env: dict) -> float:
    """Median time from process start until ``dppmm.cli`` is imported."""
    probe = "import time, dppmm.cli; print(repr(time.time()))"
    values = []
    for _ in range(SETUP_PROBES):
        started = time.time()
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        values.append(float(out.stdout.split()[-1]) - started)
    return statistics.median(values)


def run_worker(workload: str, seed: int, seconds: float, workdir: Path, threads: int,
               trace: int, env: dict) -> dict:
    result = workdir / f"worker{trace}.json"
    workdir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir),
         "--threads", str(threads), "--trace", str(trace), "--result", str(result)],
        env=env, check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result.read_text(encoding="utf-8"))


class VStat:
    """The benchmark's MMD^2 on the first MMD_ROWS rows, reusing self terms."""

    def __init__(self):
        self._self_terms: dict[int, np.ndarray] = {}

    def _self(self, mat: np.ndarray) -> np.ndarray:
        key = id(mat)
        if key not in self._self_terms:
            rows = mat[:MMD_ROWS]
            self._self_terms[key] = reference.kernel_means(rows, rows, MMD_BANDWIDTHS)
        return self._self_terms[key]

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return reference.vstat_mmd2(a[:MMD_ROWS], b[:MMD_ROWS], MMD_BANDWIDTHS,
                                    self._self(a), self._self(b))


def check_simulate(w, rdir: Path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    train_times, train = read_dir(rdir / "data" / "train")
    test_times, test = read_dir(rdir / "data" / "test")
    expected = np.linspace(0.0, 1.0, w.m)
    for name, times, mats in (("train", train_times, train), ("test", test_times, test)):
        _require(len(mats) == w.m, f"{name} split has {len(mats)} snapshots, expected {w.m}")
        _require(np.allclose(times, expected, rtol=0, atol=1e-12), f"{name} times {times}")
        for mat in mats:
            _require(mat.shape == (w.n, w.d), f"{name} snapshot shape {mat.shape}")
            _require(bool(np.all(np.isfinite(mat))), f"{name} split has non-finite values")
    stacked = np.concatenate(train)
    _require(np.allclose(stacked.min(axis=0), -1.0, rtol=0, atol=1e-12)
             and np.allclose(stacked.max(axis=0), 1.0, rtol=0, atol=1e-12),
             "training split does not span [-1, 1] in every coordinate")
    if w.system == "ou":
        columns = np.stack([mat[:, 1] for mat in train], axis=1)
        try:
            reference.ou_decay_check(columns, expected * w.ou_horizon, w.ou_decay, w.ou_horizon)
        except ValueError as exc:
            raise CheckFailed(str(exc)) from None
    return train, test


def check_round(w, rdir: Path, codes: dict) -> tuple[int, dict]:
    """Check one round's outputs; returns (failed operations, quality figures).

    Raises CheckFailed when an output is wrong.
    """
    knots, heldout = w.knot_indices, w.heldout_indices
    failed_calls = [c for c in CALLS if codes.get(c) != 0]
    if failed_calls:
        # a call that failed or never ran fails, and so does every gate
        return len(failed_calls) + ops_per_round(w) - len(CALLS), {}

    train, test = check_simulate(w, rdir)

    model = (rdir / "model.json").read_bytes()
    _require(model == (rdir / "model_sequential.json").read_bytes(),
             "--parallel model differs from the sequentially trained one")

    sample_times, sampled = read_dir(rdir / "sampled")
    knot_times = [float(t) for t in np.linspace(0.0, 1.0, w.m)[knots]]
    _require(np.allclose(sample_times, knot_times, rtol=0, atol=1e-12),
             f"sample times {sample_times} differ from the training times")
    for mat in sampled:
        _require(mat.shape == (w.n, w.d), f"sample shape {mat.shape}")
        _require(bool(np.all(np.isfinite(mat))), "sample has non-finite values")
        _require(float(np.abs(mat).max()) <= SAMPLE_BOX,
                 f"sample leaves the box |x| <= {SAMPLE_BOX}: {np.abs(mat).max()}")

    between_times, between = read_dir(rdir / "between")
    heldout_times = [float(t) for t in np.linspace(0.0, 1.0, w.m)[heldout]]
    _require(np.allclose(between_times, heldout_times, rtol=0, atol=1e-12),
             f"interpolate times {between_times}")
    knot_values = np.stack(sampled)
    for t, mat in zip(between_times, between):
        spline = reference.not_a_knot_spline(sample_times, knot_values, t)
        err = float(np.abs(mat - spline).max())
        _require(err <= 1e-12, f"interpolate at t={t} is {err:.3g} from the spline")

    grid = np.logspace(np.log10(EVAL_GRID[0]), np.log10(EVAL_GRID[1]), EVAL_GRID[2])
    for report_name, gen, truth in (("eval_knots.json", sampled, [test[i] for i in knots]),
                                    ("eval_heldout.json", between, [test[i] for i in heldout])):
        report = json.loads((rdir / report_name).read_text(encoding="utf-8"))["per_snapshot"]
        _require(len(report) == len(gen), f"{report_name} has {len(report)} entries")
        # the largest value: near 0 the estimator is a cancellation of O(1)
        # kernel terms, where a relative comparison means nothing
        j = max(range(len(report)), key=lambda i: abs(report[i]["gmmd2"]))
        linear = w.n > 2000  # the documented auto rule for equal sizes
        _require(report[j]["estimator"] == ("linear" if linear else "quadratic"),
                 f"{report_name}: estimator {report[j]['estimator']}")
        estimator = reference.linear_gmmd2 if linear else reference.quadratic_gmmd2
        mine = estimator(gen[j], truth[j], grid)
        theirs = report[j]["gmmd2"]
        _require(abs(mine - theirs) <= 1e-9 * abs(mine),
                 f"{report_name} snapshot {j}: {theirs!r} vs recomputed {mine!r}")

    vstat = VStat()  # every matrix below stays alive until the round is checked
    terms = [vstat(gen, test[i]) for gen, i in zip(sampled, knots)]
    floors = [vstat(train[i], test[i]) for i in knots]
    frozen = statistics.fmean(vstat(test[i], test[0]) for i in knots)
    quality = {
        "heldout_mmd2": statistics.fmean(terms),
        "interp_mmd2": statistics.fmean(vstat(g, test[i]) for g, i in zip(between, heldout)),
        "frozen_mmd2": frozen,
        "terms": terms,
        "floors": floors,
    }
    _require(quality["heldout_mmd2"] < frozen,
             f"heldout_mmd2 {quality['heldout_mmd2']:.4g} is not below the frozen "
             f"reference {frozen:.4g}")
    gates_failed = sum(t > FLOOR_FACTOR * f for t, f in zip(terms, floors))
    return gates_failed, quality


def ops_per_round(w) -> int:
    return len(CALLS) + len(w.knot_indices)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dppmm pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dppmm" / "cli.py").is_file():
        print(f"error: no dppmm sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    threads = len(os.sched_getaffinity(0))
    workdir = root / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"

    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, and the
    # finally clause below removes the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    correct = True
    attempted = failed = 0
    per_round: list[dict] = []
    try:
        setup_s = None if args.trace else setup_seconds(env)
        doc = run_worker(w.name, args.seed, args.seconds, workdir / "untraced", threads, 0, env)
        rdirs = [workdir / "untraced" / f"round{r}" for r in range(len(doc["rounds"]))]

        def check(r: int):
            try:
                return check_round(w, rdirs[r], doc["rounds"][r]["codes"]) + (None,)
            except CheckFailed as exc:
                return 0, {}, str(exc)

        # the worker has exited, so checking rounds side by side disturbs no timing
        with ThreadPoolExecutor(max_workers=threads) as pool:
            checked = list(pool.map(check, range(len(rdirs))))
        for r, (rnd, (round_failed, quality, problem)) in enumerate(zip(doc["rounds"], checked)):
            attempted += ops_per_round(w)
            failed += round_failed
            if problem:
                print(f"round {r}: check failed: {problem}", file=sys.stderr)
                correct = False
            secs = rnd["seconds"]
            stage_s = {s: secs.get(s) for s in STAGES[:-1]}
            stage_s["evaluate"] = secs.get("evaluate_knots", 0.0) + secs.get("evaluate_heldout", 0.0)
            model = rdirs[r] / "model.json"
            per_round.append({"seed": round_seed(args.seed, r), "stage_s": stage_s,
                              "model_bytes": model.stat().st_size if model.is_file() else None,
                              "quality": quality})
            print(json.dumps(per_round[-1]), file=sys.stderr)

        def mean(values):
            # Rounds have their own inputs, and the fitted chain's depth varies
            # with them in whole steps, so a median over a dozen rounds jumps
            # between levels; the mean moves about half as much (README).
            values = [v for v in values if v is not None]
            return statistics.fmean(values) if values else None

        untraced_s = {s: mean([r["stage_s"][s] for r in per_round]) for s in STAGES}
        if args.trace:
            traced = run_worker(w.name, args.seed, args.seconds, workdir / "traced", threads, 1, env)
            layers = dict(traced["layers"])
            secs = traced["rounds"][0]["seconds"]
            # the traced round runs on the inputs of untraced round 0
            layers["trace.overhead_s"] = (sum(secs.values())
                                          - sum(doc["rounds"][0]["seconds"].values()))
            metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                       for name, unit in PER_LAYER.items()}
        else:
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
            for s in STAGES:
                metrics[f"{s}_s"] = {"value": untraced_s[s], "unit": "s"}
            metrics["model_bytes"] = {"value": mean([r["model_bytes"] for r in per_round]),
                                      "unit": "bytes"}
            metrics["peak_rss_mb"] = {"value": doc["peak_rss_mb"], "unit": "MB"}
            for q in ("heldout_mmd2", "interp_mmd2"):
                metrics[q] = {"value": mean([r["quality"].get(q) for r in per_round]), "unit": "1"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
