"""Command-line harness around the library.

Subcommands: simulate (benchmark data), train (fit the transport chain),
sample (generate coupled snapshots), interpolate (transport splines between
snapshot times), evaluate (generalized MMD between two snapshot sets).

All randomness flows from explicit --seed flags, so every command is
byte-reproducible. Exit codes: 0 success, 2 invalid input or usage, 1
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    SnapshotSeries,
    checked_array,
    read_snapshot_csv,
    read_snapshot_dir,
    write_snapshot_dir,
)
from .dynamic import fit_transport_splines, generate, interpolate, train_dppmm
from .metrics import BandwidthGrid, per_snapshot_gmmd2
from .modelio import load_model, reports_to_list, save_model
from .sde import BENCHMARK_DT, BENCHMARK_SNAPSHOTS, BENCHMARKS, make_benchmark

__all__ = ["main"]


def _emit(doc: dict) -> None:
    print(json.dumps(doc, separators=(", ", ": ")))


def _read_samples(path_text: str) -> SnapshotSeries:
    path = Path(path_text)
    if path.is_dir():
        return read_snapshot_dir(path)
    if path.is_file():
        return read_snapshot_csv(path)
    raise ValueError(f"no snapshot directory or CSV file at {path}")


def _max_abs(series: SnapshotSeries) -> list[float]:
    """Largest |x| of each snapshot, so a blown-up map shows in the summary."""
    return [float(np.abs(x).max()) for x in series.samples]


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    train, test = make_benchmark(
        args.system, args.d, args.n, args.seed, m=args.m, dt=args.dt
    )
    out = Path(args.out)
    write_snapshot_dir(train, out / "train")
    write_snapshot_dir(test, out / "test")
    _emit(
        {
            "command": "simulate",
            "system": args.system,
            "d": train.dim,
            "n": args.n,
            "m": args.m,
            "seed": args.seed,
            "train": str(out / "train"),
            "test": str(out / "test"),
            "seconds": round(time.perf_counter() - started, 3),
        }
    )
    return 0


def cmd_train(args) -> int:
    series = read_snapshot_dir(args.data)
    parallel = args.parallel or (args.threads is not None and args.threads > 1)
    started = time.perf_counter()
    model, reports = train_dppmm(
        series, seed=args.seed, parallel=parallel, workers=args.threads
    )
    seconds = time.perf_counter() - started
    provenance = {"seed": args.seed, "reports": reports_to_list(reports)}
    save_model(args.out, model, provenance)
    for j, report in enumerate(reports):
        _emit(
            {
                "pair": j,
                "k_final": report.k_final,
                "w2": report.w2_history[-1] if report.w2_history else 0.0,
                "stop_reason": report.stop_reason,
            }
        )
    _emit(
        {
            "command": "train",
            "maps": len(model.maps),
            "out": args.out,
            "seconds": round(seconds, 3),
        }
    )
    return 0


def cmd_sample(args) -> int:
    model, _ = load_model(args.model)
    started = time.perf_counter()
    matrices = generate(model, args.n, args.seed)
    series = SnapshotSeries(model.times, matrices)
    write_snapshot_dir(series, args.out)
    _emit(
        {
            "command": "sample",
            "snapshots": len(series),
            "n": args.n,
            "out": args.out,
            "max_abs": _max_abs(series),
            "seconds": round(time.perf_counter() - started, 3),
        }
    )
    return 0


def cmd_interpolate(args) -> int:
    model, _ = load_model(args.model)
    lo, hi = float(model.times[0]), float(model.times[-1])
    requested = [float(t) for t in args.times]
    for t in requested:
        if not lo <= t <= hi:
            raise ValueError(
                f"time {t} outside the interpolation range [{lo}, {hi}]"
            )
    checked_array(requested, "requested times", ndim=1, order="strictly increasing")

    started = time.perf_counter()
    # in data units, so the splines run through exactly what `sample` writes
    bundle = fit_transport_splines(model.times, generate(model, args.n, args.seed))
    series = SnapshotSeries(requested, [interpolate(bundle, t) for t in requested])
    write_snapshot_dir(series, args.out)
    _emit(
        {
            "command": "interpolate",
            "times": requested,
            "n": args.n,
            "out": args.out,
            "max_abs": _max_abs(series),
            "seconds": round(time.perf_counter() - started, 3),
        }
    )
    return 0


def cmd_evaluate(args) -> int:
    series_a = _read_samples(args.a)
    series_b = _read_samples(args.b)
    grid = BandwidthGrid.default()
    started = time.perf_counter()
    per_snapshot = [
        {"time": t, "gmmd2": value, "estimator": chosen,
         "max_abs_a": max_a, "max_abs_b": max_b}
        for (t, value, chosen), max_a, max_b in zip(
            per_snapshot_gmmd2(series_a, series_b, grid),
            _max_abs(series_a),
            _max_abs(series_b),
        )
    ]
    report = {
        "command": "evaluate",
        "a": args.a,
        "b": args.b,
        "grid": grid.values.tolist(),
        "per_snapshot": per_snapshot,
        "average_gmmd2": float(np.mean([e["gmmd2"] for e in per_snapshot])),
        "seconds": round(time.perf_counter() - started, 3),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppmm",
        description=(
            "Generative modeling of a time-varying density from snapshots "
            "via chained projection-pursuit transport maps"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a benchmark system into train/test snapshots")
    p.add_argument("--system", required=True, choices=sorted(BENCHMARKS))
    p.add_argument("--d", type=int, default=None, help="state dimension (system default if omitted)")
    p.add_argument("--n", type=int, default=10_000, help="trajectories per split")
    p.add_argument("--m", type=int, default=BENCHMARK_SNAPSHOTS, help="snapshots per split")
    p.add_argument("--dt", type=float, default=BENCHMARK_DT, help="integrator step size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory (train/ and test/ inside)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit the transport chain on a snapshot directory")
    p.add_argument("--data", required=True, help="snapshot directory")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--seed", type=int, default=0, help="seed for the base draw")
    p.add_argument("--parallel", action="store_true", help="fit snapshot pairs concurrently")
    p.add_argument(
        "--threads", type=int, default=None, help="worker count (default: one per usable CPU)"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate coupled snapshots from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=10_000, help="trajectories to generate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output snapshot directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("interpolate", help="evaluate transport splines at requested times")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--times",
        required=True,
        nargs="+",
        type=float,
        help="strictly increasing times within the model's snapshot times",
    )
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output snapshot directory")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("evaluate", help="generalized MMD between two snapshot sets")
    p.add_argument("--a", required=True, help="snapshot directory or CSV file")
    p.add_argument("--b", required=True, help="snapshot directory or CSV file")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
