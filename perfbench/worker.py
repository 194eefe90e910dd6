"""Rounds of the five CLI stages of one workload, all in one process.

Run by ``run.py`` with ``src`` on PYTHONPATH. A round drives
``dppmm.cli.main`` for simulate, train --parallel, sample, interpolate and
two evaluate calls, timing each, then trains once more sequentially
(untimed) so the driver can compare the model bytes. Round r uses the seed
``round_seed(seed, r)`` and the directory ``<workdir>/round<r>``; rounds
repeat until ``--seconds`` of stage time are measured. With ``--trace 1``
the public functions of each module are wrapped first (see ``tracing.py``)
and one round runs. Writes one JSON document with each round's stage times
and exit codes, the peak RSS of the process and, when traced, the
per-layer totals.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, round_seed


def _subset(src: Path, dst: Path, indices: list[int]) -> list[float]:
    """Copy the chosen snapshots of a snapshot directory; return their times."""
    manifest = json.loads((src / "manifest.json").read_text(encoding="utf-8"))
    dst.mkdir(parents=True, exist_ok=True)
    entries = [manifest["snapshots"][i] for i in indices]
    for entry in entries:
        shutil.copyfile(src / entry["file"], dst / entry["file"])
    (dst / "manifest.json").write_text(
        json.dumps({"d": manifest["d"], "snapshots": entries}, indent=2) + "\n",
        encoding="utf-8",
    )
    return [float(e["time"]) for e in entries]


def run_round(workload, seed: int, workdir: Path, threads: int, cli_main):
    """Run every stage; return (stage seconds, exit codes) in stage order."""
    w = workload
    data = workdir / "data"
    knots = workdir / "knots"
    test_knots = workdir / "test_knots"
    test_heldout = workdir / "test_heldout"
    model = workdir / "model.json"
    sampled = workdir / "sampled"
    between = workdir / "between"
    seconds: dict[str, float] = {}
    codes: dict[str, int] = {}

    def stage(name: str, argv: list[str], timed: bool = True) -> bool:
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli_main(argv)
        elapsed = time.perf_counter() - started
        (workdir / f"{name}.stdout").write_text(sink.getvalue(), encoding="utf-8")
        codes[name] = code
        if timed:
            seconds[name] = elapsed
        return code == 0

    common_n = ["--n", str(w.n), "--seed", str(seed)]
    if not stage("simulate", ["simulate", "--system", w.system, "--d", str(w.d),
                              *common_n, "--m", str(w.m), "--dt", repr(w.dt),
                              "--out", str(data)]):
        return seconds, codes
    _subset(data / "train", knots, w.knot_indices)
    _subset(data / "test", test_knots, w.knot_indices)
    heldout_times = _subset(data / "test", test_heldout, w.heldout_indices)

    steps = [
        ("train", ["train", "--data", str(knots), "--out", str(model),
                   "--seed", str(seed), "--parallel", "--threads", str(threads)], True),
        ("sample", ["sample", "--model", str(model), *common_n,
                    "--out", str(sampled)], True),
        ("interpolate", ["interpolate", "--model", str(model), *common_n,
                         "--times", *map(repr, heldout_times),
                         "--out", str(between)], True),
        ("evaluate_knots", ["evaluate", "--a", str(sampled), "--b", str(test_knots),
                            "--out", str(workdir / "eval_knots.json")], True),
        ("evaluate_heldout", ["evaluate", "--a", str(between), "--b", str(test_heldout),
                              "--out", str(workdir / "eval_heldout.json")], True),
        ("train_sequential", ["train", "--data", str(knots),
                              "--out", str(workdir / "model_sequential.json"),
                              "--seed", str(seed)], False),
    ]
    for name, argv, timed in steps:
        if not stage(name, argv, timed):
            break
    return seconds, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    from dppmm.cli import main as cli_main

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    rounds = []
    measured = 0.0
    while not rounds or (measured < args.seconds and not args.trace):
        rdir = Path(args.workdir) / f"round{len(rounds)}"
        rdir.mkdir(parents=True)
        seconds, codes = run_round(
            WORKLOADS[args.workload], round_seed(args.seed, len(rounds)), rdir,
            args.threads, cli_main,
        )
        rounds.append({"seconds": seconds, "codes": codes})
        measured += sum(seconds.values())
    doc = {
        "rounds": rounds,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.metrics() if tracer else {},
    }
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
