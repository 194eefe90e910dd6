"""Per-layer timers and counters for the traced pass.

``Tracer.install`` wraps the public functions of each dppmm module in every
dppmm module namespace that binds them, which is where their callers look
them up (``cli`` calls ``train_dppmm`` through its own import, ``ppmm``
calls ``save_direction`` through its own, and so on). Totals are kept in
memory under a lock, because the chain fit calls into ``ppmm``,
``projection`` and ``ot1d`` from worker threads.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _dir_bytes(path) -> int:
    root = Path(path)
    if root.is_file():
        return root.stat().st_size
    return sum(f.stat().st_size for f in root.iterdir() if f.is_file())


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self.totals: dict[str, float] = defaultdict(float)
        self.fit_max_s = 0.0

    def _add(self, **amounts):
        with self._lock:
            for key, value in amounts.items():
                self.totals[key] += value

    def _wrap(self, module: str, name: str, after, cpu: bool = False):
        """Replace module.name everywhere dppmm binds it with a timed wrapper.

        ``after(seconds, cpu_seconds, result, args, kwargs)`` records what the
        call did; ``cpu_seconds`` is the process CPU time (all threads) spent
        during the call when ``cpu`` is set, else None.
        """
        original = getattr(sys.modules[module], name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cpu_started = time.process_time() if cpu else None
            started = time.perf_counter()
            result = original(*args, **kwargs)
            seconds = time.perf_counter() - started
            cpu_seconds = time.process_time() - cpu_started if cpu else None
            after(seconds, cpu_seconds, result, args, kwargs)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dppmm" or mod_name.startswith("dppmm."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _timer(self, key: str, count: str | None = None):
        def after(seconds, cpu, result, args, kwargs):
            self._add(**{key: seconds, **({count: 1} if count else {})})

        return after

    def install(self) -> None:
        import dppmm.cli  # noqa: F401  (loads every module the CLI uses)

        w = self._wrap
        w("dppmm.sde", "euler_maruyama", self._timer("sde.euler_maruyama_s"))
        w("dppmm.sde", "drift", self._timer("sde.drift_s", "sde.steps"))

        def read(seconds, cpu, result, args, kwargs):
            self._add(**{"core.read_s": seconds, "core.bytes_read": _dir_bytes(args[0])})

        def write(seconds, cpu, result, args, kwargs):
            self._add(**{"core.write_s": seconds, "core.bytes_written": _dir_bytes(args[1])})

        w("dppmm.core", "read_snapshot_dir", read)
        w("dppmm.core", "read_snapshot_csv", read)
        w("dppmm.core", "write_snapshot_dir", write)

        w("dppmm.modelio", "save_model", self._timer("modelio.save_s"))
        w("dppmm.modelio", "load_model", self._timer("modelio.load_s"))

        w("dppmm.projection", "save_direction",
          self._timer("projection.save_direction_s", "projection.calls"))

        w("dppmm.ot1d", "fit_regularized_map",
          self._timer("ot1d.fit_regularized_map_s", "ot1d.calls"))
        w("dppmm.ot1d", "resolve_bandwidth", self._timer("ot1d.bandwidth_s"))
        w("dppmm.ot1d", "fft_kde", self._timer("ot1d.fft_kde_s"))

        def fit(seconds, cpu, result, args, kwargs):
            report = result[1]
            self._add(**{
                "ppmm.fit_sum_s": seconds,
                "ppmm.steps": report.k_final,
                "ppmm.maps_at_cap": int(report.stop_reason == "max_iter"),
            })
            with self._lock:
                self.fit_max_s = max(self.fit_max_s, seconds)

        w("dppmm.ppmm", "fit_ppmm", fit)
        w("dppmm.ppmm", "eval_ppmm", self._timer("ppmm.eval_s"))

        def train(seconds, cpu, result, args, kwargs):
            if kwargs.get("parallel"):
                self._add(**{"dynamic.train_s": seconds, "dynamic.train_cpu_s": cpu})
            else:
                self._add(**{"dynamic.train_sequential_s": seconds})

        w("dppmm.dynamic", "train_dppmm", train, cpu=True)
        w("dppmm.dynamic", "generate", self._timer("dynamic.generate_s"))
        w("dppmm.dynamic", "fit_transport_splines", self._timer("dynamic.spline_fit_s"))
        w("dppmm.dynamic", "interpolate", self._timer("dynamic.spline_eval_s"))

        def kernel(seconds, cpu, result, args, kwargs):
            x, y = args[0], args[1]
            grid = args[2] if len(args) > 2 else kwargs["grid"]
            estimator = args[3] if len(args) > 3 else kwargs.get("estimator", "quadratic")
            n1, n2 = len(x), len(y)
            if estimator == "linear":
                evals = 4 * (n1 // 2)
            else:
                evals = n1 * n1 + n2 * n2 + n1 * n2
            self._add(**{"metrics.gmmd2_s": seconds,
                         "metrics.kernel_evals": evals * len(grid)})

        w("dppmm.metrics", "gmmd2", kernel)

    def metrics(self) -> dict[str, float]:
        t = dict(self.totals)
        out = {k: v for k, v in t.items() if k != "dynamic.train_cpu_s"}
        out["ppmm.fit_max_s"] = self.fit_max_s
        if t.get("dynamic.train_s"):
            out["dynamic.train_cpu_per_wall"] = t["dynamic.train_cpu_s"] / t["dynamic.train_s"]
        if t.get("metrics.gmmd2_s"):
            out["metrics.kernel_evals_per_s"] = t["metrics.kernel_evals"] / t["metrics.gmmd2_s"]
        return out
