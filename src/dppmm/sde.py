"""Synthetic benchmark systems driven by stochastic differential equations.

Three drift families (Van der Pol oscillator, isotropic Ornstein-Uhlenbeck
decay, cyclic Lorenz-96) integrated with Euler-Maruyama under isotropic
diffusion into snapshot series, plus the train/test benchmark builder that
rescales both splits with the shift and scale fitted on the training split.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import SnapshotSeries, checked_array, fit_rescaler

__all__ = [
    "SDESystem",
    "benchmark_system",
    "drift",
    "euler_maruyama",
    "make_benchmark",
    "BENCHMARKS",
    "BENCHMARK_SNAPSHOTS",
    "BENCHMARK_DT",
]

# Snapshot count and integrator step size of the standard benchmark protocol.
BENCHMARK_SNAPSHOTS = 11
BENCHMARK_DT = 1e-3

# Names of the benchmark systems, which are also the SDESystem kinds.
BENCHMARKS = ("vdp", "ou", "lorenz96")


@dataclass(frozen=True)
class SDESystem:
    """A drift family with isotropic diffusion and an initial mixture law.

    ``param`` is the single drift parameter of the family: the Van der Pol
    stiffness, the Ornstein-Uhlenbeck decay rate, or the Lorenz-96 forcing.
    ``init_means`` holds one row per equally weighted Gaussian mixture
    component, each with isotropic standard deviation ``init_std``.
    """

    kind: str
    dim: int
    param: float
    diffusion: float
    horizon: float
    init_means: np.ndarray
    init_std: float

    def __post_init__(self):
        _check_dimension(self.kind, self.dim)
        for name in ("param", "diffusion", "horizon", "init_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.diffusion < 0:
            raise ValueError("diffusion must be nonnegative")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.init_std < 0:
            raise ValueError("init_std must be nonnegative")
        means = checked_array(
            np.atleast_2d(self.init_means), "init_means", 1, self.dim, frozen="copy"
        )
        object.__setattr__(self, "init_means", means)


def _check_dimension(kind: str, dim: int | None) -> int:
    """Return ``dim`` (None: the system's smallest) if the named system allows it."""
    if kind not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {kind!r}; expected one of {BENCHMARKS}")
    least = 4 if kind == "lorenz96" else 2
    dim = least if dim is None else dim
    if kind == "vdp" and dim != least:
        raise ValueError(f"the vdp system requires d = {least}, got d = {dim}")
    if dim < least:
        raise ValueError(f"the {kind} system requires d >= {least}, got d = {dim}")
    return dim


def benchmark_system(name: str, d: int | None = None) -> SDESystem:
    """The named benchmark system at dimension ``d`` (None: its smallest).

    ``vdp`` is the two-dimensional Van der Pol oscillator started near
    (1, 1); ``ou`` is isotropic decay from the symmetric two-cluster mixture
    at (-10, 10, ..., 10) and (10, 10, ..., 10), for d >= 2; ``lorenz96`` is
    the cyclic Lorenz-96 drift started near (4, 0, ..., 0), for d >= 4, with
    a horizon of 5 below dimension 10 and 3.5 from there up, where the
    dynamics mix faster. The name and dimension are checked before any
    array is built; a bad one raises ValueError naming the system's rule.
    """
    d = _check_dimension(name, d)
    if name == "vdp":
        return SDESystem(
            kind="vdp",
            dim=2,
            param=1.0,
            diffusion=2.5e-3,
            horizon=6.0,
            init_means=np.array([[1.0, 1.0]]),
            init_std=5e-2,
        )
    if name == "ou":
        means = np.full((2, d), 10.0)
        means[0, 0] = -10.0
        return SDESystem(
            kind="ou",
            dim=d,
            param=0.1,
            diffusion=5e-2,
            horizon=15.0,
            init_means=means,
            init_std=5e-2,
        )
    return SDESystem(
        kind="lorenz96",
        dim=d,
        param=2.0,
        diffusion=5e-3,
        horizon=5.0 if d < 10 else 3.5,
        init_means=4.0 * np.eye(1, d),
        init_std=1e-1,
    )


def drift(system: SDESystem, x) -> np.ndarray:
    """Drift field v(x) of the system, vectorized over leading axes."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != system.dim:
        raise ValueError(
            f"state dimension {x.shape[-1]} does not match system dimension "
            f"{system.dim}"
        )
    if system.kind == "vdp":
        c = system.param
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([x2, c * (1.0 - x1 * x1) * x2 - x1], axis=-1)
    if system.kind == "ou":
        return -system.param * x
    # lorenz96: dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F, cyclic indices.
    # Each shift is a two-slice concatenation, and the terms accumulate in
    # place in that order, which rounds exactly as the expression does.
    v = np.concatenate((x[..., 1:], x[..., :1]), axis=-1)
    v -= np.concatenate((x[..., -2:], x[..., :-2]), axis=-1)
    v *= np.concatenate((x[..., -1:], x[..., :-1]), axis=-1)
    v -= x
    v += system.param
    return v


def _kept_steps(system: SDESystem, n: int, dt: float, store: int | None, name: str) -> list[int]:
    """Validate the integration settings, naming ``store`` ``name``; return the kept steps."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < dt <= system.horizon:
        raise ValueError(f"dt must lie in (0, {system.horizon}], got {dt}")
    if not system.horizon / dt < np.iinfo(np.intp).max:  # ceil() would not fit an index
        raise ValueError(f"dt {dt} makes more than {np.iinfo(np.intp).max} steps")
    steps = math.ceil(system.horizon / dt)
    if store is None:
        store = steps + 1
    elif not 2 <= store <= steps + 1:
        raise ValueError(f"{name} must lie in [2, {steps + 1}], got {store}")
    # the spacing steps / (store - 1) is at least 1, so the indices are distinct
    return np.round(np.linspace(0.0, steps, store)).astype(np.intp).tolist()


def euler_maruyama(
    system: SDESystem,
    n: int,
    dt: float,
    seed,
    store: int | None = None,
    *,
    out: np.ndarray | None = None,
) -> SnapshotSeries:
    """Integrate N sample paths with the explicit Euler-Maruyama scheme.

    Each step adds drift * dt plus fresh N(0, 2 D dt) noise per coordinate.
    The step count is ceil(horizon / dt). Returns one snapshot per kept step
    j at time j * dt, row k of every snapshot being path k. ``store`` keeps
    only that many evenly spaced step indices (endpoints included,
    nearest-index rounding); None keeps every step. ``seed`` feeds numpy's
    default generator, so an integer or a SeedSequence both give
    reproducible output.

    ``out``, when given, is a writable C-contiguous float64 array of shape
    (kept steps, n, d) that receives the kept states; the returned series'
    sample matrices are read-only views of it. None allocates it here. The
    loop draws noise into one reused buffer and updates the state in place,
    so a step allocates nothing beyond the drift's own temporaries. A call
    touches no state but its own generator and ``out``, so
    ``make_benchmark`` runs its two splits concurrently and their bytes do
    not depend on the thread schedule.
    """
    keep = _kept_steps(system, n, dt, store, "store")
    shape = (len(keep), n, system.dim)
    if out is None:
        out = np.empty(shape)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writable C-contiguous float64 array of shape {shape}"
        )

    rng = np.random.default_rng(seed)
    means = system.init_means
    component = rng.integers(means.shape[0], size=n)
    x = means[component] + system.init_std * rng.standard_normal((n, system.dim))
    out[0] = x

    noise = np.empty_like(x)
    finite = np.empty(x.shape, dtype=bool)
    noise_scale = math.sqrt(2.0 * system.diffusion * dt)
    k = 1
    for j in range(1, keep[-1] + 1):  # the last kept step is the last step
        step = drift(system, x)
        step *= dt
        x += step
        if noise_scale > 0.0:
            rng.standard_normal(out=noise)
            noise *= noise_scale
            x += noise
        if not np.isfinite(x, out=finite).all():
            bad = np.argwhere(~finite)[0, 0]
            raise RuntimeError(
                f"non-finite state in trajectory {bad} at step {j}"
            )
        if j == keep[k]:
            out[k] = x
            k += 1
    return SnapshotSeries([j * dt for j in keep], out)


def make_benchmark(
    name: str,
    d: int | None,
    n: int,
    seed: int,
    m: int = BENCHMARK_SNAPSHOTS,
    dt: float = BENCHMARK_DT,
) -> tuple[SnapshotSeries, SnapshotSeries]:
    """Simulate one benchmark system into rescaled train and test series.

    ``d`` None takes the system's default dimension. Two independent streams
    spawned from ``seed`` drive the training and held-out runs, which
    integrate concurrently: the held-out run on one helper thread, the
    training run on the calling thread. Each writes only its own stream and
    its own half of one (2, m, n, d) state array allocated here, so the
    output bytes do not depend on the thread schedule. Both series are
    rescaled, in that array, by the shift and scale that
    ``core.fit_rescaler`` fits on the training series alone, which map its
    coordinates into [-1, 1]^d; the returned series' sample matrices are
    read-only views of it. Paths start at t = 0 and their times are divided
    by the training series' last time, so they run from 0 to 1.
    """
    system = benchmark_system(name, d)
    m = len(_kept_steps(system, n, dt, m, "m"))  # rejects bad settings first
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    # allocated on the calling thread: a helper thread's own malloc arena
    # would keep the held-out states' pages after the thread exits
    states = np.empty((2, m, n, system.dim))
    with ThreadPoolExecutor(max_workers=1) as pool:
        test_run = pool.submit(
            euler_maruyama, system, n, dt, test_seed, store=m, out=states[1]
        )
        train_raw = euler_maruyama(system, n, dt, train_seed, store=m, out=states[0])
        test_run.result()
    shift, scale = fit_rescaler(train_raw)
    # in place, with the operations and order of train_dppmm's (x - shift) / scale
    states -= shift
    states /= scale
    times = train_raw.times / train_raw.times[-1]
    return tuple(SnapshotSeries(times, split) for split in states)
