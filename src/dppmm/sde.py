"""Synthetic benchmark systems driven by stochastic differential equations.

Three drift families (Van der Pol oscillator, isotropic Ornstein-Uhlenbeck
decay, cyclic Lorenz-96) integrated with Euler-Maruyama under isotropic
diffusion into snapshot series, plus the train/test benchmark builder that
rescales both splits with the rescaler fitted on the training split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Snapshot, SnapshotSeries, fit_rescaler

__all__ = [
    "SDESystem",
    "vanderpol",
    "ornstein_uhlenbeck",
    "lorenz96",
    "drift",
    "euler_maruyama",
    "make_benchmark",
    "BENCHMARK_SNAPSHOTS",
]

# Snapshot count of the standard benchmark protocol.
BENCHMARK_SNAPSHOTS = 11

_KINDS = ("vdp", "ou", "lorenz96")


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
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "vdp" and self.dim != 2:
            raise ValueError("the Van der Pol system is two-dimensional")
        if self.kind == "ou" and self.dim < 2:
            raise ValueError("the OU system requires dimension >= 2")
        if self.kind == "lorenz96" and self.dim < 4:
            raise ValueError("the Lorenz-96 system requires dimension >= 4")
        if self.diffusion < 0:
            raise ValueError("diffusion must be nonnegative")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.init_std < 0:
            raise ValueError("init_std must be nonnegative")
        means = np.asarray(self.init_means, dtype=np.float64)
        means = np.atleast_2d(means)
        if means.ndim != 2 or means.shape[1] != self.dim:
            raise ValueError("init_means must be (components, dim)")
        if not np.all(np.isfinite(means)):
            raise ValueError("init_means contains non-finite entries")
        means.setflags(write=False)
        object.__setattr__(self, "init_means", means)


def vanderpol(
    stiffness: float = 1.0, diffusion: float = 2.5e-3, horizon: float = 6.0
) -> SDESystem:
    """Van der Pol oscillator started near (1, 1)."""
    return SDESystem(
        kind="vdp",
        dim=2,
        param=stiffness,
        diffusion=diffusion,
        horizon=horizon,
        init_means=np.array([[1.0, 1.0]]),
        init_std=5e-2,
    )


def ornstein_uhlenbeck(
    dim: int = 2,
    decay: float = 0.1,
    diffusion: float = 5e-2,
    horizon: float = 15.0,
) -> SDESystem:
    """Isotropic linear decay started from a symmetric two-cluster mixture.

    The mixture components sit at (-10, 10, ..., 10) and (10, 10, ..., 10)
    with isotropic standard deviation 5e-2.
    """
    means = np.full((2, dim), 10.0)
    means[0, 0] = -10.0
    return SDESystem(
        kind="ou",
        dim=dim,
        param=decay,
        diffusion=diffusion,
        horizon=horizon,
        init_means=means,
        init_std=5e-2,
    )


def lorenz96(
    dim: int = 4,
    forcing: float = 2.0,
    diffusion: float = 5e-3,
    horizon: float | None = None,
) -> SDESystem:
    """Cyclic Lorenz-96 drift started near (4, 0, ..., 0).

    The default horizon is 5 below dimension 10 and 3.5 from dimension 10
    up, where the dynamics mix faster.
    """
    if horizon is None:
        horizon = 5.0 if dim < 10 else 3.5
    means = np.zeros((1, dim))
    means[0, 0] = 4.0
    return SDESystem(
        kind="lorenz96",
        dim=dim,
        param=forcing,
        diffusion=diffusion,
        horizon=horizon,
        init_means=means,
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
    # lorenz96: dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F, cyclic indices
    f = system.param
    return (
        (np.roll(x, -1, axis=-1) - np.roll(x, 2, axis=-1)) * np.roll(x, 1, axis=-1)
        - x
        + f
    )


def euler_maruyama(
    system: SDESystem,
    n: int,
    dt: float,
    seed,
    store: int | None = None,
) -> SnapshotSeries:
    """Integrate N sample paths with the explicit Euler-Maruyama scheme.

    Each step adds drift * dt plus fresh N(0, 2 D dt) noise per coordinate.
    The step count is ceil(horizon / dt). Returns one snapshot per kept step
    j at time j * dt, row k of every snapshot being path k. ``store`` keeps
    only that many evenly spaced step indices (endpoints included,
    nearest-index rounding); None keeps every step. ``seed`` feeds numpy's
    default generator, so an integer or a SeedSequence both give
    reproducible output.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < dt <= system.horizon:
        raise ValueError(f"dt must lie in (0, horizon], got {dt}")
    steps = math.ceil(system.horizon / dt)
    if store is None:
        store = steps + 1
    elif not 2 <= store <= steps + 1:
        raise ValueError(f"store must lie in [2, {steps + 1}], got {store}")
    keep = set(np.round(np.linspace(0.0, steps, store)).astype(np.intp).tolist())

    rng = np.random.default_rng(seed)
    means = system.init_means
    component = rng.integers(means.shape[0], size=n)
    x = means[component] + system.init_std * rng.standard_normal((n, system.dim))

    # x is rebound before the in-place noise add, so a kept state is never written
    snapshots = [Snapshot(0.0, x)]
    noise_scale = math.sqrt(2.0 * system.diffusion * dt)
    for j in range(1, steps + 1):
        x = x + drift(system, x) * dt
        if noise_scale > 0.0:
            x += noise_scale * rng.standard_normal((n, system.dim))
        if not np.all(np.isfinite(x)):
            bad = np.argwhere(~np.isfinite(x))[0, 0]
            raise RuntimeError(
                f"non-finite state in trajectory {bad} at step {j}"
            )
        if j in keep:
            snapshots.append(Snapshot(j * dt, x))
    return SnapshotSeries(tuple(snapshots))


def _system_for(name: str, d: int) -> SDESystem:
    if name == "vdp":
        if d != 2:
            raise ValueError("the vdp benchmark requires d = 2")
        return vanderpol()
    if name == "ou":
        return ornstein_uhlenbeck(dim=d)
    if name == "lorenz96":
        return lorenz96(dim=d)
    raise ValueError(f"unknown benchmark {name!r}; expected one of {_KINDS}")


def make_benchmark(
    name: str,
    d: int,
    n: int,
    seed: int,
    m: int = BENCHMARK_SNAPSHOTS,
    dt: float = 1e-3,
) -> tuple[SnapshotSeries, SnapshotSeries]:
    """Simulate one benchmark system into rescaled train and test series.

    Two independent streams spawned from ``seed`` drive the training and
    held-out runs. Both series are rescaled (coordinates into [-1, 1]^d,
    times into [0, 1]) by the rescaler fitted on the training series alone.
    """
    system = _system_for(name, d)
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    train_raw = euler_maruyama(system, n, dt, train_seed, store=m)
    test_raw = euler_maruyama(system, n, dt, test_seed, store=m)
    rescaler = fit_rescaler(train_raw)
    return rescaler.apply_series(train_raw), rescaler.apply_series(test_raw)
