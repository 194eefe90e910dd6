"""Workload definitions shared by the benchmark driver and its stage worker.

Every workload simulates an odd number of snapshots M, trains on the
even-indexed training snapshots (the knots), samples at the knot times and
interpolates at the odd (held-out) times.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    d: int
    n: int
    m: int
    dt: float
    # Parameters the OU mean-decay check needs (None for other systems).
    ou_decay: float | None = None
    ou_horizon: float | None = None

    @property
    def knot_indices(self) -> list[int]:
        return list(range(0, self.m, 2))

    @property
    def heldout_indices(self) -> list[int]:
        return list(range(1, self.m, 2))


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run: every round of every run gets its own inputs."""
    return seed * 1000 + r


WORKLOADS = {
    w.name: w
    for w in (
        # SAVE directions and 1D map fits dominate training, the drift
        # dominates simulation; evaluate still takes the linear path
        Workload("lorenz96-d10", "lorenz96", d=10, n=2_500, m=11, dt=1e-2),
        # 500 rows make evaluate pick the quadratic estimator, so its kernel
        # sums dominate the round; everything else is small
        Workload(
            "ou-d8-quadratic", "ou", d=8, n=500, m=11, dt=1e-2,
            ou_decay=0.1, ou_horizon=15.0,
        ),
    )
}

# Row subsample and bandwidths of the benchmark's own V-statistic MMD^2,
# in the rescaled units simulate writes (coordinates in [-1, 1]).
MMD_ROWS = 1000
MMD_BANDWIDTHS = (0.1, 0.3, 1.0)

# A knot-time snapshot fails its quality gate above this multiple of the
# truth-vs-truth floor measured with the same estimator.
FLOOR_FACTOR = 10.0

# Generated values must stay inside [-SAMPLE_BOX, SAMPLE_BOX] in the rescaled
# units of the training split, whose range is exactly [-1, 1].
SAMPLE_BOX = 5.0

# Grid of the evaluate command's defaults (--grid-min, --grid-max, --grid-size).
EVAL_GRID = (1e-2, 1e2, 15)
