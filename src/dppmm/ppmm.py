"""Projection-pursuit construction of a high-dimensional transport map.

A PPMM map is a chain of rank-one updates: each step projects the current
samples onto a direction where their distribution still differs most from
the target (per SAVE), fits a monotone 1D transport map along it, and moves
every sample along that direction by the 1D displacement. The chain stops
when the root-mean-square displacement of the original source stabilizes in
relative terms, when SAVE finds no informative direction, or at the
iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import checked_array
from .ot1d import (
    BANDWIDTH_RULES,
    RegularizedMap1D,
    SortedMap1D,
    fit_regularized_map,
    fit_sorted_map,
)
from .projection import save_direction

__all__ = [
    "PPMMMap",
    "PPMMFitReport",
    "fit_ppmm",
    "eval_ppmm",
    "approx_w2",
    "converged",
]


@dataclass(frozen=True)
class PPMMMap:
    """A chain of rank-one transport updates acting on d-dimensional samples.

    Step i moves samples along row i of the (k, d) ``directions`` matrix by
    map i (row i) of ``maps1d``. A chain without steps has a (0, d) matrix
    and ``maps1d`` None.
    """

    directions: np.ndarray
    maps1d: SortedMap1D | RegularizedMap1D | None = None

    def __post_init__(self):
        p = checked_array(self.directions, "directions", 0, frozen="copy")
        norms = np.linalg.norm(p, axis=1)
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        if off.size:
            raise ValueError(f"direction {off[0]} must have unit norm, got {norms[off[0]]!r}")
        rows = 0 if self.maps1d is None else len(self.maps1d)
        if rows != len(p):
            raise ValueError(f"{len(p)} directions but {rows} 1D maps")
        object.__setattr__(self, "directions", p)

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def iterations(self) -> int:
        return self.directions.shape[0]

    def __call__(self, x):
        return eval_ppmm(self, x)


@dataclass(frozen=True)
class PPMMFitReport:
    """Fit trace: rms-displacement history and stop reason.

    w2_history has one entry per completed iteration, so ``k_final`` is its
    length. stop_reason is one of "tolerance", "max_iter" or
    "no_informative_direction".
    """

    w2_history: tuple[float, ...]
    stop_reason: str

    def __post_init__(self):
        object.__setattr__(self, "w2_history", tuple(self.w2_history))
        if self.stop_reason not in (
            "tolerance",
            "max_iter",
            "no_informative_direction",
        ):
            raise ValueError(f"unknown stop_reason {self.stop_reason!r}")

    @property
    def k_final(self) -> int:
        return len(self.w2_history)


def converged(previous_w2: float, current_w2: float, alpha: float) -> bool:
    """Relative-stabilization stopping rule between consecutive rms displacements.

    A zero current displacement counts as converged (identity-like maps);
    otherwise stop when |current - previous| / |current| <= alpha.
    """
    if current_w2 == 0.0:
        return True
    return abs(current_w2 - previous_w2) / abs(current_w2) <= alpha


def _rms(disp: np.ndarray) -> float:
    """Root-mean-square row norm of a displacement matrix."""
    return float(np.sqrt(np.mean(np.sum(disp * disp, axis=1))))


def eval_ppmm(ppmm_map: PPMMMap, x) -> np.ndarray:
    """Push sample rows through the chain of rank-one transport updates.

    Rows are independent; components orthogonal to every step direction are
    untouched. An empty chain is the identity.
    """
    x = checked_array(x, "x", 0, ppmm_map.dim)
    out = x.copy()
    for i, p in enumerate(ppmm_map.directions):
        proj = out @ p
        out += np.outer(ppmm_map.maps1d(proj, i) - proj, p)
    return out


def approx_w2(ppmm_map: PPMMMap, x) -> float:
    """Root-mean-square displacement of x under the full chain."""
    x = checked_array(x, "x", 0, ppmm_map.dim)
    return _rms(eval_ppmm(ppmm_map, x) - x)


def fit_ppmm(
    x,
    y,
    alpha: float = 1e-3,
    max_iter: int | None = None,
    bandwidth: str | None = None,
) -> tuple[PPMMMap, PPMMFitReport]:
    """Fit a projection-pursuit transport map from x-samples to y-samples.

    Each iteration takes the SAVE direction between the current samples and
    the target, fits a 1D map along it (exact sorted map when ``bandwidth``
    is None, KDE-regularized map with that rule from BANDWIDTH_RULES
    otherwise), and displaces the samples. After every iteration the rms
    displacement of the original x is recorded; from the second iteration
    on, a relative change of at most ``alpha`` stops the fit (a zero
    displacement also counts as converged). SAVE reporting no informative
    direction or hitting ``max_iter`` (default 10 * d) are the other exits.

    Returns the fitted map and a report whose w2_history has one entry per
    completed iteration.
    """
    x = checked_array(x, "x", 2)
    y = checked_array(y, "y", 2, x.shape[1])
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    d = x.shape[1]
    if max_iter is None:
        max_iter = 10 * d
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if bandwidth is not None and bandwidth not in BANDWIDTH_RULES:
        raise ValueError(
            f"bandwidth must be None or one of {BANDWIDTH_RULES}, got {bandwidth!r}"
        )

    original = x
    current = x.copy()
    directions: list[np.ndarray] = []
    maps1d: list[SortedMap1D | RegularizedMap1D] = []
    history: list[float] = []
    stop_reason = "max_iter"

    for k in range(1, max_iter + 1):
        p, diag = save_direction(current, y)
        if not diag.informative:
            stop_reason = "no_informative_direction"
            break
        proj = current @ p
        target_proj = y @ p
        if bandwidth is None:
            map1d = fit_sorted_map(proj, target_proj)
        else:
            map1d = fit_regularized_map(proj, target_proj, bandwidth)
        current += np.outer(map1d(proj) - proj, p)
        directions.append(p)
        maps1d.append(map1d)

        history.append(_rms(current - original))
        if k >= 2 and converged(history[-2], history[-1], alpha):
            stop_reason = "tolerance"
            break

    report = PPMMFitReport(w2_history=tuple(history), stop_reason=stop_reason)
    stacked = None
    if maps1d:
        cls = type(maps1d[0])
        stacked = cls(*(np.concatenate([getattr(m, f) for m in maps1d]) for f in cls.FIELDS))
    return PPMMMap(np.array(directions).reshape(-1, d), stacked), report
