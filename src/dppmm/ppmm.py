"""Projection-pursuit construction of a high-dimensional transport map.

A PPMM map is a chain of rank-one updates: each step projects the current
samples onto a direction where their distribution still differs most from
the target (per SAVE), fits a monotone 1D transport map along it, and moves
every sample along that direction by the 1D displacement. The chain stops
when the root-mean-square displacement of the original source stabilizes in
relative terms, when SAVE finds no informative direction, or at the
iteration cap. A chain is its steps' stacked arrays: the (k, d) unit
directions and the (k, K) ``knots_x`` and ``knots_y`` of the 1D maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import checked_array
from .ot1d import KDE_BINS, fit_regularized_map, fit_sorted_map
from .projection import INFORMATIVE_EIGENVALUE, save_direction

__all__ = [
    "PPMMFitReport",
    "fit_ppmm",
    "eval_ppmm",
    "converged",
]


@dataclass(frozen=True)
class PPMMFitReport:
    """Fit trace: rms-displacement history and stop reason.

    w2_history has one entry per completed iteration, so ``k_final`` is its
    length. stop_reason is one of "tolerance", "max_iter" or
    "no_informative_direction".
    """

    w2_history: tuple[float, ...]
    stop_reason: str

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


def eval_ppmm(directions, knots_x, knots_y, x) -> np.ndarray:
    """Push sample rows through a chain of rank-one transport updates.

    Step i moves every row along ``directions[i]`` by the 1D map through
    ``knots_x[i]`` and ``knots_y[i]``. Rows are independent; components
    orthogonal to every step direction are untouched. A chain without steps
    is the identity.
    """
    x = checked_array(x, "x", 0, directions.shape[1])
    out = x.copy()
    for p, kx, ky in zip(directions, knots_x, knots_y):
        proj = out @ p
        out += np.outer(np.interp(proj, kx, ky) - proj, p)
    return out


def fit_ppmm(
    x,
    y,
    alpha: float = 1e-3,
    max_iter: int | None = None,
    bandwidth: str | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], PPMMFitReport]:
    """Fit a projection-pursuit transport map from x-samples to y-samples.

    Each iteration takes the SAVE direction between the current samples and
    the target, fits a 1D map along it (exact sorted knots when ``bandwidth``
    is None, KDE-regularized knots with Scott bandwidths when it is
    "scott"), and displaces the samples. After every iteration the rms
    displacement of the original x is recorded; from the second iteration
    on, a relative change of at most ``alpha`` stops the fit (a zero
    displacement also counts as converged). A SAVE score below
    INFORMATIVE_EIGENVALUE ("no_informative_direction") or reaching
    ``max_iter`` (default 10 * d) are the other exits.

    Returns the fitted chain, (directions, knots_x, knots_y) with one row
    per step, and a report whose w2_history has one entry per completed
    iteration. Every step's map has K knots: len(x) exact ones, or the
    KDE_BINS grid points.
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
    if bandwidth not in (None, "scott"):
        raise ValueError(f"bandwidth must be None or 'scott', got {bandwidth!r}")

    fit1d, n_knots = (
        (fit_sorted_map, len(x)) if bandwidth is None else (fit_regularized_map, KDE_BINS)
    )
    original = x
    current = x.copy()
    directions: list[np.ndarray] = []
    knots_x: list[np.ndarray] = []
    knots_y: list[np.ndarray] = []
    history: list[float] = []
    stop_reason = "max_iter"

    for k in range(1, max_iter + 1):
        p, score = save_direction(current, y)
        if score < INFORMATIVE_EIGENVALUE:
            stop_reason = "no_informative_direction"
            break
        proj = current @ p
        target_proj = y @ p
        kx, ky = fit1d(proj, target_proj)
        current += np.outer(np.interp(proj, kx, ky) - proj, p)
        directions.append(p)
        knots_x.append(kx)
        knots_y.append(ky)

        disp = current - original
        history.append(float(np.sqrt(np.mean(np.sum(disp * disp, axis=1)))))
        if k >= 2 and converged(history[-2], history[-1], alpha):
            stop_reason = "tolerance"
            break

    knots = (np.reshape(k, (-1, n_knots)) for k in (knots_x, knots_y))
    chain = (np.reshape(directions, (-1, d)), *knots)
    return chain, PPMMFitReport(w2_history=tuple(history), stop_reason=stop_reason)
