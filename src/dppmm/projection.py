"""Most-informative projection direction between two sample sets via SAVE.

Two-slice sliced average variance estimation: whiten both sets with the
pooled covariance, form M = ((I - S_x)^2 + (I - S_y)^2) / 2 from the whitened
within-group covariances, project out the directions without pooled spread,
and back-transform the top eigenvector. The top eigenvalue measures the
second-moment discrepancy the direction captures; a value at numerical zero
means the sets are indistinguishable to SAVE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import checked_array

__all__ = ["SaveDiagnostics", "save_direction"]

# Below this top eigenvalue the SAVE matrix is numerically zero and the
# direction carries no information.
INFORMATIVE_EIGENVALUE = 1e-10

# Tikhonov term added to the pooled covariance before inversion, so that it
# stays invertible. It does not make a direction without pooled spread
# harmless: whitening sends both sets to zero along it, which scores 1, the
# most any direction can; FLAT_FRACTION removes such directions.
RIDGE = 1e-8

# Directions whose ridged pooled variance is below this fraction of the
# largest are projected out of the SAVE matrix before its eigendecomposition.
FLAT_FRACTION = 1e-6


@dataclass(frozen=True)
class SaveDiagnostics:
    top_eigenvalue: float
    informative: bool


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component positive (reproducible sign)."""
    for c in v:
        if abs(c) > 1e-14:
            return -v if c < 0 else v
    return v


def save_direction(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, SaveDiagnostics]:
    """Direction along which the two samples' projected variances differ most.

    Parameters
    ----------
    x, y : (N1, d), (N2, d) arrays with N1, N2 >= 2 and finite entries.

    Returns
    -------
    (direction, SaveDiagnostics). The direction is a unit (d,) vector with its
    first nonzero component positive; ``informative`` is False when the SAVE matrix
    is numerically zero (caller should treat the pair as already matched).
    """
    x = checked_array(x, "x", 2)
    y = checked_array(y, "y", 2, x.shape[1])

    d = x.shape[1]
    pooled = np.vstack([x, y])
    mu = pooled.mean(axis=0)
    # MLE normalization (ddof=0) throughout: with ddof=1 the pooled and
    # within-group denominators disagree and identical inputs would produce
    # a spurious O(1/N^2) top eigenvalue instead of numerical zero.
    sigma = np.cov(pooled, rowvar=False, ddof=0).reshape(d, d)

    try:
        evals, evecs = np.linalg.eigh(sigma + RIDGE * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"pooled covariance eigendecomposition failed "
            f"(condition number {np.linalg.cond(sigma):.3e})"
        ) from exc
    # symmetric inverse square root of the ridged pooled covariance
    w = (evecs / np.sqrt(evals)) @ evecs.T

    xw = (x - mu) @ w
    yw = (y - mu) @ w
    sx = np.cov(xw, rowvar=False, ddof=0).reshape(d, d)
    sy = np.cov(yw, rowvar=False, ddof=0).reshape(d, d)

    eye = np.eye(d)
    m = 0.5 * ((eye - sx) @ (eye - sx) + (eye - sy) @ (eye - sy))
    spread = evecs[:, evals >= FLAT_FRACTION * evals[-1]]
    if spread.shape[1] < d:
        # the whitening shares its eigenvectors with the pooled covariance
        keep = spread @ spread.T
        m = keep @ m @ keep
    try:
        m_evals, m_evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"SAVE matrix eigendecomposition failed "
            f"(condition number {np.linalg.cond(m):.3e})"
        ) from exc

    # argmax returns the first index on exact ties, fixing the tie-break order
    top = int(np.argmax(m_evals))
    top_eigenvalue = float(m_evals[top])
    v = m_evecs[:, top]

    direction = w @ v
    direction = direction / np.linalg.norm(direction)
    direction = _fix_sign(direction)

    diagnostics = SaveDiagnostics(
        top_eigenvalue=top_eigenvalue,
        informative=top_eigenvalue >= INFORMATIVE_EIGENVALUE,
    )
    return direction, diagnostics
