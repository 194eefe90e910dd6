"""Generative modeling of time-varying densities from sampled snapshots.

The model chains projection-pursuit optimal transport maps from a Gaussian
base through successive snapshots and interpolates between snapshot times
with per-trajectory cubic transport splines. Includes the synthetic SDE
benchmark systems and MMD-based evaluation used to validate it.
"""

from .core import (
    AffineRescaler,
    SnapshotSeries,
    fit_rescaler,
    read_snapshot_csv,
    read_snapshot_dir,
    write_snapshot_dir,
)
from .dynamic import (
    DPPMMModel,
    SplineBundle,
    fit_transport_splines,
    generate,
    interpolate,
    train_dppmm,
)
from .metrics import (
    BandwidthGrid,
    avg_gmmd2,
    choose_estimator,
    gaussian_kernel,
    gmmd2,
    linear_mmd2,
    mmd2,
    per_snapshot_gmmd2,
)
from .modelio import load_model, save_model
from .ot1d import (
    Map1D,
    fft_kde,
    fit_regularized_map,
    fit_sorted_map,
    resolve_bandwidth,
)
from .ppmm import (
    PPMMFitReport,
    PPMMMap,
    approx_w2,
    eval_ppmm,
    fit_ppmm,
)
from .projection import SaveDiagnostics, save_direction
from .sde import (
    SDESystem,
    drift,
    euler_maruyama,
    lorenz96,
    make_benchmark,
    ornstein_uhlenbeck,
    vanderpol,
)

__version__ = "0.1.0"

__all__ = [
    "AffineRescaler",
    "BandwidthGrid",
    "DPPMMModel",
    "Map1D",
    "PPMMFitReport",
    "PPMMMap",
    "SDESystem",
    "SaveDiagnostics",
    "SnapshotSeries",
    "SplineBundle",
    "approx_w2",
    "avg_gmmd2",
    "choose_estimator",
    "drift",
    "euler_maruyama",
    "eval_ppmm",
    "fft_kde",
    "fit_ppmm",
    "fit_regularized_map",
    "fit_rescaler",
    "fit_sorted_map",
    "fit_transport_splines",
    "gaussian_kernel",
    "generate",
    "gmmd2",
    "interpolate",
    "linear_mmd2",
    "load_model",
    "lorenz96",
    "make_benchmark",
    "mmd2",
    "ornstein_uhlenbeck",
    "per_snapshot_gmmd2",
    "read_snapshot_csv",
    "read_snapshot_dir",
    "resolve_bandwidth",
    "save_direction",
    "save_model",
    "train_dppmm",
    "vanderpol",
    "write_snapshot_dir",
]
