"""Generative modeling of time-varying densities from sampled snapshots.

The model chains projection-pursuit optimal transport maps from a Gaussian
base through successive snapshots and interpolates between snapshot times
with per-trajectory cubic transport splines. Includes the synthetic SDE
benchmark systems and MMD-based evaluation used to validate it.
"""

from .core import (
    AffineRescaler,
    Snapshot,
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
    KdeConfig,
    RegularizedMap1D,
    SortedMap1D,
    bandwidth_isj,
    bandwidth_scott,
    fft_kde,
    fit_regularized_map,
    fit_sorted_map,
)
from .ppmm import (
    PPMMFitReport,
    PPMMMap,
    PPMMStep,
    approx_w2,
    eval_ppmm,
    fit_ppmm,
)
from .projection import Direction, SaveDiagnostics, save_direction
from .sde import (
    SDESystem,
    TrajectoryBundle,
    drift,
    euler_maruyama,
    lorenz96,
    make_benchmark,
    ornstein_uhlenbeck,
    subsample_snapshots,
    vanderpol,
)

__version__ = "0.1.0"

__all__ = [
    "AffineRescaler",
    "BandwidthGrid",
    "DPPMMModel",
    "Direction",
    "KdeConfig",
    "PPMMFitReport",
    "PPMMMap",
    "PPMMStep",
    "RegularizedMap1D",
    "SDESystem",
    "SaveDiagnostics",
    "Snapshot",
    "SnapshotSeries",
    "SortedMap1D",
    "SplineBundle",
    "TrajectoryBundle",
    "approx_w2",
    "avg_gmmd2",
    "bandwidth_isj",
    "bandwidth_scott",
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
    "save_direction",
    "save_model",
    "subsample_snapshots",
    "train_dppmm",
    "vanderpol",
    "write_snapshot_dir",
]
