"""Acceptance gate: one test (one pytest -v line) per release criterion.

Every tolerance below is pinned; measured values at the frozen seeds are
noted inline so a future regression is attributable to a code change, not
to tolerance drift. Wall-time bounds assume one commodity CPU core.
"""

import json
import math
import time

import numpy as np
import pytest

from dppmm.cli import main
from dppmm.core import SnapshotSeries
from dppmm.dynamic import fit_transport_splines, generate, interpolate, train_dppmm
from dppmm.metrics import BandwidthGrid, gmmd2, per_snapshot_gmmd2
from dppmm.ot1d import fft_kde, fit_sorted_map
from dppmm.ppmm import fit_ppmm
from dppmm.projection import save_direction
from dppmm.sde import SDESystem, benchmark_system, euler_maruyama, make_benchmark


def save_objective(x, y, p, ridge=1e-8):
    """Brute-force value of the variance-discrepancy objective along p."""
    d = x.shape[1]
    pooled = np.vstack([x, y])
    mu = pooled.mean(axis=0)
    sigma = np.cov(pooled, rowvar=False, ddof=0).reshape(d, d)
    evals, evecs = np.linalg.eigh(sigma + ridge * np.eye(d))
    w = (evecs / np.sqrt(evals)) @ evecs.T
    sx = np.cov((x - mu) @ w, rowvar=False, ddof=0).reshape(d, d)
    sy = np.cov((y - mu) @ w, rowvar=False, ddof=0).reshape(d, d)
    eye = np.eye(d)
    m = 0.5 * ((eye - sx) @ (eye - sx) + (eye - sy) @ (eye - sy))
    q = np.linalg.solve(w, p)
    q = q / np.linalg.norm(q)
    return float(q @ m @ q)


def average_gmmd2(series_a, series_b):
    """Mean generalized MMD^2 over matched snapshots, as ``evaluate`` reports it."""
    return float(np.mean([value for _, value, _ in per_snapshot_gmmd2(series_a, series_b)]))


@pytest.fixture(scope="module")
def vdp_run():
    """Van der Pol protocol shared by criteria 5 and 6.

    d = 2, M = 11, N = 10^4, B = 500, margin = 0.1; one training per alpha.
    """
    train, test = make_benchmark("vdp", 2, 10000, seed=7)
    errors = {}
    seconds = {}
    for alpha in (1e-1, 1e-2, 1e-3):
        started = time.perf_counter()
        model, _ = train_dppmm(train, alpha=alpha, seed=0)
        seconds[alpha] = time.perf_counter() - started
        mats = generate(model, 10000, seed=1)
        errors[alpha] = average_gmmd2(SnapshotSeries(model.times, mats), test)
    floor = average_gmmd2(train, test)
    return {"errors": errors, "seconds": seconds, "floor": floor}


def test_01_sorted_map_exact_pairing_and_gaussian_quantile_oracle():
    # equal sizes pair order statistics exactly
    rng = np.random.default_rng(100)
    x = rng.standard_normal(17)
    y = 0.4 + 1.7 * rng.standard_normal(17)
    m = fit_sorted_map(x, y)
    np.testing.assert_array_equal(m.knots_x[0], np.sort(x))
    np.testing.assert_array_equal(m.knots_y[0], np.sort(y))
    np.testing.assert_array_equal(m(np.sort(x)), np.sort(y))

    # N(0,1) -> N(1,4): closed-form transport is t -> 1 + 2t
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, 10000)
    y = rng.normal(1.0, 2.0, 10000)
    started = time.perf_counter()
    m = fit_sorted_map(x, y)
    elapsed = time.perf_counter() - started
    ts = np.array([-1.0, 0.0, 1.0])
    errs = np.abs(m(ts) - (1.0 + 2.0 * ts))
    assert np.max(errs) <= 0.05  # measured 0.023
    assert elapsed < 1.0


@pytest.mark.parametrize("bins", [256, 257])
def test_02_fft_kde_matches_direct_summation_oracle(bins):
    # direct summation of the same linearly binned weights, N = 200; at
    # B = 257 the FFT length 2B = 514 is not 11-smooth
    rng = np.random.default_rng(8)
    s = rng.normal(0.3, 1.1, 200)
    z = np.linspace(s.min() - 0.5, s.max() + 0.5, bins)
    step = z[1] - z[0]
    h = 0.2

    pos = (s - z[0]) / step
    idx = np.floor(pos).astype(int)
    frac = pos - idx
    weights = np.zeros(z.shape[0])
    np.add.at(weights, idx, 1.0 - frac)
    keep = idx + 1 <= z.shape[0] - 1
    np.add.at(weights, idx[keep] + 1, frac[keep])
    direct = np.array(
        [np.sum(weights * np.exp(-0.5 * ((zj - z) / h) ** 2)) for zj in z]
    )
    direct = np.maximum(direct, 0.0)
    direct = direct / (direct.sum() * step)

    started = time.perf_counter()
    dens = fft_kde(s, h, z)
    elapsed = time.perf_counter() - started
    assert np.max(np.abs(dens - direct)) <= 1e-10  # measured 2.8e-16 at B=256, 6.9e-15 at B=257
    assert elapsed < 1.0


def test_03_ppmm_w2_estimate_matches_gaussian_transport_oracles():
    # pure shift by (2, 0): true W2 = 2; diagonal stretch to
    # N(0, diag(9, 1)): true W2 = sqrt((3-1)^2) = 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10000, 2))
    y = rng.standard_normal((10000, 2)) + np.array([2.0, 0.0])
    started = time.perf_counter()
    _, report = fit_ppmm(x, y, alpha=1e-3)
    elapsed_shift = time.perf_counter() - started
    assert abs(report.w2_history[-1] - 2.0) <= 0.05 * 2.0  # measured rel 3e-4
    assert elapsed_shift < 10.0

    y2 = rng.standard_normal((10000, 2)) * np.array([3.0, 1.0])
    started = time.perf_counter()
    _, report2 = fit_ppmm(x, y2, alpha=1e-3)
    elapsed_diag = time.perf_counter() - started
    assert abs(report2.w2_history[-1] - 2.0) <= 0.10 * 2.0  # measured rel 7e-3
    assert elapsed_diag < 10.0


def test_04_save_direction_within_5_degrees_of_direction_scan():
    # extra variance planted along the 25-degree direction in d = 2
    theta = np.deg2rad(25.0)
    u = np.array([np.cos(theta), np.sin(theta)])
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4000, 2))
    y = rng.standard_normal((4000, 2)) + 1.5 * rng.standard_normal((4000, 1)) * u

    started = time.perf_counter()
    direction, diag = save_direction(x, y)
    elapsed = time.perf_counter() - started  # the method only, not the scan below
    angles = np.linspace(0.0, np.pi, 3600, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    values = np.array([save_objective(x, y, q) for q in dirs])
    best = dirs[np.argmax(values)]

    cosine = min(1.0, abs(float(direction @ best)))
    assert diag.informative
    assert np.degrees(np.arccos(cosine)) <= 5.0  # measured 0.0087 degrees
    assert elapsed < 5.0


def test_05_vanderpol_end_to_end_error_within_10x_noise_floor(vdp_run):
    # generated-vs-held-out error against the truth-vs-truth floor
    error = vdp_run["errors"][1e-3]
    floor = vdp_run["floor"]
    assert error <= 10.0 * floor  # measured 0.00684 vs floor 0.00526
    assert vdp_run["seconds"][1e-3] < 60.0  # measured ~0.5 s


def test_06_error_non_increasing_as_alpha_tightens(vdp_run):
    # alpha sweep 1e-1 -> 1e-2 -> 1e-3; one inversion up to 10% tolerated
    e = [vdp_run["errors"][a] for a in (1e-1, 1e-2, 1e-3)]
    inversions = [
        (later - earlier) / earlier
        for earlier, later in zip(e, e[1:])
        if later > earlier
    ]
    # measured strictly decreasing: 0.685 -> 0.122 -> 0.0068
    assert len(inversions) <= 1
    assert all(v <= 0.10 for v in inversions)


def test_07_spline_knot_exactness_and_held_out_interpolation():
    # train on every other snapshot of an OU series, interpolate the rest
    train, test = make_benchmark("ou", 2, 4000, seed=11, dt=0.01)
    even = SnapshotSeries(train.times[0::2], train.samples[0::2])
    model, _ = train_dppmm(even, seed=0)
    mats = generate(model, 4000, seed=2)
    bundle = fit_transport_splines(model.times, mats)

    worst = 0.0
    for t, mat in zip(model.times, mats):
        knot = interpolate(bundle, float(t))
        rel = np.abs(knot - mat) / np.maximum(np.abs(mat), 1e-12)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-9  # measured exact (0.0)

    knot_avg = average_gmmd2(
        SnapshotSeries(model.times, mats),
        SnapshotSeries(test.times[0::2], test.samples[0::2]),
    )
    held_out = SnapshotSeries(test.times[1::2], test.samples[1::2])
    interp = SnapshotSeries(
        held_out.times, [interpolate(bundle, t) for t in held_out.times.tolist()]
    )
    interp_avg = average_gmmd2(interp, held_out)
    assert interp_avg <= 3.0 * knot_avg  # measured ratio 0.766


def test_08_sde_integrator_decay_and_stationary_moments():
    system = benchmark_system("ou", 2)
    lam, diff, horizon = system.param, system.diffusion, system.horizon

    # deterministic decay: zero diffusion, point initial condition
    det = SDESystem(
        kind="ou",
        dim=2,
        param=lam,
        diffusion=0.0,
        horizon=horizon,
        init_means=np.array([[4.0, -3.0]]),
        init_std=0.0,
    )
    end = euler_maruyama(det, 1, 0.01, 0, store=2).samples[-1][0]
    decay = math.exp(-lam * horizon)
    rel = np.abs(end / (np.array([4.0, -3.0]) * decay) - 1.0)
    assert np.max(rel) <= 0.01  # measured 7.5e-4

    # stochastic moments on coordinate 1 (both mixture components agree)
    x_end = euler_maruyama(system, 100000, 0.01, 0, store=2).samples[-1][:, 1]
    mean_true = 10.0 * decay
    var_true = system.init_std**2 * decay**2 + (diff / lam) * (1.0 - decay**2)
    se = math.sqrt(var_true / x_end.shape[0])
    assert abs(x_end.mean() - mean_true) <= 3.0 * se  # measured 0.6 se
    assert abs(x_end.var(ddof=1) / var_true - 1.0) <= 0.10  # measured 0.0023


def test_09_mmd_hand_values_and_estimator_consistency():
    # two point masses at distance 0 and at distance a: closed forms
    x = np.zeros((2, 1))
    assert abs(gmmd2(x, np.zeros((2, 1)), BandwidthGrid([1.3]))) <= 1e-12
    a, sigma = 0.9, 0.7
    expected = 2.0 - 2.0 * math.exp(-(a**2) / (2.0 * sigma**2))
    assert abs(gmmd2(x, np.full((2, 1), a), BandwidthGrid([sigma])) - expected) <= 1e-12

    # linear and quadratic estimators agree in mean over 200 resamples
    rng = np.random.default_rng(0)
    one = BandwidthGrid([1.0])
    diffs = []
    for _ in range(200):
        u = rng.normal(0.0, 1.0, (400, 1))
        v = rng.normal(0.3, 1.2, (400, 1))
        diffs.append(gmmd2(u, v, one, "linear") - gmmd2(u, v, one))
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / math.sqrt(diffs.shape[0])
    assert abs(diffs.mean()) <= 3.0 * se  # measured 0.70 se


def test_10_command_determinism_and_parallel_equivalence(tmp_path):
    def run(args):
        assert main(args) == 0

    def dir_bytes(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    sim = ["simulate", "--system", "vdp", "--n", "300", "--m", "5",
           "--dt", "0.005", "--seed", "3", "--out"]
    run(sim + [str(tmp_path / "data1")])
    run(sim + [str(tmp_path / "data2")])
    assert dir_bytes(tmp_path / "data1") == dir_bytes(tmp_path / "data2")

    train = ["train", "--data", str(tmp_path / "data1" / "train"),
             "--seed", "5", "--out"]
    run(train + [str(tmp_path / "m1.json")])
    run(train + [str(tmp_path / "m2.json")])
    run(train + [str(tmp_path / "m3.json"), "--parallel", "--threads", "3"])
    m1 = (tmp_path / "m1.json").read_bytes()
    assert m1 == (tmp_path / "m2.json").read_bytes()
    assert m1 == (tmp_path / "m3.json").read_bytes()  # parallel equivalence

    sample = ["sample", "--model", str(tmp_path / "m1.json"), "--n", "200",
              "--seed", "7", "--out"]
    run(sample + [str(tmp_path / "g1")])
    run(sample + [str(tmp_path / "g2")])
    assert dir_bytes(tmp_path / "g1") == dir_bytes(tmp_path / "g2")

    interp = ["interpolate", "--model", str(tmp_path / "m1.json"),
              "--times", "0.125", "0.375", "--n", "150", "--seed", "9", "--out"]
    run(interp + [str(tmp_path / "i1")])
    run(interp + [str(tmp_path / "i2")])
    assert dir_bytes(tmp_path / "i1") == dir_bytes(tmp_path / "i2")

    # the evaluate report carries a wall-time field; all other bytes agree
    ev = ["evaluate", "--a", str(tmp_path / "data1" / "train"),
          "--b", str(tmp_path / "data1" / "test"), "--out"]
    run(ev + [str(tmp_path / "r1.json")])
    run(ev + [str(tmp_path / "r2.json")])
    r1 = json.loads((tmp_path / "r1.json").read_text())
    r2 = json.loads((tmp_path / "r2.json").read_text())
    r1.pop("seconds")
    r2.pop("seconds")
    assert r1 == r2


def test_11_training_cost_scaling_in_n_and_dimension():
    # alpha = 0 pins the iteration count at the 10*d cap, so compared runs
    # perform identical work per sample. Small and large fits alternate and
    # the median of the per-pair ratios is asserted, so that a drift in the
    # host's speed cancels within each pair instead of landing on one side.
    # One pair's n-ratio ranged over 1.35-2.26 on 2 cores, so the n-part,
    # nearer its bound, takes seven pairs. Ten standalone runs on 2 cores
    # gave ratio_n 1.68-1.85 and ratio_d 2.16-2.40
    def median_ratio(small, large, pairs):
        ratios = []
        for _ in range(pairs):
            seconds = []
            for series in (small, large):
                started = time.perf_counter()
                train_dppmm(series, alpha=0.0, seed=0)
                seconds.append(time.perf_counter() - started)
            ratios.append(seconds[1] / seconds[0])
        return float(np.median(ratios))

    small_n, _ = make_benchmark("ou", 2, 10000, seed=21, dt=0.01)
    large_n, _ = make_benchmark("ou", 2, 20000, seed=21, dt=0.01)
    ratio_n = median_ratio(small_n, large_n, pairs=7)
    assert 1.5 <= ratio_n <= 3.0  # measured 1.68-1.85

    small_d, _ = make_benchmark("ou", 4, 5000, seed=22, dt=0.01)
    large_d, _ = make_benchmark("ou", 8, 5000, seed=22, dt=0.01)
    ratio_d = median_ratio(small_d, large_d, pairs=5)
    assert ratio_d <= 8.0  # measured 2.16-2.40
