import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from dppmm import dynamic
from dppmm.core import SnapshotSeries
from dppmm.dynamic import (
    DPPMMModel,
    _base_draw,
    fit_transport_splines,
    generate,
    interpolate,
    train_dppmm,
)
from dppmm.ot1d import KDE_BINS
from dppmm.ppmm import eval_ppmm
from dppmm.sde import make_benchmark


def drifting_series(seed, n=800, means=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)), std=0.3):
    rng = np.random.default_rng(seed)
    return SnapshotSeries(
        range(len(means)), [rng.normal(size=(n, 2)) * std + np.asarray(mu) for mu in means]
    )


def chains(model):
    """Each map's (directions, knots_x, knots_y) rows of the model's stacked arrays."""
    stops = np.cumsum(model.steps)
    return [
        tuple(a[start:stop] for a in (model.directions, model.knots_x, model.knots_y))
        for start, stop in zip(stops - model.steps, stops)
    ]


def _map1d_fields(knots_x, knots_y):
    # the per-step layout of the former sorted maps, kept byte for byte so
    # that the pinned sorted-map digest still checks the same numbers
    return {"variant": "sorted", "knots_x": knots_x.tolist(), "knots_y": knots_y.tolist()}


def maps_json(model):
    """Every fitted number of the chain as compact JSON, floats by repr."""
    maps = [
        {
            "steps": [
                {"direction": p.tolist(), "map1d": _map1d_fields(kx, ky)}
                for p, kx, ky in zip(*chain)
            ]
        }
        for chain in chains(model)
    ]
    return json.dumps(maps, separators=(",", ":")).encode()


class TestModelValidation:
    def make_model(self, **overrides):
        kwargs = dict(
            shift=np.zeros(2),
            scale=np.ones(2),
            times=np.array([0.0, 1.0]),
            steps=np.array([0, 0]),
            directions=np.zeros((0, 2)),
            knots_x=np.zeros((0, 2)),
            knots_y=np.zeros((0, 2)),
        )
        kwargs.update(overrides)
        return DPPMMModel(**kwargs)

    def test_valid_model(self):
        m = self.make_model()
        assert m.dim == 2

    def test_rejects_time_map_mismatch(self):
        with pytest.raises(ValueError, match=r"one step count >= 0 per time, got steps \[0\]"):
            self.make_model(steps=np.array([0]))

    def test_rejects_non_finite_or_non_increasing_times(self):
        for times in ([0.0, np.inf], [np.nan, 1.0], [0.5, 0.5], [2.0, 1.0]):
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                self.make_model(times=np.array(times))
        # times keep their data units: nothing confines them to [0, 1]
        assert self.make_model(times=np.array([3.0, 10.5])).times[-1] == 10.5

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="directions has 3 columns, expected 2"):
            self.make_model(directions=np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                dict(steps=np.array([1, -1])),
                "need one step count >= 0 per time, got steps [1, -1]",
            ),
            (
                dict(steps=np.array([0.0, 0.0])),
                "need one step count >= 0 per time, got steps [0.0, 0.0]",
            ),
            (dict(steps=np.array([1, 0])), "step counts sum to 1, but 0 directions"),
            (
                # 2**64 + 2 wraps to 2 in int64, which would hand map 3 both rows
                dict(
                    times=np.arange(4.0),
                    steps=np.array([2**62] * 3 + [2**62 + 2]),
                    directions=np.eye(2),
                    knots_x=np.tile([0.0, 1.0], (2, 1)),
                    knots_y=np.tile([0.0, 1.0], (2, 1)),
                ),
                "step counts sum to 18446744073709551618, but 2 directions",
            ),
            (
                dict(steps=np.array([1, 0]), directions=np.array([[1.0, 0.0]])),
                "1 directions but 0 knot rows",
            ),
            (
                dict(
                    steps=np.array([0, 1]),
                    directions=np.array([[0.0, 1.0]]),
                    knots_x=np.array([[0.0, 1.0]]),
                    knots_y=np.array([[1.0, 0.0]]),
                ),
                "knots_y must be finite and nondecreasing",
            ),
            (
                dict(knots_x=np.zeros((0, 2)), knots_y=np.zeros((0, 3))),
                "knots need one shape (n >= 2), got (0, 2), (0, 3)",
            ),
            (
                dict(
                    steps=np.array([1, 0]),
                    directions=np.array([[1.0, 0.0]]),
                    knots_x=np.array([[0.0]]),
                    knots_y=np.array([[1.0]]),
                ),
                "knots need one shape (n >= 2), got (1, 1), (1, 1)",
            ),
            (
                # the last row only, so a check of row 0 alone would pass it
                dict(
                    steps=np.array([1, 2]),
                    directions=np.eye(2)[[0, 1, 0]],
                    knots_x=np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
                    knots_y=np.tile([0.0, 1.0], (3, 1)),
                ),
                "knots_x must be finite and nondecreasing",
            ),
            (
                dict(
                    steps=np.array([1, 0]),
                    directions=np.array([[1.0, 0.0]]),
                    knots_x=np.array([[0.0, 1.0]]),
                    knots_y=np.array([[0.0, np.inf]]),
                ),
                "knots_y must be finite and nondecreasing",
            ),
            (
                # one map may not be given as two vectors
                dict(
                    steps=np.array([1, 0]),
                    directions=np.array([[1.0, 0.0]]),
                    knots_x=np.array([0.0, 1.0]),
                    knots_y=np.array([0.0, 1.0]),
                ),
                "knots_x must be a 2-D array, got ndim=1",
            ),
        ],
        ids=[
            "negative", "float", "sum", "sum-wraps", "knot-rows", "decreasing-knots",
            "knot-shapes", "one-knot", "decreasing-last-knot-row", "non-finite-knot",
            "1-D-knots",
        ],
    )
    def test_rejects_bad_chain(self, overrides, message):
        # map j is the next steps[j] rows of the stacked arrays, so the step
        # counts must partition the direction rows, one knot row per direction
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            self.make_model(**overrides)

    def test_map_j_is_its_rows(self):
        directions = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        knots = np.tile([0.0, 1.0], (3, 1))
        model = self.make_model(steps=[2, 1], directions=directions, knots_x=knots, knots_y=knots)
        assert model.steps.dtype == np.int64
        assert [c[0].tolist() for c in chains(model)] == [directions[:2].tolist(), [[0.6, 0.8]]]

    def test_knots_are_private_copies(self):
        kx, ky = np.array([[0.0, 1.0, 2.0]]), np.array([[0.0, 2.0, 4.0]])
        model = self.make_model(
            steps=[1, 0], directions=np.array([[1.0, 0.0]]), knots_x=kx, knots_y=ky
        )
        kx[0, 1] = -3.0  # would make the stored knots decreasing
        ky[0, 2] = 9.0
        assert kx.flags.writeable
        assert not (model.knots_x.flags.writeable or model.knots_y.flags.writeable)
        np.testing.assert_array_equal(model.knots_x, [[0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(model.knots_y, [[0.0, 2.0, 4.0]])
        out = eval_ppmm(model.directions, model.knots_x, model.knots_y, np.array([[1.5, 0.0]]))
        np.testing.assert_array_equal(out, [[3.0, 0.0]])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(scale=np.array([1.0, 0.0])), "scale entries must be positive"),
            (dict(shift=np.array([np.nan, 0.0])), "shift contains non-finite entries"),
            (dict(scale=np.ones(3)), "scale has 3 entries, expected 2"),
        ],
        ids=["zero-scale", "nan-shift", "lengths-differ"],
    )
    def test_rejects_bad_shift_or_scale(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.make_model(**overrides)


class TestTrainDppmm:
    def test_requires_two_snapshots(self):
        series = SnapshotSeries([0.0], [np.zeros((5, 2))])
        with pytest.raises(ValueError, match="at least 2"):
            train_dppmm(series)

    def test_recovers_drifting_gaussian_means(self):
        series = drifting_series(110)
        model, reports = train_dppmm(series, seed=1)
        assert len(model.steps) == len(series) == len(reports)
        assert model.steps.tolist() == [r.k_final for r in reports]
        np.testing.assert_array_equal(model.times, series.times)
        generated = generate(model, 4000, seed=2)
        for mats, mu in zip(generated, ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))):
            np.testing.assert_allclose(mats.mean(axis=0), mu, atol=0.07)
            np.testing.assert_allclose(mats.std(axis=0), 0.3, atol=0.07)

    def test_parallel_matches_sequential_bit_for_bit(self, monkeypatch):
        series = drifting_series(111, n=400)
        seq, seq_reports = train_dppmm(series, seed=3, parallel=False)
        par, par_reports = train_dppmm(series, seed=3, parallel=True, workers=3)
        assert maps_json(seq) == maps_json(par)
        assert seq_reports == par_reports

        # workers alone sizes the pool; parallel is not needed
        sizes = []

        class Pool(dynamic.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(dynamic, "ThreadPoolExecutor", Pool)
        alone, alone_reports = train_dppmm(series, seed=3, workers=3)
        assert sizes == [3]
        assert maps_json(seq) == maps_json(alone)
        assert seq_reports == alone_reports

    def test_failed_pair_reports_its_index(self):
        a = np.random.default_rng(0).normal(size=(50, 2))
        b = np.random.default_rng(1).normal(size=(1, 2))
        series = SnapshotSeries([0.0, 1.0], [a, b])
        with pytest.raises(ValueError, match="snapshot pair 1"):
            train_dppmm(series)

    def test_seed_only_affects_base_map(self):
        series = drifting_series(114, n=300)
        m0, _ = train_dppmm(series, seed=0)
        m1, _ = train_dppmm(series, seed=99)
        probe = np.random.default_rng(5).normal(size=(20, 2)) * 0.3
        c0, c1 = chains(m0), chains(m1)
        # the base->first map differs with the seed ...
        assert not np.array_equal(eval_ppmm(*c0[0], probe), eval_ppmm(*c1[0], probe))
        # ... but snapshot-to-snapshot maps never see the base draw
        for j in (1, 2):
            np.testing.assert_array_equal(eval_ppmm(*c0[j], probe), eval_ppmm(*c1[j], probe))

    def test_stationary_series_gives_small_secondary_displacements(self):
        rng = np.random.default_rng(115)
        series = SnapshotSeries(range(3), [rng.normal(size=(1500, 2)) for _ in range(3)])
        model, reports = train_dppmm(series)
        # maps between same-law snapshots move samples only by sampling noise
        gen = [(x - model.shift) / model.scale for x in generate(model, 3000, seed=1)]
        for j in (1, 2):
            rms = np.sqrt(np.mean(np.sum((gen[j] - gen[j - 1]) ** 2, axis=1)))
            assert rms < 0.15

    def test_direction_without_pooled_spread_does_not_stall_the_maps(self):
        # OU d=3 plus a 4th column with no spread of its own in the snapshots.
        # SAVE scored such a direction 1, the most any direction can, and the
        # 1D map along it moved nothing: with a constant column maps 1-4
        # stopped after 2 steps with w2 0.0; with x1 + x2 as the column map 0
        # ran to its 40-step cap and maps 1-4 stopped with w2 near 1e-16
        train, _ = make_benchmark("ou", 3, 1000, 5, m=5, dt=0.05)

        def widened(column):
            return SnapshotSeries(
                train.times, [np.hstack([x, column(x)]) for x in train.samples]
            )

        _, plain = train_dppmm(train)
        _, const = train_dppmm(widened(lambda x: np.full((len(x), 1), 0.5)))
        _, combo = train_dppmm(widened(lambda x: x[:, :1] + x[:, 1:2]))
        # a constant column leaves maps 1-4 as without it: measured steps
        # [11, 8, 8, 7] and w2 equal to 1e-15
        steps = [r.k_final for r in const[1:]]
        assert steps == [r.k_final for r in plain[1:]] == [11, 8, 8, 7]
        np.testing.assert_allclose(
            [r.w2_history[-1] for r in const[1:]],
            [r.w2_history[-1] for r in plain[1:]],
            rtol=1e-12,
        )
        # measured steps [5, 23, 17, 11, 14], w2 of maps 1-4 from 0.33 to 1.00
        assert all(r.stop_reason == "tolerance" for r in combo)
        assert combo[0].k_final <= 10
        assert min(r.w2_history[-1] for r in combo[1:]) >= 0.25

    def test_ragged_series_trains_with_grid_knots(self):
        # sources of 300 and 200 rows: KDE maps keep KDE_BINS grid knots
        # whatever the row counts, so every map's knots stack in one matrix
        rng = np.random.default_rng(117)
        series = SnapshotSeries(
            range(3), [rng.normal(size=(n, 2)) * 0.3 + j for j, n in enumerate((300, 200, 250))]
        )
        model, _ = train_dppmm(series)
        assert model.knots_x.shape == (model.steps.sum(), KDE_BINS)

    def test_memory_peak_frees_the_fits_before_the_model_copies(self):
        # OU d=8 knots as the benchmark trains on them: holding each map's
        # chain and the rescaled data while the model copied the stacked
        # chain peaked at 1.10 MB, freeing them first at 0.71 MB
        train, _ = make_benchmark("ou", 8, 500, 5, dt=0.01)
        knots = SnapshotSeries(train.times[::2], train.samples[::2])
        train_dppmm(knots)  # first-call allocations are not the training's
        tracemalloc.start()
        try:
            train_dppmm(knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.9e6


class TestGenerate:
    def test_rows_are_coupled_by_the_chain(self):
        series = drifting_series(120, n=300)
        model, _ = train_dppmm(series, seed=0)
        gen = generate(model, 500, seed=7)
        current = _base_draw(500, model.dim, 7)
        for chain, mat in zip(chains(model), gen):
            current = eval_ppmm(*chain, current)
            assert mat.tobytes() == (current * model.scale + model.shift).tobytes()

    def test_deterministic_in_seed(self):
        series = drifting_series(121, n=200)
        model, _ = train_dppmm(series)
        a = generate(model, 100, seed=3)
        b = generate(model, 100, seed=3)
        c = generate(model, 100, seed=4)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)
        assert not np.array_equal(a[0], c[0])

    def test_n_validation(self):
        series = drifting_series(123, n=50)
        model, _ = train_dppmm(series)
        with pytest.raises(ValueError, match="n must be"):
            generate(model, 0, seed=0)

    @pytest.mark.parametrize(
        "exact, maps_digest, samples_digest, max_abs",
        [
            (
                False,
                "bd4f852c1acffb3d5e12c9adfa25c76b86ec2e693ae2f4b44c1043a429e35da9",
                "9e53e7d57ab49c6efdf9290947edd5b6464aecf0f0dbed10995c6fe6be9492d7",
                1.5,  # measured 1.20; 1.24 when KDE maps were the identity off their grid
            ),
            (
                True,
                "d8c9a8bec8937878a268fa217855b0a68dd1a572f4ad4eb549bc431a08aca318",
                "92daf45526038c8dcd9e0e138fbb033311f1788f0e13a824dcad355bde2ddf43",
                1.5,  # measured 1.06; 3.0e3 when sorted maps extended linearly
            ),
        ],
        ids=["scott", "sorted"],
    )
    def test_fit_and_generate_bytes_are_pinned(
        self, train_exact, exact, maps_digest, samples_digest, max_abs
    ):
        # SHA-256 of the fitted maps' JSON (the layout of the former JSON
        # model file, built by maps_json) and of the generated matrices:
        # a refactor of the fit or of generation must keep these bytes; the
        # training data lie inside [-1, 1], and so must the samples, roughly
        train, _ = make_benchmark("ou", 3, 200, 1, m=5, dt=0.05)
        model, _ = (train_exact if exact else train_dppmm)(train)
        assert hashlib.sha256(maps_json(model)).hexdigest() == maps_digest
        samples = np.stack(generate(model, 200, seed=2)).astype("<f8")
        assert hashlib.sha256(samples.tobytes()).hexdigest() == samples_digest
        assert np.abs(samples).max() <= max_abs

    def test_sorted_maps_stay_bounded_at_the_iteration_cap(self, train_exact):
        # OU d=8: with alpha=0 the sorted-map fit runs to 160 steps, and
        # linear extension past the end knots compounded step after step to
        # max |x| of 1.5e21 and 1.4e38 on data inside [-1, 1]
        train, _ = make_benchmark("ou", 8, 500, 7, dt=0.01)
        first_two = SnapshotSeries(train.times[:2], train.samples[:2])
        model, _ = train_exact(first_two, alpha=0, max_iter=160)
        gen = [(x - model.shift) / model.scale for x in generate(model, 500, seed=1)]
        assert np.abs(gen[0]).max() <= 1.5  # measured 1.04
        assert np.abs(gen[1]).max() <= 1.5  # measured 1.13


class TestTransportSplines:
    def test_cubic_polynomial_reproduced_exactly(self):
        # values sampled from a per-entry cubic in t: a cubic spline with
        # not-a-knot ends reproduces the polynomial identically
        rng = np.random.default_rng(130)
        times = np.array([0.0, 0.3, 0.55, 0.8, 1.0])
        coeffs = rng.normal(size=(4, 6, 2))

        def poly(t):
            return sum(c * t**k for k, c in enumerate(coeffs))

        bundle = fit_transport_splines(times, [poly(t) for t in times])
        for t in (0.1, 0.42, 0.9):
            np.testing.assert_allclose(
                interpolate(bundle, t), poly(t), rtol=1e-12, atol=1e-12
            )

    def test_two_knots_linear(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[2.0, 5.0]])
        bundle = fit_transport_splines([0.0, 1.0], [a, b])
        np.testing.assert_allclose(interpolate(bundle, 0.5), [[1.0, 3.0]], atol=1e-12)

    def test_three_knots_quadratic(self):
        times = np.array([0.0, 1.0, 2.0])
        vals = [np.array([[0.0]]), np.array([[1.0]]), np.array([[4.0]])]
        bundle = fit_transport_splines(times, vals)
        # unique parabola through (0,0), (1,1), (2,4) is t^2
        np.testing.assert_allclose(
            interpolate(bundle, 1.5), [[2.25]], rtol=1e-12
        )

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_scipy_not_a_knot_spline(self, m):
        # oracle: scipy's CubicSpline, whose not-a-knot ends also degrade to
        # the parabola at 3 knots and the line at 2; worst error measured
        # over m = 2..8 is 5.3e-15
        interp = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(133 + m)
        times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, m - 1))))
        times /= times[-1]
        mats = rng.normal(size=(m, 7, 3))
        bundle = fit_transport_splines(times, list(mats))
        oracle = interp.CubicSpline(times, mats, axis=0, bc_type="not-a-knot")
        for t in rng.uniform(times[0], times[-1], size=10):
            np.testing.assert_allclose(interpolate(bundle, t), oracle(t), rtol=0, atol=1e-12)

    def test_knot_time_returns_stored_matrix_verbatim(self):
        rng = np.random.default_rng(131)
        times = np.array([0.0, 0.25, 0.75, 1.0])
        mats = [rng.normal(size=(7, 3)) for _ in times]
        bundle = fit_transport_splines(times, mats)
        for t, mat in zip(times, mats):
            out = interpolate(bundle, float(t))
            np.testing.assert_array_equal(out, mat)
        # the returned matrix is a copy, not a view into the bundle
        out = interpolate(bundle, 0.25)
        out[0, 0] = 1e9
        np.testing.assert_array_equal(interpolate(bundle, 0.25), mats[1])

    def test_bundle_holds_only_its_knots(self):
        # measured 1.00x held and 1.17x peak; a bundle that also kept the
        # knots' second derivatives read 2.00x and 3.84x
        rng = np.random.default_rng(134)
        times = np.linspace(0.0, 1.0, 6)
        mats = list(rng.normal(size=(6, 2500, 10)))
        knot_bytes = sum(x.nbytes for x in mats)
        tracemalloc.start()
        try:
            bundle = fit_transport_splines(times, mats)
            held = tracemalloc.get_traced_memory()[0]
            interpolate(bundle, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [f.name for f in dataclasses.fields(bundle)] == ["times", "values"]
        assert held <= 1.1 * knot_bytes
        assert peak <= 1.5 * knot_bytes

    def test_range_is_enforced(self):
        bundle = fit_transport_splines(
            [0.0, 1.0], [np.zeros((2, 2)), np.ones((2, 2))]
        )
        with pytest.raises(ValueError, match="outside"):
            interpolate(bundle, -0.1)
        with pytest.raises(ValueError, match="outside"):
            interpolate(bundle, 1.1)

    def test_validation(self):
        z = np.zeros((3, 2))
        with pytest.raises(ValueError, match="at least 2"):
            fit_transport_splines([0.0], [z])
        with pytest.raises(ValueError, match="increasing"):
            fit_transport_splines([0.0, 0.0], [z, z])
        with pytest.raises(ValueError, match="expected 2 snapshot"):
            fit_transport_splines([0.0, 1.0], [z, z, z])
        with pytest.raises(ValueError, match=r"snapshot 1 has shape \(4, 2\), snapshot 0 has \(3, 2\)"):
            fit_transport_splines([0.0, 1.0], [z, np.zeros((4, 2))])
        with pytest.raises(ValueError, match=r"snapshot 2 has shape \(3, 1\)"):
            fit_transport_splines([0.0, 1.0, 2.0, 3.0], [z, z, np.zeros((3, 1)), np.zeros((5, 2))])
        bad = z.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_transport_splines([0.0, 1.0], [z, bad])
        with pytest.raises(ValueError, match="no columns"):
            fit_transport_splines([0.0, 1.0], [z, np.zeros((3, 0))])

    def test_interpolated_trajectories_connect_generated_snapshots(self):
        series = drifting_series(132, n=400)
        model, _ = train_dppmm(series)
        gen = generate(model, 200, seed=1)
        bundle = fit_transport_splines(model.times, gen)
        mid = interpolate(bundle, 0.25)
        assert mid.shape == (200, 2)
        # between-knot states stay between the bracketing snapshot means
        assert (
            gen[0].mean(axis=0)[0]
            < mid.mean(axis=0)[0]
            < gen[1].mean(axis=0)[0]
        )
