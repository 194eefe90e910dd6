import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

import dppmm.sde
from dppmm import cli
from dppmm.core import fit_rescaler
from dppmm.sde import (
    BENCHMARK_SNAPSHOTS,
    SDESystem,
    benchmark_system,
    drift,
    euler_maruyama,
    make_benchmark,
)


class TestSystemFactories:
    def test_vanderpol_defaults(self):
        s = benchmark_system("vdp")
        assert s.kind == "vdp" and s.dim == 2
        assert s.param == 1.0
        assert s.diffusion == 2.5e-3
        assert s.horizon == 6.0
        np.testing.assert_array_equal(s.init_means, [[1.0, 1.0]])
        assert s.init_std == 5e-2

    def test_ou_mixture_means(self):
        assert benchmark_system("ou").dim == 2
        s = benchmark_system("ou", 4)
        assert s.param == 0.1 and s.diffusion == 5e-2 and s.horizon == 15.0
        np.testing.assert_array_equal(
            s.init_means, [[-10.0, 10.0, 10.0, 10.0], [10.0, 10.0, 10.0, 10.0]]
        )

    def test_lorenz96_horizon_switch(self):
        s = benchmark_system("lorenz96")
        assert s.dim == 4 and s.horizon == 5.0
        assert s.param == 2.0 and s.diffusion == 5e-3 and s.init_std == 1e-1
        np.testing.assert_array_equal(s.init_means, [[4.0, 0.0, 0.0, 0.0]])
        assert benchmark_system("lorenz96", 9).horizon == 5.0
        assert benchmark_system("lorenz96", 10).horizon == 3.5

    def test_dimension_constraints(self):
        with pytest.raises(ValueError, match=r"vdp system requires d = 2, got d = 3"):
            SDESystem("vdp", 3, 1.0, 0.0, 1.0, np.zeros((1, 3)), 0.0)
        with pytest.raises(ValueError, match=r"ou system requires d >= 2, got d = 1"):
            benchmark_system("ou", 1)
        with pytest.raises(ValueError, match=r"lorenz96 system requires d >= 4, got d = 3"):
            benchmark_system("lorenz96", 3)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            *(
                pytest.param(
                    field, value, f"^{field} must be finite, got {value!r}$",
                    id=f"{field}-{value}",
                )
                for field in ("param", "diffusion", "horizon", "init_std")
                for value in (float("nan"), float("inf"))
            ),
            pytest.param("diffusion", -0.1, "^diffusion must be nonnegative$", id="diffusion<0"),
            pytest.param("horizon", 0.0, "^horizon must be positive$", id="horizon=0"),
            pytest.param("init_std", -0.1, "^init_std must be nonnegative$", id="init_std<0"),
        ],
    )
    def test_scalar_constraints(self, field, value, message):
        # a NaN diffusion used to switch the noise off, and NaN param or
        # init_std, or an infinite horizon, failed only once integrated
        fields = dict(param=0.1, diffusion=0.1, horizon=1.0, init_std=0.1)
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            SDESystem("ou", 2, init_means=np.zeros((1, 2)), **fields)


class TestDrift:
    def test_vdp_hand_values(self):
        s = dataclasses.replace(benchmark_system("vdp"), param=2.0)
        v = drift(s, np.array([3.0, 1.5]))
        # dx1 = x2; dx2 = c (1 - x1^2) x2 - x1 = 2 * (1 - 9) * 1.5 - 3
        np.testing.assert_allclose(v, [1.5, -27.0])

    def test_ou_hand_values(self):
        s = dataclasses.replace(benchmark_system("ou", 3), param=0.5)
        v = drift(s, np.array([2.0, -4.0, 0.0]))
        np.testing.assert_allclose(v, [-1.0, 2.0, 0.0])

    def test_lorenz96_hand_values(self):
        s = benchmark_system("lorenz96", 4)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        # dx_i = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F with cyclic indices
        expected = np.array(
            [
                (2.0 - 3.0) * 4.0 - 1.0 + 2.0,
                (3.0 - 4.0) * 1.0 - 2.0 + 2.0,
                (4.0 - 1.0) * 2.0 - 3.0 + 2.0,
                (1.0 - 2.0) * 3.0 - 4.0 + 2.0,
            ]
        )
        np.testing.assert_allclose(drift(s, x), expected)

    def test_lorenz96_cyclic_equivariance(self):
        # rolling the state rolls the drift: the coupling is translation
        # invariant around the ring
        s = dataclasses.replace(benchmark_system("lorenz96", 7), param=1.3)
        rng = np.random.default_rng(100)
        x = rng.normal(size=7)
        np.testing.assert_array_equal(
            drift(s, np.roll(x, 2)), np.roll(drift(s, x), 2)
        )

    def test_vectorized_over_leading_axes(self):
        s = benchmark_system("vdp")
        rng = np.random.default_rng(101)
        x = rng.normal(size=(5, 4, 2))
        v = drift(s, x)
        assert v.shape == x.shape
        np.testing.assert_array_equal(v[2, 3], drift(s, x[2, 3]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            drift(benchmark_system("vdp"), np.zeros(3))

    @pytest.mark.parametrize("d", [4, 10])
    def test_lorenz96_bit_identical_to_roll_formula(self, d):
        s = benchmark_system("lorenz96", d)
        x = 4.0 * np.random.default_rng(d).normal(size=(3, 5, d))
        for arr in (x, x[1], x[2, 4]):
            expected = (
                (np.roll(arr, -1, axis=-1) - np.roll(arr, 2, axis=-1))
                * np.roll(arr, 1, axis=-1)
                - arr
                + s.param
            )
            assert np.array_equal(drift(s, arr), expected)


class TestEulerMaruyama:
    def test_deterministic_ou_matches_exponential_decay(self):
        # zero diffusion and zero init spread: every path follows the ODE
        # x' = -lambda x, so the endpoint is x0 * exp(-lambda T) + O(dt)
        s = SDESystem("ou", 2, 0.5, 0.0, 2.0, np.array([[4.0, -6.0]]), 0.0)
        series = euler_maruyama(s, n=3, dt=1e-4, seed=0)
        end = series.samples[-1]
        expected = np.array([4.0, -6.0]) * np.exp(-0.5 * 2.0)
        np.testing.assert_allclose(end, np.tile(expected, (3, 1)), rtol=1e-3)

    def test_step_count_and_times(self):
        s = SDESystem("ou", 2, 0.1, 0.0, 1.0, np.zeros((1, 2)), 0.0)
        series = euler_maruyama(s, n=1, dt=0.3, seed=0)
        # ceil(1.0 / 0.3) = 4 steps -> 5 stored states
        assert len(series) == 5
        assert all(x.shape == (1, 2) for x in series.samples)
        np.testing.assert_allclose(series.times, [0.0, 0.3, 0.6, 0.9, 1.2])

    def test_store_subset_indices(self):
        s = SDESystem("ou", 2, 0.1, 1e-3, 1.0, np.zeros((1, 2)), 0.0)
        full = euler_maruyama(s, n=4, dt=1e-3, seed=7)
        part = euler_maruyama(s, n=4, dt=1e-3, seed=7, store=11)
        idx = np.round(np.linspace(0, 1000, 11)).astype(int)
        assert len(full) == 1001 and len(part) == 11
        np.testing.assert_array_equal(part.times, full.times[idx])
        for x, i in zip(part.samples, idx):
            np.testing.assert_array_equal(x, full.samples[i])

    def test_reproducible_and_seed_sensitive(self):
        s = benchmark_system("ou")
        a = euler_maruyama(s, n=5, dt=0.01, seed=42, store=4)
        b = euler_maruyama(s, n=5, dt=0.01, seed=42, store=4)
        c = euler_maruyama(s, n=5, dt=0.01, seed=43, store=4)
        for xa, xb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(xa, xb)
        assert not np.array_equal(a.samples[-1], c.samples[-1])

    def test_mixture_initial_condition_uses_both_modes(self):
        s = benchmark_system("ou", 2)
        series = euler_maruyama(s, n=400, dt=0.5, seed=3, store=2)
        first = series.samples[0][:, 0]
        assert np.sum(first < 0) > 100
        assert np.sum(first > 0) > 100
        # modes are tight around +-10
        assert np.all(np.minimum(np.abs(first - 10), np.abs(first + 10)) < 1.0)

    def test_blowup_reports_trajectory_and_step(self):
        # positive feedback: lambda < 0 explodes under long horizons
        s = SDESystem("ou", 2, -50.0, 0.0, 200.0, np.array([[1.0, 1.0]]), 0.0)
        with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match=r"trajectory \d+ at step \d+"
        ):
            euler_maruyama(s, n=2, dt=1.0, seed=0)

    def test_zero_diffusion_skips_noise_stream(self):
        # noise is only drawn when D > 0, so the initial-condition draw is
        # the sole generator use and deterministic runs stay aligned
        s0 = SDESystem("ou", 2, 0.1, 0.0, 1.0, np.array([[1.0, 2.0]]), 0.0)
        a = euler_maruyama(s0, n=3, dt=0.1, seed=5)
        b = euler_maruyama(s0, n=3, dt=0.1, seed=999)
        for xa, xb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(xa, xb)

    def test_out_receives_kept_states_as_snapshot_views(self):
        s = benchmark_system("ou", 3)
        out = np.empty((4, 6, 3))
        series = euler_maruyama(s, n=6, dt=0.1, seed=9, store=4, out=out)
        reference = euler_maruyama(s, n=6, dt=0.1, seed=9, store=4)
        assert out.flags.writeable
        for k, (x, ref) in enumerate(zip(series.samples, reference.samples)):
            assert np.shares_memory(x, out[k])
            assert not x.flags.writeable
            np.testing.assert_array_equal(out[k], ref)

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((5, 6, 3)),
            np.empty((4, 6, 3), dtype=np.float32),
            np.empty((4, 6, 6))[..., ::2],
            np.empty((4, 6, 3)).tolist(),
            np.frombuffer(bytes(4 * 6 * 3 * 8)).reshape(4, 6, 3),
        ],
        ids=["shape", "dtype", "non-contiguous", "list", "read-only"],
    )
    def test_out_validation(self, out):
        with pytest.raises(ValueError, match="out must be"):
            euler_maruyama(benchmark_system("ou", 3), 6, 0.1, 9, store=4, out=out)

    def test_validation(self):
        s = benchmark_system("vdp")
        with pytest.raises(ValueError, match="n must be"):
            euler_maruyama(s, n=0, dt=0.1, seed=0)
        with pytest.raises(ValueError, match="dt"):
            euler_maruyama(s, n=1, dt=0.0, seed=0)
        with pytest.raises(ValueError, match="dt"):
            euler_maruyama(s, n=1, dt=100.0, seed=0)
        with pytest.raises(ValueError, match="dt 5e-324 makes more than"):
            euler_maruyama(s, n=1, dt=5e-324, seed=0)
        with pytest.raises(ValueError, match="store"):
            euler_maruyama(s, n=1, dt=1.0, seed=0, store=1)
        with pytest.raises(ValueError, match="store"):
            euler_maruyama(s, n=1, dt=1.0, seed=0, store=100)


class TestMakeBenchmark:
    def test_protocol_shape_and_rescaling(self):
        train, test = make_benchmark("vdp", d=2, n=300, seed=11, dt=5e-3)
        assert len(train) == len(test) == BENCHMARK_SNAPSHOTS
        np.testing.assert_allclose(train.times, np.linspace(0, 1, 11), atol=1e-12)
        np.testing.assert_allclose(test.times, train.times)
        pooled = np.vstack(train.samples)
        np.testing.assert_allclose(pooled.min(axis=0), -1.0, atol=1e-12)
        np.testing.assert_allclose(pooled.max(axis=0), 1.0, atol=1e-12)
        # the test split uses the train rescaler, so it can poke outside
        held = np.vstack(test.samples)
        assert held.min() > -1.5 and held.max() < 1.5

    def test_splits_are_views_of_one_state_array(self):
        # no snapshot is copied out of the (2, m, n, d) array both splits fill
        train, test = make_benchmark("ou", d=3, n=20, seed=1, m=4, dt=0.05)
        owners = {id(x.base) for x in train.samples + test.samples}
        assert len(owners) == 1
        assert train.samples[0].base.shape == (2, 4, 20, 3)
        assert not any(x.flags.writeable for x in train.samples + test.samples)

    def test_train_and_test_streams_differ(self):
        train, test = make_benchmark("ou", d=2, n=100, seed=5, dt=0.01)
        assert not np.array_equal(train.samples[0], test.samples[0])

    def test_deterministic_in_seed(self):
        a_train, a_test = make_benchmark("lorenz96", d=4, n=50, seed=2, dt=0.01)
        b_train, b_test = make_benchmark("lorenz96", d=4, n=50, seed=2, dt=0.01)
        for xa, xb in zip(a_train.samples + a_test.samples, b_train.samples + b_test.samples):
            np.testing.assert_array_equal(xa, xb)

    def test_ou_bimodal_start_contracts(self):
        train, _ = make_benchmark("ou", d=2, n=500, seed=8, dt=0.01)
        # rescaled first snapshot keeps two separated clusters along x1
        first = train.samples[0][:, 0]
        assert np.sum(first < -0.8) > 100 and np.sum(first > 0.8) > 100
        # by the final snapshot the paths have decayed toward the origin
        last = train.samples[-1]
        assert np.max(np.linalg.norm(last, axis=1)) < np.max(
            np.linalg.norm(train.samples[0], axis=1)
        )

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="vdp system requires d = 2, got d = 3"):
            make_benchmark("vdp", d=3, n=10, seed=0)
        with pytest.raises(ValueError, match="unknown benchmark"):
            make_benchmark("heat", d=2, n=10, seed=0)

    @pytest.mark.parametrize(
        "name,system",
        [
            ("vdp", benchmark_system("vdp")),
            ("ou", benchmark_system("ou", 3)),
            ("lorenz96", benchmark_system("lorenz96", 4)),
        ],
    )
    def test_concurrent_splits_match_sequential_runs(self, name, system):
        # the reference integrates the two spawned streams one after the
        # other; a short switch interval interleaves the concurrent splits
        seeds = np.random.SeedSequence(3).spawn(2)
        raw = [euler_maruyama(system, 60, 0.05, sq, store=5) for sq in seeds]
        shift, scale = fit_rescaler(raw[0])
        horizon = raw[0].times[-1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            splits = make_benchmark(name, system.dim, 60, seed=3, m=5, dt=0.05)
        finally:
            sys.setswitchinterval(interval)
        for split, ref in zip(splits, raw):
            assert split.times.tobytes() == (ref.times / horizon).tobytes()
            for x, r in zip(split.samples, ref.samples):
                assert x.tobytes() == ((r - shift) / scale).tobytes()

    def test_splits_run_through_module_function_on_two_threads(self, monkeypatch):
        # perfbench's tracer times the module-level euler_maruyama, so both
        # splits must call it; the held-out split runs on a helper thread
        calls = []
        original = dppmm.sde.euler_maruyama

        def recording(*args, **kwargs):
            calls.append((threading.current_thread(), kwargs["out"].shape))
            return original(*args, **kwargs)

        monkeypatch.setattr(dppmm.sde, "euler_maruyama", recording)
        make_benchmark("ou", 2, 10, seed=0, m=3, dt=0.1)
        assert sorted(shape for _, shape in calls) == [(3, 10, 2)] * 2
        assert {thread is threading.main_thread() for thread, _ in calls} == {True, False}

    @pytest.mark.parametrize("helper", [False, True], ids=["train", "test"])
    def test_blowup_in_one_split(self, monkeypatch, tmp_path, helper):
        # one split's drift turns row 3 infinite at its 5th step; the error
        # names it, the CLI exits 1 and the helper thread is joined
        original = dppmm.sde.drift
        calls = threading.local()

        def faulty(system, x):
            v = original(system, x)
            on_helper = threading.current_thread() is not threading.main_thread()
            calls.n = getattr(calls, "n", 0) + 1
            if on_helper == helper and calls.n == 5:
                v[3, 1] = np.inf
            return v

        monkeypatch.setattr(dppmm.sde, "drift", faulty)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="trajectory 3 at step 5"):
            make_benchmark("ou", 2, 10, seed=0, m=3, dt=0.1)
        assert threading.active_count() == threads
        argv = ["simulate", "--system", "ou", "--d", "2", "--n", "10", "--m", "3",
                "--dt", "0.1", "--out", str(tmp_path / "data")]
        calls = threading.local()  # fresh per-thread drift counts for the CLI run
        assert cli.main(argv) == 1
        assert threading.active_count() == threads

    def test_pinned_bytes(self):
        # SHA-256 over each split's times, then each snapshot's samples, for
        # the three systems; any change to the simulated data shows here
        digest = hashlib.sha256()
        for name, d in (("vdp", 2), ("ou", 3), ("lorenz96", 4)):
            for split in make_benchmark(name, d, 40, seed=1, m=5, dt=0.05):
                digest.update(split.times.tobytes())
                for x in split.samples:
                    digest.update(np.ascontiguousarray(x).tobytes())
        assert digest.hexdigest() == (
            "e3df592dad73198c60ff91e958baa74b7f06fad6cce12c90362dc4ea9bae2e87"
        )
