import numpy as np
import pytest

from dppmm.ot1d import SortedMap1D
from dppmm.ppmm import (
    PPMMFitReport,
    PPMMMap,
    approx_w2,
    converged,
    eval_ppmm,
    fit_ppmm,
)


class TestConvergedPredicate:
    def test_zero_current_always_converged(self):
        assert converged(5.0, 0.0, 0.0)
        assert converged(0.0, 0.0, 1e-3)

    def test_relative_change_at_threshold(self):
        # |1.001 - 1.0| / 1.001 is just under 1e-3
        assert converged(1.0, 1.001, 1e-3)
        assert not converged(1.0, 1.002, 1e-3)

    def test_synthetic_histories(self):
        history = [3.0, 2.0, 1.9, 1.9001]
        flags = [
            converged(a, b, 1e-3) for a, b in zip(history[:-1], history[1:])
        ]
        assert flags == [False, False, True]

    def test_alpha_zero_requires_exact_stall(self):
        assert not converged(1.0, 1.0 + 1e-12, 0.0)
        assert converged(1.5, 1.5, 0.0)

    def test_direction_of_change_is_irrelevant(self):
        assert converged(2.0, 1.999, 1e-3) == converged(1.998, 1.999, 1e-3)


class TestReportAndMapTypes:
    def test_report_validation(self):
        with pytest.raises(ValueError, match="stop_reason"):
            PPMMFitReport((1.0,), "because")
        report = PPMMFitReport([1.0, 2.0], "tolerance")
        assert report.w2_history == (1.0, 2.0)
        assert report.k_final == len(report.w2_history) == 2

    def test_map_dimension_checks(self):
        identity = SortedMap1D(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="2-D"):
            PPMMMap(np.array([1.0, 0.0]), identity)
        with pytest.raises(ValueError, match="no columns"):
            PPMMMap(np.zeros((0, 0)))
        m = PPMMMap(np.array([[1.0, 0.0]]), identity)
        assert m.iterations == 1 and m.dim == 2

    def test_map_rejects_row_count_mismatch(self):
        knots = np.array([[0.0, 1.0], [0.0, 2.0]])
        two_maps = SortedMap1D(knots, knots)
        with pytest.raises(ValueError, match="1 directions but 2 1D maps"):
            PPMMMap(np.array([[1.0, 0.0]]), two_maps)
        with pytest.raises(ValueError, match="2 directions but 0 1D maps"):
            PPMMMap(np.eye(2))

    def test_map_rejects_non_unit_row(self):
        # the last row is off, so a check of row 0 alone would pass it
        knots = np.array([[0.0, 1.0]] * 3)
        maps1d = SortedMap1D(knots, knots)
        for bad in ([0.6, 0.6], [1.0 + 1e-11, 0.0]):
            with pytest.raises(ValueError, match="direction 2 must have unit norm"):
                PPMMMap(np.array([[1.0, 0.0], [0.6, 0.8], bad]), maps1d)
        with pytest.raises(ValueError, match="non-finite"):
            PPMMMap(np.array([[1.0, 0.0], [0.6, 0.8], [np.nan, 0.0]]), maps1d)
        PPMMMap(np.array([[1.0, 0.0], [0.6, 0.8], [1.0 + 1e-13, 0.0]]), maps1d)

    def test_map_directions_read_only(self):
        directions = np.array([[1.0, 0.0]])
        m = PPMMMap(directions, SortedMap1D([0.0, 1.0], [0.0, 1.0]))
        with pytest.raises(ValueError):
            m.directions[0, 0] = 0.0

    def test_map_directions_are_a_private_copy(self):
        directions = np.array([[1.0, 0.0]])
        m = PPMMMap(directions, SortedMap1D([0.0, 1.0], [0.0, 1.0]))
        directions[0, 0] = 5.0  # a non-unit row the map must not see
        assert directions.flags.writeable
        np.testing.assert_array_equal(m.directions, [[1.0, 0.0]])

    def test_empty_chain_is_identity(self):
        m = PPMMMap(np.zeros((0, 3)))
        x = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_array_equal(m(x), x)
        assert approx_w2(m, x) == 0.0


class TestEvalPpmm:
    def test_single_step_moves_along_direction_only(self):
        p = np.array([0.0, 1.0])
        shift = SortedMap1D(np.array([-5.0, 5.0]), np.array([-3.0, 7.0]))  # +2
        m = PPMMMap(p[None], shift)
        x = np.array([[1.0, 0.5], [-2.0, 3.0]])
        out = m(x)
        np.testing.assert_allclose(out[:, 0], x[:, 0])
        np.testing.assert_allclose(out[:, 1], x[:, 1] + 2.0)

    def test_input_not_mutated(self):
        p = np.array([1.0, 0.0])
        shift = SortedMap1D(np.array([-5.0, 5.0]), np.array([-4.0, 6.0]))
        m = PPMMMap(p[None], shift)
        x = np.zeros((4, 2))
        m(x)
        np.testing.assert_array_equal(x, 0.0)

    def test_displacement_lies_in_direction_span(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(300, 4))
        y = rng.normal(size=(300, 4)) @ np.diag([1.0, 2.0, 1.0, 1.0])
        m, _ = fit_ppmm(x, y, max_iter=3, alpha=0.0)
        disp = m(x) - x
        basis = m.directions.T
        # residual after projecting displacements onto the step-direction span
        coef, *_ = np.linalg.lstsq(basis, disp.T, rcond=None)
        residual = disp.T - basis @ coef
        assert np.max(np.abs(residual)) <= 1e-9

    def test_rejects_wrong_dimension(self):
        m = PPMMMap(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="columns"):
            eval_ppmm(m, np.zeros((5, 2)))


class TestFitPpmm:
    def test_validation(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError, match="alpha"):
            fit_ppmm(x, x, alpha=1.5)
        with pytest.raises(ValueError, match="max_iter"):
            fit_ppmm(x, x, max_iter=0)
        with pytest.raises(ValueError, match="2 rows"):
            fit_ppmm(np.zeros((1, 2)), x)
        # identical inputs would stop before any 1D map is fitted, so this
        # raises only if the rule is checked up front
        with pytest.raises(ValueError, match="bandwidth"):
            fit_ppmm(x, x, bandwidth="silverman")

    def test_identical_inputs_stop_without_informative_direction(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(200, 3))
        m, report = fit_ppmm(x, x.copy())
        assert report.stop_reason == "no_informative_direction"
        assert report.k_final <= 1
        assert m.iterations == report.k_final

    def test_gaussian_shift_recovers_w2(self):
        # target is the source translated by (2, 0): true transport cost 2
        rng = np.random.default_rng(62)
        x = rng.normal(size=(4000, 2))
        y = rng.normal(size=(4000, 2))
        y[:, 0] += 2.0
        m, report = fit_ppmm(x, y)
        w2 = approx_w2(m, x)
        assert abs(w2 - 2.0) / 2.0 < 0.05
        assert report.w2_history[-1] == pytest.approx(w2)

    def test_gaussian_scaling_recovers_w2(self):
        # diagonal scaling (3, 1) of a standard normal: squared transport
        # cost (3 - 1)^2 = 4, so the rms displacement approaches 2
        rng = np.random.default_rng(63)
        x = rng.normal(size=(4000, 2))
        y = rng.normal(size=(4000, 2)) @ np.diag([3.0, 1.0])
        m, _ = fit_ppmm(x, y)
        w2 = approx_w2(m, x)
        assert abs(w2 - 2.0) / 2.0 < 0.1

    def test_pushforward_matches_target_moments(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(3000, 3))
        a = np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.0, 0.0, 1.4]])
        y = rng.normal(size=(3000, 3)) @ a.T + np.array([1.0, -2.0, 0.5])
        m, _ = fit_ppmm(x, y)
        pushed = m(x)
        np.testing.assert_allclose(pushed.mean(axis=0), y.mean(axis=0), atol=0.15)
        np.testing.assert_allclose(
            np.cov(pushed, rowvar=False), np.cov(y, rowvar=False), atol=0.25
        )

    def test_discrepancy_driven_to_noise_floor(self):
        from dppmm.metrics import gmmd2

        rng = np.random.default_rng(65)
        x = rng.normal(size=(1500, 3))
        y = rng.normal(size=(1500, 3)) * np.array([2.0, 0.5, 1.0]) + 1.0
        before = gmmd2(x, y)
        # run the chain past the displacement-stabilization stop: the
        # pushforward discrepancy falls to the same-law sampling noise level
        m, _ = fit_ppmm(x, y, alpha=0.0, max_iter=30)
        after = gmmd2(m(x), y)
        assert before > 0.1
        assert abs(after) < 1e-4

    def test_default_stop_still_reduces_discrepancy(self):
        from dppmm.metrics import gmmd2

        rng = np.random.default_rng(65)
        x = rng.normal(size=(1500, 3))
        y = rng.normal(size=(1500, 3)) * np.array([2.0, 0.5, 1.0]) + 1.0
        before = gmmd2(x, y)
        m, report = fit_ppmm(x, y)
        after = gmmd2(m(x), y)
        assert report.stop_reason == "tolerance"
        assert after < 0.5 * before

    def test_history_length_and_report_consistency(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=(500, 2))
        y = rng.normal(size=(500, 2)) * 1.5
        m, report = fit_ppmm(x, y, alpha=0.05)
        assert len(report.w2_history) == report.k_final == m.iterations
        assert report.stop_reason in ("tolerance", "max_iter")
        if report.stop_reason == "tolerance":
            assert report.k_final >= 2
            assert converged(
                report.w2_history[-2], report.w2_history[-1], 0.05
            )
            # no earlier consecutive pair already satisfied the rule
            for a, b in zip(report.w2_history[:-2], report.w2_history[1:-1]):
                assert not converged(a, b, 0.05)

    def test_max_iter_cap_respected(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(400, 3))
        y = rng.normal(size=(400, 3)) * 2.0
        m, report = fit_ppmm(x, y, alpha=0.0, max_iter=4)
        assert report.stop_reason == "max_iter"
        assert m.iterations == 4

    def test_default_iteration_cap_scales_with_dimension(self):
        rng = np.random.default_rng(68)
        x = rng.normal(size=(300, 5))
        y = rng.normal(size=(300, 5)) * 1.7
        _, report = fit_ppmm(x, y, alpha=0.0)
        assert report.stop_reason == "max_iter"
        assert report.k_final == 50

    def test_determinism(self):
        rng = np.random.default_rng(69)
        x = rng.normal(size=(600, 3))
        y = rng.normal(size=(600, 3)) + 0.5
        m1, r1 = fit_ppmm(x, y)
        m2, r2 = fit_ppmm(x.copy(), y.copy())
        assert r1 == r2
        assert m1.iterations == m2.iterations
        t = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(m1(t), m2(t))

    def test_regularized_variant_runs_and_transports(self):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(2000, 2)) * 0.2
        y = rng.normal(size=(2000, 2)) * 0.2 + np.array([0.6, 0.0])
        m, report = fit_ppmm(x, y, bandwidth="scott")
        from dppmm.ot1d import RegularizedMap1D

        assert isinstance(m.maps1d, RegularizedMap1D)
        assert len(m.maps1d) == report.k_final
        pushed = m(x)
        np.testing.assert_allclose(pushed.mean(axis=0), y.mean(axis=0), atol=0.05)

    def test_reasonable_iteration_count_on_easy_problem(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(2000, 4))
        y = rng.normal(size=(2000, 4)) + np.array([1.0, 0.0, 0.0, 0.0])
        _, report = fit_ppmm(x, y)
        assert report.stop_reason == "tolerance"
        assert report.k_final <= 20
