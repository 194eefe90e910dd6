import numpy as np
import pytest

from dppmm.dynamic import DPPMMModel
from dppmm.ot1d import KDE_BINS
from dppmm.ppmm import (
    PPMMFitReport,
    converged,
    eval_ppmm,
    fit_ppmm,
)
from dppmm.projection import INFORMATIVE_EIGENVALUE


def rms_displacement(chain, x):
    """Root-mean-square row norm of the chain's displacement of x."""
    disp = eval_ppmm(*chain, x) - x
    return float(np.sqrt(np.mean(np.sum(disp * disp, axis=1))))


def one_map_model(directions, knots=None):
    """A d=2 model whose single map is this chain; knots default to identities."""
    if knots is None:
        knots = np.tile([0.0, 1.0], (len(directions), 1))
    return DPPMMModel(np.zeros(2), np.ones(2), [0.0], [len(directions)], directions, knots, knots)


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
        report = PPMMFitReport((1.0, 2.0), "tolerance")
        assert report.w2_history == (1.0, 2.0)
        assert report.k_final == len(report.w2_history) == 2

    def test_map_dimension_checks(self):
        # a chain is checked where it is held: in the model's stacked arrays
        with pytest.raises(ValueError, match="2-D"):
            one_map_model(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="no columns"):
            one_map_model(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="directions has 3 columns, expected 2"):
            one_map_model(np.array([[1.0, 0.0, 0.0]]))
        m = one_map_model(np.array([[1.0, 0.0]]))
        assert len(m.directions) == 1 and m.dim == 2

    def test_map_rejects_row_count_mismatch(self):
        knots = np.array([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="1 directions but 2 knot rows"):
            one_map_model(np.array([[1.0, 0.0]]), knots)
        with pytest.raises(ValueError, match="2 directions but 0 knot rows"):
            one_map_model(np.eye(2), np.zeros((0, 2)))

    def test_map_rejects_non_unit_row(self):
        # the last row is off, so a check of row 0 alone would pass it
        for bad in ([0.6, 0.6], [1.0 + 1e-11, 0.0]):
            with pytest.raises(ValueError, match="direction 2 must have unit norm"):
                one_map_model(np.array([[1.0, 0.0], [0.6, 0.8], bad]))
        with pytest.raises(ValueError, match="non-finite"):
            one_map_model(np.array([[1.0, 0.0], [0.6, 0.8], [np.nan, 0.0]]))
        one_map_model(np.array([[1.0, 0.0], [0.6, 0.8], [1.0 + 1e-13, 0.0]]))

    def test_map_directions_read_only(self):
        m = one_map_model(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            m.directions[0, 0] = 0.0

    def test_map_directions_are_a_private_copy(self):
        directions = np.array([[1.0, 0.0]])
        m = one_map_model(directions)
        directions[0, 0] = 5.0  # a non-unit row the model must not see
        assert directions.flags.writeable
        np.testing.assert_array_equal(m.directions, [[1.0, 0.0]])

    def test_empty_chain_is_identity(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_array_equal(eval_ppmm(np.zeros((0, 3)), *np.zeros((2, 0, 2)), x), x)


class TestEvalPpmm:
    def test_single_step_moves_along_direction_only(self):
        p = np.array([0.0, 1.0])
        shift = np.array([[-5.0, 5.0]]), np.array([[-3.0, 7.0]])  # +2
        x = np.array([[1.0, 0.5], [-2.0, 3.0]])
        out = eval_ppmm(p[None], *shift, x)
        np.testing.assert_allclose(out[:, 0], x[:, 0])
        np.testing.assert_allclose(out[:, 1], x[:, 1] + 2.0)

    def test_input_not_mutated(self):
        p = np.array([1.0, 0.0])
        x = np.zeros((4, 2))
        eval_ppmm(p[None], np.array([[-5.0, 5.0]]), np.array([[-4.0, 6.0]]), x)
        np.testing.assert_array_equal(x, 0.0)

    def test_hand_example_with_extension(self):
        # linear between the knots, constant beyond the extreme knots: the
        # end target knots, so a step never leaves its target's range
        t = np.array([0.5, 2.0, -1.0, 5.0, -1e3, 1e3])
        x = np.column_stack([t, np.arange(6.0)])
        out = eval_ppmm(np.array([[1.0, 0.0]]), [[0.0, 1.0, 3.0]], [[0.0, 2.0, 2.0]], x)
        np.testing.assert_array_equal(out[:, 0], [1.0, 2.0, 0.0, 2.0, 0.0, 2.0])
        np.testing.assert_array_equal(out[:, 1], x[:, 1])

    def test_duplicate_edge_knot_clamps_slope(self):
        x = np.array([[-3.0, 1.0]])
        out = eval_ppmm(np.array([[1.0, 0.0]]), [[0.0, 0.0, 1.0]], [[0.0, 1.0, 2.0]], x)
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_rows_evaluate_as_separate_maps(self):
        # step i applies knot row i: the identity along e1, then t -> 2t + 1 along e2
        knots_x, knots_y = np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 3.0]])
        out = eval_ppmm(np.eye(2), knots_x, knots_y, np.array([[0.5, 0.5]]))
        np.testing.assert_array_equal(out, [[0.5, 2.0]])

    def test_displacement_lies_in_direction_span(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(300, 4))
        y = rng.normal(size=(300, 4)) @ np.diag([1.0, 2.0, 1.0, 1.0])
        chain, _ = fit_ppmm(x, y, max_iter=3, alpha=0.0)
        disp = eval_ppmm(*chain, x) - x
        basis = chain[0].T
        # residual after projecting displacements onto the step-direction span
        coef, *_ = np.linalg.lstsq(basis, disp.T, rcond=None)
        residual = disp.T - basis @ coef
        assert np.max(np.abs(residual)) <= 1e-9

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="columns"):
            eval_ppmm(np.zeros((0, 3)), *np.zeros((2, 0, 2)), np.zeros((5, 2)))


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
        for rule in ("silverman", "isj"):
            with pytest.raises(ValueError, match="bandwidth"):
                fit_ppmm(x, x, bandwidth=rule)

    def test_identical_inputs_stop_without_informative_direction(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(200, 3))
        chain, report = fit_ppmm(x, x.copy())
        assert report.stop_reason == "no_informative_direction"
        assert report.k_final <= 1
        assert [len(a) for a in chain] == [report.k_final] * 3

    def test_score_at_threshold_is_informative(self, monkeypatch):
        # a score of exactly INFORMATIVE_EIGENVALUE still fits a map; the
        # next float below it stops the chain
        scores = iter([INFORMATIVE_EIGENVALUE, np.nextafter(INFORMATIVE_EIGENVALUE, 0.0)])
        monkeypatch.setattr(
            "dppmm.ppmm.save_direction", lambda x, y: (np.array([1.0, 0.0]), next(scores))
        )
        rng = np.random.default_rng(69)
        x = rng.normal(size=(100, 2))
        chain, report = fit_ppmm(x, 2.0 * x)
        assert report.k_final == 1
        assert report.stop_reason == "no_informative_direction"
        assert len(chain[0]) == 1

    @pytest.mark.parametrize("bandwidth", [None, "scott"])
    def test_stored_chain_replays_the_fit(self, bandwidth):
        # eval_ppmm applies the steps the fit took: the returned chain moves x
        # by the fit's last recorded rms displacement, bit for bit
        rng = np.random.default_rng(70)
        x = rng.normal(size=(300, 3))
        y = rng.normal(size=(300, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
        chain, report = fit_ppmm(x, y, bandwidth=bandwidth)
        assert report.k_final >= 2
        assert rms_displacement(chain, x) == report.w2_history[-1]

    def test_gaussian_shift_recovers_w2(self):
        # target is the source translated by (2, 0): true transport cost 2
        rng = np.random.default_rng(62)
        x = rng.normal(size=(4000, 2))
        y = rng.normal(size=(4000, 2))
        y[:, 0] += 2.0
        chain, report = fit_ppmm(x, y)
        w2 = rms_displacement(chain, x)
        assert abs(w2 - 2.0) / 2.0 < 0.05
        assert report.w2_history[-1] == pytest.approx(w2)

    def test_gaussian_scaling_recovers_w2(self):
        # diagonal scaling (3, 1) of a standard normal: squared transport
        # cost (3 - 1)^2 = 4, so the rms displacement approaches 2
        rng = np.random.default_rng(63)
        x = rng.normal(size=(4000, 2))
        y = rng.normal(size=(4000, 2)) @ np.diag([3.0, 1.0])
        chain, _ = fit_ppmm(x, y)
        w2 = rms_displacement(chain, x)
        assert abs(w2 - 2.0) / 2.0 < 0.1

    def test_pushforward_matches_target_moments(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(3000, 3))
        a = np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.0, 0.0, 1.4]])
        y = rng.normal(size=(3000, 3)) @ a.T + np.array([1.0, -2.0, 0.5])
        chain, _ = fit_ppmm(x, y)
        pushed = eval_ppmm(*chain, x)
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
        chain, _ = fit_ppmm(x, y, alpha=0.0, max_iter=30)
        after = gmmd2(eval_ppmm(*chain, x), y)
        assert before > 0.1
        assert abs(after) < 1e-4

    def test_default_stop_still_reduces_discrepancy(self):
        from dppmm.metrics import gmmd2

        rng = np.random.default_rng(65)
        x = rng.normal(size=(1500, 3))
        y = rng.normal(size=(1500, 3)) * np.array([2.0, 0.5, 1.0]) + 1.0
        before = gmmd2(x, y)
        chain, report = fit_ppmm(x, y)
        after = gmmd2(eval_ppmm(*chain, x), y)
        assert report.stop_reason == "tolerance"
        assert after < 0.5 * before

    def test_history_length_and_report_consistency(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=(500, 2))
        y = rng.normal(size=(500, 2)) * 1.5
        chain, report = fit_ppmm(x, y, alpha=0.05)
        assert len(report.w2_history) == report.k_final == len(chain[0])
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
        chain, report = fit_ppmm(x, y, alpha=0.0, max_iter=4)
        assert report.stop_reason == "max_iter"
        assert len(chain[0]) == 4

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
        c1, r1 = fit_ppmm(x, y)
        c2, r2 = fit_ppmm(x.copy(), y.copy())
        assert r1 == r2
        assert len(c1[0]) == len(c2[0])
        t = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(eval_ppmm(*c1, t), eval_ppmm(*c2, t))

    def test_regularized_variant_runs_and_transports(self):
        rng = np.random.default_rng(70)
        x = rng.normal(size=(2000, 2)) * 0.2
        y = rng.normal(size=(2000, 2)) * 0.2 + np.array([0.6, 0.0])
        chain, report = fit_ppmm(x, y, bandwidth="scott")
        # one row of KDE grid knots per step
        assert chain[1].shape == chain[2].shape == (report.k_final, KDE_BINS)
        pushed = eval_ppmm(*chain, x)
        np.testing.assert_allclose(pushed.mean(axis=0), y.mean(axis=0), atol=0.05)

    def test_reasonable_iteration_count_on_easy_problem(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(2000, 4))
        y = rng.normal(size=(2000, 4)) + np.array([1.0, 0.0, 0.0, 0.0])
        _, report = fit_ppmm(x, y)
        assert report.stop_reason == "tolerance"
        assert report.k_final <= 20
