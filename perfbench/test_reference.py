"""Self-tests of the benchmark's own computations (``reference.py``).

Run with ``python3 -m pytest perfbench``; they take about a second.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import reference


def _brute_kernel_mean(a, b, sigma):
    return np.mean([[math.exp(-np.sum((u - v) ** 2) / (2 * sigma**2)) for v in b] for u in a])


def test_vstat_hand_values():
    x, y = np.array([[0.0]]), np.array([[1.0]])
    expected = np.mean([2.0 - 2.0 * math.exp(-1.0 / (2 * s * s)) for s in (0.5, 1.0)])
    assert reference.vstat_mmd2(x, y, (0.5, 1.0)) == pytest.approx(expected, rel=1e-14)
    z = np.random.default_rng(0).normal(size=(7, 3))
    assert reference.vstat_mmd2(z, z, (0.3, 1.0)) == 0.0


def test_vstat_matches_brute_force():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(300, 2)), rng.normal(0.5, 1.0, size=(11, 2))
    sigmas = (0.2, 1.5)
    brute = np.mean([
        _brute_kernel_mean(x, x, s) + _brute_kernel_mean(y, y, s) - 2 * _brute_kernel_mean(x, y, s)
        for s in sigmas
    ])
    assert reference.vstat_mmd2(x, y, sigmas) == pytest.approx(brute, rel=1e-12)


def test_quadratic_hand_values():
    x, y = np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]])
    e = math.exp
    cross = (1.0 + e(-2.0) + 2.0 * e(-0.5)) / 4.0
    at_one = e(-0.5) + e(-2.0) - 2.0 * cross
    assert reference.quadratic_gmmd2(x, y, (1.0,)) == pytest.approx(at_one, rel=1e-14)
    # the grid maximum is taken over the per-bandwidth values
    at_big = reference.quadratic_gmmd2(x, y, (100.0,))
    assert reference.quadratic_gmmd2(x, y, (1.0, 100.0)) == max(at_one, at_big)


def test_linear_hand_values():
    x = np.array([[0.0], [1.0], [0.0], [1.0], [5.0]])
    y = np.full((5, 1), 2.0)
    # pairs (x0, x1) and (x2, x3); the odd fifth row is dropped
    expected = math.exp(-0.5) + 1.0 - math.exp(-2.0) - math.exp(-0.5)
    assert reference.linear_gmmd2(x, y, (1.0,)) == pytest.approx(expected, rel=1e-14)


def test_spline_reproduces_cubics_and_matches_scipy():
    times = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
    coeffs = np.random.default_rng(2).normal(size=(4, 3, 2))
    values = np.stack([sum(c * t**k for k, c in enumerate(coeffs)) for t in times])
    for t in (0.0, 0.05, 0.42, 0.99, 1.0):
        exact = sum(c * t**k for k, c in enumerate(coeffs))
        assert np.allclose(reference.not_a_knot_spline(times, values, t), exact, rtol=0, atol=1e-12)
    wiggly = np.random.default_rng(3).normal(size=(6, 4))
    scipy_spline = CubicSpline(times, wiggly, axis=0, bc_type="not-a-knot")
    for t in (0.2, 0.6, 0.9):
        assert np.allclose(reference.not_a_knot_spline(times, wiggly, t), scipy_spline(t),
                           rtol=0, atol=1e-12)


def test_ou_closed_form():
    assert reference.ou_decay_ratio(0.0, 0.1, 15.0) == pytest.approx(1.0, abs=1e-15)
    assert reference.ou_decay_ratio(15.0, 0.1, 15.0) == pytest.approx(0.0, abs=1e-15)
    end = math.exp(-1.5)
    assert reference.ou_decay_ratio(5.0, 0.1, 15.0) == pytest.approx(
        (math.exp(-0.5) - end) / (1.0 - end), rel=1e-14)


def test_ou_check_accepts_the_law_and_rejects_another_rate():
    rng = np.random.default_rng(4)
    times = np.linspace(0.0, 15.0, 6)

    def columns(decay):
        # coupled rows: one shared start per trajectory plus noise per time
        start = 10.0 + 0.05 * rng.normal(size=(4000, 1))
        return start * np.exp(-decay * times) + 0.3 * rng.normal(size=(4000, 6))

    assert reference.ou_decay_check(columns(0.1), times, 0.1, 15.0) < 5.0
    with pytest.raises(ValueError):
        reference.ou_decay_check(columns(0.13), times, 0.1, 15.0)
