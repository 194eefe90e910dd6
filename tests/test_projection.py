import numpy as np
import pytest

from dppmm.projection import (
    INFORMATIVE_EIGENVALUE,
    SaveDiagnostics,
    save_direction,
)


def save_objective(x, y, p, ridge=1e-8):
    """Whitened-variance discrepancy captured by a candidate direction.

    Brute-force evaluation of p^T M p with the same whitening and MLE
    covariances the fitted direction uses, for scan-based oracles.
    """
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
    # the eigenvector lives in whitened coordinates: q = W^{-1} p up to norm
    q = np.linalg.solve(w, p)
    q = q / np.linalg.norm(q)
    return float(q @ m @ q)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            save_direction(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            save_direction(np.zeros((1, 2)), np.zeros((5, 2)))

    def test_non_finite(self):
        x = np.ones((5, 2))
        x[0, 0] = np.inf
        with pytest.raises(ValueError):
            save_direction(x, np.ones((5, 2)))


class TestIdenticalInputs:
    def test_identical_sets_are_uninformative(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(200, 3))
        _, diag = save_direction(x, x.copy())
        assert diag.top_eigenvalue < INFORMATIVE_EIGENVALUE
        assert not diag.informative

    def test_informative_on_scale_difference(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(500, 3))
        y = rng.normal(size=(500, 3))
        y[:, 1] *= 3.0
        direction, diag = save_direction(x, y)
        assert diag.informative
        assert direction.shape == (3,)
        assert abs(np.linalg.norm(direction) - 1.0) <= 1e-12
        # variance differs only along e2
        assert abs(direction[1]) > 0.99

    def test_direction_without_pooled_spread_is_never_chosen(self):
        # a constant column whitens to 0 in both sets, which scored 1, above
        # the scale difference along e2 (measured 0.669)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(500, 3))
        y = rng.normal(size=(500, 3))
        y[:, 1] *= 3.0
        x[:, 2] = y[:, 2] = 0.5
        direction, diag = save_direction(x, y)
        assert abs(direction[1]) > 0.99
        assert abs(direction[2]) <= 1e-12
        assert diag.top_eigenvalue < 0.9


class TestScanOracle:
    def test_matches_brute_force_maximum_2d(self):
        # scan 3600 directions on the circle; the fitted direction's objective
        # must match the scan maximum to within the scan resolution
        rng = np.random.default_rng(12)
        x = rng.normal(size=(800, 2))
        y = rng.normal(size=(800, 2))
        theta = 0.7
        r = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        y = y @ np.diag([2.5, 1.0]) @ r.T

        direction, diag = save_direction(x, y)
        angles = np.linspace(0, np.pi, 3600, endpoint=False)
        scan = [
            save_objective(x, y, np.array([np.cos(a), np.sin(a)])) for a in angles
        ]
        best = max(scan)
        fitted = save_objective(x, y, direction)
        assert fitted >= best - 1e-6
        np.testing.assert_allclose(fitted, diag.top_eigenvalue, rtol=1e-10)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(300, 4))
        y = rng.normal(size=(240, 4)) * 1.7
        dxy, gxy = save_direction(x, y)
        dyx, gyx = save_direction(y, x)
        # the SAVE matrix is exactly symmetric in the two groups; only
        # floating-point summation order differs after the swap
        np.testing.assert_allclose(
            gxy.top_eigenvalue, gyx.top_eigenvalue, rtol=1e-8
        )
        np.testing.assert_allclose(
            np.abs(dxy @ dyx), 1.0, atol=1e-8
        )


class TestEquivariance:
    def test_rotation_equivariance(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(600, 3))
        y = rng.normal(size=(600, 3))
        y[:, 0] *= 2.0

        d0, g0 = save_direction(x, y)

        # random rotation
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        dr, gr = save_direction(x @ q.T, y @ q.T)
        np.testing.assert_allclose(
            np.abs(dr @ (q @ d0)), 1.0, atol=1e-6
        )
        np.testing.assert_allclose(gr.top_eigenvalue, g0.top_eigenvalue, rtol=1e-6)

    def test_sign_is_deterministic(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=(100, 3)) * 2
        d1, _ = save_direction(x, y)
        d2, _ = save_direction(x.copy(), y.copy())
        np.testing.assert_array_equal(d1, d2)
        first = d1[np.abs(d1) > 1e-14][0]
        assert first > 0

    def test_diagnostics_named_tuple_like(self):
        diag = SaveDiagnostics(top_eigenvalue=0.5, informative=True)
        assert diag.top_eigenvalue == 0.5
        assert diag.informative
