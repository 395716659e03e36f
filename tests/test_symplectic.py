import numpy as np
import pytest

from ehz.symplectic import (DimensionError, J_matrix, apply_J,
                            apply_J_inverse, random_symplectic, symplectic_form)


def test_apply_J_plane_convention():
    assert np.allclose(apply_J(np.array([1.0, 0.0])), [0.0, 1.0])
    assert np.allclose(apply_J(np.array([0.0, 1.0])), [-1.0, 0.0])


def test_apply_J_per_plane_in_R4():
    assert np.allclose(apply_J(np.array([1.0, 2.0, 3.0, 4.0])), [-2.0, 1.0, -4.0, 3.0])


def test_J_squared_is_minus_identity():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(5, 6))
    assert np.array_equal(apply_J(apply_J(v)), -v)
    assert np.array_equal(apply_J_inverse(apply_J(v)), v)


def test_J_matrix_matches_apply():
    J = J_matrix(4)
    rng = np.random.default_rng(1)
    v = rng.normal(size=4)
    assert np.allclose(J @ v, apply_J(v))
    assert np.allclose(J.T, -J)
    assert np.allclose(J @ J, -np.eye(4))


def test_symplectic_form_basic():
    assert symplectic_form(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)
    u = np.array([0.3, -0.7])
    assert symplectic_form(u, u) == pytest.approx(0.0, abs=1e-15)


def test_symplectic_form_antisymmetry_and_norm():
    rng = np.random.default_rng(2)
    for _ in range(20):
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert symplectic_form(u, v) == pytest.approx(-symplectic_form(v, u), abs=1e-14)
        assert symplectic_form(v, apply_J(v)) == pytest.approx(np.dot(v, v), rel=1e-14)


def test_odd_dimension_rejected():
    with pytest.raises(DimensionError):
        apply_J(np.ones(3))
    with pytest.raises(DimensionError):
        symplectic_form(np.ones(2), np.ones(4))


def test_random_symplectic_identity_at_zero_magnitude():
    assert np.array_equal(random_symplectic(4, seed=5, magnitude=0.0), np.eye(4))


@pytest.mark.parametrize("seed", [42, 0, 7])
def test_random_symplectic_defining_identity(seed):
    M = random_symplectic(4, seed=seed, magnitude=0.5)
    J = J_matrix(4)
    assert np.max(np.abs(M.T @ J @ M - J)) <= 1e-10
    assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-10)


def test_random_symplectic_inverse_is_symplectic():
    M = random_symplectic(6, seed=3, magnitude=0.4)
    Minv = np.linalg.inv(M)
    J = J_matrix(6)
    assert np.max(np.abs(Minv.T @ J @ Minv - J)) <= 1e-10
    assert np.max(np.abs(M @ Minv - np.eye(6))) <= 1e-12
