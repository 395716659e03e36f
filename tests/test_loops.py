import numpy as np
import pytest

from ehz.bodies import Ball
from ehz.loops import (CarrierLoop, FourierLoop, LoopError, action, action_quadrature,
                       length_in_gauge, normalize_action, random_loop, read_loop_csv,
                       sample, write_loop_csv)
from ehz.symplectic import random_symplectic


def unit_circle(dim=2, plane=0, radius=1.0, modes=1):
    a = np.zeros((modes, dim))
    b = np.zeros((modes, dim))
    a[0, 2 * plane] = radius
    b[0, 2 * plane + 1] = radius
    return FourierLoop(a, b)


def test_sample_example():
    loop = FourierLoop(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    g = sample(loop, 8)
    assert np.allclose(g.z[0], [1.0, 0.0])
    assert np.allclose(g.dz[0], [0.0, 1.0])


def test_sample_zero_loop():
    g = sample(FourierLoop.zeros(3, 4), 16)
    assert np.all(g.z == 0) and np.all(g.dz == 0)


def test_sample_grid_too_small():
    with pytest.raises(LoopError):
        sample(FourierLoop.zeros(4, 2), 8)


def test_resampling_agrees_at_shared_nodes():
    loop = random_loop(5, 4, np.random.default_rng(0))
    g1 = sample(loop, 32)
    g2 = sample(loop, 64)
    assert np.max(np.abs(g1.z - g2.z[::2])) <= 1e-14
    assert np.max(np.abs(g1.dz - g2.dz[::2])) <= 1e-14


def test_action_of_unit_circle_pins_sign_convention():
    # counterclockwise unit circle encloses +pi: this fixes J globally
    assert action(unit_circle()) == pytest.approx(np.pi, rel=1e-15)


def test_action_orientation_flip():
    loop = unit_circle().time_reversed()
    assert action(loop) == pytest.approx(-np.pi, rel=1e-15)


def test_action_two_homogeneous():
    loop = random_loop(4, 4, np.random.default_rng(1))
    s = 1.7
    assert action(loop.scaled(s)) == pytest.approx(s**2 * action(loop), rel=1e-14)


def test_action_closed_form_equals_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(100):
        loop = random_loop(int(rng.integers(1, 8)), 2 * int(rng.integers(1, 4)), rng)
        assert action(loop) == pytest.approx(action_quadrature(loop), abs=1e-12 * (1 + abs(action(loop))))


def test_integration_by_parts_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        loop = random_loop(6, 4, rng)
        g = sample(loop, 48)
        from ehz.symplectic import apply_J
        lhs = 0.5 * np.mean(np.sum(apply_J(g.z) * g.dz, axis=1)) * 2 * np.pi
        rhs = 0.5 * np.mean(np.sum(-apply_J(g.dz) * g.z, axis=1)) * 2 * np.pi
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_zero_mean_structural():
    loop = random_loop(7, 6, np.random.default_rng(4))
    g = sample(loop, 64)
    assert np.max(np.abs(g.z.mean(axis=0))) <= 1e-14


def test_action_invariant_under_linear_symplectic_map():
    rng = np.random.default_rng(5)
    M = random_symplectic(4, seed=9, magnitude=0.6)
    for _ in range(10):
        loop = random_loop(5, 4, rng)
        assert action(loop.transformed(M)) == pytest.approx(action(loop), rel=1e-10)


def test_normalize_action_circle():
    z = normalize_action(unit_circle())
    assert action(z) == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(z.a[0], [1 / np.sqrt(np.pi), 0.0])


def test_normalize_action_repairs_orientation():
    clockwise = unit_circle().time_reversed()
    z = normalize_action(clockwise)
    assert action(z) == pytest.approx(1.0, rel=1e-14)
    # image preserved: the repaired loop is the counterclockwise circle
    assert np.allclose(z.b[0, 1], 1 / np.sqrt(np.pi))


def test_normalize_action_zero_loop_raises():
    with pytest.raises(LoopError):
        normalize_action(FourierLoop.zeros(2, 2))


def test_phase_shift_preserves_image_and_action():
    loop = random_loop(4, 4, np.random.default_rng(6))
    shifted = loop.phase_shifted(0.7)
    t = np.linspace(0, 2 * np.pi, 13, endpoint=False)
    assert np.allclose(shifted.evaluate(t), loop.evaluate(t + 0.7), atol=1e-12)
    assert action(shifted) == pytest.approx(action(loop), rel=1e-12)


def test_length_in_gauge_unit_circle():
    gamma = unit_circle()
    assert length_in_gauge(gamma, Ball(1.0, 2), 16) == pytest.approx(2 * np.pi, rel=1e-12)
    # the support of the radius-2 ball doubles the length
    assert length_in_gauge(gamma, Ball(2.0, 2), 16) == pytest.approx(4 * np.pi, rel=1e-12)


def test_length_scales_linearly_in_the_loop():
    gamma = unit_circle(dim=4)
    s = 2.3
    l1 = length_in_gauge(gamma, Ball(1.0, 4), 32)
    l2 = length_in_gauge(gamma.scaled(s), Ball(1.0, 4), 32)
    assert l2 == pytest.approx(s * l1, rel=1e-10)


def test_carrier_loop_offset_does_not_change_action():
    loop = unit_circle(dim=4)
    carrier = CarrierLoop(np.array([0.3, -0.2, 0.1, 0.5]), loop)
    assert carrier.action() == pytest.approx(action(loop), rel=1e-15)
    g = carrier.sample(16)
    assert np.allclose(g.z.mean(axis=0), carrier.offset, atol=1e-14)


def test_loop_csv_roundtrip(tmp_path):
    loop = random_loop(3, 4, np.random.default_rng(7))
    path = tmp_path / "loop.csv"
    write_loop_csv(path, loop, 16, include_derivatives=True)
    t, z, dz = read_loop_csv(path)
    g = sample(loop, 16)
    assert np.allclose(z, g.z, atol=1e-15)
    assert np.allclose(dz, g.dz, atol=1e-15)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:2] == ["t", "z_1"]
    assert "dz_4" in header
