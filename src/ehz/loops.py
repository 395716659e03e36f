"""Zero-mean trigonometric loops and the symplectic action.

A loop is z(t) = sum_{k=1..M} a_k cos(kt) + b_k sin(kt) with coefficients in
R^{2n}; dropping the constant term makes the zero-mean constraint structural.
Differentiation is exact in this basis, and the action

    A(z) = 1/2 int_0^{2pi} <J z, z'> dt = pi * sum_k k <J a_k, b_k>

is an explicit quadratic form in the coefficients (cross terms between a_k
and b_k of the same mode only).  Curves on a body boundary carry an extra
constant offset and are represented by `CarrierLoop`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .symplectic import apply_J, apply_J_inverse, check_even_dim


class LoopError(ValueError):
    pass


@dataclass
class GridSamples:
    """Positions and derivatives of a loop on the uniform grid t_j = 2 pi j / N."""

    t: np.ndarray
    z: np.ndarray
    dz: np.ndarray


class FourierLoop:
    """Truncated Fourier loop with zero mean; immutable value object."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise LoopError(f"coefficient arrays disagree: {a.shape} vs {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise LoopError("coefficients must be finite")
        check_even_dim(a.shape[1])
        self.a = a.copy()
        self.b = b.copy()
        self.a.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @classmethod
    def zeros(cls, modes: int, dim: int) -> "FourierLoop":
        return cls(np.zeros((modes, dim)), np.zeros((modes, dim)))

    def with_modes(self, modes: int) -> "FourierLoop":
        """Pad with zero coefficients or truncate to the given mode count."""
        a = np.zeros((modes, self.dim))
        b = np.zeros((modes, self.dim))
        m = min(modes, self.modes)
        a[:m] = self.a[:m]
        b[:m] = self.b[:m]
        return FourierLoop(a, b)

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        k = np.arange(1, self.modes + 1)
        phase = np.multiply.outer(t, k)  # (..., M)
        return np.cos(phase) @ self.a + np.sin(phase) @ self.b

    def derivative_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(1, self.modes + 1)[:, None]
        return k * self.b, -k * self.a

    def evaluate_derivative(self, t: np.ndarray) -> np.ndarray:
        da, db = self.derivative_coefficients()
        t = np.asarray(t, dtype=float)
        k = np.arange(1, self.modes + 1)
        phase = np.multiply.outer(t, k)
        return np.cos(phase) @ da + np.sin(phase) @ db

    def scaled(self, factor: float) -> "FourierLoop":
        return FourierLoop(factor * self.a, factor * self.b)

    def time_reversed(self) -> "FourierLoop":
        """t -> -t; negates the sine coefficients and flips the action sign."""
        return FourierLoop(self.a, -self.b)

    def transformed(self, matrix: np.ndarray) -> "FourierLoop":
        """Apply a linear map coefficientwise (i.e. to the loop pointwise)."""
        M = np.asarray(matrix, dtype=float)
        return FourierLoop(self.a @ M.T, self.b @ M.T)

    def phase_shifted(self, phi: float) -> "FourierLoop":
        """Loop t -> z(t + phi), same image, rotated parametrization."""
        k = np.arange(1, self.modes + 1)[:, None]
        c, s = np.cos(k * phi), np.sin(k * phi)
        return FourierLoop(c * self.a + s * self.b, -s * self.a + c * self.b)

    def coefficient_norm(self) -> float:
        return float(np.sqrt(np.sum(self.a**2) + np.sum(self.b**2)))


def sample(loop: FourierLoop, N: int) -> GridSamples:
    """Evaluate the loop and its derivative on N uniform nodes (N >= 4 modes)."""
    if N < 4 * loop.modes:
        raise LoopError(f"need N >= 4M = {4 * loop.modes} samples, got {N}")
    t = 2 * np.pi * np.arange(N) / N
    return GridSamples(t, loop.evaluate(t), loop.evaluate_derivative(t))


def action(loop: FourierLoop) -> float:
    """Symplectic action A(z) = 1/2 int <J z, z'> dt, closed form."""
    k = np.arange(1, loop.modes + 1)
    cross = np.sum(apply_J(loop.a) * loop.b, axis=1)
    return float(np.pi * np.sum(k * cross))


def action_quadrature(loop: FourierLoop, N: int | None = None) -> float:
    """Trapezoidal action on the uniform grid; agrees with `action` to roundoff."""
    if N is None:
        N = max(4 * loop.modes, 8)
    g = sample(loop, N)
    return float(0.5 * np.mean(np.sum(apply_J(g.z) * g.dz, axis=1)) * 2 * np.pi)


def normalize_action(loop: FourierLoop) -> FourierLoop:
    """Rescale (time-reversing first if the action is negative) to action 1."""
    A = action(loop)
    if A == 0:
        raise LoopError("cannot normalize a zero-action loop")
    if A < 0:
        loop = loop.time_reversed()
        A = -A
    return loop.scaled(1.0 / np.sqrt(A))


def random_loop(modes: int, dim: int, rng: np.random.Generator,
                decay: float = 2.0, scale: float = 1.0) -> FourierLoop:
    """Random loop with coefficients damped like k^-decay (smooth start)."""
    k = np.arange(1, modes + 1)[:, None]
    damp = scale / k**decay
    return FourierLoop(damp * rng.normal(size=(modes, dim)),
                       damp * rng.normal(size=(modes, dim)))


@dataclass
class CarrierLoop:
    """Closed curve offset + oscillation, e.g. a characteristic on a boundary."""

    offset: np.ndarray
    loop: FourierLoop

    @property
    def dim(self) -> int:
        return self.loop.dim

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        return self.loop.evaluate(t) + self.offset

    def evaluate_derivative(self, t: np.ndarray) -> np.ndarray:
        return self.loop.evaluate_derivative(t)

    def sample(self, N: int) -> GridSamples:
        g = sample(self.loop, N)
        return GridSamples(g.t, g.z + self.offset, g.dz)

    def action(self) -> float:
        # constant offsets do not change the enclosed symplectic area
        return action(self.loop)


def resample_by_clock(carrier: CarrierLoop, speed: np.ndarray) -> CarrierLoop:
    """Reparametrize a closed curve so the given positive clock rate is uniform.

    `speed` holds dtau/dt at the uniform samples of the current
    parametrization; the curve is resampled at times where the new clock tau
    is uniform and refit to a Fourier series with the carrier's modes (same
    image, new clock).
    """
    speed = np.asarray(speed, dtype=float)
    if np.any(speed <= 0):
        raise LoopError("clock rate must be positive along the loop")
    N = speed.size
    modes = carrier.loop.modes
    dt = 2 * np.pi / N
    tau = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * dt)])
    total = tau[-1] + 0.5 * (speed[-1] + speed[0]) * dt
    tau = 2 * np.pi * tau / total
    t_grid = 2 * np.pi * np.arange(N) / N
    # the new clock is uniform at the old grid's times
    t_of_tau = np.interp(t_grid, np.append(tau, 2 * np.pi), np.append(t_grid, 2 * np.pi))
    samples = carrier.evaluate(t_of_tau)
    offset = samples.mean(axis=0)
    spec = np.fft.rfft(samples - offset, axis=0) / N
    a = 2.0 * spec[1: modes + 1].real
    b = -2.0 * spec[1: modes + 1].imag
    return CarrierLoop(offset, FourierLoop(a, b))


def length_in_gauge(loop: FourierLoop | CarrierLoop, T: ConvexBody, N: int) -> float:
    """int h_T(J^{-1} z'(t)) dt: the length of the loop in the gauge of J T
    polar, the integrand of the isoperimetric bound.

    Trapezoidal quadrature at N nodes, accepted only if doubling the grid
    moves the value by less than 1e-6 relative (the integrand of a smooth
    loop on a smooth body is smooth and periodic, so agreement is fast).
    """
    if loop.dim != T.dim:
        raise LoopError(f"loop dimension {loop.dim} does not match body dimension {T.dim}")

    def quad(n: int) -> float:
        g = loop.sample(n) if isinstance(loop, CarrierLoop) else sample(loop, n)
        vals, _ = T.support_batch(apply_J_inverse(g.dz))
        return float(np.mean(vals) * 2 * np.pi)

    coarse, fine = quad(N), quad(2 * N)
    if abs(fine - coarse) > 1e-6 * max(abs(fine), 1e-30):
        raise LoopError(
            f"quadrature did not settle (N={N}: {coarse:.12g}, 2N: {fine:.12g}); "
            "the integrand may be non-smooth, increase N")
    return fine


def write_loop_csv(path: str, loop: FourierLoop | CarrierLoop, N: int,
                   include_derivatives: bool = False) -> None:
    """Emit grid samples as CSV: t, z_1..z_d (and optionally dz_1..dz_d)."""
    g = loop.sample(N) if isinstance(loop, CarrierLoop) else sample(loop, N)
    d = g.z.shape[1]
    header = ["t"] + [f"z_{i + 1}" for i in range(d)]
    if include_derivatives:
        header += [f"dz_{i + 1}" for i in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(g.t.size):
            row = [repr(float(g.t[j]))] + [repr(float(v)) for v in g.z[j]]
            if include_derivatives:
                row += [repr(float(v)) for v in g.dz[j]]
            writer.writerow(row)


def read_loop_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read back a loop CSV; returns (t, z, dz or None)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    d = sum(1 for name in header if name.startswith("z_"))
    t = data[:, 0]
    z = data[:, 1:1 + d]
    dz = data[:, 1 + d:1 + 2 * d] if any(h.startswith("dz_") for h in header) else None
    return t, z, dz
