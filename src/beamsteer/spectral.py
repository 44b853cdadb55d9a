"""Sine-spectral discretisation of the clamped interval.

Spatial fields live on (0, L) with homogeneous Dirichlet conditions and are
represented by coefficients against the orthonormal eigenfunctions

    phi_j(x) = sqrt(2/L) * sin(j pi x / L),      lambda_j = (j pi / L)**2.

A beam state pairs a deflection and a velocity coefficient vector.  The
energy norm weights deflection modes by their eigenvalue,

    ||(w, v)||**2 = sum_j (lambda_j**2 w_j**2 + v_j**2),

so the map (w_j, v_j) -> (lambda_j w_j, v_j) is an isometry onto plain
Euclidean coordinates; several modules work in those "energy coordinates".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class SpatialDomain:
    """Interval (0, length) with interior collocation nodes i*L/Mx."""

    length: float
    grid_points: int

    def __post_init__(self):
        if self.length <= 0:
            raise InvalidArgumentError("domain length must be positive")
        if int(self.grid_points) != self.grid_points or self.grid_points < 2:
            raise InvalidArgumentError("grid_points must be an integer >= 2")

    @property
    def nodes(self) -> np.ndarray:
        """Interior nodes x_i = i*L/Mx, i = 1 .. Mx-1 (boundary excluded)."""
        return self.length * np.arange(1, self.grid_points) / self.grid_points

    @property
    def spacing(self) -> float:
        return self.length / self.grid_points


@dataclass(frozen=True)
class ModeSet:
    """Strictly increasing positive eigenvalues of the retained modes."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        object.__setattr__(self, "lambdas", lam)
        if lam.size == 0:
            raise InvalidArgumentError("mode set needs at least one eigenvalue")
        if np.any(lam <= 0):
            raise InvalidArgumentError("eigenvalues must be positive")
        if np.any(np.diff(lam) <= 0):
            raise InvalidArgumentError("eigenvalues must be strictly increasing")

    @property
    def count(self) -> int:
        return int(self.lambdas.size)


def laplacian_eigenvalues(length: float, count: int) -> ModeSet:
    """Dirichlet eigenvalues lambda_j = (j pi / L)**2, j = 1..count."""
    if length <= 0:
        raise InvalidArgumentError("length must be positive")
    if int(count) != count or count < 1:
        raise InvalidArgumentError("count must be a positive integer")
    j = np.arange(1, count + 1, dtype=float)
    return ModeSet((j * np.pi / length) ** 2)


def basis_matrix(domain: SpatialDomain, count: int) -> np.ndarray:
    """Eigenfunction values phi_j(x_i) as an (Mx-1, count) matrix."""
    if count < 1:
        raise InvalidArgumentError("count must be positive")
    if domain.grid_points < 2 * count:
        raise InvalidArgumentError(
            "grid_points must be at least twice the retained mode count"
        )
    x = domain.nodes[:, None]
    j = np.arange(1, count + 1, dtype=float)[None, :]
    return np.sqrt(2.0 / domain.length) * np.sin(j * np.pi * x / domain.length)


@dataclass
class BeamState:
    """Deflection and velocity coefficient vectors of equal length; a batch of
    states has leading cell axes, shape (..., N)."""

    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.w.shape != self.v.shape or self.w.ndim == 0:
            raise InvalidArgumentError("w and v must be arrays of equal shape (..., N)")

    @property
    def count(self) -> int:
        return int(self.w.shape[-1])

    @classmethod
    def zeros(cls, count: int) -> "BeamState":
        return cls(np.zeros(count), np.zeros(count))

    def copy(self) -> "BeamState":
        return BeamState(self.w.copy(), self.v.copy())

    def __add__(self, other: "BeamState") -> "BeamState":
        return BeamState(self.w + other.w, self.v + other.v)

    def __sub__(self, other: "BeamState") -> "BeamState":
        return BeamState(self.w - other.w, self.v - other.v)

    def __mul__(self, scalar: float) -> "BeamState":
        return BeamState(self.w * scalar, self.v * scalar)

    __rmul__ = __mul__


def energy_norm(state: BeamState, modes: ModeSet):
    """sqrt(sum_j lambda_j**2 w_j**2 + v_j**2), a float, or one per cell of a batch."""
    if state.count != modes.count:
        raise InvalidArgumentError("state and mode set sizes differ")
    norm = np.sqrt(np.sum((modes.lambdas * state.w) ** 2, axis=-1) + np.sum(state.v**2, axis=-1))
    return float(norm) if norm.ndim == 0 else norm


def energy_coords(state: BeamState, modes: ModeSet) -> np.ndarray:
    """Per-mode pairs (lambda_j w_j, v_j) as an (N, 2) array, (..., N, 2) for a batch.

    The Euclidean norm of the result equals the energy norm of the state.
    """
    if state.count != modes.count:
        raise InvalidArgumentError("state and mode set sizes differ")
    return np.stack((modes.lambdas * state.w, state.v), axis=-1)


def state_from_coords(coords: np.ndarray, modes: ModeSet) -> BeamState:
    """Inverse of :func:`energy_coords`."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim < 2 or coords.shape[-2:] != (modes.count, 2):
        raise InvalidArgumentError("coords must have shape (..., N, 2)")
    return BeamState(coords[..., 0] / modes.lambdas, coords[..., 1].copy())
