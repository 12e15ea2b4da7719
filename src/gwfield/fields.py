"""Uniform periodic grids, complex scalar fields, and their elementary algebra."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CGS

# Density below this fraction of max(rho) is treated as a node: the phase is
# undefined there.  Read only through :func:`node_mask`.
RHO_FLOOR_REL = 1e-12


def node_mask(rho: np.ndarray) -> np.ndarray:
    """True where rho is below the node floor (everywhere for a zero density)."""
    peak = float(rho.max())
    return rho < RHO_FLOOR_REL * peak if peak > 0.0 else np.ones(rho.shape, dtype=bool)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sampling grid in 1, 2 or 3 dimensions.

    ``n_points`` and ``lengths`` are per-axis; spacing is derived as
    length/n exactly.  Only even point counts >= 8 are accepted, which keeps
    the spectral mode set symmetric.
    """

    dim: int
    n_points: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_points", tuple(int(n) for n in self.n_points))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.n_points) != self.dim or len(self.lengths) != self.dim:
            raise ValueError("n_points and lengths must both have one entry per axis")
        for n in self.n_points:
            if n < 8 or n % 2 != 0:
                raise ValueError(f"n_points entries must be even and >= 8, got {n}")
        for l in self.lengths:
            if not (l > 0.0 and math.isfinite(l)):
                raise ValueError(f"lengths entries must be finite and positive, got {l}")

    @classmethod
    def of(cls, n_points, lengths) -> "Grid":
        n_points = tuple(np.atleast_1d(n_points).tolist())
        lengths = tuple(np.atleast_1d(lengths).tolist())
        return cls(dim=len(n_points), n_points=n_points, lengths=lengths)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_points

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.n_points))

    @property
    def cell_volume(self) -> float:
        """Volume element dV [cm^dim]."""
        return float(np.prod(self.spacings))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axis(self, i: int) -> np.ndarray:
        """Coordinates along axis i, running over [0, L_i)."""
        return np.arange(self.n_points[i]) * self.spacings[i]

    def meshes(self) -> list[np.ndarray]:
        return list(np.meshgrid(*(self.axis(i) for i in range(self.dim)), indexing="ij"))


@dataclass(frozen=True)
class ComplexField:
    """A complex amplitude sampled on a :class:`Grid`.

    Values are stored as an immutable complex128 array.  When ``normalized``
    is set the field satisfies sum |psi|^2 dV = 1 over the periodic box (the
    box plays the role of all space here).
    """

    grid: Grid
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128).copy()
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
            raise ValueError("field values must be finite (no NaN/Inf)")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.normalized:
            total = float(np.sum(np.abs(values) ** 2)) * self.grid.cell_volume
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"normalized flag set but sum |psi|^2 dV = {total}")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2)) * self.grid.cell_volume

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def density(self) -> np.ndarray:
        """|psi|^2 on the grid."""
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class PlaneWaveSpec:
    """Amplitude, wave vector, angular frequency and inverse-length mass.

    Construction enforces the dispersion relation |k|^2 + mu^2 = (omega/c)^2,
    so inconsistent (k, omega, mu) triples cannot exist.
    """

    amplitude: complex
    k_vec: tuple[float, ...]
    omega: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_vec", tuple(float(k) for k in self.k_vec))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if self.mu < 0.0:
            raise ValueError("mu must be >= 0")
        lhs = sum(k * k for k in self.k_vec) + self.mu**2
        rhs = (self.omega / CGS.c) ** 2
        scale = max(lhs, rhs)
        if scale > 0.0 and abs(lhs - rhs) > 1e-12 * scale:
            raise ValueError(
                f"dispersion relation violated: |k|^2 + mu^2 = {lhs}, (omega/c)^2 = {rhs}"
            )

    @property
    def k_mag(self) -> float:
        return math.sqrt(sum(k * k for k in self.k_vec))


def make_plane_wave(spec: PlaneWaveSpec, grid: Grid, t: float = 0.0) -> ComplexField:
    """Sample A * exp(i(k.x - omega t)) on the grid.

    Each wave-vector component must be an integer multiple of 2*pi/length on
    its axis; anything else would break periodicity and is rejected.
    """
    if len(spec.k_vec) != grid.dim:
        raise ValueError("k_vec dimensionality does not match grid")
    for i, (k, length) in enumerate(zip(spec.k_vec, grid.lengths)):
        mode = k * length / (2.0 * math.pi)
        if abs(mode - round(mode)) > 1e-9:
            raise ValueError(
                f"k_vec[{i}] = {k} is not grid-commensurate: k*L/(2*pi) = {mode} "
                f"(nearest integer mode {round(mode)})"
            )
    phase = -spec.omega * t
    meshes = grid.meshes()
    acc = np.zeros(grid.shape, dtype=float)
    for k, mesh in zip(spec.k_vec, meshes):
        acc = acc + k * mesh
    values = spec.amplitude * np.exp(1j * (acc + phase))
    return ComplexField(grid=grid, values=values)


def normalize(psi: ComplexField) -> ComplexField:
    """Rescale so that sum |psi|^2 dV = 1 over the box.

    The returned field is the input times a positive real constant, so the
    phase pattern is untouched.
    """
    n = psi.norm()
    if n <= 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize null state")
    return ComplexField(grid=psi.grid, values=psi.values / n, normalized=True)


def inner_product(a: ComplexField, b: ComplexField) -> complex:
    """<a|b> = sum conj(a) * b * dV."""
    if a.grid != b.grid:
        raise ValueError("inner product requires fields on the same grid")
    return complex(np.vdot(a.values, b.values)) * a.grid.cell_volume
