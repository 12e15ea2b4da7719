"""Uniform periodic grids, complex scalar fields, and their elementary algebra."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import require_positive

# largest |sum |psi|^2 dV - 1| of a field that counts as normalized
NORM_TOL = 1e-10


def frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array of its own.  A read-only ``dtype`` array
    that owns its data (a library result marked read-only when made) is adopted; anything
    else, a caller's writable array included, is copied."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype and values.flags.owndata
            and not values.flags.writeable):
        return values
    values = np.array(values, dtype=dtype, order="C")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sampling grid in 1, 2 or 3 dimensions.

    ``n_points`` and ``lengths`` are per-axis; spacing is derived as
    length/n exactly.  Only even point counts >= 8 are accepted, which keeps
    the spectral mode set symmetric.
    """

    n_points: tuple[int, ...]
    lengths: tuple[float, ...]

    dim = property(lambda self: len(self.n_points))

    def __post_init__(self) -> None:
        for i, n in enumerate(self.n_points):
            if not (float(n).is_integer() and n >= 8 and n % 2 == 0):
                raise ValueError(f"n_points[{i}] must be a whole even number >= 8, got {n!r}")
        object.__setattr__(self, "n_points", tuple(int(n) for n in self.n_points))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.lengths) != self.dim:
            raise ValueError("n_points and lengths must both have one entry per axis")
        for i, l in enumerate(self.lengths):
            require_positive(f"lengths[{i}]", l)

    @classmethod
    def of(cls, n_points, lengths) -> "Grid":
        return cls(tuple(np.atleast_1d(n_points).tolist()), tuple(np.atleast_1d(lengths).tolist()))

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


@dataclass(frozen=True)
class ComplexField:
    """A complex amplitude sampled on a :class:`Grid`, its values an immutable complex128
    array (see :func:`frozen_array`)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = frozen_array(self.values, np.complex128)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite (no NaN/Inf)")
        object.__setattr__(self, "values", values)

    def norm_squared(self) -> float:
        return float(np.sum(self.density())) * self.grid.cell_volume

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def density(self) -> np.ndarray:
        """|psi|^2 on the grid."""
        return np.abs(self.values) ** 2


def make_plane_wave(amplitude: complex, k_vec: tuple[float, ...], grid: Grid) -> ComplexField:
    """Sample A * exp(i k.x), the mode at t = 0, on the grid.  Its frequency is the
    propagator's (c sqrt(|k|^2 + mu^2), or hbar |k|^2 / 2m* + V0 to first order).

    Each wave-vector component must be an integer multiple of 2*pi/length on
    its axis; anything else would break periodicity and is rejected.
    """
    amplitude, k_vec = complex(amplitude), tuple(float(k) for k in k_vec)
    if len(k_vec) != grid.dim:
        raise ValueError("k_vec dimensionality does not match grid")
    for i, (k, length) in enumerate(zip(k_vec, grid.lengths)):
        mode = k * length / (2.0 * math.pi)
        if not math.isfinite(mode):
            raise ValueError(f"k_vec[{i}] = {k} gives no finite mode number k*L/(2*pi) = {mode}")
        if abs(mode - round(mode)) > 1e-9:
            raise ValueError(
                f"k_vec[{i}] = {k} is not grid-commensurate: k*L/(2*pi) = {mode} "
                f"(nearest integer mode {round(mode)})"
            )
    # k.x summed on open axes, in the order of a sum over full coordinate meshes
    phase = np.zeros(grid.shape, dtype=float)
    for i, k in enumerate(k_vec):
        phase = phase + (k * grid.axis(i)).reshape([-1 if j == i else 1 for j in range(grid.dim)])
    phase = 1j * phase  # frees the real sum before the exponential is allocated
    values = amplitude * np.exp(phase)
    values.setflags(write=False)
    return ComplexField(grid=grid, values=values)


def normalize(psi: ComplexField) -> ComplexField:
    """Rescale so that sum |psi|^2 dV = 1 over the box.

    The returned field is the input times a positive real constant, so the
    phase pattern is untouched.
    """
    n = psi.norm()
    if n <= 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize null state")
    values = psi.values / n
    values.setflags(write=False)
    return ComplexField(grid=psi.grid, values=values)


def inner_product(a: ComplexField, b: ComplexField) -> complex:
    """<a|b> = sum conj(a) * b * dV."""
    if a.grid != b.grid:
        raise ValueError("inner product requires fields on the same grid")
    return complex(np.vdot(a.values, b.values)) * a.grid.cell_volume
