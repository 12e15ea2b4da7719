"""FFT-based derivatives and diagnostics on periodic grids.

All propagators and residual checks in this package differentiate spectrally:
for band-limited periodic data the derivatives are exact to rounding, which
keeps the physics claims separated from discretization error.  Every k-space
formula of the package lives here.

The grid axes of an array are its trailing ``grid.dim`` axes: :func:`transform` and
the derivatives transform over those alone, so leading axes index the snapshots
of a series.  A grid vector field is one ``(dim, ...)`` array, its component axis
first.  The power sums take one field.
"""

from __future__ import annotations

import numpy as np

from .fields import ComplexField, Grid


def wavenumbers(grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis angular wavenumbers (2*pi * FFT frequencies) as open axes:
    axis i is n_i long along dimension i and 1 long elsewhere, so it
    broadcasts against grid arrays without building an N^dim mesh."""
    axes = (2.0 * np.pi * np.fft.fftfreq(n, d=dx) for n, dx in zip(grid.n_points, grid.spacings))
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


def half_wavenumbers(grid: Grid) -> tuple[np.ndarray, ...]:
    """:func:`wavenumbers` on the ``rfftn`` half spectrum (last axis: n/2 + 1, non-negative)."""
    *axes, last = wavenumbers(grid)
    return (*axes, np.abs(last[..., :grid.n_points[-1] // 2 + 1]))


def k_squared(grid: Grid) -> np.ndarray:
    return sum(k * k for k in wavenumbers(grid))


def _grid_axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(-grid.dim, 0))


def transform(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward transform over the grid axes, the spectrum the derivatives read."""
    return np.fft.fftn(values, axes=_grid_axes(grid))


def _gradient_rows(spec: np.ndarray, grid: Grid, part, dtype) -> np.ndarray:
    """The ``(dim, ...)`` array whose row i is ``part(d_i psi)`` of the field psi whose
    :func:`transform` is ``spec``, holding one complex component d_i psi at a time."""
    rows = np.empty((grid.dim, *spec.shape), dtype=dtype)
    for row, k in zip(rows, wavenumbers(grid)):
        row[...] = part(np.fft.ifftn(1j * k * spec, axes=_grid_axes(grid)))
    return rows


def laplacian(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Laplacian of the field whose :func:`transform` is ``spec``."""
    return np.fft.ifftn(-k_squared(grid) * spec, axes=_grid_axes(grid))


def gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral gradient, one complex ``(dim, ...)`` array: row i is d_i ``values``."""
    return _gradient_rows(transform(values, grid), grid, lambda comp: comp, complex)


def divergence(field: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral divergence of a real ``(dim, ...)`` vector field, one row per axis of ``grid``."""
    if np.iscomplexobj(field):
        raise ValueError("divergence takes real components")
    axes = _grid_axes(grid)
    spec = sum(1j * k * np.fft.rfftn(comp, axes=axes)
               for comp, k in zip(field, half_wavenumbers(grid), strict=True))
    return np.fft.irfftn(spec, s=grid.shape, axes=axes)


def phase_flux(values: np.ndarray, spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Im(conj(psi) grad psi) = rho grad(phase) of psi = ``values`` (``spec`` is its
    :func:`transform`), one real ``(dim, ...)`` array: smooth across phase seams, times
    hbar the convection current."""
    return _gradient_rows(spec, grid, lambda comp: np.imag(np.conj(values) * comp), float)


def power_sum(spec: np.ndarray, grid: Grid, weight=None) -> float:
    """Sum of ``weight(k^2)`` (a function of the k^2 array; 1 when None) over
    the power spectrum |spec|^2 of a forward transform ``spec``.  Times dV/N it
    is the Parseval partner of the matching real-space integral."""
    power = np.abs(spec) ** 2
    return float(np.sum(power if weight is None else weight(k_squared(grid)) * power))


def power_mean(spec: np.ndarray, grid: Grid, weight) -> float:
    """Mean of ``weight(k^2)`` over the power spectrum |spec|^2.  Raises
    ValueError for a zero field, whose spectrum has no power to average over."""
    total = power_sum(spec, grid)
    if total == 0.0:
        raise ValueError("the spectral mean of a zero field is undefined (zero total power)")
    return power_sum(spec, grid, weight) / total


def fourier_norm_squared(field: ComplexField) -> float:
    """Parseval partner of ``ComplexField.norm_squared``."""
    n_total = float(np.prod(field.grid.n_points))
    return power_sum(np.fft.fftn(field.values), field.grid) * field.grid.cell_volume / n_total


def sqrt_density_curvature(psi: ComplexField, spec: np.ndarray, flux: np.ndarray,
                           mask: np.ndarray) -> np.ndarray:
    """lap(sqrt rho)/sqrt(rho) = [Re(psi* lap psi) + |flux|^2/rho]/rho of the field psi
    (rho = |psi|^2) from its :func:`transform` ``spec`` and :func:`phase_flux` ``flux``.

    One inverse transform of the smooth field psi, whose rounding grows as
    eps sqrt(rho_max/rho) towards the node floor.  psi must be periodic and
    band-limited on the grid: a field cut off at the box edge rings into the
    whole spectrum.  Entries under ``mask`` are zero (the value is undefined there).
    """
    rho = np.where(mask, 1.0, psi.density())
    curvature = (np.real(np.conj(psi.values) * laplacian(spec, psi.grid)) + sum(f * f for f in flux) / rho) / rho
    return np.where(mask, 0.0, curvature)
