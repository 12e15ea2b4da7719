"""FFT-based derivatives and diagnostics on periodic grids.

All propagators and residual checks in this package differentiate spectrally:
for band-limited periodic data the derivatives are exact to rounding, which
keeps the physics claims separated from discretization error.  Every k-space
formula of the package lives here.
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


def _gradient_of(spec: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Gradient of the field whose forward transform is ``spec``."""
    return [np.fft.ifftn(1j * k * spec) for k in wavenumbers(grid)]


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    return np.fft.ifftn(-k_squared(grid) * np.fft.fftn(values))


def gradient(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Spectral gradient, one complex array per axis."""
    return _gradient_of(np.fft.fftn(values), grid)


def divergence(components: list[np.ndarray], grid: Grid) -> np.ndarray:
    """Spectral divergence of a real vector field, one real array per axis."""
    if any(np.iscomplexobj(comp) for comp in components):
        raise ValueError("divergence takes real components")
    spec = sum(1j * k * np.fft.rfftn(comp) for comp, k in zip(components, half_wavenumbers(grid)))
    return np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(grid.dim)))


def phase_flux(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Im(conj(psi) d_i psi) = rho d_i(phase) per axis, smooth across phase
    seams: times hbar it is the convection current."""
    return [np.imag(np.conj(values) * comp) for comp in gradient(values, grid)]


def power_mean(values: np.ndarray, grid: Grid, weight) -> float:
    """Mean of ``weight(k^2)`` (a function of the k^2 array) over the power
    spectrum |fftn(values)|^2.  Raises ValueError for a zero field, whose
    spectrum has no power to average over."""
    power = np.abs(np.fft.fftn(values)) ** 2
    total = np.sum(power)
    if total == 0.0:
        raise ValueError("the spectral mean of a zero field is undefined (zero total power)")
    return float(np.sum(weight(k_squared(grid)) * power) / total)


def power_sum(values: np.ndarray, grid: Grid, weight=None) -> float:
    """Sum of ``weight(k^2)`` (a function of the k^2 array; 1 when None) over
    the power spectrum |fftn(values)|^2.  Times dV/N it is the Parseval
    partner of the matching real-space integral."""
    power = np.abs(np.fft.fftn(values)) ** 2
    if weight is None:
        return float(np.sum(power))
    return float(np.sum(weight(k_squared(grid)) * power))


def fourier_norm_squared(field: ComplexField) -> float:
    """Parseval partner of ``ComplexField.norm_squared``."""
    n_total = float(np.prod(field.grid.n_points))
    return power_sum(field.values, field.grid) * field.grid.cell_volume / n_total


def sqrt_density_curvature(rho: np.ndarray, grid: Grid, mask: np.ndarray) -> np.ndarray:
    """laplacian(sqrt(rho))/sqrt(rho), evaluated through the density.

    Uses the identity lap(sqrt(rho))/sqrt(rho) = lap(rho)/(2 rho)
    - |grad rho|^2/(4 rho^2).  Differentiating rho rather than sqrt(rho)
    matters: at density nodes sqrt(rho) has a kink that would poison the
    spectrum, while rho itself stays smooth.  Entries under ``mask`` are set
    to zero (the value is undefined there).  ``rho`` is transformed once for
    both derivatives.  The transforms stay complex: where rho is
    below ~1e-9 of its peak the result is rounding noise, which an ``rfftn``
    version rounds differently enough to move Q-driven trajectories.
    """
    rho = np.asarray(rho, dtype=float)
    spec = np.fft.fftn(rho)
    lap_rho = np.fft.ifftn(-k_squared(grid) * spec).real
    grad_sq = sum(comp.real**2 for comp in _gradient_of(spec, grid))
    safe_rho = np.where(mask, 1.0, rho)
    curvature = lap_rho / (2.0 * safe_rho) - grad_sq / (4.0 * safe_rho**2)
    return np.where(mask, 0.0, curvature)
