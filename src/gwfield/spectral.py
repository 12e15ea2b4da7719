"""FFT-based derivatives and diagnostics on periodic grids.

All propagators and residual checks in this package differentiate spectrally:
for band-limited periodic data the derivatives are exact to rounding, which
keeps the physics claims separated from discretization error.  Every k-space
formula of the package lives here.

The grid axes of an array are its trailing ``grid.dim`` axes: :func:`transform` and
the derivatives transform over those alone, so leading axes index the snapshots
of a series.  A grid vector field is one ``(dim, ...)`` array, its component axis
first.  The power sums take one field.

A full-grid kernel holds at most one full-grid temporary beyond its inputs and its
result: the transforms write in place, and an elementwise formula that would need
more runs over :func:`flat_chunks`.  Each forms the same products and sums, in the
same order, as the plain whole-array formula, so its result is the same to the last bit.
"""

from __future__ import annotations

import numpy as np

from .fields import ComplexField, Grid

# elements per flat chunk: a power of two, so chunk edges fall on SIMD-vector edges
# and a formula rounds on a chunk exactly as it does on the whole array
CHUNK = 1 << 10


def flat_chunks(*arrays: np.ndarray):
    """Flat views of ``arrays`` (one shape), :data:`CHUNK` elements at a time.  An array
    written through its views must be C-contiguous (any other is read from a copy)."""
    flats = [a.reshape(-1) for a in arrays]
    for start in range(0, flats[0].size, CHUNK):
        yield tuple(f[start:start + CHUNK] for f in flats)


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
    return np.fft.fftn(values, axes=_grid_axes(grid), out=np.empty(np.shape(values), dtype=complex))


def _derivative(spec: np.ndarray, k: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
    """d psi along the axis of ``k`` (one of :func:`wavenumbers`), written into ``out``,
    of the field psi whose :func:`transform` is ``spec``; ``out`` may be ``spec``."""
    np.multiply(1j * k, spec, out=out)
    return np.fft.ifftn(out, axes=_grid_axes(grid), out=out)


def laplacian(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Laplacian of the field whose :func:`transform` is ``spec``."""
    k_sq = k_squared(grid)
    lap = np.multiply(np.negative(k_sq, out=k_sq), spec)
    return np.fft.ifftn(lap, axes=_grid_axes(grid), out=lap)


def derivative(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Spectral d ``values``/dx_axis, one complex array."""
    spec = transform(values, grid)
    return _derivative(spec, wavenumbers(grid)[axis], grid, out=spec)


def gradient(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral gradient, one complex ``(dim, ...)`` array: row i is d_i ``values``."""
    spec = transform(values, grid)
    rows = np.empty((grid.dim, *spec.shape), dtype=complex)
    for row, k in zip(rows, wavenumbers(grid)):
        _derivative(spec, k, grid, out=row)
    return rows


def divergence(field, grid: Grid) -> np.ndarray:
    """Spectral divergence of a real vector field: one row per axis of ``grid``, given as a
    ``(dim, ...)`` array or any iterable of rows (so a caller can scale one row at a time)."""
    axes = _grid_axes(grid)
    spec, term = 0.0, None
    for comp, k in zip(field, half_wavenumbers(grid), strict=True):
        if np.iscomplexobj(comp):
            raise ValueError("divergence takes real components")
        term = np.fft.rfftn(comp, axes=axes, out=term)
        spec += np.multiply(1j * k, term, out=term)
    del term
    # irfftn with its complex passes in place (ifftn runs the axes it is given last to first)
    np.fft.ifftn(spec, axes=axes[-2::-1], out=spec)
    return np.fft.irfft(spec, n=grid.n_points[-1], axis=-1)


def phase_flux(values: np.ndarray, spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Im(conj(psi) grad psi) = rho grad(phase) of psi = ``values`` (``spec`` is its
    :func:`transform`), one real ``(dim, ...)`` array: smooth across phase seams, times
    hbar the convection current."""
    rows = np.empty((grid.dim, *spec.shape))
    component = np.empty_like(spec)
    for row, k in zip(rows, wavenumbers(grid)):
        _derivative(spec, k, grid, out=component)
        for flux, psi, d_psi in flat_chunks(row, values, component):
            flux[...] = np.imag(np.conj(psi) * d_psi)
    return rows


def _weighted_sum(power: np.ndarray, grid: Grid, weight) -> float:
    """Sum of ``weight(k^2) * power`` (``power`` alone when ``weight`` is None), formed in ``power``."""
    if weight is not None:
        np.multiply(weight(k_squared(grid)), power, out=power)
    return float(np.sum(power))


def power_sum(spec: np.ndarray, grid: Grid, weight=None) -> float:
    """Sum of ``weight(k^2)`` (a function of the k^2 array; 1 when None) over
    the power spectrum |spec|^2 of a forward transform ``spec``.  Times dV/N it
    is the Parseval partner of the matching real-space integral."""
    return _weighted_sum(np.abs(spec) ** 2, grid, weight)


def power_mean(spec: np.ndarray, grid: Grid, weight) -> float:
    """Mean of ``weight(k^2)`` over the power spectrum |spec|^2.  Raises
    ValueError for a zero field, whose spectrum has no power to average over."""
    power = np.abs(spec) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        raise ValueError("the spectral mean of a zero field is undefined (zero total power)")
    return _weighted_sum(power, grid, weight) / total


def sqrt_density_curvature(psi: ComplexField, spec: np.ndarray, flux: np.ndarray,
                           mask: np.ndarray) -> np.ndarray:
    """lap(sqrt rho)/sqrt(rho) = [Re(psi* lap psi) + |flux|^2/rho]/rho of the field psi
    (rho = |psi|^2) from its :func:`transform` ``spec`` and :func:`phase_flux` ``flux``.

    One inverse transform of the smooth field psi, whose rounding grows as
    eps sqrt(rho_max/rho) towards the node floor.  psi must be periodic and
    band-limited on the grid: a field cut off at the box edge rings into the
    whole spectrum.  Entries under ``mask`` are zero (the value is undefined there).
    """
    curvature = flux[0] * flux[0]
    for f in flux[1:]:
        curvature += f * f
    # Re(conj(psi) lap) as Re(conj(lap) psi): the same products, formed in lap
    lap = laplacian(spec, psi.grid)
    np.conjugate(lap, out=lap)
    lap *= psi.values
    rho = psi.density()
    np.copyto(rho, 1.0, where=mask)
    curvature /= rho
    curvature += lap.real
    curvature /= rho
    np.copyto(curvature, 0.0, where=mask)
    return curvature
