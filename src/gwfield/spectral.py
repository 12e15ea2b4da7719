"""FFT-based derivatives and diagnostics on periodic grids.

All propagators and residual checks in this package differentiate spectrally:
for band-limited periodic data the derivatives are exact to rounding, which
keeps the physics claims separated from discretization error.  Every k-space
formula of the package lives here.

A derivative along one grid axis is separable: it needs 1D transforms along that axis
alone (Trefethen, *Spectral Methods in MATLAB*, 2000, ch. 3).  Every kernel that
differentiates (:func:`derivative`, :func:`phase_flux`, :func:`flux_divergence`,
:func:`curvature` and :func:`action_gradient_sq`) transforms one slab of whole lines
along one axis at a time (:func:`_line_slabs`), and d psi and d^2 psi along that axis
come from one forward transform of the slab; so none holds a full-grid spectrum or
gradient buffer.  The n-D spectrum of :func:`transform`, inverted by :func:`inverse`,
stays where a formula does not separate: the propagators, :func:`power_sum`,
:func:`power_mean` and :func:`gradient_spline`'s prefilter.

The grid axes of an array are its trailing ``grid.dim`` axes: the transforms run over
those alone, so leading axes index the snapshots of a series.  A grid vector field is
one ``(dim, ...)`` array, its component axis first; spline coefficients put it last, so
that a point's stencil gathers every component at once.

A full-grid kernel holds at most one full-grid temporary beyond its inputs, its result and
an n-D spectrum it transforms: the transforms write in place, and an elementwise formula that
would need more runs over :func:`flat_chunks` or over slabs of lines.  Each forms the same
products and sums, in the same order, as the plain whole-array formula, so its result is the
same to the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import CGS
from .fields import Grid

# elements per flat chunk: a power of two, so chunk edges fall on SIMD-vector edges
# and a formula rounds on a chunk exactly as it does on the whole array
CHUNK = 1 << 10
# elements per slab of whole lines that a derivative transforms at once (a longer line is a slab);
# numpy's iteration buffer for a broadcast or strided slab operand is as long, up to 2^13
SLAB = 1 << 12


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


def k_squared(grid: Grid) -> np.ndarray:
    return sum(k * k for k in wavenumbers(grid))


def _grid_axes(grid: Grid) -> tuple[int, ...]:
    return tuple(range(-grid.dim, 0))


def transform(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward transform over the grid axes, the spectrum the derivatives read."""
    return np.fft.fftn(values, axes=_grid_axes(grid), out=np.empty(np.shape(values), dtype=complex))


def inverse(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of :func:`transform`, written into ``spec``."""
    return np.fft.ifftn(spec, axes=_grid_axes(grid), out=spec)


def _line_slabs(axis: int, grid: Grid, *arrays: np.ndarray):
    """Views of ``arrays`` (one shape) as ``(lines before, n, lines after)`` blocks, n the length
    of grid axis ``axis``: slabs of whole lines along that axis, :data:`SLAB` elements (or one
    line) at a time.  An array written through its views must be C-contiguous."""
    shape = np.shape(arrays[0])
    at = len(shape) - grid.dim + axis
    blocks = [np.reshape(a, (math.prod(shape[:at]), shape[at], -1)) for a in arrays]
    before, n, after = blocks[0].shape
    rows, columns = max(1, SLAB // (n * after)), min(after, max(1, SLAB // n))
    for row in range(0, before, rows):
        for column in range(0, after, columns):
            yield tuple(b[row:row + rows, :, column:column + columns] for b in blocks)


def _line_derivatives(values: np.ndarray, grid: Grid, axis: int, orders: tuple[int, ...], *arrays: np.ndarray):
    """Each :func:`_line_slabs` slab of psi = ``values`` along grid axis ``axis`` as
    ``(psi, derivatives, slabs)``: d^m psi along the axis for each order m (1 or 2) in
    ``orders``, all from one forward transform of the slab's lines (the last written over it),
    and the same slabs of ``arrays``.  The derivatives live in buffers that the next slab of the
    same shape reuses; a reader may write over them."""
    k = wavenumbers(grid)[axis].reshape(-1, 1)
    factors = {1: 1j * k, 2: np.negative(k * k)}
    buffers = []
    for psi, *slabs in _line_slabs(axis, grid, values, *arrays):
        if not buffers or buffers[0].shape != psi.shape:
            buffers = [np.empty(psi.shape, dtype=complex) for _ in orders]
        spec = np.fft.fft(psi, axis=1, out=buffers[-1])
        derivatives = [np.multiply(factors[m], spec, out=out) for m, out in zip(orders, buffers)]
        yield psi, [np.fft.ifft(d, axis=1, out=d) for d in derivatives], slabs


def derivative(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Spectral d ``values``/dx_axis, one complex array, from transforms along ``axis`` alone."""
    result = np.empty(np.shape(values), dtype=complex)
    for _, (d_psi,), (out,) in _line_derivatives(values, grid, axis, (1,), result):
        out[...] = d_psi
    return result


def gradient_spline(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Periodic cubic B-spline coefficients of the spectral gradient of the real ``values``, one
    real ``(*grid.shape, dim)`` array.  At the integers the B-spline is (1, 4, 1)/6, a circular
    convolution that the transform turns into the factor prod_i (4 + 2 cos k_i dx_i)/6, so one
    division of the spectrum interpolates every component exactly (Unser, Aldroubi & Eden, IEEE
    Trans. Signal Process. 41, 821 (1993)); the rows are then inverted one at a time."""
    spec = transform(values, grid)
    for k, dx in zip(wavenumbers(grid), grid.spacings):
        spec /= (4.0 + 2.0 * np.cos(k * dx)) / 6.0
    coefficients, row = np.empty((*grid.shape, grid.dim)), np.empty_like(spec)
    for i, k in enumerate(wavenumbers(grid)):
        coefficients[..., i] = inverse(np.multiply(1j * k, spec, out=row), grid).real
    return coefficients


def phase_flux(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Im(conj(psi) grad psi) = rho grad(phase) of psi = ``values``, one real ``(dim, ...)``
    array: smooth across phase seams, times hbar the convection current."""
    rows = np.empty((grid.dim, *np.shape(values)))
    for axis, row in enumerate(rows):
        for psi, (d_psi,), (flux,) in _line_derivatives(values, grid, axis, (1,), row):
            flux[...] = np.imag(np.multiply(np.conj(psi), d_psi, out=d_psi))
    return rows


def flux_divergence(values: np.ndarray, grid: Grid) -> np.ndarray:
    """div Im(psi* grad psi) = Im(psi* lap psi) of psi = ``values``, one real array (over the
    grid axes, so a stack of snapshots in one call): the sum over the axes i of
    -Im(conj(d_i^2 psi) psi), the product whose real part :func:`curvature` reads."""
    divergence = np.empty(np.shape(values))
    for axis in range(grid.dim):
        for psi, (d2_psi,), (out,) in _line_derivatives(values, grid, axis, (2,), divergence):
            term = np.imag(np.multiply(np.conjugate(d2_psi, out=d2_psi), psi, out=d2_psi))
            if axis:
                out -= term
            else:
                np.negative(term, out=out)
    return divergence


def curvature(values: np.ndarray, grid: Grid, mask: np.ndarray) -> np.ndarray:
    """lap(sqrt rho)/sqrt(rho) of psi = ``values`` (rho = |psi|^2, nodes under ``mask``, where it is
    zero): the sum over the axes i of d_i^2(sqrt rho)/sqrt(rho) = [f_i^2/rho + Re(conj(d_i^2 psi) psi)]/rho,
    f_i = Im(conj(psi) d_i psi).  psi must be periodic and band-limited: the rounding then grows as
    eps sqrt(rho_max/rho) towards the nodes, while a field cut off at the box edge rings into every line."""
    result = np.zeros(grid.shape)
    for axis in range(grid.dim):
        for psi, (d_psi, d2_psi), (m, out) in _line_derivatives(values, grid, axis, (1, 2), mask, result):
            r, keep, f = np.abs(psi), ~m, np.imag(np.multiply(np.conj(psi), d_psi, out=d_psi))
            r **= 2
            term = f * f
            np.divide(term, r, out=term, where=keep)
            term += np.real(np.multiply(np.conjugate(d2_psi, out=d2_psi), psi, out=d2_psi))
            np.divide(term, r, out=term, where=keep)
            out += term
    np.copyto(result, 0.0, where=mask)
    return result


def action_gradient_sq(values: np.ndarray, grid: Grid, mask: np.ndarray) -> np.ndarray:
    """|grad S|^2 = sum_i (hbar f_i/rho)^2 [erg^2 s^2/cm^2] of psi = ``values`` (S = hbar times
    its phase, f_i = Im(conj(psi) d_i psi), rho = |psi|^2), zero under ``mask``."""
    result = np.zeros(grid.shape)
    for axis in range(grid.dim):
        for psi, (d_psi,), (m, out) in _line_derivatives(values, grid, axis, (1,), mask, result):
            f = np.imag(np.multiply(np.conj(psi), d_psi, out=d_psi))
            np.divide(np.multiply(CGS.hbar, f, out=f), np.abs(psi) ** 2, out=f, where=~m)
            f **= 2
            out += f
    np.copyto(result, 0.0, where=mask)
    return result


def power_sum(values: np.ndarray, grid: Grid) -> float:
    """Sum of k^2 |spec|^2 over the power spectrum of spec = :func:`transform` of ``values``.
    Times dV/N it is the Parseval partner of the gradient energy int |grad psi|^2 dV."""
    power = np.abs(transform(values, grid))
    power **= 2
    power *= k_squared(grid)
    return float(np.sum(power))


def power_mean(values: np.ndarray, grid: Grid, weight) -> float:
    """Mean of ``weight(k^2)`` (which may write into the k^2 array) over the power spectrum
    |spec|^2 of spec = :func:`transform` of ``values``, freed before k^2 is formed.  Raises
    ValueError for a zero field, whose spectrum has no power to average over."""
    power = np.abs(transform(values, grid))
    power **= 2
    total = float(np.sum(power))
    if total == 0.0:
        raise ValueError("the spectral mean of a zero field is undefined (zero total power)")
    power *= weight(k_squared(grid))
    return float(np.sum(power)) / total


