"""FFT-based derivatives and diagnostics on periodic grids.

All propagators and residual checks in this package differentiate spectrally:
for band-limited periodic data the derivatives are exact to rounding, which
keeps the physics claims separated from discretization error.  Every k-space
formula of the package lives here, down to the polar form's one pass over one
transform of psi (:func:`polar_terms`), and every kernel reads the complex spectrum
of :func:`transform` and returns through :func:`inverse`: one transform family.

The grid axes of an array are its trailing ``grid.dim`` axes: the transforms run over
those alone, so leading axes index the snapshots of a series.  A grid vector field is
one ``(dim, ...)`` array, its component axis first; spline coefficients put it last, so
that a point's stencil gathers every component at once.

A full-grid kernel holds at most one full-grid temporary beyond its inputs, its result and
the spectrum it transforms: the transforms write in place, and an elementwise formula that
would need more runs over :func:`flat_chunks`.  Each forms the same products and sums, in the
same order, as the plain whole-array formula, so its result is the same to the last bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .constants import CGS
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


def _derivative(spec: np.ndarray, k: np.ndarray, grid: Grid, out: np.ndarray) -> np.ndarray:
    """d psi along the axis of ``k`` (one of :func:`wavenumbers`), written into ``out``,
    of the field psi whose :func:`transform` is ``spec``; ``out`` may be ``spec``."""
    np.multiply(1j * k, spec, out=out)
    return inverse(out, grid)


def derivative(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Spectral d ``values``/dx_axis, one complex array."""
    spec = transform(values, grid)
    return _derivative(spec, wavenumbers(grid)[axis], grid, out=spec)


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
        coefficients[..., i] = _derivative(spec, k, grid, out=row).real
    return coefficients


def phase_flux(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Im(conj(psi) grad psi) = rho grad(phase) of psi = ``values``, one real ``(dim, ...)``
    array: smooth across phase seams, times hbar the convection current.  The last gradient
    component is written over the kernel's own :func:`transform` of ``values``."""
    rows = np.empty((grid.dim, *np.shape(values)))
    for f, flux in _flux_chunks(values, transform(values, grid), grid, ((row,) for row in rows), spend=True):
        flux[...] = f
    return rows


def _flux_chunks(values: np.ndarray, spec: np.ndarray, grid: Grid, arrays, spend: bool = False):
    """Each :func:`flat_chunks` chunk of each row f = Im(conj(psi) d_i psi) of the :func:`phase_flux`
    of psi = ``values``, one gradient component at a time, beside the matching chunks of that axis's
    tuple of arrays in ``arrays`` (the buffer and the chunk views live in the generator alone).  With
    ``spend`` the last component is written into ``spec``, so a 1D grid allocates no buffer."""
    component = spec if spend and grid.dim == 1 else np.empty_like(spec)
    for i, (k, row_arrays) in enumerate(zip(wavenumbers(grid), arrays, strict=True)):
        out = spec if spend and i == grid.dim - 1 else component
        _derivative(spec, k, grid, out=out)
        for psi, d_psi, *chunks in flat_chunks(values, out, *row_arrays):
            yield np.imag(np.conj(psi) * d_psi), *chunks


def power_sum(values: np.ndarray, grid: Grid) -> float:
    """Sum of k^2 |spec|^2 over the power spectrum of spec = :func:`transform` of ``values``.
    Times dV/N it is the Parseval partner of the gradient energy int |grad psi|^2 dV."""
    power = np.abs(transform(values, grid)) ** 2
    power *= k_squared(grid)
    return float(np.sum(power))


def power_mean(spec: np.ndarray, grid: Grid, weight) -> float:
    """Mean of ``weight(k^2)`` (which may write into the k^2 array) over the power spectrum
    |spec|^2.  Raises ValueError for a zero field, whose spectrum has no power to average over."""
    power = np.abs(spec) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        raise ValueError("the spectral mean of a zero field is undefined (zero total power)")
    power *= weight(k_squared(grid))
    return float(np.sum(power)) / total


def _conj_laplacian_product(values: np.ndarray, spec: np.ndarray, grid: Grid) -> np.ndarray:
    """conj(lap psi) psi of psi = ``values`` (``spec`` is its :func:`transform`), written into
    ``spec``: its real part is Re(psi* lap psi), its imaginary part -Im(psi* lap psi)."""
    k_sq = k_squared(grid)
    np.multiply(np.negative(k_sq, out=k_sq), spec, out=spec)
    return np.multiply(np.conjugate(inverse(spec, grid), out=spec), values, out=spec)


def flux_divergence(values: np.ndarray, grid: Grid) -> np.ndarray:
    """div Im(psi* grad psi) = Im(psi* lap psi) of psi = ``values``, one real array, from one
    transient :func:`transform` (over the grid axes, so a stack of snapshots in one call)."""
    return np.negative(_conj_laplacian_product(values, transform(values, grid), grid).imag)


class PolarTerms(NamedTuple):
    curvature: np.ndarray
    action_gradient_sq: np.ndarray
    flux_divergence: np.ndarray
    mean_k: float


def polar_terms(psi: ComplexField, mask: np.ndarray) -> PolarTerms:
    """The polar terms of psi from one transient :func:`transform` (rho = |psi|^2, nodes under
    ``mask``, f = Im(psi* grad psi)): lap(sqrt rho)/sqrt(rho) = [Re(psi* lap psi) + |f|^2/rho]/rho
    and |grad S|^2 = (hbar f/rho)^2, both zero under ``mask``; div f = Im(psi* lap psi); and the
    mean |k| over the power spectrum (a zero field, which has none, raises).  rho and the mask's
    complement are formed one :func:`flat_chunks` chunk at a time, never as whole grids.  psi must
    be periodic and band-limited: the curvature's rounding then grows as eps sqrt(rho_max/rho)
    towards the nodes, while a field cut off at the box edge rings into the whole spectrum."""
    grid, values = psi.grid, psi.values
    spec = transform(values, grid)
    mean_k = power_mean(spec, grid, lambda k_sq: np.sqrt(k_sq, out=k_sq))
    curvature, action_gradient_sq = np.zeros(grid.shape), np.zeros(grid.shape)
    per_axis = [(values, mask, curvature, action_gradient_sq)] * grid.dim
    for f, psi_chunk, mask_chunk, curv, act in _flux_chunks(values, spec, grid, per_axis):
        curv += f * f
        np.divide(np.multiply(CGS.hbar, f, out=f), np.abs(psi_chunk) ** 2, out=f, where=~mask_chunk)
        f **= 2
        act += f
    # Re(conj(psi) lap) as Re(conj(lap) psi): the same products, formed in the spectrum
    product = _conj_laplacian_product(values, spec, grid)
    for psi_chunk, mask_chunk, curv, prod in flat_chunks(values, mask, curvature, product):
        r, keep = np.abs(psi_chunk) ** 2, ~mask_chunk
        np.divide(curv, r, out=curv, where=keep)
        curv += prod.real
        np.divide(curv, r, out=curv, where=keep)
    for term in (curvature, action_gradient_sq):
        np.copyto(term, 0.0, where=mask)
    terms = PolarTerms(curvature, action_gradient_sq, np.negative(product.imag), mean_k)
    for values in terms[:3]:
        values.setflags(write=False)
    return terms
