from functools import cache

import numpy as np
import pytest

from gwfield import selfcheck
from gwfield.fields import ComplexField, Grid


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def run_entry(entry: str) -> selfcheck.CheckResult:
    """Run the ``gwfield.selfcheck`` registry entry named ``entry`` afresh, as a test
    that monkeypatches what the entry reads must."""
    return selfcheck.run(next(c for c in selfcheck.REGISTRY if c.name == entry))


@cache
def registry_measurements(entry: str) -> dict[str, float]:
    """Measured values of the registry entry named ``entry``, by measurement name, from
    one run: a test of an identity that lives in the registry reads it here."""
    return {m.name: m.value for m in run_entry(entry).measurements}


def coordinate_meshes(grid: Grid) -> list[np.ndarray]:
    """Full N^dim coordinate meshes of ``grid``, one per axis: the reference that its
    open-axis builders reproduce bit for bit."""
    return list(np.meshgrid(*(grid.axis(i) for i in range(grid.dim)), indexing="ij"))


def random_field(grid: Grid, rng, band_fraction: float = 0.25) -> ComplexField:
    """Random band-limited complex field (smooth enough for spectral ops)."""
    spec = np.zeros(grid.shape, dtype=np.complex128)
    mesh = np.meshgrid(*[np.fft.fftfreq(n) for n in grid.n_points], indexing="ij")
    keep = np.ones(grid.shape, dtype=bool)
    for m in mesh:
        keep &= np.abs(m) < band_fraction / 2.0
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spec[keep] = noise[keep]
    values = np.fft.ifftn(spec)
    return ComplexField(grid=grid, values=values)


def wrapped_gaussian_curvature(grid: Grid, center, sigma: float, images=range(-3, 4)) -> np.ndarray:
    """Analytic lap(sqrt rho)/sqrt(rho) of a Gaussian packet of width ``sigma``
    summed over its periodic ``images`` (those ``gaussian_packet`` wraps).

    sqrt(rho) is a product of per-axis sums g = sum_n exp(-d_n^2/4 sigma^2) with
    d_n = x - center + n L, so the curvature is sum_i g_i''/g_i, where
    g'' = sum_n exp(-d_n^2/4 sigma^2) (d_n^2/4 sigma^4 - 1/2 sigma^2).
    """
    total = np.zeros(grid.shape)
    for i in range(grid.dim):
        d = np.stack([grid.axis(i) - center[i] + n * grid.lengths[i] for n in images])
        g = np.exp(-d**2 / (4.0 * sigma**2))
        ratio = np.sum(g * (d**2 / (4.0 * sigma**4) - 1.0 / (2.0 * sigma**2)), axis=0) / np.sum(g, axis=0)
        total = total + ratio.reshape([-1 if j == i else 1 for j in range(grid.dim)])
    return total
