import math

import numpy as np
import pytest

from gwfield import spectral
from gwfield.fields import Grid, node_mask

from conftest import random_field

GRIDS = [
    Grid.of(64, 1.0),
    Grid.of((32, 16), (1.0, 2.0)),
    Grid.of((8, 16, 8), (1.0, 0.5, 3.0)),
]


def full_wavenumber_meshes(grid):
    """Full N^dim wavenumber meshes: the reference the open axes must reproduce."""
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=dx) for n, dx in zip(grid.n_points, grid.spacings)]
    return np.meshgrid(*axes, indexing="ij")


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
class TestOpenAxesMatchFullMeshes:
    def test_wavenumbers_are_open_axes(self, grid):
        for i, k in enumerate(spectral.wavenumbers(grid)):
            assert k.shape == tuple(n if j == i else 1 for j, n in enumerate(grid.n_points))

    def test_k_squared(self, grid):
        reference = np.zeros(grid.shape)
        for m in full_wavenumber_meshes(grid):
            reference = reference + m * m
        assert np.array_equal(spectral.k_squared(grid), reference)

    def test_gradient(self, grid, rng):
        values = random_field(grid, rng).values
        spec = np.fft.fftn(values)
        reference = [np.fft.ifftn(1j * m * spec) for m in full_wavenumber_meshes(grid)]
        result = spectral.gradient(values, grid)
        assert len(result) == grid.dim
        assert all(np.array_equal(r, e) for r, e in zip(result, reference))

    def test_half_wavenumbers_are_the_rfftn_half(self, grid):
        full = spectral.wavenumbers(grid)
        half = spectral.half_wavenumbers(grid)
        last = grid.n_points[-1] // 2 + 1
        assert all(np.array_equal(h, f) for h, f in zip(half[:-1], full[:-1]))
        assert np.array_equal(half[-1], np.abs(full[-1][..., :last]))

    def test_divergence(self, grid, rng):
        # the real-input transform against the real part of the complex reference
        components = [random_field(grid, rng, band_fraction=1.0).values.real for _ in range(grid.dim)]
        reference = np.zeros(grid.shape, dtype=np.complex128)
        for comp, m in zip(components, full_wavenumber_meshes(grid)):
            reference = reference + np.fft.ifftn(1j * m * np.fft.fftn(comp))
        result = spectral.divergence(components, grid)
        assert result.dtype == np.float64
        assert np.abs(result - reference.real).max() < 1e-12 * np.abs(reference.real).max()

    def test_divergence_of_sines(self, grid):
        # div (sin k.x, ...) = (sum_i k_i) cos k.x
        k_vec = [2.0 * math.pi * m / length for m, length in zip((3, -2, 1), grid.lengths)]
        arg = sum(k * x for k, x in zip(k_vec, grid.meshes()))
        result = spectral.divergence([np.sin(arg)] * grid.dim, grid)
        expected = sum(k_vec) * np.cos(arg)
        assert np.abs(result - expected).max() < 1e-12 * max(abs(k) for k in k_vec)

    def test_divergence_rejects_complex_components(self, grid, rng):
        components = [random_field(grid, rng).values for _ in range(grid.dim)]
        with pytest.raises(ValueError, match="real components"):
            spectral.divergence(components, grid)


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
class TestSnapshotStacks:
    """Leading axes index snapshots: a stack transforms as one call per snapshot."""

    def test_gradient_and_phase_flux(self, grid, rng):
        stack = np.stack([random_field(grid, rng).values for _ in range(3)])
        for transform in (spectral.gradient, spectral.phase_flux):
            result = transform(stack, grid)
            for m, values in enumerate(stack):
                assert all(np.array_equal(r[m], e) for r, e in zip(result, transform(values, grid)))

    def test_divergence(self, grid, rng):
        stacks = [np.stack([random_field(grid, rng).values.real for _ in range(3)])
                  for _ in range(grid.dim)]
        result = spectral.divergence(stacks, grid)
        assert result.shape == (3, *grid.shape)
        for m in range(3):
            assert np.array_equal(result[m], spectral.divergence([c[m] for c in stacks], grid))


class TestPhaseFlux:
    def test_plane_wave_flux_is_density_times_k(self):
        grid = Grid.of((16, 32, 8), (1.0, 2.0, 0.5))
        k_vec = [2.0 * math.pi * m / length for m, length in zip((3, -2, 1), grid.lengths)]
        amplitude = 0.7 - 1.9j
        phase = sum(k * x for k, x in zip(k_vec, grid.meshes()))
        flux = spectral.phase_flux(amplitude * np.exp(1j * phase), grid)
        for f, k in zip(flux, k_vec):
            np.testing.assert_allclose(f, abs(amplitude) ** 2 * k, rtol=1e-12)

    def test_real_field_carries_no_flux(self, rng):
        grid = Grid.of((16, 16), (1.0, 1.0))
        values = random_field(grid, rng).values.real
        scale = float(np.abs(values).max()) ** 2 * 2.0 * math.pi * grid.n_points[0]
        for f in spectral.phase_flux(values, grid):
            assert float(np.abs(f).max()) < 1e-13 * scale


class TestPowerMean:
    def test_single_mode_picks_its_k(self):
        grid = Grid.of((16, 16), (1.0, 1.0))
        k_vec = (2.0 * math.pi * 3, 2.0 * math.pi * 4)
        values = np.exp(1j * sum(k * x for k, x in zip(k_vec, grid.meshes())))
        assert spectral.power_mean(values, grid, np.sqrt) == pytest.approx(2.0 * math.pi * 5, rel=1e-12)

    def test_constant_weight_is_its_value(self, rng):
        grid = Grid.of(64, 1.0)
        values = random_field(grid, rng).values
        assert spectral.power_mean(values, grid, lambda k_sq: np.full(k_sq.shape, 2.5)) == pytest.approx(2.5)

    def test_zero_field_is_a_value_error(self):
        grid = Grid.of(64, 1.0)
        with pytest.raises(ValueError, match="zero total power"):
            spectral.power_mean(np.zeros(64, dtype=complex), grid, np.sqrt)


class TestPowerSum:
    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
    def test_unweighted_is_fourier_norm(self, grid, rng):
        field = random_field(grid, rng)
        n_total = float(np.prod(grid.n_points))
        expected = spectral.fourier_norm_squared(field) * n_total / grid.cell_volume
        assert spectral.power_sum(field.values, grid) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
    def test_k_squared_weight_is_gradient_energy(self, grid, rng):
        values = random_field(grid, rng).values
        n_total = float(np.prod(grid.n_points))
        fourier = spectral.power_sum(values, grid, lambda k_sq: k_sq) * grid.cell_volume / n_total
        physical = sum(float(np.sum(np.abs(g) ** 2)) for g in spectral.gradient(values, grid))
        assert fourier == pytest.approx(physical * grid.cell_volume, rel=1e-12)


class TestSqrtDensityCurvature:
    def test_matches_laplacian_of_sqrt_rho(self):
        grid = Grid.of(128, 1.0)
        x = grid.axis(0)
        sqrt_rho = 1.5 + np.cos(2.0 * math.pi * x)
        rho = sqrt_rho**2
        expected = spectral.laplacian(sqrt_rho, grid).real / sqrt_rho
        result = spectral.sqrt_density_curvature(rho, grid, node_mask(rho))
        np.testing.assert_allclose(result, expected, rtol=1e-9, atol=1e-9)


class TestNodeMask:
    def test_floor_is_relative_to_peak(self):
        rho = np.array([2.0, 1e-13, 3e-12, 0.0])
        assert node_mask(rho).tolist() == [False, True, False, True]

    def test_zero_density_is_masked_everywhere(self):
        assert node_mask(np.zeros(8)).all()
