import math

import numpy as np
import pytest

from gwfield import madelung, spectral
from gwfield.fields import ComplexField, Grid

from conftest import coordinate_meshes, random_field
from test_kernels import plain_laplacian

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
        # each component from transforms along its own axis alone
        values = random_field(grid, rng).values
        reference = [np.fft.ifft(1j * m * np.fft.fft(values, axis=i), axis=i)
                     for i, m in enumerate(full_wavenumber_meshes(grid))]
        assert all(np.array_equal(spectral.derivative(values, grid, i), e) for i, e in enumerate(reference))

    def test_inverse_is_the_whole_array_inverse(self, grid, rng):
        spec = np.fft.fftn(random_field(grid, rng).values)
        expected = np.fft.ifftn(spec)
        assert np.array_equal(spectral.inverse(spec, grid), expected)

    def test_vector_fields_are_one_array(self, grid, rng):
        values = random_field(grid, rng).values
        field = spectral.phase_flux(values, grid)
        assert isinstance(field, np.ndarray)
        assert field.shape == (grid.dim, *grid.shape)

    def test_divergence(self, grid, rng):
        # the flux divergence Im(psi* lap psi) through the open axes against the full meshes
        values = random_field(grid, rng, band_fraction=1.0).values
        k_sq = sum(m * m for m in full_wavenumber_meshes(grid))
        reference = np.imag(np.conj(values) * np.fft.ifftn(-k_sq * np.fft.fftn(values)))
        result = spectral.flux_divergence(values, grid)
        assert result.dtype == np.float64
        assert np.abs(result - reference).max() < 1e-12 * np.abs(reference).max()

    def test_divergence_of_sines(self, grid):
        # psi = 1 + eps exp(i k.x): Im(psi* grad psi) = eps k cos(k.x) + eps^2 k, whose
        # divergence is -eps |k|^2 sin(k.x)
        k_vec = [2.0 * math.pi * m / length for m, length in zip((3, -2, 1), grid.lengths)]
        arg = sum(k * x for k, x in zip(k_vec, coordinate_meshes(grid)))
        eps = 0.3
        result = spectral.flux_divergence(1.0 + eps * np.exp(1j * arg), grid)
        k_sq = sum(k * k for k in k_vec)
        assert np.abs(result + eps * k_sq * np.sin(arg)).max() < 1e-12 * k_sq


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
class TestSnapshotStacks:
    """Leading axes index snapshots: a stack transforms as one call per snapshot."""

    def test_gradient_and_phase_flux(self, grid, rng):
        stack = np.stack([random_field(grid, rng).values for _ in range(3)])
        assert np.array_equal(spectral.transform(stack, grid)[1], spectral.transform(stack[1], grid))

        def gradient(values, grid):
            return [spectral.derivative(values, grid, i) for i in range(grid.dim)]

        for transform in (gradient, spectral.phase_flux):
            result = transform(stack, grid)
            for m, values in enumerate(stack):
                assert all(np.array_equal(r[m], e) for r, e in zip(result, transform(values, grid)))

    def test_divergence(self, grid, rng):
        stack = np.stack([random_field(grid, rng).values for _ in range(3)])
        result = spectral.flux_divergence(stack, grid)
        assert result.shape == (3, *grid.shape)
        for m in range(3):
            assert np.array_equal(result[m], spectral.flux_divergence(stack[m], grid))


class TestPhaseFlux:
    def test_plane_wave_flux_is_density_times_k(self):
        grid = Grid.of((16, 32, 8), (1.0, 2.0, 0.5))
        k_vec = [2.0 * math.pi * m / length for m, length in zip((3, -2, 1), grid.lengths)]
        amplitude = 0.7 - 1.9j
        phase = sum(k * x for k, x in zip(k_vec, coordinate_meshes(grid)))
        values = amplitude * np.exp(1j * phase)
        flux = spectral.phase_flux(values, grid)
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
        values = np.exp(1j * sum(k * x for k, x in zip(k_vec, coordinate_meshes(grid))))
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
    def test_k_squared_weight_is_gradient_energy(self, grid, rng):
        values = random_field(grid, rng).values
        n_total = float(np.prod(grid.n_points))
        fourier = spectral.power_sum(values, grid) * grid.cell_volume / n_total
        physical = sum(float(np.sum(np.abs(spectral.derivative(values, grid, i)) ** 2)) for i in range(grid.dim))
        assert fourier == pytest.approx(physical * grid.cell_volume, rel=1e-12)


class TestSqrtDensityCurvature:
    def test_matches_laplacian_of_sqrt_rho(self):
        grid = Grid.of(128, 1.0)
        x = grid.axis(0)
        sqrt_rho = 1.5 + np.cos(2.0 * math.pi * x)
        # a carrier and a smooth phase: the flux term must cancel the phase's share of lap psi
        psi = ComplexField(grid=grid, values=sqrt_rho * np.exp(
            1j * (2.0 * math.pi * 3 * x + 0.5 * np.sin(2.0 * math.pi * x))))
        expected = plain_laplacian(ComplexField(grid=grid, values=sqrt_rho)).real / sqrt_rho
        form = madelung.MadelungForm(psi)
        result = spectral.curvature(psi.values, grid, form.branch_mask)
        np.testing.assert_allclose(result, expected, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
def test_flux_divergence_is_im_psi_lap_psi(grid, rng):
    # div Im(psi* grad psi) = Im(|grad psi|^2 + psi* lap psi) = Im(psi* lap psi); the flux of a
    # field of modes |m| < N/8 holds modes under N/4, so the spectral divergence of the flux is exact
    psi = random_field(grid, rng)
    values = psi.values
    flux = spectral.phase_flux(values, grid)
    divergence = sum(spectral.derivative(f, grid, i).real for i, f in enumerate(flux))
    lap = plain_laplacian(psi)
    expected = np.imag(np.conj(values) * lap)
    scale = float(np.abs(expected).max())
    for result in (divergence, spectral.flux_divergence(values, grid)):
        assert float(np.abs(result - expected).max()) < 1e-12 * scale


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
def test_kernels_leave_their_inputs_as_they_were(grid, rng):
    # every public kernel but inverse takes read-only inputs and writes over none of them
    psi = random_field(grid, rng)
    values, real, mask = psi.values, np.ascontiguousarray(psi.values.real), madelung.MadelungForm(psi).branch_mask
    inputs = (values, real, mask)
    before = [a.copy() for a in inputs]
    for a in inputs:
        a.setflags(write=False)
    kernels = {
        "transform": lambda: spectral.transform(values, grid),
        "derivative": lambda: [spectral.derivative(values, grid, i) for i in range(grid.dim)],
        "gradient_spline": lambda: spectral.gradient_spline(real, grid),
        "phase_flux": lambda: spectral.phase_flux(values, grid),
        "power_sum": lambda: spectral.power_sum(values, grid),
        "power_mean": lambda: spectral.power_mean(values, grid, np.sqrt),
        "flux_divergence": lambda: spectral.flux_divergence(values, grid),
        "curvature": lambda: spectral.curvature(values, grid, mask),
        "action_gradient_sq": lambda: spectral.action_gradient_sq(values, grid, mask),
    }
    for name, kernel in kernels.items():
        kernel()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, before)), name


class TestNodeMask:
    def test_floor_is_relative_to_peak(self):
        rho = np.array([2.0, 1e-13, 3e-12, 0.0, 1.0, 1.0, 1.0, 1.0])
        for scale in (1.0, 1e-20):
            psi = ComplexField(grid=Grid.of(8, 1.0), values=np.sqrt(scale * rho))
            assert madelung.MadelungForm(psi).branch_mask.tolist() == [False, True, False, True] + [False] * 4
