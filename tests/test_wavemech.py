import math

import numpy as np
import pytest

from gwfield.constants import CGS
from gwfield.fields import ComplexField, Grid, make_plane_wave, normalize
from gwfield import spectral, wavemech
from gwfield.wavemech import (
    ClassicalWaveState,
    EffectiveMassParams,
    GaussianPacketSpec,
    evolve_classical_wave,
    evolve_schrodinger,
    gaussian_packet,
    right_moving_state,
)

from conftest import random_field, registry_measurements


class TestEffectiveMassParams:
    def test_m_star_consistency(self):
        params = EffectiveMassParams(omega_ref=3.7e11)
        assert abs(params.m_star / (CGS.hbar * params.omega_ref / (2 * CGS.c**2)) - 1) < 1e-12
        assert abs(params.m_star / (CGS.hbar * params.k0 / (2 * CGS.c)) - 1) < 1e-12

    def test_massless_has_no_potential(self):
        assert EffectiveMassParams(omega_ref=1e10, mu=0.0).v0 == 0.0

    def test_massive_potential(self):
        params = EffectiveMassParams(omega_ref=1e10, mu=0.3)
        assert abs(params.v0 - 0.3**2 * CGS.c / params.k0) < 1e-20

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ValueError):
            EffectiveMassParams(omega_ref=0.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"omega_ref": 1e-320}, "omega_ref"),
        ({"omega_ref": 1e-280}, "omega_ref"),
        ({"omega_ref": 3e11, "mu": 1e308}, "mu"),
        ({"omega_ref": 3e11, "mu": 1e150}, "mu"),
    ], ids=["m_star-underflows-subnormal", "m_star-underflows", "mu-squared-overflows",
            "v0-overflows"])
    def test_derived_values_outside_the_float_range_are_refused_by_name(self, kwargs, name):
        # finite and positive, so require_positive passes them; m_star is 0 or v0 is not finite
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            EffectiveMassParams(**kwargs)

    def test_subnormal_m_star_is_kept(self):
        params = EffectiveMassParams(omega_ref=1e-270, mu=1.0)
        assert 0.0 < params.m_star and math.isfinite(params.v0)


class TestGaussianPacket:
    def test_unresolvable_width_rejected(self):
        grid = Grid.of(64, 1.0)
        spec = GaussianPacketSpec(center=(0.5,), sigma0=0.02, k_carrier=(0.0,))
        with pytest.raises(ValueError, match="spacing"):
            gaussian_packet(spec, grid)

    def test_oversized_width_rejected(self):
        grid = Grid.of(512, 1.0)
        spec = GaussianPacketSpec(center=(0.5,), sigma0=0.2, k_carrier=(0.0,))
        with pytest.raises(ValueError, match="length/8"):
            gaussian_packet(spec, grid)

    def test_density_std_matches_sigma0(self):
        grid = Grid.of(1024, 1.0)
        spec = GaussianPacketSpec(center=(0.5,), sigma0=0.03, k_carrier=(2 * math.pi * 32,))
        width = wavemech.packet_widths(gaussian_packet(spec, grid))[0]
        assert abs(width / 0.03 - 1.0) < 1e-6


class TestClassicalWaveState:
    def test_mismatched_grids_rejected(self, rng):
        a = random_field(Grid.of(64, 1.0), rng)
        b = random_field(Grid.of(128, 1.0), rng)
        with pytest.raises(ValueError):
            ClassicalWaveState(psi=a, psi_dot=b)


class TestEvolveSchrodinger:
    def test_zero_time_identity(self, rng):
        grid = Grid.of(64, 1.0)
        psi = random_field(grid, rng)
        out = evolve_schrodinger(psi, EffectiveMassParams(omega_ref=1e11), 0.0)
        np.testing.assert_allclose(out.values, psi.values, atol=1e-14)

    def test_plane_wave_phase_and_recurrence(self):
        grid = Grid.of(64, 1.0)
        k = 2.0 * math.pi * 4 / grid.lengths[0]
        omega = CGS.c * k
        psi = make_plane_wave(1.0, (k,), grid)
        params = EffectiveMassParams(omega_ref=omega)
        t = 0.3 / omega
        out = evolve_schrodinger(psi, params, t)
        # self-consistent monochromatic case: phase rate is exactly omega
        np.testing.assert_allclose(out.values, psi.values * np.exp(-1j * omega * t), atol=1e-12)
        period = evolve_schrodinger(psi, params, 2.0 * math.pi / omega)
        np.testing.assert_allclose(period.values, psi.values, atol=1e-10)

    def test_gaussian_spreading_law(self):
        grid = Grid.of(4096, 1.0)
        sigma0 = grid.lengths[0] / 64.0
        k_c = 2.0 * math.pi * 64 / grid.lengths[0]
        psi = normalize(gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=sigma0, k_carrier=(k_c,)), grid))
        params = EffectiveMassParams(omega_ref=CGS.c * k_c)
        spread_time = 2.0 * params.m_star * sigma0**2 / CGS.hbar
        for ratio in (0.5, 1.0, 2.0):
            t = ratio * spread_time
            width = wavemech.packet_widths(evolve_schrodinger(psi, params, t))[0]
            expected = sigma0 * math.sqrt(1.0 + ratio**2)
            assert abs(width / expected - 1.0) < 0.01

    def test_unitarity(self, rng):
        grid = Grid.of(128, 1.0)
        psi = normalize(random_field(grid, rng))
        params = EffectiveMassParams(omega_ref=5e11, mu=12.0)
        for t in (1e-12, 3e-10, 2e-8):
            assert abs(evolve_schrodinger(psi, params, t).norm_squared() - 1.0) < 1e-10

    def test_group_property(self, rng):
        grid = Grid.of(128, 1.0)
        psi = random_field(grid, rng)
        params = EffectiveMassParams(omega_ref=5e11)
        t1, t2 = 2.3e-11, 7.7e-11
        once = evolve_schrodinger(psi, params, t1 + t2)
        twice = evolve_schrodinger(evolve_schrodinger(psi, params, t1), params, t2)
        assert np.abs(once.values - twice.values).max() < 1e-10

    def test_nonrelativistic_limit(self):
        # at k/mu = 0.01 the quadratic reduction of the exact phase rate
        # c*sqrt(k^2 + mu^2) = mu c + c k^2/(2 mu) + O((k/mu)^4) holds to 1e-6
        grid = Grid.of(64, 1.0)
        k = 2.0 * math.pi / grid.lengths[0]
        mu = 100.0 * k
        omega_ref = CGS.c * math.sqrt(k**2 + mu**2)
        psi = make_plane_wave(1.0, (k,), grid)
        params = EffectiveMassParams(omega_ref=omega_ref, mu=mu)
        t = 0.5 / (CGS.c * mu)
        out = evolve_schrodinger(psi, params, t)
        measured_phase = -np.angle(out.values[0] / psi.values[0])
        reduced_phase = (mu * CGS.c + CGS.c * k**2 / (2.0 * mu)) * t
        assert abs(measured_phase / reduced_phase - 1.0) < 1e-6


PROPAGATOR_GRIDS = [
    Grid.of(256, 1.0),
    Grid.of((64, 32), (1.0, 0.8)),
    Grid.of((32, 32, 24), (1.0, 1.2, 0.9)),
]


@pytest.mark.parametrize("mu", [0.0, 40.0], ids=["massless", "massive"])
@pytest.mark.parametrize("grid", PROPAGATOR_GRIDS, ids=["1d", "2d", "3d"])
class TestPropagatorOracle:
    """The per-axis phase factors against the full-grid exp(-i rate t)."""

    SIGMA = 0.09

    def packet(self, grid, mu):
        k_carrier = tuple(2.0 * math.pi * m / length for m, length in zip((3, -2, 1), grid.lengths))
        psi = normalize(gaussian_packet(GaussianPacketSpec(
            center=(0.4, 0.55, 0.5)[:grid.dim], sigma0=self.SIGMA, k_carrier=k_carrier), grid))
        params = EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi * 8, mu=mu)
        return psi, params, 2.0 * params.m_star * self.SIGMA**2 / CGS.hbar

    def test_norm_is_kept(self, grid, mu):
        psi, params, spread_time = self.packet(grid, mu)
        for ratio in (0.5, 1.0, 3.0):
            assert abs(evolve_schrodinger(psi, params, ratio * spread_time).norm_squared() - 1.0) < 1e-12

    def test_matches_full_grid_phase(self, grid, mu):
        psi, params, spread_time = self.packet(grid, mu)
        scale = np.abs(psi.values).max()
        rate = wavemech._schrodinger_rate(spectral.k_squared(grid), params)
        for ratio in (0.1, 1.0, 3.0):
            t = ratio * spread_time
            reference = np.fft.ifftn(np.fft.fftn(psi.values) * np.exp(-1j * rate * t))
            assert np.abs(evolve_schrodinger(psi, params, t).values - reference).max() < 1e-14 * scale

    def test_steps_compose(self, grid, mu):
        psi, params, spread_time = self.packet(grid, mu)
        t1, t2 = 0.7 * spread_time, 1.6 * spread_time
        once = evolve_schrodinger(psi, params, t1 + t2)
        twice = evolve_schrodinger(evolve_schrodinger(psi, params, t1), params, t2)
        assert np.abs(once.values - twice.values).max() < 1e-13 * np.abs(psi.values).max()


class TestEvolveClassicalWave:
    def test_one_way_packet_translates_rigidly(self):
        grid = Grid.of(1024, 1.0)
        sigma0 = grid.lengths[0] / 32.0
        k_c = 2.0 * math.pi * 48 / grid.lengths[0]
        spec = GaussianPacketSpec(center=(0.3,), sigma0=sigma0, k_carrier=(k_c,))
        state = right_moving_state(gaussian_packet(spec, grid))
        t = 0.37 * grid.lengths[0] / CGS.c
        out = evolve_classical_wave(state, 0.0, t)
        shifted_center = (0.3 + CGS.c * t) % grid.lengths[0]
        expected = gaussian_packet(
            GaussianPacketSpec(center=(shifted_center,), sigma0=sigma0, k_carrier=(k_c,)), grid)
        assert np.abs(out.psi.values - expected.values).max() < 1e-8

    def test_standing_wave_half_period(self):
        grid = Grid.of(64, 1.0)
        k = 2.0 * math.pi * 3 / grid.lengths[0]
        x = grid.axis(0)
        state = ClassicalWaveState(
            psi=ComplexField(grid=grid, values=np.cos(k * x) + 0j),
            psi_dot=ComplexField(grid=grid, values=np.zeros(64, dtype=complex)),
        )
        omega = CGS.c * k
        out = evolve_classical_wave(state, 0.0, math.pi / omega)
        np.testing.assert_allclose(out.psi.values, -np.cos(k * x), atol=1e-12)

    def test_energy_conserved_over_1000_steps(self, rng):
        grid = Grid.of(128, 1.0)
        psi = random_field(grid, rng)
        psi_dot = random_field(grid, rng)
        scale = CGS.c / grid.lengths[0]
        state = ClassicalWaveState(
            psi=psi, psi_dot=ComplexField(grid=grid, values=psi_dot.values * scale))
        mu = 4.0
        e0 = wavemech.wave_energy(state, mu)
        dt = 1e-3 * grid.lengths[0] / CGS.c
        for _ in range(1000):
            state = evolve_classical_wave(state, mu, dt)
        assert abs(wavemech.wave_energy(state, mu) / e0 - 1.0) < 1e-9

    @pytest.mark.parametrize("grid", [Grid.of(128, 1.0), Grid.of((16, 8, 12), (1.0, 0.5, 0.7))],
                             ids=["1d", "3d"])
    def test_energy_matches_all_spectral_sum(self, grid, rng):
        # Parseval: the real-space sums of the local terms equal their spectral sums
        state = ClassicalWaveState(psi=random_field(grid, rng), psi_dot=ComplexField(
            grid=grid, values=random_field(grid, rng).values * CGS.c / grid.lengths[0]))
        mu = 7.5
        psi_hat, dot_hat = np.fft.fftn(state.psi.values), np.fft.fftn(state.psi_dot.values)
        spectral_sum = (float(np.sum(np.abs(dot_hat) ** 2)) / CGS.c**2 + spectral.power_sum(state.psi.values, grid)
                        + mu**2 * float(np.sum(np.abs(psi_hat) ** 2)))
        expected = spectral_sum * grid.cell_volume / float(np.prod(grid.n_points))
        assert wavemech.wave_energy(state, mu) == pytest.approx(expected, rel=1e-13)

    def test_secular_zero_mode(self):
        grid = Grid.of(16, 1.0)
        psi = ComplexField(grid=grid, values=np.full(16, 2.0 + 0j))
        psi_dot = ComplexField(grid=grid, values=np.full(16, 0.5 + 0j))
        t = 1.5e-10
        out = evolve_classical_wave(ClassicalWaveState(psi=psi, psi_dot=psi_dot), 0.0, t)
        np.testing.assert_allclose(out.psi.values, 2.0 + 0.5 * t, rtol=1e-12)
        np.testing.assert_allclose(out.psi_dot.values, 0.5, rtol=1e-12)


class TestDispersionDefect:
    """The generalized dispersion relation lives in the ``dispersion-relation`` invariant."""

    def test_on_shell_plane_wave(self):
        assert registry_measurements("dispersion-relation")["on_shell_defect"] < 1e-8

    def test_constant_offset(self):
        assert registry_measurements("dispersion-relation")["shifted_defect_deviation"] < 1e-9


class TestChargeDensity:
    """The second-order charge lives in the ``charge-positivity-contrast`` invariant."""

    def test_minus_frequency_mode_positive(self):
        # max |charge / 2 omega - 1| over the grid: assert_allclose(charge, 2 omega, rtol=1e-12)
        assert registry_measurements("charge-positivity-contrast")["single_mode_charge_deviation"] <= 1e-12


class TestSchrodingerEnergy:
    def test_plane_wave_energy(self):
        grid = Grid.of((32, 16), (1.0, 2.0))
        k_vec = (2.0 * math.pi * 5, 2.0 * math.pi * -3 / 2.0)
        k_sq = sum(k * k for k in k_vec)
        params = EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi * 8, mu=4.0)
        psi = make_plane_wave(0.3 + 0.4j, k_vec, grid)
        expected = CGS.hbar * (CGS.hbar * k_sq / (2.0 * params.m_star) + params.v0)
        assert wavemech.schrodinger_energy(psi, params) == pytest.approx(expected, rel=1e-12)

    def test_conserved_by_evolution(self, rng):
        grid = Grid.of((16, 16, 16), (1.0, 1.0, 1.0))
        psi = random_field(grid, rng)
        params = EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi * 8, mu=2.0)
        e0 = wavemech.schrodinger_energy(psi, params)
        t_scale = 2.0 * params.m_star / (CGS.hbar * (2.0 * math.pi) ** 2)
        for t in (0.1 * t_scale, 3.7 * t_scale, 250.0 * t_scale):
            evolved = evolve_schrodinger(psi, params, t)
            assert wavemech.schrodinger_energy(evolved, params) == pytest.approx(e0, rel=1e-12)
