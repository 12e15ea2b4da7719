import functools
import math
import operator

import numpy as np
import pytest

from gwfield import spectral
from gwfield.constants import CGS
from gwfield.fields import ComplexField, Grid, PlaneWaveSpec, make_plane_wave, normalize
from gwfield.helicity import (
    TimeSeriesField,
    convection_current,
    current_continuity,
    partial_wave_split,
    time_averaged_current,
)
from gwfield.wavemech import (
    ClassicalWaveState,
    EffectiveMassParams,
    GaussianPacketSpec,
    evolve_classical_wave,
    evolve_schrodinger,
    gaussian_packet,
    right_moving_state,
    wave_charge_density,
)

from conftest import random_field


GRID = Grid.of(32, 1.0)
K1 = 2.0 * math.pi / GRID.lengths[0]


def tone_series(tones, n_t=32, cycles_per_series=4.0):
    """Series sum_i a_i * exp(-i omega_i t) * exp(i k_i x); omega in units of
    the base tone, chosen so every retained tone sits on an exact DFT bin."""
    base_omega = CGS.c * K1
    duration = cycles_per_series * 2.0 * math.pi / base_omega
    dt = duration / n_t
    times = np.arange(n_t) * dt
    x = GRID.axis(0)
    values = np.zeros((n_t, GRID.n_points[0]), dtype=complex)
    for amplitude, omega_factor, k_factor in tones:
        omega = omega_factor * base_omega
        values += amplitude * np.exp(-1j * omega * times)[:, None] * np.exp(
            1j * k_factor * K1 * x)[None, :]
    return TimeSeriesField(grid=GRID, values=values, dt=dt)


class TestPartialWaveSplit:
    def test_pure_negative_frequency_tone(self):
        series = tone_series([(1.0, 1.0, 1.0)])
        plus, minus = partial_wave_split(series)
        assert plus.norm() < 1e-10 * minus.norm()
        assert np.abs(plus.values + minus.values - series.values).max() < 1e-10

    def test_real_cosine_splits_evenly(self):
        series = tone_series([(0.5, 1.0, 1.0), (0.5, -1.0, 1.0)])
        plus, minus = partial_wave_split(series)
        assert abs(plus.norm() - minus.norm()) < 1e-10 * minus.norm()

    def test_two_tone_norm_ratio(self):
        a, b = 0.8, 0.35
        series = tone_series([(a, 1.0, 1.0), (b, -1.0, 2.0)])
        plus, minus = partial_wave_split(series)
        assert abs(minus.norm() ** 2 / plus.norm() ** 2 - (a / b) ** 2) < 1e-10

    def test_split_is_projection_pair(self):
        series = tone_series([(1.0, 1.0, 1.0), (0.5, -2.0, 2.0)])
        plus, minus = partial_wave_split(series)
        plus2, minus2 = partial_wave_split(plus)
        assert minus2.norm() < 1e-10 * plus.norm()
        assert np.abs(plus2.values - plus.values).max() < 1e-10

    def test_zero_frequency_goes_to_minus(self):
        values = np.ones((16, 32), dtype=complex)
        series = TimeSeriesField(grid=GRID, values=values, dt=1.0e-12)
        plus, minus = partial_wave_split(series)
        assert plus.norm() < 1e-12
        assert abs(minus.norm() - series.norm()) < 1e-12

    def test_nyquist_content_rejected(self):
        n_t = 16
        values = ((-1.0) ** np.arange(n_t))[:, None] * np.ones((1, 32))
        series = TimeSeriesField(grid=GRID, values=values.astype(complex), dt=1e-12)
        with pytest.raises(ValueError, match="Nyquist"):
            partial_wave_split(series)

    def test_too_few_snapshots_rejected(self):
        with pytest.raises(ValueError, match="8 snapshots"):
            TimeSeriesField(grid=GRID, values=np.ones((4, 32), dtype=complex), dt=1e-12)


class TestConvectionCurrent:
    def test_real_field_has_no_current(self):
        x = GRID.axis(0)
        psi = ComplexField(grid=GRID, values=np.cos(K1 * x) + 0j)
        current = convection_current(psi, K1)
        assert np.abs(current.j[0]).max() < 1e-12 * CGS.hbar * K1

    def test_plane_wave_uniform_current(self):
        k = 4 * K1
        psi = make_plane_wave(PlaneWaveSpec(1.0, (k,), CGS.c * k), GRID)
        current = convection_current(psi, k)
        np.testing.assert_allclose(current.j[0], CGS.hbar * k, rtol=1e-10)
        np.testing.assert_allclose(current.rho_t, CGS.hbar * k, rtol=1e-12)

    def test_standing_wave_cancellation(self):
        x = GRID.axis(0)
        k = 3 * K1
        psi = ComplexField(grid=GRID, values=(np.exp(1j * k * x) + np.exp(-1j * k * x)) / 2.0)
        current = convection_current(psi, k)
        assert np.abs(current.j[0]).max() < 1e-12 * CGS.hbar * k

    def test_rho_t_nonnegative(self):
        x = GRID.axis(0)
        psi = ComplexField(grid=GRID, values=np.sin(K1 * x) + 0j)
        current = convection_current(psi, K1)
        assert current.rho_t.min() >= 0.0


class TestSeriesCurrent:
    """One convection current serves a field or a whole series."""

    @staticmethod
    def series(rng, n_t=9):
        grid = Grid.of((16, 12), (1.0, 0.5))
        values = [random_field(grid, rng).values for _ in range(n_t)]
        return TimeSeriesField(grid=grid, values=np.stack(values), dt=1e-12)

    def test_series_current_is_the_per_snapshot_current(self, rng):
        series = self.series(rng)
        current = convection_current(series, K1)
        for m, values in enumerate(series.values):
            alone = convection_current(ComplexField(grid=series.grid, values=values), K1)
            assert all(np.array_equal(c[m], a) for c, a in zip(current.j, alone.j))
            assert np.array_equal(current.rho_t[m], alone.rho_t)

    def test_mean_is_the_snapshot_average(self, rng):
        series = self.series(rng)
        currents = [convection_current(ComplexField(grid=series.grid, values=v), K1)
                    for v in series.values]
        mean = convection_current(series, K1).mean()
        for i in range(series.grid.dim):
            total = currents[0].j[i]
            for current in currents[1:]:
                total = total + current.j[i]
            assert np.array_equal(mean.j[i], total / series.n_snapshots)
        assert np.array_equal(mean.rho_t, np.mean([c.rho_t for c in currents], axis=0))

    def test_time_averaged_current_matches_a_sum_over_snapshots(self, rng):
        series = self.series(rng)
        # the snapshot loop: hbar * flux of each snapshot, added in order, over the count
        currents = (CGS.hbar * np.array(spectral.phase_flux(values, series.grid))
                    for values in series.values)
        expected = tuple(functools.reduce(operator.add, currents) / series.n_snapshots)
        result = time_averaged_current(series, K1)
        assert len(result) == len(expected) == series.grid.dim
        assert all(np.array_equal(r, e) for r, e in zip(result, expected))

    def test_one_field_has_no_snapshots_to_average(self):
        psi = make_plane_wave(PlaneWaveSpec(1.0, (K1,), CGS.c * K1), GRID)
        with pytest.raises(ValueError, match="no snapshots"):
            convection_current(psi, K1).mean()


class TestCurrentContinuity:
    def test_stationary_mode(self):
        k = 2 * K1
        omega = CGS.c * k
        psi = make_plane_wave(PlaneWaveSpec(1.0, (k,), omega), GRID)
        params = EffectiveMassParams(omega_ref=omega)
        dt = 0.1 / omega
        fields = [evolve_schrodinger(psi, params, m * dt) for m in range(10)]
        series = TimeSeriesField.from_fields(fields, dt=dt)
        assert current_continuity(series, params.k0) < 1e-10

    def test_moving_gaussian_fd_limited(self):
        grid = Grid.of(1024, 1.0)
        sigma0 = grid.lengths[0] / 64.0
        k_c = 2.0 * math.pi * 64 / grid.lengths[0]
        psi = normalize(gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=sigma0, k_carrier=(k_c,)), grid))
        params = EffectiveMassParams(omega_ref=CGS.c * k_c)
        spread_time = 2.0 * params.m_star * sigma0**2 / CGS.hbar
        dt = 1e-4 * spread_time
        fields = [evolve_schrodinger(psi, params, m * dt) for m in range(10)]
        series = TimeSeriesField.from_fields(fields, dt=dt)
        assert current_continuity(series, params.k0) < 1e-3

    def test_classical_series_is_negative_control(self):
        # wave-equation snapshots do not satisfy the first-order conservation
        # law: the same diagnostic must report a large residual
        grid = Grid.of(1024, 1.0)
        sigma0 = grid.lengths[0] / 64.0
        k_c = 2.0 * math.pi * 64 / grid.lengths[0]
        psi = normalize(gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=sigma0, k_carrier=(k_c,)), grid))
        params = EffectiveMassParams(omega_ref=CGS.c * k_c)
        state = right_moving_state(psi)
        spread_time = 2.0 * params.m_star * sigma0**2 / CGS.hbar
        dt = 1e-4 * spread_time
        fields = []
        for m in range(10):
            out = evolve_classical_wave(state, 0.0, m * dt)
            fields.append(out.psi)
        series = TimeSeriesField.from_fields(fields, dt=dt)
        assert current_continuity(series, params.k0) > 1e-2


class TestCurrentAdditivity:
    def test_cross_terms_average_out_over_common_period(self):
        # tones at 1x and -2x the base frequency: common period = one base
        # cycle, sampled exactly once
        a, b = 1.0, 0.6
        series = tone_series([(a, 1.0, 1.0), (b, -2.0, 3.0)], n_t=16, cycles_per_series=1.0)
        plus, minus = partial_wave_split(series)
        k0 = K1
        total = time_averaged_current(series, k0)[0]
        split_sum = time_averaged_current(plus, k0)[0] + time_averaged_current(minus, k0)[0]
        scale = np.abs(total).max()
        assert np.abs(total - split_sum).max() < 1e-8 * scale


class TestChargePositivityContrast:
    def test_wave_charge_goes_negative_where_rho_t_cannot(self):
        x = GRID.axis(0)
        k1, k2 = K1, 3 * K1
        omega1, omega2 = CGS.c * k1, CGS.c * 3 * k1
        psi_values = 2.0 * np.exp(1j * k1 * x) + np.exp(1j * k2 * x)
        psi_dot_values = -2j * omega1 * np.exp(1j * k1 * x) + 3j * omega1 * np.exp(1j * k2 * x)
        state = ClassicalWaveState(
            psi=ComplexField(grid=GRID, values=psi_values),
            psi_dot=ComplexField(grid=GRID, values=psi_dot_values),
        )
        charge = wave_charge_density(state)
        assert charge.min() < -1e-3 * np.abs(charge).max()
        assert charge.mean() > 0.0
        current = convection_current(state.psi, k1)
        assert current.rho_t.min() >= 0.0
