import functools
import math
import operator
import re

import numpy as np
import pytest

from gwfield import spectral
from gwfield.constants import CGS
from gwfield.fields import ComplexField, Grid, make_plane_wave, normalize
from gwfield.helicity import (
    TimeSeriesField,
    convection_current,
    current_continuity,
    first_order_charge,
    partial_wave_split,
    time_averaged_current,
)
from gwfield.wavemech import (
    EffectiveMassParams,
    GaussianPacketSpec,
    evolve_classical_wave,
    evolve_schrodinger,
    gaussian_packet,
    right_moving_state,
)

from conftest import random_field, registry_measurements


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

    def test_leaked_window_is_refused_naming_both_causes(self):
        # a tone off every DFT bin: the window does not span whole periods and leaks into the Nyquist bin
        series = tone_series([(1.0, 1.0, 1.0)], n_t=8, cycles_per_series=1.3)
        cause = "aliased, or leaked from a series that does not span whole periods"
        with pytest.raises(ValueError, match=cause):
            partial_wave_split(series)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_values_rejected(self, bad):
        values = np.ones((16, 32), dtype=complex)
        values[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            TimeSeriesField(grid=GRID, values=values, dt=1e-12)

    def test_too_few_snapshots_rejected(self):
        with pytest.raises(ValueError, match="8 snapshots"):
            TimeSeriesField(grid=GRID, values=np.ones((4, 32), dtype=complex), dt=1e-12)

    def test_from_no_fields_is_refused_by_name(self):
        with pytest.raises(ValueError, match="fields is empty"):
            TimeSeriesField.from_fields([], dt=1e-12)

    def test_from_fields_on_two_grids_names_the_first_that_differs(self):
        # one shape, other lengths: the values alone would stack onto the first grid
        short, long = Grid.of(16, 1.0), Grid.of(16, 2.0)
        fields = [ComplexField(grid=g, values=np.ones(16)) for g in [short] * 3 + [long] * 5]
        message = f"snapshot 0 on {short}, snapshot 3 on {long}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TimeSeriesField.from_fields(fields, dt=1e-12)


class TestSeriesArraysAreTheirOwn:
    """A series adopts the read-only array the library made for it: none aliases another."""

    def test_from_fields_shares_no_memory_with_a_field(self, rng):
        fields = [random_field(GRID, rng) for _ in range(8)]
        series = TimeSeriesField.from_fields(fields, dt=1e-12)
        assert not series.values.flags.writeable
        assert not any(np.shares_memory(series.values, psi.values) for psi in fields)

    def test_split_halves_share_no_memory(self, rng):
        series = TestSeriesCurrent.series(rng)
        plus, minus = partial_wave_split(series)
        for half in (plus, minus):
            assert not half.values.flags.writeable
            assert not np.shares_memory(half.values, series.values)
        assert not np.shares_memory(plus.values, minus.values)


class TestConvectionCurrent:
    def test_real_field_has_no_current(self):
        x = GRID.axis(0)
        psi = ComplexField(grid=GRID, values=np.cos(K1 * x) + 0j)
        j = convection_current(psi)
        assert np.abs(j[0]).max() < 1e-12 * CGS.hbar * K1

    def test_plane_wave_uniform_current(self):
        k = 4 * K1
        psi = make_plane_wave(1.0, (k,), GRID)
        np.testing.assert_allclose(convection_current(psi)[0], CGS.hbar * k, rtol=1e-10)
        np.testing.assert_allclose(first_order_charge(psi, k), CGS.hbar * k, rtol=1e-12)

    def test_standing_wave_cancellation(self):
        x = GRID.axis(0)
        k = 3 * K1
        psi = ComplexField(grid=GRID, values=(np.exp(1j * k * x) + np.exp(-1j * k * x)) / 2.0)
        j = convection_current(psi)
        assert np.abs(j[0]).max() < 1e-12 * CGS.hbar * k

    def test_rho_t_nonnegative(self):
        x = GRID.axis(0)
        psi = ComplexField(grid=GRID, values=np.sin(K1 * x) + 0j)
        assert first_order_charge(psi, K1).min() >= 0.0

    @pytest.mark.parametrize("k0", [0.0, -1.0, math.nan])
    def test_charge_refuses_a_k0_that_is_not_positive(self, k0):
        psi = ComplexField(grid=GRID, values=np.exp(1j * K1 * GRID.axis(0)))
        with pytest.raises(ValueError, match="k0 must be finite and positive"):
            first_order_charge(psi, k0)

    def test_current_is_read_only(self):
        psi = ComplexField(grid=GRID, values=np.exp(1j * K1 * GRID.axis(0)))
        rho_t, j = first_order_charge(psi, 1.0), convection_current(psi)
        for values in (rho_t, j, j[0]):
            with pytest.raises(ValueError):
                values[:] = -1.0
        assert rho_t.min() >= 0.0


class TestSeriesCurrent:
    """One convection current serves a field or a whole series."""

    @staticmethod
    def series(rng, n_t=9):
        grid = Grid.of((16, 12), (1.0, 0.5))
        values = [random_field(grid, rng).values for _ in range(n_t)]
        return TimeSeriesField(grid=grid, values=np.stack(values), dt=1e-12)

    def test_series_current_is_the_per_snapshot_current(self, rng):
        series = self.series(rng)
        j, rho_t = convection_current(series), first_order_charge(series, K1)
        for m, values in enumerate(series.values):
            psi = ComplexField(grid=series.grid, values=values)
            assert all(np.array_equal(c[m], a) for c, a in zip(j, convection_current(psi)))
            assert np.array_equal(rho_t[m], first_order_charge(psi, K1))

    def test_current_is_hbar_times_the_polar_flux(self, rng):
        series = self.series(rng)
        j = convection_current(series)
        assert j.shape == (series.grid.dim, series.n_snapshots, *series.grid.shape)
        for m, values in enumerate(series.values):
            flux = spectral.phase_flux(values, series.grid)
            assert np.array_equal(j[:, m], CGS.hbar * flux)

    def test_mean_is_the_snapshot_average(self, rng):
        """The averages the ``helicity`` step writes: ``np.mean`` over the snapshot axis."""
        series = self.series(rng)
        fields = [ComplexField(grid=series.grid, values=v) for v in series.values]
        mean_j = np.mean(convection_current(series), axis=1)
        for i in range(series.grid.dim):
            total = convection_current(fields[0])[i]
            for psi in fields[1:]:
                total = total + convection_current(psi)[i]
            assert np.array_equal(mean_j[i], total / series.n_snapshots)
        assert np.array_equal(np.mean(first_order_charge(series, K1), axis=0),
                              np.mean([first_order_charge(psi, K1) for psi in fields], axis=0))

    def test_time_averaged_current_matches_a_sum_over_snapshots(self, rng):
        series = self.series(rng)
        # the snapshot loop: hbar * flux of each snapshot, added in order, over the count
        currents = (CGS.hbar * np.array(spectral.phase_flux(values, series.grid)) for values in series.values)
        expected = tuple(functools.reduce(operator.add, currents) / series.n_snapshots)
        result = time_averaged_current(series, K1)
        assert len(result) == len(expected) == series.grid.dim
        assert all(np.array_equal(r, e) for r, e in zip(result, expected))


class TestCurrentContinuity:
    def test_stationary_mode(self):
        k = 2 * K1
        omega = CGS.c * k
        psi = make_plane_wave(1.0, (k,), GRID)
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

    def test_residual_falls_as_dt_squared(self):
        # exact snapshots centred on one time: only the centred difference of rho_t errs, as dt^2
        grid = Grid.of(256, 1.0)
        sigma0 = grid.lengths[0] / 16.0
        k_c = 2.0 * math.pi * 16 / grid.lengths[0]
        psi = normalize(gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=sigma0, k_carrier=(k_c,)), grid))
        params = EffectiveMassParams(omega_ref=CGS.c * k_c)
        spread_time = 2.0 * params.m_star * sigma0**2 / CGS.hbar
        residuals = []
        for dt in (4e-3 * spread_time, 2e-3 * spread_time, 1e-3 * spread_time):
            fields = [evolve_schrodinger(psi, params, 0.2 * spread_time + (m - 3.5) * dt) for m in range(8)]
            residuals.append(current_continuity(TimeSeriesField.from_fields(fields, dt=dt), params.k0))
        orders = [math.log2(coarse / fine) for coarse, fine in zip(residuals, residuals[1:])]
        assert all(abs(order - 2.0) < 0.02 for order in orders), orders

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


class TestChargePositivityContrast:
    """The contrast lives in the ``charge-positivity-contrast`` invariant."""

    def test_wave_charge_goes_negative_where_rho_t_cannot(self):
        measured = registry_measurements("charge-positivity-contrast")
        assert measured["min_charge_ratio"] < -1e-3
        assert measured["mean_charge_ratio"] > 0.0
        assert measured["min_first_order_density"] >= 0.0


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
