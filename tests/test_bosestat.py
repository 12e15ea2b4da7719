import math
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gwfield.constants import CGS
from gwfield.bosestat import (
    FrequencyBand,
    MAX_BRUTE_FORCE_PHOTONS,
    OccupancyTable,
    band_state_count,
    geometric_occupancy,
    maximize_entropy,
    planck_density,
    planck_peak_x,
    spontaneous_equilibrium_check,
    symmetrize_photons,
)
from gwfield.bosestat import ConvergenceError, _band_optimum, suggested_r_max
from gwfield import bosestat


class TestBandStateCount:
    def test_reference_value(self):
        # nu = c (numerically): A = 8 pi / c
        value = band_state_count(CGS.c, 1.0)
        assert value == pytest.approx(8.0 * math.pi / CGS.c, rel=1e-12)
        assert value == pytest.approx(8.3833e-10, rel=1e-4)

    def test_quadratic_frequency_scaling(self):
        assert band_state_count(2e10, 1.0) / band_state_count(1e10, 1.0) == pytest.approx(4.0)

    def test_bandwidth_linearity(self):
        assert band_state_count(1e10, 2.0) == pytest.approx(2.0 * band_state_count(1e10, 1.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            band_state_count(0.0, 1.0)
        with pytest.raises(ValueError):
            band_state_count(1e10, -1.0)


class TestGeometricOccupancy:
    def test_frozen_band(self):
        band = FrequencyBand(nu=1e12, d_nu=1e8)
        T = CGS.h * band.nu / (50.0 * CGS.k_B)  # h nu / kT = 50
        row = geometric_occupancy(band, T)
        assert row[0] == pytest.approx(band.n_states, rel=1e-12)
        assert row[1:].sum() < 1e-20 * band.n_states

    def test_unit_ratio_point(self):
        band = FrequencyBand(nu=1e10, d_nu=1e7)
        T = CGS.h * band.nu / CGS.k_B  # h nu / kT = 1
        row = geometric_occupancy(band, T)
        assert row[0] / band.n_states == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_photon_number_geometric_sum(self):
        band = FrequencyBand(nu=2e10, d_nu=1e7, volume=3.0)
        T = 1.7 * CGS.h * band.nu / CGS.k_B
        row = geometric_occupancy(band, T)
        x = math.exp(-CGS.h * band.nu / (CGS.k_B * T))
        n_expected = band.n_states * x / (1.0 - x)
        assert row @ np.arange(len(row)) == pytest.approx(n_expected, rel=1e-10)

    def test_unresolvable_tail_is_a_value_error(self):
        # h nu / kT ~ 5e-17 rounds x = exp(-h nu / kT) to exactly 1.0
        band = FrequencyBand(nu=1e10, d_nu=1e8)
        with pytest.raises(ValueError, match="never falls below"):
            suggested_r_max(band, 1e16)
        with pytest.raises(ValueError, match="never falls below"):
            geometric_occupancy(band, 1e16)

    def test_cutoff_above_ceiling_is_a_value_error(self):
        # h nu / kT ~ 4.8e-7 needs r_max = 57,573,707: a ~460 MB row
        band = FrequencyBand(nu=1e10, d_nu=1e8)
        with pytest.raises(ValueError, match="needs r_max = 57573707"):
            suggested_r_max(band, 1e6)
        with pytest.raises(ValueError, match="MAX_R_MAX"):
            geometric_occupancy(band, 1e6)
        assert suggested_r_max(band, 1e4) < bosestat.MAX_R_MAX  # 575,737 is allowed

    def test_tail_below_budget(self):
        band = FrequencyBand(nu=1e10, d_nu=1e7)
        T = 10.0 * CGS.h * band.nu / CGS.k_B  # hot: slow geometric decay
        row = geometric_occupancy(band, T, r_max=2)  # too small, must be raised
        assert abs(row.sum() - band.n_states) < 1e-11 * band.n_states


class TestMaximizeEntropy:
    def test_single_band_analytic_solution(self):
        band_a = band_state_count(1e10, 1e8)
        band = FrequencyBand(nu=1e10, d_nu=1e8, volume=100.0 / band_a)
        assert band.n_states == pytest.approx(100.0)
        h_nu = CGS.h * band.nu
        e_target = h_nu * 100.0 * math.exp(-1.0) / (1.0 - math.exp(-1.0))
        table, thermo = maximize_entropy([band], e_target, r_max=40)
        r = np.arange(41)
        expected = 100.0 * (1.0 - math.exp(-1.0)) * np.exp(-r)
        keep = expected > 1e-9 * 100.0
        np.testing.assert_allclose(table.p[0][keep], expected[keep], rtol=1e-6)
        assert thermo.beta == pytest.approx(h_nu, rel=1e-8)

    def test_beta_recovers_kT(self):
        bands = [FrequencyBand(nu=nu, d_nu=1e9, volume=1e3) for nu in (0.8e11, 1.0e11, 1.3e11)]
        T = 5.0
        rows = [geometric_occupancy(b, T, r_max=60) for b in bands]
        e_target = sum(
            CGS.h * b.nu * float(row @ np.arange(len(row))) for b, row in zip(bands, rows)
        )
        table, thermo = maximize_entropy(bands, e_target, r_max=60)
        assert thermo.beta == pytest.approx(CGS.k_B * T, rel=1e-8)
        assert thermo.temperature == pytest.approx(T, rel=1e-8)

    def test_equal_bands_get_equal_rows(self):
        bands = [FrequencyBand(nu=1e10, d_nu=1e8, volume=2.0)] * 2
        e_target = 2.0 * CGS.h * 1e10 * bands[0].n_states * 0.4
        table, _ = maximize_entropy(bands, e_target, r_max=50)
        np.testing.assert_allclose(table.p[0], table.p[1], rtol=1e-12)

    def test_vanishing_energy_freezes_ground(self):
        band = FrequencyBand(nu=1e10, d_nu=1e8, volume=10.0)
        e_target = 1e-9 * CGS.h * band.nu * band.n_states
        table, thermo = maximize_entropy([band], e_target, r_max=20)
        assert table.p[0, 0] / band.n_states > 1.0 - 1e-8
        assert thermo.beta > 0.0

    def test_kl_divergence_to_closed_form(self):
        band = FrequencyBand(nu=1e10, d_nu=1e8, volume=50.0)
        T = 0.7 * CGS.h * band.nu / CGS.k_B
        row_geo = geometric_occupancy(band, T, r_max=80)
        e_target = CGS.h * band.nu * float(row_geo @ np.arange(len(row_geo)))
        table, _ = maximize_entropy([band], e_target, r_max=80)
        p = table.p[0] / band.n_states
        q = row_geo / row_geo.sum()
        keep = (p > 0) & (q > 0)
        kl = float(np.sum(p[keep] * np.log(p[keep] / q[keep])))
        assert abs(kl) < 1e-10

    def test_entropy_gap_to_certificate(self):
        bands = [FrequencyBand(nu=nu, d_nu=1e9, volume=1e3) for nu in (0.9e11, 1.1e11)]
        T = 4.2
        rows = [geometric_occupancy(b, T, r_max=60) for b in bands]
        e_target = sum(
            CGS.h * b.nu * float(row @ np.arange(len(row))) for b, row in zip(bands, rows)
        )
        table, thermo = maximize_entropy(bands, e_target, r_max=60)
        certificate = OccupancyTable(bands=tuple(bands), p=np.stack(rows))
        gap = abs(table.ln_multiplicity() - certificate.ln_multiplicity())
        assert gap < 1e-10 * table.ln_multiplicity()

    def test_stationarity_has_no_photon_number_multiplier(self):
        # ln p_r is affine in r with slope -h nu_s / beta: the same beta in
        # every band, leaving no room for a photon-number term
        bands = [FrequencyBand(nu=nu, d_nu=1e9, volume=1e3) for nu in (0.8e11, 1.2e11)]
        T = 6.0
        rows = [geometric_occupancy(b, T, r_max=50) for b in bands]
        e_target = sum(
            CGS.h * b.nu * float(row @ np.arange(len(row))) for b, row in zip(bands, rows)
        )
        table, thermo = maximize_entropy(bands, e_target, r_max=50)
        betas = []
        for s, band in enumerate(bands):
            p = table.p[s]
            keep = p > 1e-9 * band.n_states
            slope = np.polyfit(np.arange(len(p))[keep], np.log(p[keep]), 1)[0]
            betas.append(-CGS.h * band.nu / slope)
        assert abs(betas[0] / betas[1] - 1.0) < 1e-8
        assert betas[0] == pytest.approx(thermo.beta, rel=1e-8)

    def test_changing_photon_number_at_fixed_energy_lowers_multiplicity(self):
        bands = [FrequencyBand(nu=nu, d_nu=1e9, volume=1e3) for nu in (0.8e11, 1.2e11)]
        T = 6.0
        rows = [geometric_occupancy(b, T, r_max=50) for b in bands]
        e_target = sum(
            CGS.h * b.nu * float(row @ np.arange(len(row))) for b, row in zip(bands, rows)
        )
        table, _ = maximize_entropy(bands, e_target, r_max=50)
        base = table.ln_multiplicity()
        # move photons between bands so E is fixed but N changes
        eps = 1e-3 * table.p[0, 1]
        ratio = bands[0].nu / bands[1].nu
        perturbed = table.p.copy()
        perturbed[0, 0] -= eps
        perturbed[0, 1] += eps
        perturbed[1, 0] += eps * ratio
        perturbed[1, 1] -= eps * ratio
        new_table = OccupancyTable(bands=tuple(bands), p=perturbed)
        assert new_table.total_energy() == pytest.approx(e_target, rel=1e-12)
        assert new_table.photon_numbers().sum() != pytest.approx(
            table.photon_numbers().sum(), rel=1e-9)
        assert new_table.ln_multiplicity() < base

    def test_entropy_energy_slope_is_inverse_temperature(self):
        band = FrequencyBand(nu=1e11, d_nu=1e9, volume=1e3)
        T = 5.0
        row = geometric_occupancy(band, T, r_max=60)
        e0 = CGS.h * band.nu * float(row @ np.arange(len(row)))
        delta = 1e-3 * e0
        _, lo = maximize_entropy([band], e0 - delta, r_max=60)
        _, hi = maximize_entropy([band], e0 + delta, r_max=60)
        slope = (hi.S_entropy - lo.S_entropy) / (2.0 * delta)
        _, mid = maximize_entropy([band], e0, r_max=60)
        assert slope == pytest.approx(1.0 / mid.temperature, rel=1e-4)

    def test_unrepresentable_energy_rejected(self):
        band = FrequencyBand(nu=1e10, d_nu=1e8, volume=1.0)
        huge = CGS.h * band.nu * band.n_states * 100.0
        with pytest.raises(ConvergenceError, match="not representable"):
            maximize_entropy([band], huge, r_max=10)

    def test_band_optimum_reports_exhausted_iterations(self):
        # a NaN multiplier never meets the stopping rule; the last iterate is all NaN
        with pytest.raises(ConvergenceError, match="200 iterations"):
            _band_optimum(np.ones(1), np.ones(1), float("nan"), 5)

    def test_planck_consistency(self):
        band = FrequencyBand(nu=2e11, d_nu=1e8, volume=1.0)
        T = 3.1
        row = geometric_occupancy(band, T)
        energy_per_volume = CGS.h * band.nu * float(row @ np.arange(len(row))) / band.volume
        assert energy_per_volume == pytest.approx(
            planck_density(band.nu, T) * band.d_nu, rel=1e-8)


class TestBandOptimumRows:
    """The band-vectorised mirror ascent against one call per band."""

    @staticmethod
    def seeded_bands(n_bands=50):
        # h nu / kT from 0.1 to 10 at 5 K: rows converge between 50 and 54 iterations
        rng = np.random.default_rng(50)
        nus = np.sort(np.exp(rng.uniform(np.log(1e10), np.log(1e12), size=n_bands)))
        bands = [FrequencyBand(nu=float(nu), d_nu=1e9, volume=1e3) for nu in nus]
        return np.array([b.n_states for b in bands]), np.array([CGS.h * b.nu for b in bands])

    @pytest.mark.parametrize("kt_ratio", [0.3, 1.0, 3.0])
    def test_rows_equal_per_band_calls(self, kt_ratio):
        n_states, h_nu = self.seeded_bands()
        beta = kt_ratio * CGS.k_B * 5.0
        rows = _band_optimum(n_states, h_nu, beta, 60)
        assert rows.shape == (50, 61)
        for s in range(50):
            alone = _band_optimum(n_states[s:s + 1], h_nu[s:s + 1], beta, 60)
            assert np.array_equal(rows[s:s + 1], alone), s

    def test_unconverged_row_is_named(self):
        n_states, h_nu = self.seeded_bands(8)
        h_nu[5] = float("nan")
        with pytest.raises(ConvergenceError, match="200 iterations") as info:
            _band_optimum(n_states, h_nu, CGS.k_B * 5.0, 60)
        assert "band rows [5]" in str(info.value)
        assert "nan" in str(info.value)

    def test_one_call_per_energy_evaluation(self, monkeypatch):
        # the criterion-6 tables: three bands at 5 K, r_max = 60
        bands = [FrequencyBand(nu=nu, d_nu=1e9, volume=1e3) for nu in (0.8e11, 1.0e11, 1.3e11)]
        rows = [geometric_occupancy(b, 5.0, r_max=60) for b in bands]
        e_target = sum(CGS.h * b.nu * float(row @ np.arange(len(row))) for b, row in zip(bands, rows))
        widths = []
        original = bosestat._band_optimum

        def counting(n_states, h_nu, beta, r_max):
            widths.append(np.size(h_nu))
            return original(n_states, h_nu, beta, r_max)

        monkeypatch.setattr(bosestat, "_band_optimum", counting)
        _, thermo = maximize_entropy(bands, e_target, r_max=60)
        assert thermo.energy_evaluations > 0
        assert len(widths) == thermo.energy_evaluations + 1
        assert widths == [len(bands)] * len(widths)


class TestPlanckDensity:
    def test_rayleigh_jeans_limit(self):
        T = 2.7
        nu = 0.01 * CGS.k_B * T / CGS.h  # h nu / kT = 0.01
        rj = 8.0 * math.pi * nu**2 * CGS.k_B * T / CGS.c**3
        assert abs(planck_density(nu, T) / rj - 1.0) < 0.005

    def test_peak_location(self):
        # independent route: numerically maximize the density itself
        T = 2.7
        nu_scale = CGS.k_B * T / CGS.h
        result = minimize_scalar(
            lambda x: -planck_density(x * nu_scale, T), bounds=(1.0, 5.0), method="bounded",
            options={"xatol": 1e-10})
        assert abs(result.x - 2.8214) < 5e-4
        assert abs(planck_peak_x() - result.x) < 1e-6

    def test_cubic_temperature_scaling(self):
        x = 1.7
        nu1 = x * CGS.k_B * 2.7 / CGS.h
        nu2 = x * CGS.k_B * 5.4 / CGS.h
        assert planck_density(nu2, 5.4) / planck_density(nu1, 2.7) == pytest.approx(8.0, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            planck_density(-1.0, 2.7)

    def test_underflowing_density_is_zero_without_a_warning(self):
        # h nu / kT ~ 1.8e4: expm1 overflows to inf and the density is exactly 0
        assert planck_density(1e15, 2.7) == 0.0


class TestSpontaneousEquilibrium:
    def test_identity_for_random_triples(self, rng):
        worst = 0.0
        for _ in range(100):
            x = float(np.exp(rng.uniform(np.log(1e-3), np.log(300.0))))
            T = float(rng.uniform(1.0, 100.0))
            nu = x * CGS.k_B * T / CGS.h
            g_ratio = float(rng.uniform(0.1, 10.0))
            worst = max(worst, spontaneous_equilibrium_check(nu, T, g_ratio))
        assert worst < 1e-12

    def test_photon_number_perturbation_detected(self):
        for x in (1.0, 2.0, 5.0):
            T = 2.7
            nu = x * CGS.k_B * T / CGS.h
            residual = spontaneous_equilibrium_check(nu, T, 1.0, photon_scale=1.01)
            expected = 0.01 / 1.01 * (1.0 - math.exp(-x))
            assert residual > 1e-4
            assert residual == pytest.approx(expected, rel=1e-9)

    def test_spontaneous_term_is_load_bearing(self):
        T = 2.7
        nu = 2.0 * CGS.k_B * T / CGS.h
        residual = spontaneous_equilibrium_check(nu, T, 1.0, include_spontaneous=False)
        assert residual == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def plane_wave_mode(m):
    return lambda x: np.exp(2j * math.pi * m * np.asarray(x))


class TestSymmetrizePhotons:
    def test_single_photon_reduces_to_mode(self, rng):
        evaluator = symmetrize_photons([plane_wave_mode(3)], [1])
        xs = rng.uniform(0.0, 1.0, size=(1, 20))
        np.testing.assert_allclose(evaluator(xs), plane_wave_mode(3)(xs[0]), atol=1e-14)

    def test_double_occupancy_is_plain_product(self, rng):
        evaluator = symmetrize_photons([plane_wave_mode(2)], [2])
        xs = rng.uniform(0.0, 1.0, size=(2, 20))
        expected = plane_wave_mode(2)(xs[0]) * plane_wave_mode(2)(xs[1])
        np.testing.assert_allclose(evaluator(xs), expected, atol=1e-14)

    def test_aab_matches_brute_force(self, rng):
        modes = [plane_wave_mode(1), plane_wave_mode(4)]
        occupation = [2, 1]
        evaluator = symmetrize_photons(modes, occupation)
        labels = (0, 0, 1)
        w = 3  # distinct arrangements of (a, a, b)
        xs = rng.uniform(0.0, 1.0, size=(3, 20))
        brute = np.zeros(20, dtype=complex)
        for perm in set(permutations(labels)):
            term = np.ones(20, dtype=complex)
            for j, lab in enumerate(perm):
                term = term * modes[lab](xs[j])
            brute += term
        brute /= math.sqrt(w)
        np.testing.assert_allclose(evaluator(xs), brute, atol=1e-12)

    def test_symmetric_under_transpositions(self, rng):
        modes = [plane_wave_mode(1), plane_wave_mode(2), plane_wave_mode(5)]
        evaluator = symmetrize_photons(modes, [1, 2, 1])
        xs = rng.uniform(0.0, 1.0, size=(4,))
        baseline = evaluator(xs)
        for i, j in ((0, 1), (1, 3), (0, 3)):
            swapped = xs.copy()
            swapped[[i, j]] = swapped[[j, i]]
            assert abs(evaluator(swapped) - baseline) < 1e-12

    def test_orthonormal_modes_give_normalized_state(self):
        n = 64
        x = np.arange(n) / n
        evaluator = symmetrize_photons([plane_wave_mode(1), plane_wave_mode(2)], [1, 1])
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        values = evaluator(np.stack([x1.ravel(), x2.ravel()]))
        total = float(np.sum(np.abs(values) ** 2)) / n**2
        assert total == pytest.approx(1.0, rel=1e-10)

    def test_too_many_photons_rejected(self):
        with pytest.raises(ValueError, match="brute-force"):
            symmetrize_photons([plane_wave_mode(1)], [MAX_BRUTE_FORCE_PHOTONS + 1])


def _counted(f):
    """``f`` with a call counter in ``.calls``."""

    def wrapped(x):
        wrapped.calls += 1
        return f(x)

    wrapped.calls = 0
    return wrapped


def _brent_cases(seed):
    """Seeded (f, a, b) brackets: random cubics (some without a sign change),
    exponentials, and roots at or within a few ulps of an endpoint."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(1500):
        c0, c1, c2, c3 = (float(v) for v in rng.normal(size=4))
        a, b = sorted(float(v) for v in rng.uniform(-4.0, 4.0, size=2))
        cubic = lambda x, c=(c0, c1, c2, c3): ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
        cases.append((cubic, a, b))
    for _ in range(1000):
        rate = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 6.0))
        level = float(rng.uniform(0.1, 20.0))
        root = math.log(level) / rate
        a, b = root - float(rng.uniform(0.01, 5.0)), root + float(rng.uniform(0.01, 5.0))
        cases.append((lambda x, k=rate, c=level: math.exp(k * x) - c, a, b))
    for _ in range(1000):
        a = float(rng.uniform(-3.0, 3.0))
        b = a + float(rng.uniform(1e-3, 4.0))
        ulps = int(rng.integers(0, 4))
        near_a = float(np.nextafter(a, b)) if ulps == 1 else a + ulps * 1e-15 * max(abs(a), 1.0)
        near_b = b - ulps * 1e-15 * max(abs(b), 1.0)
        root = near_a if rng.random() < 0.5 else near_b
        power = int(rng.choice([1, 3, 5]))
        cases.append((lambda x, r=root, n=power: (x - r) ** n, a, b))
    for _ in range(500):
        x_peak = float(rng.uniform(1.5, 4.0))
        cases.append((lambda x, s=x_peak: s * (1.0 - math.exp(-x)) - x, 0.5, 6.0))
    return cases


class TestBrentPort:
    """``_brentq`` must reproduce scipy's C ``brentq`` root for root and call for call."""

    TOLERANCES = [(2e-12, 4 * np.finfo(float).eps), (1e-300, 8.9e-16), (1e-6, 1e-10), (0.3, 0.01)]

    @pytest.mark.parametrize("xtol, rtol", TOLERANCES)
    def test_roots_and_calls_match_scipy(self, xtol, rtol):
        from scipy.optimize import brentq

        sign_errors = 0
        for f, a, b in _brent_cases(seed=int(-math.log10(xtol))):
            ours, theirs = _counted(f), _counted(f)
            try:
                expected = brentq(theirs, a, b, xtol=xtol, rtol=rtol)
            except ValueError:
                sign_errors += 1
                with pytest.raises(ValueError):
                    bosestat._brentq(ours, a, b, xtol=xtol, rtol=rtol)
                continue
            assert bosestat._brentq(ours, a, b, xtol=xtol, rtol=rtol) == expected, (a, b)
            assert ours.calls == theirs.calls, (a, b)
        assert 0 < sign_errors < 1000

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x * x + 1.0, -1.0, 2.0),
        (lambda x: math.nan if x > 0.7 else x - 0.5, 0.0, 1.0),
        (lambda x: math.nan if 0.55 < x < 0.65 else x - 0.6, 0.0, 1.0),
    ], ids=["same-sign", "nan-at-endpoint", "nan-inside"])
    def test_value_errors_match_scipy(self, f, a, b):
        from scipy.optimize import brentq

        with pytest.raises(ValueError):
            brentq(f, a, b)
        with pytest.raises(ValueError):
            bosestat._brentq(f, a, b, xtol=2e-12, rtol=4 * np.finfo(float).eps)

    def test_maxiter_exhaustion_matches_scipy(self):
        from scipy.optimize import brentq

        f = lambda x: (x - 0.3) ** 5
        with pytest.raises(RuntimeError):
            brentq(f, 0.0, 1.0, maxiter=4)
        with pytest.raises(RuntimeError):
            bosestat._brentq(f, 0.0, 1.0, xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=4)
