import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gwfield import cmbrvac
from gwfield.constants import CGS
from gwfield.cmbrvac import (
    OBSERVED_VACUUM_BOUND,
    QUOTED_VACUUM_PREFACTOR,
    VacuumModel,
    anomalous_moment,
    casimir_coefficient,
    casimir_pressure,
    cutoff_for_moment,
    qed_vacuum_energy,
    vacuum_energy,
)

from conftest import registry_measurements


def model_at_ratio(x, T=1e4):
    """A model with hbar omega_c / kT near ``x``; that ratio as :func:`vacuum_energy`
    computes it and the prefactor (kT)^4 / (hbar^3 pi^2 c^3) of the dimensionless
    integral.  At 1e4 K the density stays a normal float down to x = 1e-60."""
    model = VacuumModel(omega_c=x * CGS.k_B * T / CGS.hbar, T=T)
    ratio = CGS.hbar * model.omega_c / (CGS.k_B * T)
    return model, ratio, (CGS.k_B * T) ** 4 / (CGS.hbar**3 * math.pi**2 * CGS.c**3)


class TestVacuumEnergy:
    def test_exact_close_to_asymptotic_at_small_cutoff(self):
        T = 2.7
        omega_c = 0.01 * CGS.k_B * T / CGS.hbar  # hbar omega_c / kT = 0.01
        model = VacuumModel(omega_c=omega_c, T=T)
        exact = vacuum_energy(model, "exact")
        asym = vacuum_energy(model, "asymptotic")
        assert abs(exact / asym - 1.0) < 0.005

    def test_exact_never_exceeds_asymptotic(self):
        T = 2.7
        for ratio in (0.001, 0.01, 0.1, 1.0, 10.0):
            model = VacuumModel(omega_c=ratio * CGS.k_B * T / CGS.hbar, T=T)
            exact = vacuum_energy(model, "exact")
            asym = vacuum_energy(model, "asymptotic")
            assert exact <= asym * (1.0 + 1e-9)

    def test_vanishing_cutoff(self):
        small = VacuumModel(omega_c=1e-3, T=2.7)
        smaller = VacuumModel(omega_c=1e-4, T=2.7)
        assert vacuum_energy(small, "exact") < 1e-80
        # omega_c^5 scaling drives both branches to zero together
        assert vacuum_energy(smaller, "exact") == pytest.approx(
            1e-5 * vacuum_energy(small, "exact"), rel=1e-6)
        assert vacuum_energy(smaller, "asymptotic") == pytest.approx(
            1e-5 * vacuum_energy(small, "asymptotic"), rel=1e-12)

    def test_reference_magnitude(self):
        # at the moment-matching cutoff the density sits within a factor of
        # 30 of 1e-23 erg/cm^3 (the quoted order of magnitude)
        model = VacuumModel(omega_c=2.87e9, T=2.7)
        rho = vacuum_energy(model, "asymptotic")
        assert 1e-23 / 30.0 < rho < 1e-23 * 30.0

    def test_monotone_in_cutoff(self):
        T = 2.7
        values = [
            vacuum_energy(VacuumModel(omega_c=w, T=T), "exact")
            for w in (1e9, 2e9, 4e9, 8e9)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_asymptotic_decreases_with_temperature(self):
        model_cold = VacuumModel(omega_c=1e9, T=2.0)
        model_hot = VacuumModel(omega_c=1e9, T=4.0)
        assert vacuum_energy(model_hot, "asymptotic") < vacuum_energy(model_cold, "asymptotic")

    def test_integrand_matches_band_counting(self):
        # d rho_vac / d omega_c = (state density per rad/s) * hbar omega
        # * (zero-photon fraction 1 - exp(-hbar omega/kT)): ties the closed-form
        # vacuum energy to the per-band state count
        from gwfield.bosestat import FrequencyBand

        T, omega = 2.7, 3e9
        h_ratio = CGS.hbar * omega / (CGS.k_B * T)
        states_per_rad_s = FrequencyBand(omega / (2.0 * math.pi), 1.0).n_states / (2.0 * math.pi)
        expected = states_per_rad_s * CGS.hbar * omega * -math.expm1(-h_ratio)
        h = 1e-6 * omega
        fd = (
            vacuum_energy(VacuumModel(omega_c=omega + h, T=T), "exact")
            - vacuum_energy(VacuumModel(omega_c=omega - h, T=T), "exact")
        ) / (2.0 * h)
        assert fd == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("xi", [0.0, 1.5])
    def test_xi_outside_the_unit_interval_rejected(self, xi):
        with pytest.raises(ValueError, match=r"xi must lie in \(0, 1\]"):
            VacuumModel(omega_c=1e12, T=2.7, xi=xi)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            vacuum_energy(VacuumModel(omega_c=1e9), "both")

    def test_exact_matches_quadrature(self):
        from scipy.integrate import quad  # the reference only: the module loads no scipy

        for x in np.geomspace(1e-6, 300.0, 60):
            model, x, scale = model_at_ratio(x)
            reference = quad(lambda t: t**3 * -math.expm1(-t), 0.0, x, epsabs=0.0, epsrel=1e-12,
                             limit=200)[0]
            assert vacuum_energy(model, "exact") == pytest.approx(scale * reference, rel=1e-10), x

    def test_exact_matches_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        ratios = np.concatenate([np.geomspace(1e-60, 1e3, 400), np.linspace(1.9, 2.1, 101)])
        models = [model_at_ratio(x)[0] for x in ratios]
        # the cutoffs of the moment-matching range, and a cold vacuum whose
        # (kT)^4 = 3.6e-384 is below the smallest float while rho ~ 9.9e-301 is not
        models += [VacuumModel(omega_c=float(w)) for w in np.geomspace(2.87e9, 1e13, 25)]
        models.append(VacuumModel(omega_c=1e-60, T=1e-80))
        # x^4/4 - 6 cancels down to ~x^5/5: 300 digits at x = 1e-60
        with mpmath.workdps(400):
            hbar, k_B, c = (mpmath.mpf(v) for v in (CGS.hbar, CGS.k_B, CGS.c))
            for model in models:
                kT = k_B * mpmath.mpf(model.T)
                t = hbar * mpmath.mpf(model.omega_c) / kT
                integral = t**4 / 4 - 6 + mpmath.exp(-t) * (t**3 + 3 * t**2 + 6 * t + 6)
                reference = kT**4 / (hbar**3 * mpmath.pi**2 * c**3) * integral
                assert abs(vacuum_energy(model, "exact") - reference) <= 1e-15 * reference, model

    def test_series_meets_closed_form_at_switch(self):
        # the power series summed below x = 2 and the closed form used from x = 2 on
        series = float(np.polyval(cmbrvac._SERIES, 2.0)) * 2.0**5
        closed = 2.0**4 / 4.0 - 6.0 + math.exp(-2.0) * (((2.0 + 3.0) * 2.0 + 6.0) * 2.0 + 6.0)
        assert series == pytest.approx(closed, rel=1e-15, abs=0.0)

    def test_exponential_vanishes_at_large_ratio(self):
        model, x, _ = model_at_ratio(1e3)
        # hbar omega_c^4 / (pi^2 c^3) * I(x) / x^4, with e^-x = 0 in I(x)
        prefactor = CGS.hbar * model.omega_c * (model.omega_c / CGS.c) ** 3 / math.pi**2
        assert vacuum_energy(model, "exact") == prefactor * (0.25 - 6.0 * (1.0 / x) ** 4)

    def test_non_finite_ratio_overflows(self):
        with pytest.raises(OverflowError, match="hbar omega_c / kT"):
            vacuum_energy(VacuumModel(omega_c=1e20, T=1e-300), "exact")

    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_an_underflowing_kT_is_refused_by_name(self, method):
        with pytest.raises(ValueError, match=r"T = 1e-320 underflows kT = k_B\*T to 0"):
            vacuum_energy(VacuumModel(omega_c=1e9, T=1e-320), method)


class TestAnomalousMoment:
    def test_paper_numeric_reference_point(self):
        model = VacuumModel(omega_c=2.87e9)
        a_e = anomalous_moment(model, "paper-numeric")
        assert abs(a_e / 0.0011614 - 1.0) < 0.01

    def test_inverse_solve(self):
        target = CGS.alpha / (2.0 * math.pi)
        omega_c = cutoff_for_moment(target)
        assert abs(omega_c / 2.87e9 - 1.0) < 0.01
        model = VacuumModel(omega_c=omega_c)
        assert anomalous_moment(model, "paper-numeric") == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("target", [3.3e-7, 1e-3, 0.0011614])
    def test_paper_numeric_round_trip(self, target):
        model = VacuumModel(omega_c=cutoff_for_moment(target))
        assert anomalous_moment(model, "paper-numeric") == pytest.approx(target, rel=1e-12)

    def test_inverse_solve_takes_no_model_keywords(self):
        # the inverse holds at the default model only
        with pytest.raises(TypeError):
            cutoff_for_moment(1e-3, T=-2.7)

    @pytest.mark.parametrize("target", [0.0, -1e-3, math.nan, math.inf])
    def test_inverse_solve_rejects_a_non_positive_or_non_finite_moment(self, target):
        with pytest.raises(ValueError, match="a_target"):
            cutoff_for_moment(target)

    def test_prefactor_paths_disagree_by_documented_factor(self):
        # symbolic CGS evaluation gives ~2.2e-72 at 2.7 K, the quoted value
        # is 5.5e-71: a factor ~25 apart, both shipped
        symbolic = vacuum_energy(VacuumModel(omega_c=1.0, T=2.7), "asymptotic")
        assert symbolic == pytest.approx(2.24e-72, rel=0.01)
        assert 20.0 < QUOTED_VACUUM_PREFACTOR / symbolic < 30.0

    def test_efficiency_linearity(self):
        base = anomalous_moment(VacuumModel(omega_c=1e9), "symbolic")
        half = anomalous_moment(VacuumModel(omega_c=1e9, xi=0.5), "symbolic")
        assert half == pytest.approx(0.5 * base, rel=1e-12)

    def test_volume_field_ratio_linearity(self):
        base = anomalous_moment(VacuumModel(omega_c=1e9), "paper-numeric")
        double = anomalous_moment(VacuumModel(omega_c=1e9, V_over_B=2.0), "paper-numeric")
        assert double == pytest.approx(2.0 * base, rel=1e-12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            anomalous_moment(VacuumModel(omega_c=1e9), "hybrid")


class TestQedComparison:
    def test_planck_cutoff_magnitude(self):
        rho = qed_vacuum_energy(CGS.omega_P)
        assert 1e112 < rho < 1e116

    def test_decades_above_observed_bound(self):
        rho = qed_vacuum_energy(CGS.omega_P)
        assert math.log10(rho / OBSERVED_VACUUM_BOUND) >= 118.0

    def test_quartic_law(self):
        assert qed_vacuum_energy(2e9) == pytest.approx(16.0 * qed_vacuum_energy(1e9), rel=1e-12)


class TestCasimir:
    def test_coefficient_close_to_quoted(self):
        coeff = casimir_coefficient(2.7)
        assert abs(coeff / 7.5e-17 - 1.0) < 0.15

    def test_inverse_sixth_power(self):
        assert casimir_pressure(2e-4) == pytest.approx(casimir_pressure(1e-4) / 64.0, rel=1e-12)

    def test_attractive(self):
        assert casimir_pressure(1e-4) < 0.0

    def test_derivative_consistency(self):
        a = 3e-5
        h = 1e-5 * a
        def rho(sep):
            return vacuum_energy(VacuumModel(omega_c=math.pi * CGS.c / sep, T=2.7), "asymptotic")
        fd = (rho(a + h) - rho(a - h)) / (2.0 * h)
        assert abs(fd / casimir_pressure(a) - 1.0) < 1e-6

    def test_separation_for_reference_pressure(self):
        # |P| = 1e9 dyne/cm^2 happens near a = 6.6e-5 cm with our constants
        # (the quoted ballpark is 4e-5 cm; the difference is documented)
        solved = brentq(lambda a: -casimir_pressure(a) - 1e9, 1e-6, 1e-3, rtol=1e-12)
        closed_form = (casimir_coefficient(2.7) / 1e9) ** (1.0 / 6.0)
        assert solved == pytest.approx(closed_form, rel=1e-9)
        assert solved == pytest.approx(6.606e-5, rel=1e-3)

    @pytest.mark.parametrize("a, T, names", [
        (1e-60, 2.7, ["a = 1e-60", "a^6"]),
        (1e-4, 1e-320, ["T = 1e-320", "k_B*T"]),
        (1e-4, 1e-300, ["a = 0.0001", "T = 1e-300", "pressure"]),
    ], ids=["a6-underflows", "kT-underflows", "pressure-overflows"])
    def test_unrepresentable_values_are_refused_by_name(self, a, T, names):
        with pytest.raises(ValueError) as refused:
            casimir_pressure(a, T)
        assert all(name in str(refused.value) for name in names), refused.value

    def test_coefficient_refuses_an_underflowing_kT(self):
        with pytest.raises(ValueError, match="T = 1e-320"):
            casimir_coefficient(1e-320)
        assert math.isfinite(casimir_coefficient(1e-300))

    @pytest.mark.parametrize("a", [1e52, 1e60, 1e300])
    def test_an_overflowing_a6_gives_the_pressure_underflow(self, a):
        # a = 1e51 still has a finite a^6, whose pressure is a subnormal -8.3e-323
        assert casimir_pressure(1e51) == -casimir_coefficient(2.7) / 1e51**6 < 0.0
        pressure = casimir_pressure(a)
        assert pressure == 0.0 and math.copysign(1.0, pressure) == -1.0


class TestGradientEnergySplit:
    """The split lives in the ``gradient-energy-split`` invariant."""

    def test_real_gaussian_integration_by_parts(self):
        assert registry_measurements("gradient-energy-split")["real_gaussian_residual"] < 1e-9

    def test_plane_wave_split_is_all_phase(self):
        assert registry_measurements("gradient-energy-split")["plane_wave_residual"] < 1e-10

    def test_random_floored_field(self):
        assert registry_measurements("gradient-energy-split")["floored_field_residual"] < 1e-8
