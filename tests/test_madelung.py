import csv
import dataclasses
import gc
import json
import math

import numpy as np
import pytest

from gwfield.constants import CGS
from gwfield.fields import ComplexField, Grid, make_plane_wave, normalize
from gwfield import madelung, spectral
from gwfield.cli import main as cli_main
from gwfield.fieldio import write_field
from gwfield.madelung import (
    bohm_step,
    continuity_residual,
    energy_decomposition,
    hj_residual,
    phase_gradient_momentum,
    polar_decompose,
    quantum_potential,
    run_trajectory,
    QuantumPotentialInterpolator,
)
from gwfield.wavemech import (
    EffectiveMassParams,
    GaussianPacketSpec,
    evolve_schrodinger,
    gaussian_packet,
)

from conftest import coordinate_meshes, random_field, wrapped_gaussian_curvature


def box_mode(n: int, a: float = 1.0, points: int = 512) -> tuple[ComplexField, float]:
    """sin(n pi x / a) sampled on a periodic box of length 2a (smooth there)."""
    grid = Grid.of(points, 2.0 * a)
    k_n = n * math.pi / a
    psi = normalize(ComplexField(grid=grid, values=np.sin(k_n * grid.axis(0)) + 0j))
    return psi, k_n


class TestPolarDecompose:
    def test_plane_wave_phase_linear(self):
        grid = Grid.of(64, 1.0)
        k = 2.0 * math.pi * 5 / grid.lengths[0]
        psi = make_plane_wave(1.0, (k,), grid)
        form = polar_decompose(psi)
        np.testing.assert_allclose(form.action / CGS.hbar, k * grid.axis(0), atol=1e-10)
        np.testing.assert_allclose(form.rho, 1.0, rtol=1e-12)

    def test_real_gaussian_zero_phase(self):
        grid = Grid.of(256, 1.0)
        psi = gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=0.03, k_carrier=(0.0,)), grid)
        form = polar_decompose(psi)
        keep = ~form.branch_mask
        assert np.abs(form.action[keep] / CGS.hbar).max() < 1e-10

    def test_global_phase_shift(self, rng):
        grid = Grid.of(128, 1.0)
        psi = random_field(grid, rng)
        theta = 0.7
        shifted = ComplexField(grid=grid, values=psi.values * np.exp(1j * theta))
        f1, f2 = polar_decompose(psi), polar_decompose(shifted)
        keep = ~(f1.branch_mask | f2.branch_mask)
        diff = (f2.action[keep] - f1.action[keep]) / CGS.hbar
        # constant offset theta up to 2 pi ambiguity of the unwrap anchor
        wrapped = (diff - theta + math.pi) % (2.0 * math.pi) - math.pi
        assert np.abs(wrapped).max() < 1e-9

    def test_reconstruction(self, rng):
        grid = Grid.of(128, 1.0)
        psi = random_field(grid, rng)
        form = polar_decompose(psi)
        keep = ~form.branch_mask
        recon = np.sqrt(form.rho) * np.exp(1j * form.action / CGS.hbar)
        assert np.abs((recon - psi.values)[keep]).max() < 1e-10 * np.abs(psi.values).max()

    def test_2d_unwrap(self):
        grid = Grid.of((32, 32), (1.0, 1.0))
        kx = 2.0 * math.pi * 3 / grid.lengths[0]
        ky = 2.0 * math.pi * 2 / grid.lengths[1]
        psi = make_plane_wave(1.0, (kx, ky), grid)
        form = polar_decompose(psi)
        xm, ym = coordinate_meshes(grid)
        np.testing.assert_allclose(form.action / CGS.hbar, kx * xm + ky * ym, atol=1e-9)


class TestQuantumPotential:
    def test_constant_density(self):
        grid = Grid.of(64, 1.0)
        psi = ComplexField(grid=grid, values=np.ones(64, dtype=complex))
        q = quantum_potential(polar_decompose(psi), m_star=1e-30)
        assert np.abs(q.Q).max() < 1e-20

    def test_box_mode_density(self):
        # sin^2 density: the curvature is exactly -k^2 away from the nodes
        psi, k = box_mode(3)
        form = polar_decompose(psi)
        m_star = CGS.hbar * k / (2.0 * CGS.c)
        q = quantum_potential(form, m_star)
        expected = CGS.hbar**2 * k**2 / (2.0 * m_star)
        keep = form.rho > 0.01 * form.rho.max()
        dev = np.abs(q.Q[keep] / expected - 1.0).max()
        assert dev < 1e-6

    def test_gaussian_closed_form(self):
        sigma = 3.0
        grid = Grid.of(1024, 24.0 * sigma)
        center = 12.0 * sigma
        psi = gaussian_packet(
            GaussianPacketSpec(center=(center,), sigma0=sigma, k_carrier=(0.0,)), grid)
        m_star = 1.0e-37
        q = quantum_potential(polar_decompose(psi), m_star)
        x = grid.axis(0) - center
        expected = (CGS.hbar**2 / (2.0 * m_star)) * (
            1.0 / (2.0 * sigma**2) - x**2 / (4.0 * sigma**4))
        window = np.abs(x) <= 3.0 * sigma
        scale = CGS.hbar**2 / (2.0 * m_star) / (2.0 * sigma**2)
        assert np.abs((q.Q - expected)[window]).max() < 1e-6 * scale

    def test_scale_invariance(self, rng):
        grid = Grid.of(128, 1.0)
        psi = random_field(grid, rng)
        scaled = ComplexField(grid=grid, values=(3.0 - 4.0j) * psi.values)
        q1 = quantum_potential(polar_decompose(psi), 1e-30)
        q2 = quantum_potential(polar_decompose(scaled), 1e-30)
        keep = ~(q1.form.branch_mask | q2.form.branch_mask)
        scale = np.abs(q1.form.curvature[keep]).max()
        assert np.abs((q1.form.curvature - q2.form.curvature)[keep]).max() < 1e-9 * scale

    def test_weighted_mean_is_nonnegative(self, rng):
        # int rho * curvature dV = -int |grad sqrt(rho)|^2 dV <= 0
        grid = Grid.of(256, 1.0)
        bump = np.real(random_field(grid, rng).values)
        bump = 0.5 * bump / np.abs(bump).max()
        rho = (1.0 + bump) ** 2
        psi = ComplexField(grid=grid, values=np.sqrt(rho) + 0j)
        form = polar_decompose(psi)
        q = quantum_potential(form, 1e-30)
        lhs = float(np.sum(form.rho * form.curvature)) * grid.cell_volume
        grad = spectral.derivative(np.sqrt(rho), grid, 0).real
        rhs = -float(np.sum(grad**2)) * grid.cell_volume
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)
        assert form.mean(q.Q) >= 0.0

    def test_all_masked_rejected(self):
        grid = Grid.of(16, 1.0)
        psi = ComplexField(grid=grid, values=np.zeros(16, dtype=complex))
        with pytest.raises(ValueError):
            quantum_potential(polar_decompose(psi), 1e-30)

    def test_zero_field_has_no_polar_form(self):
        # so no mean, RMS or phase-gradient momentum of a zero field can read NaN
        psi = ComplexField(grid=Grid.of(16, 1.0), values=np.zeros(16, dtype=complex))
        for build in (madelung.MadelungForm, polar_decompose):
            with pytest.raises(ValueError, match="a zero field has no polar form"):
                build(psi)


class TestCurvatureFromPsi:
    """The curvature differentiates psi, so its rounding grows as eps sqrt(rho_max/rho)
    towards the node floor; for a periodic, band-limited psi nothing else enters."""

    EPS = float(np.finfo(float).eps)

    @pytest.mark.parametrize("n_points, length, center, sigma, modes", [
        ((512,), 1.0, (0.3137,), 0.066, (3,)),
        ((128, 128), 2.0, (1.41, 0.37), 0.136, (-2, 3)),
        ((64, 64, 64), 1.0, (0.236811, 0.801274, 0.582162), 0.07, (-3, -3, -1)),
    ], ids=["1d", "2d", "3d"])
    def test_every_shell_meets_the_psi_rounding_bound(self, n_points, length, center, sigma, modes):
        grid = Grid.of(n_points, (length,) * len(n_points))
        psi = gaussian_packet(GaussianPacketSpec(
            center=center, sigma0=sigma, k_carrier=tuple(2.0 * math.pi * m / length for m in modes)), grid)
        form = polar_decompose(psi)
        keep = ~form.branch_mask
        error = np.abs(form.curvature - wrapped_gaussian_curvature(grid, center, sigma))[keep]
        k_nyquist = max(math.pi * n / length for n in n_points)
        bound = 4.0 * self.EPS * np.sqrt(form.rho.max() / form.rho[keep]) * k_nyquist**2
        # the shells down to the node floor are all populated
        assert form.rho[keep].min() < 1e-11 * form.rho.max()
        assert np.all(error <= bound), float(np.max(error / bound))

    def test_a_packet_cut_at_the_box_edge_breaks_the_band_limit(self):
        # one image only: psi is 1.5e-5 of its peak at the seam, where its slope jumps
        sigma = 0.075
        grid = Grid.of(512, 1.0)
        d = grid.axis(0) - 0.5
        psi = ComplexField(grid=grid, values=np.exp(-d**2 / (4.0 * sigma**2) + 6j * math.pi * d))
        form = polar_decompose(psi)
        error = np.abs(form.curvature - wrapped_gaussian_curvature(grid, (0.5,), sigma, images=(0,)))
        assert error[np.abs(d) <= 2.0 * sigma].max() > 1e-7 / sigma**2

    def test_cli_defect_of_a_wrapped_packet_is_the_analytic_rms(self, tmp_path):
        # the seed-3 packet of the cli_field3d benchmark, in full precision: rounding its
        # centre to 6 digits moves one point across the node floor
        sigma, center = 0.06585649167143624, (0.2368105065960997, 0.8012744652063969, 0.5821620360643678)
        grid = Grid.of((32, 32, 32), (1.0, 1.0, 1.0))
        psi = gaussian_packet(GaussianPacketSpec(
            center=center, sigma0=sigma, k_carrier=(-6.0 * math.pi, -6.0 * math.pi, -2.0 * math.pi)), grid)
        write_field(psi, tmp_path / "packet.csv")
        out = tmp_path / "out"
        assert cli_main(["madelung", "--field", str(tmp_path / "packet.csv"),
                         "--omega-ref-rad-per-s", "1e11", "--output-dir", str(out)]) == 0
        defect = json.loads((out / "summary.json").read_text())["defect_rms_per_cm2"]
        keep = ~polar_decompose(psi).branch_mask
        exact = math.sqrt(float(np.mean(wrapped_gaussian_curvature(grid, center, sigma)[keep] ** 2)))
        assert exact == pytest.approx(1781.3049, rel=1e-7)
        assert defect == pytest.approx(exact, rel=1e-9)


class TestHamiltonJacobi:
    def test_on_shell_plane_wave(self):
        grid = Grid.of(64, 1.0)
        k = 2.0 * math.pi * 4 / grid.lengths[0]
        omega = CGS.c * k
        psi = make_plane_wave(1.0, (k,), grid)
        params = EffectiveMassParams(omega_ref=omega)
        residual = hj_residual(polar_decompose(psi), params, -CGS.hbar * omega)
        assert residual < 1e-8 * CGS.hbar * omega

    def test_box_mode_energy_equals_quantum_potential(self):
        psi, k = box_mode(1)
        params = EffectiveMassParams(omega_ref=CGS.c * k)
        energy = CGS.hbar * CGS.c * k  # E = Q for the standing mode (grad S = 0)
        residual = hj_residual(polar_decompose(psi), params, -energy)
        assert residual < 1e-6 * CGS.hbar * CGS.c * k

    def test_random_field_violates(self, rng):
        grid = Grid.of(128, 1.0)
        psi = random_field(grid, rng)
        params = EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi / grid.lengths[0])
        assert hj_residual(polar_decompose(psi), params, 0.0) > 0.0


class TestContinuity:
    def test_rho_dot_off_the_grid_rejected(self):
        psi, k = box_mode(3)
        with pytest.raises(ValueError, match="rho_dot shape"):
            continuity_residual(polar_decompose(psi), np.zeros(7), EffectiveMassParams(omega_ref=CGS.c * k).m_star)

    def test_stationary_box_mode(self):
        psi, k = box_mode(3)
        params = EffectiveMassParams(omega_ref=CGS.c * k)
        form = polar_decompose(psi)
        residual = continuity_residual(form, np.zeros(form.grid.shape), params.m_star)
        assert residual < 1e-8

    def test_plane_wave(self):
        grid = Grid.of(64, 1.0)
        k = 2.0 * math.pi * 4 / grid.lengths[0]
        psi = make_plane_wave(1.0, (k,), grid)
        params = EffectiveMassParams(omega_ref=CGS.c * k)
        residual = continuity_residual(
            polar_decompose(psi), np.zeros(grid.shape), params.m_star)
        assert residual < 1e-10

    def test_translating_gaussian_fd_limited(self):
        grid = Grid.of(1024, 1.0)
        sigma0 = grid.lengths[0] / 64.0
        k_c = 2.0 * math.pi * 64 / grid.lengths[0]
        psi = normalize(gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=sigma0, k_carrier=(k_c,)), grid))
        params = EffectiveMassParams(omega_ref=CGS.c * k_c)
        spread_time = 2.0 * params.m_star * sigma0**2 / CGS.hbar
        t, delta = 0.2 * spread_time, 1e-4 * spread_time
        mid = evolve_schrodinger(psi, params, t)
        before = evolve_schrodinger(psi, params, t - delta)
        after = evolve_schrodinger(psi, params, t + delta)
        rho_dot = (after.density() - before.density()) / (2.0 * delta)
        residual = continuity_residual(polar_decompose(mid), rho_dot, params.m_star)
        assert residual < 1e-3

    def test_central_difference_residual_falls_as_h_squared(self):
        # psi(t +- h) from the exact propagator, so [rho(t+h) - rho(t-h)]/2h misses d rho/dt
        # by h^2/6 d^3 rho/dt^3 alone, and (hbar/m*) Im(psi* lap psi) must cancel the rest
        grid = Grid.of((32, 32, 32), (1.0, 1.0, 1.0))
        sigma0 = 0.08
        psi = normalize(gaussian_packet(GaussianPacketSpec(
            center=(0.4, 0.5, 0.6), sigma0=sigma0, k_carrier=(4.0 * math.pi, 0.0, -2.0 * math.pi)), grid))
        params = EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi * 8.0)
        spread_time = 2.0 * params.m_star * sigma0**2 / CGS.hbar
        t = 0.2 * spread_time
        form = polar_decompose(evolve_schrodinger(psi, params, t))
        residuals = []
        for h in (0.04 * spread_time, 0.02 * spread_time, 0.01 * spread_time):
            rho_dot = (evolve_schrodinger(psi, params, t + h).density()
                       - evolve_schrodinger(psi, params, t - h).density()) / (2.0 * h)
            residuals.append(continuity_residual(form, rho_dot, params.m_star))
        orders = [math.log2(coarse / fine) for coarse, fine in zip(residuals, residuals[1:])]
        assert all(abs(order - 2.0) < 0.02 for order in orders), orders


# every transform a spectral path may take, so a switch between them cannot hide calls
FFT_TRANSFORMS = ("fftn", "ifftn", "fft", "ifft", "rfftn", "irfftn")


def counting(monkeypatch, module, names):
    """Replace ``module.<name>`` for each name by a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return calls


class TestOnePolarAnalysis:
    """A form computes its curvature and mean |k| in one pass, which every diagnostic shares; the
    terms that one diagnostic reads are derived where it reads them."""

    KERNELS = ["transform", "curvature", "action_gradient_sq", "flux_divergence", "phase_flux"]

    def test_every_diagnostic_shares_one_curvature_and_flux(self, rng, monkeypatch):
        calls = counting(monkeypatch, spectral, self.KERNELS)
        grid = Grid.of((16, 8), (1.0, 0.5))
        psi = normalize(ComplexField(grid=grid, values=1.0 + 0.3 * random_field(grid, rng).values))
        params = EffectiveMassParams(omega_ref=3e11)
        form = polar_decompose(psi)
        assert calls == dict.fromkeys(self.KERNELS, 0)
        quantum_potential(form, params.m_star).Q
        energy_decomposition(psi, params)
        # the pass: the mean |k| from the one n-D transform, then the curvature by line transforms
        assert calls == {**dict.fromkeys(self.KERNELS, 0), "transform": 1, "curvature": 1}
        hj_residual(form, params, 0.0)
        continuity_residual(form, np.zeros(grid.shape), params.m_star)
        phase_gradient_momentum(form)
        # |grad S|^2 once per reader and div f once; the flux rows are never formed whole
        assert calls == {"transform": 1, "curvature": 1, "action_gradient_sq": 2, "flux_divergence": 1,
                         "phase_flux": 0}

    def test_cached_curvature_is_read_only(self, rng):
        form = polar_decompose(random_field(Grid.of(32, 1.0), rng))
        with pytest.raises(ValueError):
            form.curvature[0] = 1.0

    @pytest.mark.parametrize("grid", [Grid.of(32, 1.0), Grid.of((16, 8), (1.0, 0.5)),
                                      Grid.of((8, 10, 8), (1.0, 0.5, 2.0))], ids=["1d", "2d", "3d"])
    def test_polar_terms_are_read_only_grids(self, grid, rng):
        form = polar_decompose(random_field(grid, rng))
        for values in (form.curvature, form.action_gradient_sq):
            assert isinstance(values, np.ndarray) and values.shape == grid.shape
            with pytest.raises(ValueError):
                values[:] = 0.0

    def test_madelung_step_fft_count(self, tmp_path, monkeypatch):
        # one n-D transform, of psi for pc; every derivative takes 1D transforms along its own
        # axis, one slab of lines at a time, with d psi and d^2 psi from one forward transform:
        # per slab the curvature takes 1 forward and 2 inverse transforms, |grad S|^2 1 and 1
        # (twice: derived for the phase momentum and again for the HJ residual), and div f
        # (continuity) 1 and 1
        grid = Grid.of((24, 24, 24), (1.0, 1.0, 1.0))
        psi = gaussian_packet(GaussianPacketSpec(
            center=(0.5, 0.5, 0.5), sigma0=0.1, k_carrier=(0.0, 2.0 * math.pi, 0.0)), grid)
        write_field(psi, tmp_path / "packet.csv")
        slabs = sum(len(list(spectral._line_slabs(axis, grid, psi.values))) for axis in range(grid.dim))
        assert slabs == 12  # 13,824 points: four slabs per axis
        calls = counting(monkeypatch, np.fft, FFT_TRANSFORMS)
        assert cli_main(["madelung", "--field", str(tmp_path / "packet.csv"),
                         "--next-field", str(tmp_path / "packet.csv"), "--dt-s", "1e-12",
                         "--omega-ref-rad-per-s", "1e11", "--energy-erg", "1e-16",
                         "--output-dir", str(tmp_path / "out")]) == 0
        assert calls == {"fftn": 1, "ifftn": 0, "fft": 4 * slabs, "ifft": 5 * slabs,
                         "rfftn": 0, "irfftn": 0}


class TestFormFromPsiAlone:
    """A form is built from psi alone and derives the rest when it is read."""

    def test_only_psi_is_settable(self, rng):
        psi = random_field(Grid.of(32, 1.0), rng)
        form = polar_decompose(psi)
        assert list(vars(form)) == ["psi"]
        qfield = quantum_potential(form, 1e-30)
        assert list(vars(qfield)) == ["form", "m_star"]

    def test_diagnostics_leave_the_phase_uncomputed(self, rng, monkeypatch):
        # no diagnostic unwraps the phase; S is swept on each read of it, to the same bits
        calls = counting(monkeypatch, np, ["unwrap"])
        grid = Grid.of((16, 8), (1.0, 0.5))
        psi = normalize(ComplexField(grid=grid, values=1.0 + 0.3 * random_field(grid, rng).values))
        params = EffectiveMassParams(omega_ref=3e11)
        form = polar_decompose(psi)
        quantum_potential(form, params.m_star).Q
        energy_decomposition(psi, params)
        hj_residual(form, params, 0.0)
        continuity_residual(form, np.zeros(grid.shape), params.m_star)
        phase_gradient_momentum(form)
        assert calls == {"unwrap": 0}
        first, second = form.action, form.action
        assert calls == {"unwrap": 2 * grid.dim}
        assert "action" not in vars(form) and not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_density_is_derived_on_each_read(self, rng):
        form = polar_decompose(random_field(Grid.of((16, 8), (1.0, 0.5)), rng))
        for name in dir(form):  # every public read, which fills the cached ones
            if not name.startswith("_"):
                getattr(form, name)
        assert "rho" not in vars(form)
        first, second = form.rho, form.rho
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes() == form.psi.density().tobytes()
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_mean_is_the_density_weighted_mean(self, rng):
        form = polar_decompose(random_field(Grid.of((16, 8), (1.0, 0.5)), rng))
        values = random_field(form.grid, rng).values.real
        rho = form.psi.density()
        assert form.mean(values) == float(np.sum(rho * values) / np.sum(rho))

    def test_rms_is_the_masked_rms(self):
        grid = Grid.of(512, 80.0)
        psi = ComplexField(grid=grid, values=np.exp(-((grid.axis(0) - 40.0) ** 2) / 4.0) + 0j)
        form = polar_decompose(psi)
        assert 0 < form.branch_mask.sum() < grid.n_points[0]
        values = np.cos(grid.axis(0))
        keep = ~form.branch_mask
        assert form.rms(values) == math.sqrt(float(np.mean(values[keep] ** 2)))

    @pytest.mark.parametrize("m_star", [0.0, -1e-30, math.inf, math.nan])
    def test_quantum_potential_field_checks_its_mass(self, rng, m_star):
        form = polar_decompose(random_field(Grid.of(32, 1.0), rng))
        with pytest.raises(ValueError, match="m_star"):
            madelung.QuantumPotentialField(form, m_star)

    def test_q_is_read_only(self, rng):
        qfield = quantum_potential(polar_decompose(random_field(Grid.of(32, 1.0), rng)), 1e-30)
        with pytest.raises(ValueError):
            qfield.Q[0] = 1.0


class TestOneFormPerField:
    """polar_decompose hands back the live form of the same field object."""

    def test_same_field_gets_the_same_form(self, rng):
        psi = random_field(Grid.of(32, 1.0), rng)
        form = polar_decompose(psi)
        assert polar_decompose(psi) is form

    def test_equal_but_distinct_field_gets_its_own_form(self, rng):
        psi = random_field(Grid.of(32, 1.0), rng)
        twin = ComplexField(grid=psi.grid, values=psi.values)
        form = polar_decompose(psi)
        other = polar_decompose(twin)
        assert other is not form and other.psi is twin
        assert np.array_equal(other.rho, form.rho) and np.array_equal(other.action, form.action)

    def test_form_arrays_are_read_only(self, rng):
        form = polar_decompose(random_field(Grid.of(32, 1.0), rng))
        for arr in (form.rho, form.action, form.branch_mask, form.curvature, form.action_gradient_sq):
            with pytest.raises(ValueError):
                arr[0] = arr[1]

    def test_entry_dies_with_its_form(self, rng):
        psi = random_field(Grid.of(32, 1.0), rng)
        form = polar_decompose(psi)
        assert madelung._FORMS.get(id(psi)) is form
        del form
        gc.collect()
        assert id(psi) not in madelung._FORMS

    def test_energy_decomposition_reuses_the_callers_form(self, rng, monkeypatch):
        grid = Grid.of((16, 8), (1.0, 0.5))
        psi = normalize(ComplexField(grid=grid, values=1.0 + 0.3 * random_field(grid, rng).values))
        params = EffectiveMassParams(omega_ref=3e11)
        form = polar_decompose(psi)
        quantum_potential(form, params.m_star).Q
        calls = counting(monkeypatch, spectral, ["curvature", "power_mean"])
        transforms = counting(monkeypatch, np.fft, ["fftn", "fft"])
        energy_decomposition(psi, params)
        assert calls == {"curvature": 0, "power_mean": 0}
        assert transforms == {"fftn": 0, "fft": 0}


class TestEnergyDecomposition:
    def test_plane_wave(self):
        grid = Grid.of(64, 1.0)
        k = 2.0 * math.pi * 4 / grid.lengths[0]
        omega = CGS.c * k
        psi = normalize(make_plane_wave(1.0, (k,), grid))
        result = energy_decomposition(psi, EffectiveMassParams(omega_ref=omega))
        expected = CGS.hbar * CGS.c * k
        assert abs(result.pc / expected - 1.0) < 1e-12
        assert abs(result.Q_mean) < 1e-9 * expected
        assert abs(result.E / (CGS.hbar * omega) - 1.0) < 1e-9

    def test_box_mode_reports_both_momenta(self):
        # Q_n = n pi hbar c / a is the energy level; the spectral |k| mean
        # still sees hbar k while the phase-gradient momentum vanishes.
        a = 1.0
        for n in (1, 2, 3):
            psi, k_n = box_mode(n, a=a)
            params = EffectiveMassParams(omega_ref=CGS.c * k_n)
            result = energy_decomposition(psi, params)
            q_expected = n * math.pi * CGS.hbar * CGS.c / a
            assert abs(result.Q_mean / q_expected - 1.0) < 1e-6
            assert abs(result.pc / (CGS.hbar * CGS.c * k_n) - 1.0) < 1e-9
            assert phase_gradient_momentum(polar_decompose(psi)) * CGS.c < 1e-6 * q_expected

    def test_oscillator_zero_point(self):
        omega_ref = 2.0 * math.pi * 1e10
        params = EffectiveMassParams(omega_ref=omega_ref)
        beta = 3.7e-20  # potential curvature [erg/cm^2]
        omega_0 = math.sqrt(2.0 * beta * CGS.c**2 / (CGS.hbar * omega_ref))
        assert abs(omega_0 - math.sqrt(beta / params.m_star)) < 1e-6 * omega_0
        sigma = math.sqrt(CGS.hbar / (2.0 * params.m_star * omega_0))
        grid = Grid.of(1024, 24.0 * sigma)
        center = 12.0 * sigma
        psi = normalize(gaussian_packet(
            GaussianPacketSpec(center=(center,), sigma0=sigma, k_carrier=(0.0,)), grid))
        q = quantum_potential(polar_decompose(psi), params.m_star)
        x = grid.axis(0) - center
        zero_point = 0.5 * CGS.hbar * omega_0
        window = np.abs(x) <= 3.0 * sigma
        total = q.Q + 0.5 * beta * x**2
        assert np.abs(total[window] / zero_point - 1.0).max() < 1e-6
        # peak value alone is the zero-point energy
        peak_idx = int(np.argmax(psi.density()))
        assert abs(q.Q[peak_idx] / zero_point - 1.0) < 1e-6

    def test_zero_equation_for_commensurate_plane_waves(self):
        grid = Grid.of(64, 1.0)
        for mode in (1, 2, 5, 9):
            k = 2.0 * math.pi * mode / grid.lengths[0]
            omega = CGS.c * k
            psi = normalize(make_plane_wave(1.0, (k,), grid))
            result = energy_decomposition(psi, EffectiveMassParams(omega_ref=omega))
            assert abs(result.E - result.pc - result.Q_mean) < 1e-9 * result.E

    def test_unnormalized_rejected(self):
        grid = Grid.of(64, 1.0)
        psi = ComplexField(grid=grid, values=2.0 * np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            energy_decomposition(psi, EffectiveMassParams(omega_ref=1e10))

    def test_norm_off_by_more_than_norm_tol_rejected(self):
        # the tolerance of a dump's "normalized" flag, not a looser one of its own
        psi = normalize(make_plane_wave(1.0, (2.0 * math.pi,), Grid.of(64, 1.0)))
        off = ComplexField(grid=psi.grid, values=psi.values * (1.0 + 1e-8))
        with pytest.raises(ValueError, match="normalized"):
            energy_decomposition(off, EffectiveMassParams(omega_ref=1e10))


def _gaussian_qfield(sigma=3.0, m_star=1e-37):
    grid = Grid.of(1024, 24.0 * sigma)
    center = 12.0 * sigma
    psi = gaussian_packet(
        GaussianPacketSpec(center=(center,), sigma0=sigma, k_carrier=(0.0,)), grid)
    return quantum_potential(polar_decompose(psi), m_star), center, sigma


class TestBohmTrajectories:
    def test_classical_regime_straight_line(self):
        qfield, center, sigma = _gaussian_qfield()
        m_star = qfield.m_star
        p0 = m_star * 1e5  # 1 km/s in cm/s
        dt = 1e-6
        traj = run_trajectory(qfield, [[center]], [[p0]], dt, n_steps=50, regime="classical")
        expected = center + (p0 / m_star) * traj.times
        np.testing.assert_allclose(traj.positions[:, 0, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(traj.momenta[:, 0, 0], p0, rtol=1e-12)

    def test_negative_dt_runs_backward(self):
        # bohm_step refuses a non-finite dt, not a negative one
        qfield, center, sigma = _gaussian_qfield()
        p0 = qfield.m_star * 1e5
        traj = run_trajectory(qfield, [[center]], [[p0]], -1e-6, n_steps=50, regime="classical")
        assert traj.status == "ok" and traj.times[-1] < 0.0
        np.testing.assert_allclose(traj.positions[:, 0, 0], center + 1e5 * traj.times, rtol=1e-12)

    def test_constant_q_massless(self):
        grid = Grid.of(128, 10.0)
        psi = ComplexField(grid=grid, values=np.ones(128, dtype=complex))
        qfield = quantum_potential(polar_decompose(psi), 1e-30)
        dt = 1e-12
        traj = run_trajectory(qfield, [[1.0]], [[1e-20]], dt, n_steps=20, regime="massless")
        np.testing.assert_allclose(traj.momenta[:, 0, 0], 1e-20, rtol=1e-12)
        speeds = np.diff(traj.positions[:, 0, 0]) / dt
        np.testing.assert_allclose(speeds, CGS.c, rtol=1e-9)

    def test_momentum_change_matches_gradient(self):
        # box tight enough (L = 10 sigma) that the wrapped density stays above
        # the floor everywhere: no mask, so the spectral gradient is clean
        sigma, m_star = 3.0, 1e-37
        grid = Grid.of(1024, 10.0 * sigma)
        center = 5.0 * sigma
        psi = gaussian_packet(
            GaussianPacketSpec(center=(center,), sigma0=sigma, k_carrier=(0.0,)), grid)
        qfield = quantum_potential(polar_decompose(psi), m_star)
        assert not qfield.form.branch_mask.any()
        x0 = center + sigma
        # closed-form force -dQ/dx at x0 for the Gaussian density
        force_exact = (CGS.hbar**2 / (2.0 * m_star)) * ((x0 - center) / (2.0 * sigma**4))
        interp = QuantumPotentialInterpolator(qfield)
        for dt in (1e-11, 5e-12):
            _, p1, masked = bohm_step(np.array([[x0]]), np.array([[0.0]]), dt, "massive", interp)
            assert not masked.any()
            rel = abs(p1[0, 0] - force_exact * dt) / (abs(force_exact) * dt)
            assert rel < 1e-5

    def test_masked_region_terminates(self):
        sigma = 1.0
        grid = Grid.of(512, 80.0 * sigma)
        center = 40.0 * sigma
        values = np.exp(-((grid.axis(0) - center) ** 2) / (4.0 * sigma**2))
        psi = ComplexField(grid=grid, values=values + 0j)
        qfield = quantum_potential(polar_decompose(psi), 1e-37)
        m_star = qfield.m_star
        v = 1e3
        traj = run_trajectory(
            qfield, [[center]], [[m_star * v]], dt=sigma / v / 10.0, n_steps=200, regime="classical")
        assert traj.status == "terminated_masked"
        assert traj.last_step[0] < 200
        assert traj.positions[-1, 0, 0] < center + 12.0 * sigma

    @pytest.mark.parametrize("regime", ["massless", "massive", "classical"])
    @pytest.mark.parametrize("n_points", [(1024,), (32, 32, 32)], ids=["1d", "3d"])
    def test_ensemble_matches_single_particle_runs(self, rng, regime, n_points):
        sigma, m_star = 3.0, 1e-37
        dim = len(n_points)
        grid = Grid.of(n_points, (10.0 * sigma,) * dim)
        center = 5.0 * sigma
        psi = gaussian_packet(
            GaussianPacketSpec(center=(center,) * dim, sigma0=sigma, k_carrier=(0.0,) * dim), grid)
        qfield = quantum_potential(polar_decompose(psi), m_star)
        # speeds at which the quantum force bends a path by about as much as
        # the initial momentum carries it over the run
        speed = CGS.c if regime == "massless" else 2e8
        x0 = center + rng.uniform(-sigma, sigma, size=(5, dim))
        p0 = m_star * rng.normal(0.0, 2e8, size=(5, dim))
        dt = 0.1 * sigma / (20 * speed)
        ensemble = run_trajectory(qfield, x0, p0, dt, 20, regime)
        assert ensemble.status == "ok"
        assert ensemble.positions.shape == ensemble.momenta.shape == (21, 5, dim)
        for i in range(len(x0)):
            alone = run_trajectory(qfield, x0[i:i + 1], p0[i:i + 1], dt, 20, regime)
            assert np.array_equal(ensemble.times, alone.times)
            assert np.array_equal(ensemble.positions[:, i:i + 1], alone.positions)
            assert np.array_equal(ensemble.momenta[:, i:i + 1], alone.momenta)

    def test_status_is_read_from_last_step(self):
        times, states = np.arange(3.0), np.zeros((3, 2, 1))
        assert "status" not in {f.name for f in dataclasses.fields(madelung.BohmTrajectory)}
        for last_step, status in (([2, 2], "ok"), ([1, 2], "terminated_masked")):
            traj = madelung.BohmTrajectory(times, states, states, np.array(last_step))
            assert traj.status == status

    def test_masked_particle_freezes_while_others_finish(self, tmp_path):
        grid = Grid.of(512, 80.0)
        values = np.exp(-((grid.axis(0) - 40.0) ** 2) / 4.0)
        psi = ComplexField(grid=grid, values=values + 0j)
        omega_ref = 2e-37 * CGS.c**2 / CGS.hbar
        qfield = quantum_potential(polar_decompose(psi), EffectiveMassParams(omega_ref).m_star)
        # the node floor lies 7.43 cm from the centre: the first particle
        # crosses it in its 75th step of 0.1 cm, the others barely move
        x0, p0 = [[40.0], [41.0], [39.0]], [[1e-34], [0.0], [-1e-36]]
        traj = run_trajectory(qfield, x0, p0, 1e-4, 200, "classical")
        assert traj.status == "terminated_masked"
        assert traj.last_step.tolist() == [74, 200, 200]
        assert np.all(traj.positions[75:, 0] == traj.positions[74, 0])
        for i in range(3):
            alone = run_trajectory(qfield, x0[i:i + 1], p0[i:i + 1], 1e-4, 200, "classical")
            assert np.array_equal(traj.positions[:, i:i + 1], alone.positions)
            assert alone.last_step[0] == traj.last_step[i]

        write_field(psi, tmp_path / "packet.csv")
        out = tmp_path / "bohm"
        assert cli_main(["bohm", "--field", str(tmp_path / "packet.csv"),
                         "--omega-ref-rad-per-s", repr(omega_ref), "--regime", "classical",
                         "--seed-positions", "40;41;39", "--seed-momenta", "1e-34;0;-1e-36",
                         "--dt-s", "1e-4", "--steps", "200", "--output-dir", str(out)]) == 0
        with (out / "trajectories.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        for i, last in enumerate([74, 200, 200]):
            mine = [r for r in rows if r[0] == str(i)]
            assert [r[1] for r in mine] == [str(s) for s in range(last + 1)]
            expected = ["ok"] * last + ["terminated_masked" if last < 200 else "ok"]
            assert [r[-1] for r in mine] == expected
        assert float(rows[74][3]) == traj.positions[74, 0, 0]

    GRIDS = pytest.mark.parametrize("n_points, lengths", [
        (64, 1.0), ((16, 24), (1.0, 1.5)), ((12, 10, 8), (1.0, 0.8, 0.6))])

    @staticmethod
    def _random_gradient(rng, n_points, lengths):
        grid = Grid.of(n_points, lengths)
        qfield = quantum_potential(polar_decompose(normalize(random_field(grid, rng))), 1e-37)
        gradients = np.stack([spectral.derivative(qfield.Q, grid, i).real for i in range(grid.dim)], axis=-1)
        return grid, QuantumPotentialInterpolator(qfield), gradients

    @GRIDS
    def test_prefiltered_spline_matches_per_call_prefilter(self, rng, n_points, lengths):
        # scipy's recursive prefilter and spline are the reference; the
        # interpolator divides in Fourier space instead, so they agree to rounding
        from scipy import ndimage

        grid, interp, gradients = self._random_gradient(rng, n_points, lengths)
        x = rng.uniform(-1.0, 2.0, size=(20, grid.dim)) * np.asarray(grid.lengths)
        idx = (np.mod(x, grid.lengths) / grid.spacings).T
        expected = np.stack([
            ndimage.map_coordinates(gradients[..., i], idx, order=3, mode="grid-wrap", prefilter=True)
            for i in range(grid.dim)], axis=-1)
        assert np.max(np.abs(interp.grad_q_at(x) - expected)) <= 1e-12 * np.max(np.abs(gradients))

    @GRIDS
    def test_spline_returns_the_samples_at_grid_nodes(self, rng, n_points, lengths):
        grid, interp, gradients = self._random_gradient(rng, n_points, lengths)
        nodes = np.stack(np.meshgrid(*(grid.axis(i) for i in range(grid.dim)), indexing="ij"), axis=-1)
        got = interp.grad_q_at(nodes.reshape(-1, grid.dim))
        error = np.max(np.abs(got - gradients.reshape(-1, grid.dim)))
        assert error <= 1e-13 * np.max(np.abs(gradients))

    @GRIDS
    def test_point_value_does_not_depend_on_ensemble_size(self, rng, n_points, lengths):
        grid, interp, _ = self._random_gradient(rng, n_points, lengths)
        x = rng.uniform(-1.0, 2.0, size=(1000, grid.dim)) * np.asarray(grid.lengths)
        together = interp.grad_q_at(x)
        for i in rng.choice(1000, size=25, replace=False):
            assert interp.grad_q_at(x[i:i + 1]).tobytes() == together[i:i + 1].tobytes()

    @pytest.mark.parametrize("x0, p0", [([[1.0]], [[0.0], [0.0]]), ([1.0], [0.0]), ([[1.0, 1.0]], [[0.0, 0.0]])],
                             ids=["counts-differ", "not-2d", "other-dimension"])
    def test_seeds_that_are_no_ensemble_rejected(self, x0, p0):
        qfield, _, _ = _gaussian_qfield()
        with pytest.raises(ValueError, match=r"x0 and p0 must both be \(n_particles, 1\) arrays"):
            run_trajectory(qfield, x0, p0, 1e-6, 1, "classical")

    def test_bad_regime_rejected(self):
        qfield, center, _ = _gaussian_qfield()
        interp = QuantumPotentialInterpolator(qfield)
        with pytest.raises(ValueError):
            bohm_step(np.array([[center]]), np.array([[0.0]]), 1e-6, "ballistic", interp)
