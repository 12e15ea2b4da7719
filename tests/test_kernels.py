"""The full-grid kernels: their allocation budgets, and bit equality with the plain
whole-array formulas, written out here, that they compute in place and in chunks."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from gwfield import helicity, madelung, spectral, wavemech
from gwfield.constants import CGS
from gwfield.fields import ComplexField, Grid, make_plane_wave, normalize
from gwfield.wavemech import ClassicalWaveState, EffectiveMassParams, GaussianPacketSpec

from conftest import coordinate_meshes, random_field

GRID = Grid.of((32, 32, 32), (1.0, 1.0, 1.0))
# one full complex grid at 32^3, the unit of the budgets
FULL = 32**3 * 16
# odd-sized grids, and sizes that are not a multiple of spectral.CHUNK or spectral.SLAB
GRIDS = [Grid.of(4100, 1.0), Grid.of((10, 14), (1.0, 2.0)), Grid.of((10, 12, 14), (1.0, 0.5, 3.0)),
         Grid.of((24, 24, 24), (1.0, 1.0, 1.0)), GRID]
IDS = ["1d", "2d", "3d-small", "3d-24", "3d-32"]
# the reads that fill every cached array of a form
FORM_READS = ("curvature", "action_gradient_sq", "mean_wavenumber", "branch_mask")


def packet(grid: Grid) -> ComplexField:
    return normalize(wavemech.gaussian_packet(GaussianPacketSpec(
        center=(0.4, 0.5, 0.6)[:grid.dim], sigma0=0.08,
        k_carrier=(4.0 * math.pi, 0.0, -2.0 * math.pi)[:grid.dim]), grid))


def traced(compute) -> tuple[float, float]:
    """Traced peak of ``compute()`` and what it leaves allocated, both from the traced memory
    before it, in full complex grids.  ``compute`` runs once beforehand, so lazy set-up (FFT
    plans) is not counted."""
    compute()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = compute()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    assert current >= start
    return (peak - start) / FULL, (current - start) / FULL


def traced_beyond_result(compute) -> float:
    """Traced peak of ``compute()`` minus what it leaves allocated, in full complex grids."""
    peak, left = traced(compute)
    return peak - left


def plain_line_derivative(values: np.ndarray, grid: Grid, axis: int, order: int) -> np.ndarray:
    """d^order ``values``/dx_axis^order (order 1 or 2) from 1D transforms of the whole array
    along that grid axis alone: over the grid axes, so of each snapshot of a series."""
    at = np.ndim(values) - grid.dim + axis
    k = spectral.wavenumbers(grid)[axis]
    factor = 1j * k if order == 1 else np.negative(k * k)
    return np.fft.ifft(factor * np.fft.fft(values, axis=at), axis=at)


def plain_flux(psi: ComplexField | helicity.TimeSeriesField) -> np.ndarray:
    """Of a field, or of each snapshot of a series."""
    return np.stack([np.imag(np.conj(psi.values) * plain_line_derivative(psi.values, psi.grid, i, 1))
                     for i in range(psi.grid.dim)])


def plain_laplacian(psi: ComplexField) -> np.ndarray:
    """lap psi through the n-D spectrum: a reference to agree with, not to match bit for bit."""
    return np.fft.ifftn(-spectral.k_squared(psi.grid) * np.fft.fftn(psi.values))


def plain_curvature(psi: ComplexField, mask: np.ndarray) -> np.ndarray:
    """The sum over the axes of [f_i^2/rho + Re(conj(d_i^2 psi) psi)]/rho."""
    values, grid = psi.values, psi.grid
    rho = np.where(mask, 1.0, np.abs(values) ** 2)
    terms = ((f * f / rho + np.real(np.conj(plain_line_derivative(values, grid, i, 2)) * values)) / rho
             for i, f in enumerate(plain_flux(psi)))
    return np.where(mask, 0.0, sum(terms))


def plain_action_gradient_sq(psi: ComplexField, mask: np.ndarray) -> np.ndarray:
    rho = np.where(mask, 1.0, np.abs(psi.values) ** 2)
    return np.where(mask, 0.0, sum((CGS.hbar * f / rho) ** 2 for f in plain_flux(psi)))


def plain_flux_divergence(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Im(psi* lap psi) as -Im(conj(d_0^2 psi) psi) - Im(conj(d_1^2 psi) psi) - ...: the products
    whose real parts the curvature reads (numpy's complex product need not round the two orders
    alike), over the grid axes, so of each snapshot of a series."""
    terms = [np.imag(np.conj(plain_line_derivative(values, grid, i, 2)) * values) for i in range(grid.dim)]
    return functools.reduce(np.subtract, terms[1:], -terms[0])


def nd_flux(psi: ComplexField) -> np.ndarray:
    """The flux through the n-D spectrum, as the kernels formed it before they went axis-local."""
    spec = np.fft.fftn(psi.values)
    return np.stack([np.imag(np.conj(psi.values) * np.fft.ifftn(1j * k * spec))
                     for k in spectral.wavenumbers(psi.grid)])


def nd_curvature(psi: ComplexField, mask: np.ndarray) -> np.ndarray:
    rho = np.where(mask, 1.0, np.abs(psi.values) ** 2)
    curvature = (np.real(np.conj(psi.values) * plain_laplacian(psi)) + sum(f * f for f in nd_flux(psi)) / rho) / rho
    return np.where(mask, 0.0, curvature)


def nd_action_gradient_sq(psi: ComplexField, mask: np.ndarray) -> np.ndarray:
    rho = np.where(mask, 1.0, np.abs(psi.values) ** 2)
    return np.where(mask, 0.0, sum((CGS.hbar * f / rho) ** 2 for f in nd_flux(psi)))


def nd_flux_divergence(psi: ComplexField) -> np.ndarray:
    return -np.imag(np.conj(plain_laplacian(psi)) * psi.values)


def plain_plane_wave(amplitude: complex, k_vec, grid: Grid) -> np.ndarray:
    """A * exp(i k.x) with k.x summed over full coordinate meshes."""
    acc = np.zeros(grid.shape)
    for k, mesh in zip(k_vec, coordinate_meshes(grid)):
        acc = acc + k * mesh
    return amplitude * np.exp(1j * acc)


def commensurate_k(grid: Grid) -> tuple[float, ...]:
    return tuple(2.0 * math.pi * m / length for m, length in zip((3, -2, 1), grid.lengths))


def plain_gradient_spline(values: np.ndarray, grid: Grid) -> np.ndarray:
    spec = np.fft.fftn(values)
    for k, dx in zip(spectral.wavenumbers(grid), grid.spacings):
        spec = spec / ((4.0 + 2.0 * np.cos(k * dx)) / 6.0)
    return np.stack([np.fft.ifftn(1j * k * spec).real for k in spectral.wavenumbers(grid)], axis=-1)


def plain_classical_wave(state: ClassicalWaveState, mu: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    omega = CGS.c * np.sqrt(spectral.k_squared(state.grid) + mu**2)
    psi_hat = np.fft.fftn(state.psi.values)
    dot_hat = np.fft.fftn(state.psi_dot.values)
    zero = omega == 0.0
    omega_safe = np.where(zero, 1.0, omega)
    cos_t = np.cos(omega * t)
    sin_t = np.sin(omega * t)
    new_psi = psi_hat * cos_t + dot_hat * sin_t / omega_safe
    new_dot = -psi_hat * omega * sin_t + dot_hat * cos_t
    new_psi = np.where(zero, psi_hat + dot_hat * t, new_psi)
    new_dot = np.where(zero, dot_hat, new_dot)
    return np.fft.ifftn(new_psi), np.fft.ifftn(new_dot)


def random_series(grid: Grid, rng, n_t: int = 9) -> helicity.TimeSeriesField:
    """An odd count by default: the Nyquist guard of the split then has no bin to read."""
    return helicity.TimeSeriesField(
        grid=grid, values=np.stack([random_field(grid, rng).values for _ in range(n_t)]), dt=1e-12)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestSameBitsAsThePlainFormulas:
    def test_flux(self, grid, rng):
        psi = random_field(grid, rng)
        flux = spectral.phase_flux(psi.values, grid)
        assert bit_equal(flux, plain_flux(psi))

    def test_convection_current(self, grid, rng):
        series = random_series(grid, rng)
        assert bit_equal(helicity.convection_current(series), CGS.hbar * plain_flux(series))

    def test_partial_wave_split(self, grid, rng):
        series = random_series(grid, rng)
        spec = np.fft.fft(series.values, axis=0)
        minus_mask = (np.fft.fftfreq(series.n_snapshots, d=series.dt) <= 0.0).reshape(
            (series.n_snapshots,) + (1,) * grid.dim)
        plus, minus = helicity.partial_wave_split(series)
        assert bit_equal(plus.values, np.fft.ifft(spec * ~minus_mask, axis=0))
        assert bit_equal(minus.values, np.fft.ifft(spec * minus_mask, axis=0))

    def test_curvature(self, grid, rng):
        psi = random_field(grid, rng)
        form = madelung.MadelungForm(psi)
        assert bit_equal(form.curvature, plain_curvature(psi, form.branch_mask))

    def test_action_gradient_sq_and_flux_divergence(self, grid, rng):
        psi = random_field(grid, rng)
        form = madelung.MadelungForm(psi)
        assert bit_equal(form.action_gradient_sq, plain_action_gradient_sq(psi, form.branch_mask))
        assert bit_equal(spectral.flux_divergence(psi.values, grid), plain_flux_divergence(psi.values, grid))

    def test_derivative(self, grid, rng):
        values = random_field(grid, rng).values
        for axis in range(grid.dim):
            assert bit_equal(spectral.derivative(values, grid, axis), plain_line_derivative(values, grid, axis, 1))

    @pytest.mark.parametrize("mu", [0.0, 2.5])
    def test_classical_wave_state(self, grid, rng, mu):
        state = ClassicalWaveState(psi=random_field(grid, rng), psi_dot=random_field(grid, rng))
        t = 0.37 / CGS.c
        moved = wavemech.evolve_classical_wave(state, mu, t)
        psi, psi_dot = plain_classical_wave(state, mu, t)
        assert bit_equal(moved.psi.values, psi) and bit_equal(moved.psi_dot.values, psi_dot)

    def test_power_mean_and_norm_squared(self, grid, rng):
        psi = random_field(grid, rng)
        power = np.abs(np.fft.fftn(psi.values)) ** 2
        weight = np.sqrt(spectral.k_squared(grid))
        mean = spectral.power_mean(psi.values, grid, np.sqrt)
        assert mean == float(np.sum(weight * power)) / float(np.sum(power))
        assert madelung.MadelungForm(psi).mean_wavenumber == mean
        assert psi.norm_squared() == float(np.sum(np.abs(psi.values) ** 2)) * grid.cell_volume

    def test_schrodinger_energy(self, grid, rng):
        psi = random_field(grid, rng)
        params = EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi * 8.0, mu=1.5)
        power = np.abs(np.fft.fftn(psi.values)) ** 2
        rate = CGS.hbar * spectral.k_squared(grid) / (2.0 * params.m_star) + params.v0
        expected = CGS.hbar * (float(np.sum(rate * power)) / float(np.sum(power)))
        assert wavemech.schrodinger_energy(psi, params) == expected

    def test_plane_wave(self, grid):
        k_vec = commensurate_k(grid)
        assert bit_equal(make_plane_wave(0.3 + 0.4j, k_vec, grid).values,
                         plain_plane_wave(0.3 + 0.4j, k_vec, grid))

    def test_gradient_spline(self, grid, rng):
        values = random_field(grid, rng).values.real
        assert bit_equal(spectral.gradient_spline(values, grid), plain_gradient_spline(values, grid))

    def test_continuity_residual(self, grid, rng):
        psi = random_field(grid, rng)
        form = madelung.MadelungForm(psi)
        rho_dot = np.real(random_field(grid, rng).values)
        m_star = 1e-30
        div = (CGS.hbar / m_star) * plain_flux_divergence(psi.values, grid)
        length_scale = grid.volume ** (1.0 / grid.dim)
        floor = (CGS.hbar / m_star) * float(form.rho.max()) / length_scale**2
        expected = form.rms(rho_dot + div) / (float(np.abs(rho_dot).max()) + floor)
        assert madelung.continuity_residual(form, rho_dot, m_star) == expected

    def test_current_continuity(self, grid, rng):
        series = random_series(grid, rng, n_t=8)
        k0 = 2.0 * math.pi * 8.0
        rho_t = CGS.hbar * k0 * np.abs(series.values) ** 2
        rho_dot = (rho_t[2:] - rho_t[:-2]) / (2.0 * series.dt)
        # div(2c j) = 2c hbar Im(psi* lap psi)
        div = plain_flux_divergence(series.values[1:-1], grid) * (2.0 * CGS.c * CGS.hbar)
        length_scale = grid.volume ** (1.0 / grid.dim)
        floor = 2.0 * CGS.c * CGS.hbar * float(np.abs(series.values).max() ** 2) / length_scale**2
        expected = float(np.sqrt(np.mean((rho_dot + div) ** 2))) / (float(np.abs(rho_dot).max()) + floor)
        assert helicity.current_continuity(series, k0) == expected


# max |axis-local - n-D| / max |n-D| allowed on grids of more than one axis: about 4x the
# largest of a sweep of 300 seeds (random fields on GRIDS; packets with sigma in [0.09, 0.12]
# and nonzero carriers on 48x40, 24^3 and 32^3), whose curvature and |grad S|^2 read 5.1e-10
# near the node floor, the flux divergence 5.0e-14 and the flux 3.4e-15
ND_AGREEMENT = {"curvature": 2e-9, "action_gradient_sq": 2e-9, "flux_divergence": 2e-13, "flux": 2e-14}


def assert_as_the_nd_formulas(psi: ComplexField) -> None:
    """The same bits as the n-D formulas on a 1D grid, where the two are one formula, and
    agreement within ND_AGREEMENT elsewhere."""
    form = madelung.MadelungForm(psi)
    mask = form.branch_mask
    terms = {"curvature": (form.curvature, nd_curvature(psi, mask)),
             "action_gradient_sq": (form.action_gradient_sq, nd_action_gradient_sq(psi, mask)),
             "flux_divergence": (spectral.flux_divergence(psi.values, psi.grid), nd_flux_divergence(psi)),
             "flux": (spectral.phase_flux(psi.values, psi.grid), nd_flux(psi))}
    for name, (axis_local, nd) in terms.items():
        if psi.grid.dim == 1:
            assert bit_equal(axis_local, nd), name
        else:
            assert np.abs(axis_local - nd).max() <= ND_AGREEMENT[name] * np.abs(nd).max(), name


# the grids fine enough for packet()'s sigma0 = 0.08, which must exceed twice the spacing
@pytest.mark.parametrize("grid", [g for g in GRIDS if 2.0 * max(g.spacings) < 0.08],
                         ids=[i for g, i in zip(GRIDS, IDS) if 2.0 * max(g.spacings) < 0.08])
def test_packet_polar_terms_as_the_nd_formulas(grid):
    assert_as_the_nd_formulas(packet(grid))


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestAxisLocalAgainstTheNdFormulas:
    """The axis-local kernels against the n-D spectrum formulas they replaced."""

    def test_random_field(self, grid, rng):
        assert_as_the_nd_formulas(random_field(grid, rng))

    def test_derivative(self, grid, rng):
        values = random_field(grid, rng).values
        spec = np.fft.fftn(values)
        for axis, k in enumerate(spectral.wavenumbers(grid)):
            axis_local, nd = spectral.derivative(values, grid, axis), np.fft.ifftn(1j * k * spec)
            if grid.dim == 1:
                assert bit_equal(axis_local, nd)
            else:
                assert np.abs(axis_local - nd).max() <= ND_AGREEMENT["flux"] * np.abs(nd).max()


class TestAllocationBudgets:
    """Each kernel holds at most the stated number of full complex 32^3 grids beyond
    its result (a real grid is half of one).  The plain formulas held 2 to 8.  A derivative's
    slab (spectral.SLAB elements, an eighth of this grid) puts a fixed 2-6 slabs on top: its
    buffers, and numpy's iteration buffers, each as long as a slab, for the broadcast
    wavenumbers and the strided slab operands."""

    @pytest.fixture
    def psi(self):
        return packet(GRID)

    @pytest.fixture
    def params(self):
        return EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi * 8.0, mu=1.5)

    def test_make_plane_wave(self):
        # the complex phase beside the result, and the record's finiteness mask (measured
        # 1.06, against 3.0 when the phase summed full coordinate meshes)
        k_vec = commensurate_k(GRID)
        assert traced_beyond_result(lambda: make_plane_wave(0.3 + 0.4j, k_vec, GRID)) <= 1.5

    def test_evolve_schrodinger(self, psi, params):
        # the spectrum is transformed in place and becomes the result
        assert traced_beyond_result(lambda: wavemech.evolve_schrodinger(psi, params, 1e-12)) <= 0.5

    def test_evolve_classical_wave(self, psi, params):
        # omega, a real grid; the two spectra become the result
        state = ClassicalWaveState(psi=psi, psi_dot=ComplexField(grid=GRID, values=-1j * psi.values))
        assert traced_beyond_result(lambda: wavemech.evolve_classical_wave(state, params.mu, 1e-12)) <= 1.0

    def test_flux(self, psi):
        # slabs of lines only (measured 0.38, against 2.29 with an n-D spectrum and a full
        # gradient component)
        assert traced_beyond_result(lambda: spectral.phase_flux(psi.values, GRID)) <= 0.4

    def test_derivative(self, psi):
        # slabs of lines only (measured 0.26, against 0.25 with an n-D spectrum that became the
        # result: the slabs are the fixed cost of an eighth of a grid each)
        assert traced_beyond_result(lambda: spectral.derivative(psi.values, GRID, 0)) <= 0.3

    def test_flux_divergence(self, psi):
        # slabs of lines only (measured 0.38, against 1.27 with an n-D spectrum)
        assert traced_beyond_result(lambda: spectral.flux_divergence(psi.values, GRID)) <= 0.4

    def test_convection_current(self, rng):
        # in series of 8 snapshots of 32^3 points on a 1D grid, whose one line is a slab: that
        # line's two buffers, and no copy of the current for hbar (measured 0.50, against 1.22
        # with the spectrum of the series and 2.22 with a component buffer and a copy too)
        series = random_series(Grid.of(32**3, 1.0), rng, n_t=8)
        assert traced_beyond_result(lambda: helicity.convection_current(series)) / 8 <= 0.55

    def test_from_fields(self, psi, params):
        # 8 snapshots: the finiteness mask of the stack it adopts (measured 0.50, against
        # 8.50 when the stack was copied)
        fields = [wavemech.evolve_schrodinger(psi, params, m * 1e-13) for m in range(8)]
        assert traced_beyond_result(lambda: helicity.TimeSeriesField.from_fields(fields, dt=1e-13)) <= 1.0

    def test_partial_wave_split(self, psi, params):
        # in series of 9 snapshots, beyond both halves: the spectrum becomes psi_minus and
        # psi_plus is inverted where it is formed, so only a finiteness mask is left (measured
        # 0.06, against 3.06 with two masked spectra inverted into new arrays and copied)
        series = helicity.TimeSeriesField.from_fields(
            [wavemech.evolve_schrodinger(psi, params, m * 1e-13) for m in range(9)], dt=1e-13)
        assert traced_beyond_result(lambda: helicity.partial_wave_split(series)) / 9 <= 0.5

    def test_curvature(self, psi):
        # two derivative buffers per slab and the slab's density, mask complement and term;
        # no flux row, no density grid, and no spectrum (measured 0.77; the n-D pass it
        # replaced, with |grad S|^2 and div f, held 1.78: a spectrum and a gradient component)
        mask = madelung.MadelungForm(psi).branch_mask
        assert traced_beyond_result(lambda: spectral.curvature(psi.values, GRID, mask)) <= 0.8

    def test_action_gradient_sq(self, psi):
        # one derivative buffer per slab and the slab's density (measured 0.38)
        mask = madelung.MadelungForm(psi).branch_mask
        assert traced_beyond_result(lambda: spectral.action_gradient_sq(psi.values, GRID, mask)) <= 0.4

    def test_form_stores_no_density(self, psi):
        # once every public read is made, the form holds the node mask and the curvature alone:
        # S and |grad S|^2 are derived on each read, like the density, and nothing else is kept
        # (measured 0.56, against 1.56 while the form kept all three terms and 2.06 with its
        # density too)
        form = madelung.MadelungForm(psi)
        for name in dir(form):
            if not name.startswith("_"):
                getattr(form, name)
        assert set(vars(form)) == {"psi", "branch_mask", "_pass"}
        stored = [form.branch_mask, form.curvature]
        assert form._pass[0] is form.curvature and all(a.shape == GRID.shape for a in stored)
        assert sum(a.nbytes for a in stored) / FULL <= 0.6

    def test_form_build(self, psi):
        # a form and all of its polar terms, counted whole: the pass's n-D spectrum and the
        # power spectrum that the mean |k| reads, freed before the curvature's slabs, then
        # |grad S|^2 (measured 1.50, against 3.37 while the pass held a spectrum and a gradient
        # component beside three term grids)
        def build():
            form = madelung.MadelungForm(psi)
            for name in FORM_READS:
                getattr(form, name)
            return form
        assert traced(build)[0] <= 1.55

    def test_continuity_residual(self, psi, params):
        # the flux divergence it derives, scaled in place into the residual, with that kernel's
        # slabs, then the unmasked entries the RMS picks (measured 0.96, as when the form kept
        # a flux divergence grid for it, whose 0.5 this budget did not count)
        form = madelung.MadelungForm(psi)
        form.curvature
        rho_dot = np.zeros(GRID.shape)
        assert traced_beyond_result(lambda: madelung.continuity_residual(form, rho_dot, params.m_star)) <= 1.0

    def test_current_continuity(self, psi, params):
        # 8 snapshots: rho_dot and the flux divergence of the 6 interior ones, both real, with
        # slabs of lines (measured 10.00, against 12.00 with their n-D spectrum and 29.0 through
        # the current); no current is built
        series = helicity.TimeSeriesField.from_fields(
            [wavemech.evolve_schrodinger(psi, params, m * 1e-13) for m in range(8)], dt=1e-13)
        assert traced_beyond_result(lambda: helicity.current_continuity(series, params.k0)) <= 10.5

    def test_interpolator(self, psi, params):
        # the spectrum of Q and one complex derivative row beside the real coefficients
        # (measured 2.76, against 6.29 when a complex gradient was spline-filtered again)
        qfield = madelung.quantum_potential(madelung.MadelungForm(psi), params.m_star)
        qfield.form.curvature
        assert traced_beyond_result(lambda: madelung.QuantumPotentialInterpolator(qfield)) <= 3.0

    def test_hj_residual(self, psi, params):
        # the residual and Q, both real, after |grad S|^2 and its slabs (measured 1.00, as when
        # the form kept |grad S|^2, whose 0.5 this budget did not count)
        form = madelung.MadelungForm(psi)
        form.curvature
        assert traced_beyond_result(lambda: madelung.hj_residual(form, params, -1e-16)) <= 1.05
