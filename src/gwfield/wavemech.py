"""Spectral propagators for the second-order wave equation and its
first-order (Schrodinger-shaped) reduction, plus dispersion diagnostics.

Both propagators are exact per-Fourier-mode maps, not time steppers: the wave
equation rotates each mode at omega_k = c*sqrt(k^2 + mu^2), and the
first-order equation multiplies each mode by exp(-i(hbar k^2/(2 m*) + V0) t).
The contrast between the two is the point: the one-way wave-equation packet
translates rigidly, while the first-order evolution disperses a packet with
the free Gaussian width law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS, require_nonnegative, require_positive
from .fields import ComplexField, Grid
from . import spectral


@dataclass(frozen=True)
class EffectiveMassParams:
    """Frequency-dependent coefficients of the first-order evolution.

    ``omega_ref`` is the reference (carrier) angular frequency; for a
    broadband field the caller chooses it explicitly.  Derived values:
    k0 = omega_ref/c, m_star = hbar*omega_ref/(2 c^2) = hbar*k0/(2c) [g], and
    the constant potential V0 = mu^2 c / k0 expressed as an angular frequency
    [rad/s] (multiply by hbar for ergs).  An ``omega_ref`` whose m_star underflows
    to 0, or a ``mu`` whose V0 is not a finite float, is refused by name.
    """

    omega_ref: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        require_positive("omega_ref", self.omega_ref)
        require_nonnegative("mu", self.mu)
        if self.m_star == 0.0:
            raise ValueError(f"omega_ref = {self.omega_ref!r} underflows m_star = hbar*omega_ref/(2 c^2) to 0")
        try:
            v0 = self.v0
        except OverflowError:  # mu**2 beyond the float range
            v0 = math.inf
        if not math.isfinite(v0):
            raise ValueError(f"mu = {self.mu!r} gives no finite V0 = mu^2 c/k0 (k0 = {self.k0!r})")

    @property
    def k0(self) -> float:
        return self.omega_ref / CGS.c

    @property
    def m_star(self) -> float:
        return CGS.hbar * self.omega_ref / (2.0 * CGS.c**2)

    @property
    def v0(self) -> float:
        """Constant potential as an angular frequency [rad/s]; 0 when mu = 0."""
        return self.mu**2 * CGS.c / self.k0


@dataclass(frozen=True)
class ClassicalWaveState:
    """(psi, d psi/dt) pair; the wave equation needs both initial data."""

    psi: ComplexField
    psi_dot: ComplexField

    def __post_init__(self) -> None:
        if self.psi.grid != self.psi_dot.grid:
            raise ValueError("psi and psi_dot must share a grid")

    @property
    def grid(self) -> Grid:
        return self.psi.grid


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Gaussian wave packet: |psi|^2 has standard deviation sigma0 per axis."""

    center: tuple[float, ...]
    sigma0: float
    k_carrier: tuple[float, ...]
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "k_carrier", tuple(float(k) for k in self.k_carrier))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        require_positive("sigma0", self.sigma0)


def gaussian_packet(spec: GaussianPacketSpec, grid: Grid) -> ComplexField:
    """Sample the packet, wrapping periodic images so the field is exactly
    periodic.  sigma0 must be resolvable (> 2 dx) and box-isolated (< L/8).
    """
    if len(spec.center) != grid.dim or len(spec.k_carrier) != grid.dim:
        raise ValueError("center and k_carrier dimensionality must match the grid")
    if spec.sigma0 <= 2.0 * max(grid.spacings):
        raise ValueError("sigma0 must exceed twice the grid spacing")
    if spec.sigma0 >= min(grid.lengths) / 8.0:
        raise ValueError("sigma0 must be smaller than length/8")
    values = np.full(grid.shape, spec.amplitude, dtype=np.complex128)
    for i in range(grid.dim):
        x = grid.axis(i)
        length = grid.lengths[i]
        profile = np.zeros(x.shape, dtype=np.complex128)
        for image in range(-3, 4):
            d = x - spec.center[i] + image * length
            profile += np.exp(-(d**2) / (4.0 * spec.sigma0**2) + 1j * spec.k_carrier[i] * d)
        values = values * profile.reshape([-1 if j == i else 1 for j in range(grid.dim)])
    values.setflags(write=False)
    return ComplexField(grid=grid, values=values)


def _schrodinger_rate(k_sq: np.ndarray, params: EffectiveMassParams) -> np.ndarray:
    """Angular frequency hbar k^2/(2 m*) + V0 [rad/s] of each first-order mode, in ``k_sq``."""
    k_sq *= CGS.hbar
    k_sq /= 2.0 * params.m_star
    k_sq += params.v0
    return k_sq


def evolve_schrodinger(psi: ComplexField, params: EffectiveMassParams, t: float) -> ComplexField:
    """Advance the first-order equation by time t (exact spectral map).

    Each mode k acquires the phase exp(-i [hbar k^2/(2 m*) + V0] t).  The map
    is unitary, so the norm is conserved to rounding.  The phase is applied
    as one factor per axis and the scalar exp(-i V0 t), with no k^2 mesh.
    """
    require_nonnegative("t", t)
    grid = psi.grid
    spec = spectral.transform(psi.values, grid)
    kinetic = CGS.hbar * t / (2.0 * params.m_star)
    for k in spectral.wavenumbers(grid):
        spec *= np.exp(-1j * kinetic * (k * k))
    spec *= np.exp(-1j * params.v0 * t)
    return _field_from_spectrum(spec, grid)


def _field_from_spectrum(spec: np.ndarray, grid: Grid) -> ComplexField:
    """The field whose transform is ``spec``, inverted in place and adopted by the field."""
    values = spectral.inverse(spec, grid)
    values.setflags(write=False)
    return ComplexField(grid=grid, values=values)


def schrodinger_energy(psi: ComplexField, params: EffectiveMassParams) -> float:
    """hbar <hbar k^2/(2 m*) + V0> [erg] over the power spectrum, which
    :func:`evolve_schrodinger` conserves mode by mode."""
    return CGS.hbar * spectral.power_mean(psi.values, psi.grid, lambda k_sq: _schrodinger_rate(k_sq, params))


def evolve_classical_wave(state: ClassicalWaveState, mu: float, t: float) -> ClassicalWaveState:
    """Advance the wave equation by time t (exact per-mode rotation).

    Modes with omega_k = c*sqrt(k^2 + mu^2) > 0 rotate; the k = 0 mode of the
    massless equation is secular and evolves linearly in t.  The rotation overwrites
    the two spectra chunk by chunk: omega is its one full-grid temporary.
    """
    require_nonnegative("mu", mu)
    grid = state.grid
    omega = spectral.k_squared(grid)
    omega += mu**2
    np.sqrt(omega, out=omega)
    omega *= CGS.c
    psi_hat = spectral.transform(state.psi.values, grid)
    dot_hat = spectral.transform(state.psi_dot.values, grid)
    for w, p, d in spectral.flat_chunks(omega, psi_hat, dot_hat):
        zero = w == 0.0
        w_safe = np.where(zero, 1.0, w)
        cos_t = np.cos(w * t)
        sin_t = np.sin(w * t)
        new_psi = p * cos_t + d * sin_t / w_safe
        new_dot = -p * w * sin_t + d * cos_t
        p[...] = np.where(zero, p + d * t, new_psi)
        d[...] = np.where(zero, d, new_dot)
    return ClassicalWaveState(psi=_field_from_spectrum(psi_hat, grid),
                              psi_dot=_field_from_spectrum(dot_hat, grid))


def right_moving_state(psi: ComplexField) -> ClassicalWaveState:
    """Initial data psi_dot = -c dpsi/dx for rigid translation at +c (1D)."""
    if psi.grid.dim != 1:
        raise ValueError("one-way initial data is defined for 1D grids")
    dpsi = spectral.derivative(psi.values, psi.grid, 0)
    dpsi *= -CGS.c
    dpsi.setflags(write=False)
    return ClassicalWaveState(psi=psi, psi_dot=ComplexField(grid=psi.grid, values=dpsi))


def wave_energy(state: ClassicalWaveState, mu: float) -> float:
    """Conserved functional int [ |psi_dot|^2/c^2 + |grad psi|^2 + mu^2 |psi|^2 ] dV."""
    require_nonnegative("mu", mu)
    psi, grid = state.psi.values, state.grid
    local = np.sum(np.abs(state.psi_dot.values) ** 2) / CGS.c**2 + mu**2 * np.sum(np.abs(psi) ** 2)
    gradient = spectral.power_sum(psi, grid) / psi.size
    return float(local + gradient) * grid.cell_volume


def packet_widths(field: ComplexField) -> tuple[float, ...]:
    """Per-axis |psi|^2 standard deviation, computed with wrapped (circular)
    displacements so a packet straddling the periodic seam is measured
    correctly.  Meaningful for localized packets (sigma << L).
    """
    rho = field.density()
    total = rho.sum()
    if total <= 0.0:
        raise ValueError("width of a zero field is undefined")
    grid = field.grid
    widths = []
    for i in range(grid.dim):
        length = grid.lengths[i]
        x = grid.axis(i)
        axes = tuple(j for j in range(grid.dim) if j != i)
        marginal = rho.sum(axis=axes) if axes else rho
        angle = 2.0 * np.pi * x / length
        mean_angle = math.atan2(
            float(np.sum(marginal * np.sin(angle))), float(np.sum(marginal * np.cos(angle)))
        )
        center = (mean_angle / (2.0 * np.pi)) * length % length
        d = (x - center + 0.5 * length) % length - 0.5 * length
        var = float(np.sum(marginal * d**2) / marginal.sum())
        widths.append(math.sqrt(var))
    return tuple(widths)
