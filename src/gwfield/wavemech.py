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

from .constants import CGS
from .fields import ComplexField, Grid, node_mask
from . import spectral


@dataclass(frozen=True)
class EffectiveMassParams:
    """Frequency-dependent coefficients of the first-order evolution.

    ``omega_ref`` is the reference (carrier) angular frequency; for a
    broadband field the caller chooses it explicitly.  Derived values:
    k0 = omega_ref/c, m_star = hbar*omega_ref/(2 c^2) = hbar*k0/(2c) [g], and
    the constant potential V0 = mu^2 c / k0 expressed as an angular frequency
    [rad/s] (multiply by hbar for ergs).
    """

    omega_ref: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not (self.omega_ref > 0.0 and math.isfinite(self.omega_ref)):
            raise ValueError("omega_ref must be finite and positive")
        if self.mu < 0.0:
            raise ValueError("mu must be >= 0")

    @property
    def k0(self) -> float:
        return self.omega_ref / CGS.c

    @property
    def m_star(self) -> float:
        return CGS.hbar * self.omega_ref / (2.0 * CGS.c**2)

    @property
    def v0(self) -> float:
        """Constant potential as an angular frequency [rad/s]; 0 when mu = 0."""
        if self.mu == 0.0:
            return 0.0
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
        if not (self.sigma0 > 0.0 and math.isfinite(self.sigma0)):
            raise ValueError("sigma0 must be finite and positive")


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
        shape = [1] * grid.dim
        shape[i] = len(x)
        values = values * profile.reshape(shape)
    return ComplexField(grid=grid, values=values)


def _schrodinger_rate(k_sq: np.ndarray, params: EffectiveMassParams) -> np.ndarray:
    """Angular frequency hbar k^2/(2 m*) + V0 [rad/s] of each first-order mode."""
    return CGS.hbar * k_sq / (2.0 * params.m_star) + params.v0


def evolve_schrodinger(psi: ComplexField, params: EffectiveMassParams, t: float) -> ComplexField:
    """Advance the first-order equation by time t (exact spectral map).

    Each mode k acquires the phase exp(-i [hbar k^2/(2 m*) + V0] t).  The map
    is unitary, so the norm is conserved to rounding.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    grid = psi.grid
    rate = _schrodinger_rate(spectral.k_squared(grid), params)
    spec_values = np.fft.fftn(psi.values) * np.exp(-1j * rate * t)
    return ComplexField(grid=grid, values=np.fft.ifftn(spec_values))


def schrodinger_energy(psi: ComplexField, params: EffectiveMassParams) -> float:
    """hbar <hbar k^2/(2 m*) + V0> [erg] over the power spectrum, which
    :func:`evolve_schrodinger` conserves mode by mode."""
    return CGS.hbar * spectral.power_mean(psi.values, psi.grid,
                                          lambda k_sq: _schrodinger_rate(k_sq, params))


def evolve_classical_wave(state: ClassicalWaveState, mu: float, t: float) -> ClassicalWaveState:
    """Advance the wave equation by time t (exact per-mode rotation).

    Modes with omega_k = c*sqrt(k^2 + mu^2) > 0 rotate; the k = 0 mode of the
    massless equation is secular and evolves linearly in t.
    """
    grid = state.grid
    k_sq = spectral.k_squared(grid)
    omega = CGS.c * np.sqrt(k_sq + mu**2)
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
    return ClassicalWaveState(
        psi=ComplexField(grid=grid, values=np.fft.ifftn(new_psi)),
        psi_dot=ComplexField(grid=grid, values=np.fft.ifftn(new_dot)),
    )


def right_moving_state(psi: ComplexField) -> ClassicalWaveState:
    """Initial data psi_dot = -c dpsi/dx for rigid translation at +c (1D)."""
    if psi.grid.dim != 1:
        raise ValueError("one-way initial data is defined for 1D grids")
    dpsi = spectral.gradient(psi.values, psi.grid)[0]
    return ClassicalWaveState(psi=psi, psi_dot=ComplexField(grid=psi.grid, values=-CGS.c * dpsi))


def wave_energy(state: ClassicalWaveState, mu: float) -> float:
    """Conserved functional int [ |psi_dot|^2/c^2 + |grad psi|^2 + mu^2 |psi|^2 ] dV."""
    grid = state.grid
    k_sq = spectral.k_squared(grid)
    psi_hat = np.fft.fftn(state.psi.values)
    dot_hat = np.fft.fftn(state.psi_dot.values)
    n_total = float(np.prod(grid.n_points))
    weight = grid.cell_volume / n_total
    total = np.sum(np.abs(dot_hat) ** 2) / CGS.c**2 + np.sum((k_sq + mu**2) * np.abs(psi_hat) ** 2)
    return float(total) * weight


def wave_charge_density(state: ClassicalWaveState) -> np.ndarray:
    """Time component of the second-order current, -2 Im(psi* psi_dot).

    Positive for exp(-i omega t) modes, negative for exp(+i omega t) modes:
    sign-indefinite in general, unlike the first-order density hbar k0 |psi|^2.
    """
    return -2.0 * np.imag(np.conj(state.psi.values) * state.psi_dot.values)


def helmholtz_residual(psi: ComplexField, k: float) -> float:
    """|| (lap + k^2) psi || / || psi ||, computed spectrally."""
    norm = psi.norm()
    if norm <= 0.0:
        raise ValueError("helmholtz residual of a zero field is undefined")
    grid = psi.grid
    residual = np.fft.ifftn((k**2 - spectral.k_squared(grid)) * np.fft.fftn(psi.values))
    res_norm = math.sqrt(float(np.sum(np.abs(residual) ** 2)) * grid.cell_volume)
    return res_norm / norm


def dispersion_defect(psi: ComplexField, omega: float, mu: float, k: float) -> float:
    """Volume-RMS of k^2 - omega^2/c^2 + mu^2 - lap(sqrt rho)/sqrt(rho).

    Zero iff the generalized dispersion relation holds pointwise.  Points with
    rho below the shared floor are excluded (the curvature is undefined there).
    """
    rho = psi.density()
    mask = node_mask(rho)
    if np.all(mask):
        raise ValueError("dispersion defect is undefined: all points fall below the density floor")
    curvature = spectral.sqrt_density_curvature(rho, psi.grid, mask)
    defect = k**2 - (omega / CGS.c) ** 2 + mu**2 - curvature
    return float(np.sqrt(np.mean(defect[~mask] ** 2)))


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
