"""Polar (density/phase) decomposition and everything downstream of it:
the quantum potential, Hamilton-Jacobi and continuity residuals, the
energy split E = pc + Q, and trajectory integration in the gradient of Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .constants import CGS
from .fields import ComplexField, Grid, node_mask
from .wavemech import EffectiveMassParams
from . import spectral

_REGIMES = ("massless", "massive", "classical")


@dataclass(frozen=True)
class MadelungForm:
    """Polar form of a field: density rho, phase S/hbar, and a node mask.

    The phase is unwrapped by 1D sweeps (axis 0 line through the origin, then
    axis 1 lines, then axis 2), resolving each step to the nearest multiple
    of 2*pi.  Where rho falls below the floor the phase is undefined; those
    points are masked and unwrap chains through them are unreliable.
    """

    grid: Grid
    rho: np.ndarray
    phase: np.ndarray
    branch_mask: np.ndarray

    def __post_init__(self) -> None:
        for name in ("rho", "phase", "branch_mask"):
            arr = getattr(self, name)
            if arr.shape != self.grid.shape:
                raise ValueError(f"{name} shape {arr.shape} does not match grid")
        if np.any(self.rho < 0.0):
            raise ValueError("rho must be >= 0 everywhere")

    def action(self) -> np.ndarray:
        """S = hbar * phase [erg s]."""
        return CGS.hbar * self.phase

    def to_field(self) -> ComplexField:
        """Reconstruct sqrt(rho) * exp(i phase)."""
        return ComplexField(grid=self.grid, values=np.sqrt(self.rho) * np.exp(1j * self.phase))


def polar_decompose(psi: ComplexField) -> MadelungForm:
    rho = psi.density()
    mask = node_mask(rho)
    phase = np.angle(psi.values)
    if psi.grid.dim >= 1:
        phase[(slice(None),) + (0,) * (psi.grid.dim - 1)] = np.unwrap(
            phase[(slice(None),) + (0,) * (psi.grid.dim - 1)]
        )
    if psi.grid.dim >= 2:
        sl = (slice(None), slice(None)) + (0,) * (psi.grid.dim - 2)
        phase[sl] = np.unwrap(phase[sl], axis=1)
    if psi.grid.dim == 3:
        phase = np.unwrap(phase, axis=2)
    return MadelungForm(grid=psi.grid, rho=rho, phase=phase, branch_mask=mask)


@dataclass(frozen=True)
class QuantumPotentialField:
    """Q = -(hbar^2 / 2 m*) * lap(sqrt rho)/sqrt(rho) and the bare curvature.

    ``classicality_defect`` is lap(sqrt rho)/sqrt(rho) [1/cm^2]; its vanishing
    is what makes a wave packet non-dispersive, so it doubles as the
    classicality diagnostic.  Masked points carry zeros.
    """

    grid: Grid
    Q: np.ndarray
    classicality_defect: np.ndarray
    m_star: float
    mask: np.ndarray


def quantum_potential(form: MadelungForm, m_star: float) -> QuantumPotentialField:
    if not (m_star > 0.0 and math.isfinite(m_star)):
        raise ValueError("m_star must be finite and positive")
    if np.all(form.branch_mask):
        raise ValueError("density is below the floor everywhere")
    defect = spectral.sqrt_density_curvature(form.rho, form.grid, form.branch_mask)
    q = -(CGS.hbar**2) / (2.0 * m_star) * defect
    return QuantumPotentialField(
        grid=form.grid, Q=q, classicality_defect=defect, m_star=m_star, mask=form.branch_mask
    )


def _action_gradient_sq(form: MadelungForm) -> np.ndarray:
    """|grad S|^2 [erg^2 s^2/cm^2] extracted from the reconstructed field.

    Im(psi* grad psi) = rho * grad(phase) is smooth even where the unwrapped
    phase array has seams, so the gradient is taken from the reconstruction
    rather than from the phase array.  Masked points carry zeros.
    """
    safe_rho = np.where(form.branch_mask, 1.0, form.rho)
    fluxes = spectral.phase_flux(form.to_field().values, form.grid)
    return np.where(form.branch_mask, 0.0, sum((CGS.hbar * f / safe_rho) ** 2 for f in fluxes))


def hj_residual(
    form: MadelungForm,
    params: EffectiveMassParams,
    dt_action: np.ndarray | float | None,
) -> float:
    """RMS of dS/dt + |grad S|^2/(2 m*) + hbar*V0 + Q over unmasked points [erg].

    ``dt_action`` is the caller-supplied dS/dt field (erg); for a stationary
    state S = W - E t it is the constant -E.
    """
    if dt_action is None:
        raise ValueError("dt_action (the dS/dt field) is required")
    qfield = quantum_potential(form, params.m_star)
    kinetic = _action_gradient_sq(form) / (2.0 * params.m_star)
    residual = np.asarray(dt_action) + kinetic + CGS.hbar * params.v0 + qfield.Q
    keep = ~form.branch_mask
    return float(np.sqrt(np.mean(residual[keep] ** 2)))


def continuity_residual(form: MadelungForm, rho_dot: np.ndarray, m_star: float) -> float:
    """Normalized RMS of d rho/dt + div(rho grad S / m*).

    The caller supplies d rho/dt (typically a finite difference of two
    propagated snapshots).  Normalization is max |rho_dot| plus a
    characteristic flux-divergence scale, so stationary states with
    rho_dot = 0 report a near-zero residual instead of 0/0 noise.
    """
    rho_dot = np.asarray(rho_dot, dtype=float)
    if rho_dot.shape != form.grid.shape:
        raise ValueError("rho_dot shape does not match the grid")
    flux = spectral.phase_flux(form.to_field().values, form.grid)
    div = spectral.divergence([(CGS.hbar / m_star) * f for f in flux], form.grid).real
    residual = rho_dot + div
    keep = ~form.branch_mask
    length_scale = float(np.prod(form.grid.lengths)) ** (1.0 / form.grid.dim)
    floor = (CGS.hbar / m_star) * float(form.rho.max()) / length_scale**2
    denom = float(np.abs(rho_dot).max()) + floor
    return float(np.sqrt(np.mean(residual[keep] ** 2))) / denom


class EnergyDecomposition(NamedTuple):
    E: float
    pc: float
    Q_mean: float


def energy_decomposition(psi: ComplexField, params: EffectiveMassParams) -> EnergyDecomposition:
    """Split the state's energy as E = pc + Q [erg].

    pc = hbar c <|k|> uses the spectral mean of |k| (exact for momentum
    eigenstates); Q_mean is the rho-weighted mean of the quantum potential.
    For a real standing wave the spectral mean gives pc = hbar c k even
    though grad S = 0; see :func:`phase_gradient_momentum` for the
    phase-based momentum, which vanishes there.  The two do not agree for
    standing waves and both are reported rather than reconciled.
    """
    if abs(psi.norm_squared() - 1.0) > 1e-6:
        raise ValueError("energy decomposition requires a normalized field")
    pc = CGS.hbar * CGS.c * spectral.power_mean(psi.values, psi.grid, np.sqrt)
    form = polar_decompose(psi)
    qfield = quantum_potential(form, params.m_star)
    q_mean = float(np.sum(form.rho * qfield.Q) / np.sum(form.rho))
    return EnergyDecomposition(E=pc + q_mean, pc=pc, Q_mean=q_mean)


def phase_gradient_momentum(psi: ComplexField) -> float:
    """rho-weighted mean of |grad S| [g cm/s]; zero for real standing waves."""
    form = polar_decompose(psi)
    mag = np.sqrt(_action_gradient_sq(form))
    return float(np.sum(form.rho * mag) / np.sum(form.rho))


class QuantumPotentialInterpolator:
    """Cubic interpolation of -grad Q on the periodic grid.

    The gradient is evaluated spectrally once; off-grid queries wrap around
    the box.  ``masked_at`` reports whether the nearest grid point sits in a
    masked (undefined-Q) region.  Forces are quantitatively reliable only
    when the density stays above the floor everywhere: masked zeros put a
    cliff into the Q array whose ringing leaks into the spectral gradient.
    """

    def __init__(self, qfield: QuantumPotentialField):
        self.grid = qfield.grid
        self.m_star = qfield.m_star
        self._grad_q = [g.real for g in spectral.gradient(qfield.Q, qfield.grid)]
        self._mask = qfield.mask

    def _fractional_index(self, x: np.ndarray) -> np.ndarray:
        coords = []
        for i in range(self.grid.dim):
            coords.append((x[i] % self.grid.lengths[i]) / self.grid.spacings[i])
        return np.asarray(coords)

    def grad_q_at(self, x: np.ndarray) -> np.ndarray:
        idx = self._fractional_index(x)[:, None]
        return np.array(
            [
                ndimage.map_coordinates(g, idx, order=3, mode="grid-wrap")[0]
                for g in self._grad_q
            ]
        )

    def masked_at(self, x: np.ndarray) -> bool:
        idx = tuple(
            int(round(c)) % n for c, n in zip(self._fractional_index(x), self.grid.n_points)
        )
        return bool(self._mask[idx])


def bohm_step(
    x: np.ndarray,
    p: np.ndarray,
    dt: float,
    regime: str,
    interp: QuantumPotentialInterpolator,
) -> tuple[np.ndarray, np.ndarray, str]:
    """One 4th-order Runge-Kutta step of the trajectory equations.

    massless: dx/dt = c p/|p|, dp/dt = -grad Q
    massive:  dx/dt = p/m*,    dp/dt = -grad Q
    classical: dx/dt = p/m*,   dp/dt = 0 (Q is ignored)

    Returns (x, p, status); status is "terminated_masked" when any stage
    lands in a masked region, in which case the inputs are returned unchanged.
    """
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)

    def rhs(xs: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if regime == "classical":
            return ps / interp.m_star, np.zeros_like(ps)
        force = -interp.grad_q_at(xs)
        if regime == "massive":
            return ps / interp.m_star, force
        p_mag = float(np.sqrt(np.sum(ps**2)))
        if p_mag == 0.0:
            raise ValueError("massless regime requires nonzero momentum")
        return CGS.c * ps / p_mag, force

    stages_x = []
    k1x, k1p = rhs(x, p)
    stages_x.append(x + 0.5 * dt * k1x)
    k2x, k2p = rhs(stages_x[-1], p + 0.5 * dt * k1p)
    stages_x.append(x + 0.5 * dt * k2x)
    k3x, k3p = rhs(stages_x[-1], p + 0.5 * dt * k2p)
    stages_x.append(x + dt * k3x)
    k4x, k4p = rhs(stages_x[-1], p + dt * k3p)
    x_new = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    p_new = p + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    for probe in stages_x + [x_new]:
        if interp.masked_at(probe):
            return x, p, "terminated_masked"
    return x_new, p_new, "ok"


@dataclass(frozen=True)
class BohmTrajectory:
    """Integrated trajectory with per-step times, positions and momenta."""

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    regime: str
    status: str


def run_trajectory(
    qfield: QuantumPotentialField,
    x0,
    p0,
    dt: float,
    n_steps: int,
    regime: str,
) -> BohmTrajectory:
    interp = QuantumPotentialInterpolator(qfield)
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    p = np.atleast_1d(np.asarray(p0, dtype=float))
    times = [0.0]
    xs = [x.copy()]
    ps = [p.copy()]
    status = "ok"
    for step in range(n_steps):
        x, p, status = bohm_step(x, p, dt, regime, interp)
        if status != "ok":
            break
        times.append((step + 1) * dt)
        xs.append(x.copy())
        ps.append(p.copy())
    return BohmTrajectory(
        times=np.asarray(times),
        positions=np.asarray(xs),
        momenta=np.asarray(ps),
        regime=regime,
        status=status,
    )
