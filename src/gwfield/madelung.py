"""Polar (density/phase) decomposition and everything downstream of it:
the quantum potential, Hamilton-Jacobi and continuity residuals, the
generalized dispersion defect, the gradient-energy identity, the energy
split E = pc + Q, and trajectory integration in the gradient of Q.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import NamedTuple

import numpy as np

from .constants import CGS
from .fields import ComplexField, Grid, node_mask
from .wavemech import EffectiveMassParams
from . import spectral

_REGIMES = ("massless", "massive", "classical")


def _read_only(compute):
    """A cached property whose array is computed on first use and kept read-only."""
    def cached(self) -> np.ndarray:
        values = compute(self)
        values.setflags(write=False)
        return values
    return cached_property(wraps(compute)(cached))


@dataclass(frozen=True)
class MadelungForm:
    """Polar form of a field psi = sqrt(rho) exp(i phase), with a node mask.

    The phase is unwrapped by 1D sweeps (axis 0 line through the origin, then
    axis 1 lines, then axis 2), resolving each step to the nearest multiple
    of 2*pi.  Where rho falls below the floor the phase is undefined; those
    points are masked and unwrap chains through them are unreliable.

    The form is the one polar analysis of its field: everything is derived from
    ``psi`` on first use and kept, so every diagnostic of the form shares its
    FFTs.  ``rho``, ``branch_mask``, ``phase`` and ``curvature`` are read-only.
    """

    psi: ComplexField

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    @_read_only
    def rho(self) -> np.ndarray:
        return self.psi.density()

    @_read_only
    def branch_mask(self) -> np.ndarray:
        return node_mask(self.rho)

    @_read_only
    def phase(self) -> np.ndarray:
        phase = np.angle(self.psi.values)
        dim = self.grid.dim
        for axis in range(dim):
            sweep = (slice(None),) * (axis + 1) + (0,) * (dim - axis - 1)
            phase[sweep] = np.unwrap(phase[sweep], axis=axis)
        return phase

    @_read_only
    def curvature(self) -> np.ndarray:
        """lap(sqrt rho)/sqrt(rho) [1/cm^2]; masked points carry zeros.  Its vanishing
        makes a wave packet non-dispersive: it doubles as the classicality diagnostic."""
        return spectral.sqrt_density_curvature(self.rho, self.grid, self.branch_mask)

    @cached_property
    def flux(self) -> list[np.ndarray]:
        """Im(psi* d_i psi) = rho d_i(phase) per axis, smooth across phase seams."""
        return spectral.phase_flux(self.psi.values, self.grid)

    def action(self) -> np.ndarray:
        """S = hbar * phase [erg s]."""
        return CGS.hbar * self.phase

    def action_gradient_sq(self) -> np.ndarray:
        """|grad S|^2 = (hbar flux/rho)^2 [erg^2 s^2/cm^2]; masked points carry zeros."""
        safe_rho = np.where(self.branch_mask, 1.0, self.rho)
        return np.where(self.branch_mask, 0.0, sum((CGS.hbar * f / safe_rho) ** 2 for f in self.flux))

    def mean(self, values: np.ndarray) -> float:
        """rho-weighted mean of ``values``."""
        return float(np.sum(self.rho * values) / np.sum(self.rho))

    def rms(self, values: np.ndarray) -> float:
        """Root mean square of ``values`` over the unmasked points."""
        return float(np.sqrt(np.mean(values[~self.branch_mask] ** 2)))


# live forms by id(psi); a form holds its field, so the id is not reused while the entry lives
_FORMS: weakref.WeakValueDictionary[int, MadelungForm] = weakref.WeakValueDictionary()


def polar_decompose(psi: ComplexField) -> MadelungForm:
    """The polar form of ``psi``, shared while a form of this field object lives."""
    if (form := _FORMS.get(id(psi))) is None or form.psi is not psi:
        form = _FORMS[id(psi)] = MadelungForm(psi)
    return form


@dataclass(frozen=True)
class QuantumPotentialField:
    """Q = -(hbar^2 / 2 m*) * lap(sqrt rho)/sqrt(rho) [erg] of a polar form, read-only;
    masked points carry zeros.  The curvature, grid and mask are the form's own."""

    form: MadelungForm
    m_star: float

    def __post_init__(self) -> None:
        if not (self.m_star > 0.0 and math.isfinite(self.m_star)):
            raise ValueError("m_star must be finite and positive")
        if np.all(self.form.branch_mask):
            raise ValueError("density is below the floor everywhere")

    @_read_only
    def Q(self) -> np.ndarray:
        return -(CGS.hbar**2) / (2.0 * self.m_star) * self.form.curvature


def quantum_potential(form: MadelungForm, m_star: float) -> QuantumPotentialField:
    return QuantumPotentialField(form, m_star)


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
    kinetic = form.action_gradient_sq() / (2.0 * params.m_star)
    return form.rms(np.asarray(dt_action) + kinetic + CGS.hbar * params.v0 + qfield.Q)


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
    div = spectral.divergence([(CGS.hbar / m_star) * f for f in form.flux], form.grid)
    length_scale = form.grid.volume ** (1.0 / form.grid.dim)
    floor = (CGS.hbar / m_star) * float(form.rho.max()) / length_scale**2
    denom = float(np.abs(rho_dot).max()) + floor
    return form.rms(rho_dot + div) / denom


def dispersion_defect(form: MadelungForm, omega: float, mu: float, k: float) -> float:
    """Volume-RMS of k^2 - omega^2/c^2 + mu^2 - lap(sqrt rho)/sqrt(rho).

    Zero iff the generalized dispersion relation holds pointwise.  Points with
    rho below the shared floor are excluded (the curvature is undefined there).
    """
    if np.all(form.branch_mask):
        raise ValueError("dispersion defect is undefined: all points fall below the density floor")
    return form.rms(k**2 - (omega / CGS.c) ** 2 + mu**2 - form.curvature)


def magnetic_energy_identity_check(form: MadelungForm, params: EffectiveMassParams) -> float:
    """Relative residual of the gradient-energy split

        int |grad psi|^2 dV = (omega_ref / (hbar c^2)) int Q rho dV
                              + int |grad phase|^2 rho dV.

    The total-divergence term drops on the periodic box.  Points under the
    density floor are excluded from the right-hand side, so the check is
    meaningful for fields whose density stays above the floor.
    """
    # each term is a sum over the cells: the common factor dV cancels in the ratio
    lhs = spectral.power_sum(form.psi.values, form.grid, lambda k_sq: k_sq) / form.rho.size
    qfield = quantum_potential(form, params.m_star)
    q_term = params.omega_ref / (CGS.hbar * CGS.c**2) * float(np.sum(form.rho * qfield.Q))
    phase_term = float(np.sum(form.rho * form.action_gradient_sq())) / CGS.hbar**2
    return abs(lhs - (q_term + phase_term)) / abs(lhs)


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
    q_mean = form.mean(quantum_potential(form, params.m_star).Q)
    return EnergyDecomposition(E=pc + q_mean, pc=pc, Q_mean=q_mean)


def phase_gradient_momentum(form: MadelungForm) -> float:
    """rho-weighted mean of |grad S| [g cm/s]; zero for real standing waves."""
    return form.mean(np.sqrt(form.action_gradient_sq()))


def _spline_coefficients(samples: np.ndarray, dim: int) -> np.ndarray:
    """Periodic cubic B-spline coefficients of ``samples`` over its first ``dim`` axes.

    At the integers the cubic B-spline is (1, 4, 1)/6, a circular convolution
    that the Fourier transform turns into the factor prod_i (4 + 2 cos 2 pi
    m_i/N_i)/6 >= 3^-dim, so one division interpolates the samples exactly
    (Unser, Aldroubi & Eden, IEEE Trans. Signal Process. 41, 821 (1993)).
    """
    axes = tuple(range(dim))
    spectrum = np.fft.rfftn(samples, axes=axes)
    for axis in axes:
        m = np.arange(spectrum.shape[axis])
        factor = (4.0 + 2.0 * np.cos(2.0 * np.pi * m / samples.shape[axis])) / 6.0
        spectrum /= factor.reshape((-1,) + (1,) * (spectrum.ndim - axis - 1))
    return np.fft.irfftn(spectrum, s=samples.shape[:dim], axes=axes)


class QuantumPotentialInterpolator:
    """Periodic cubic B-spline interpolation of grad Q at (n, dim) points.

    The gradient is evaluated spectrally and its components are prefiltered
    together, once; a query gathers each point's 4^dim coefficient stencil
    and weights it one axis at a time, independently of the other points.
    Off-grid queries wrap around the box.  ``masked_at`` reports, per point,
    whether the nearest grid point sits in a masked (undefined-Q) region.
    Forces are quantitatively reliable only when the density stays above the
    floor everywhere: masked zeros put a cliff into the Q array whose ringing
    leaks into the spectral gradient.
    """

    def __init__(self, qfield: QuantumPotentialField):
        self.grid = qfield.form.grid
        self.m_star = qfield.m_star
        gradient = np.stack([g.real for g in spectral.gradient(qfield.Q, self.grid)], axis=-1)
        self._coefficients = _spline_coefficients(gradient, self.grid.dim)
        self._mask = qfield.form.branch_mask

    def _fractional_index(self, x: np.ndarray) -> np.ndarray:
        return np.mod(x, self.grid.lengths) / self.grid.spacings

    def grad_q_at(self, x: np.ndarray) -> np.ndarray:
        u = self._fractional_index(x)
        base = np.floor(u)
        t = u - base
        s = 1.0 - t
        # weights of the nodes floor(u) - 1 .. floor(u) + 2 on each axis, (n, dim, 4)
        weights = np.stack([s**3, 4.0 - 6.0 * t**2 + 3.0 * t**3,
                            4.0 - 6.0 * s**2 + 3.0 * s**3, t**3], axis=-1) / 6.0
        nodes = (base.astype(int)[..., None] + np.arange(-1, 3)) % np.asarray(self.grid.n_points)[:, None]
        dim = self.grid.dim
        values = self._coefficients[tuple(
            nodes[:, a].reshape((-1,) + (1,) * a + (4,) + (1,) * (dim - a - 1)) for a in range(dim))]
        # elementwise products and sums, unlike einsum or @, keep each point's order fixed
        for a in range(dim):
            values = (values * weights[:, a].reshape((-1, 4) + (1,) * (dim - a))).sum(axis=1)
        return values

    def masked_at(self, x: np.ndarray) -> np.ndarray:
        idx = np.rint(self._fractional_index(x)).astype(int) % self.grid.n_points
        return self._mask[tuple(idx.T)]


def bohm_step(
    x: np.ndarray,
    p: np.ndarray,
    dt: float,
    regime: str,
    interp: QuantumPotentialInterpolator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One 4th-order Runge-Kutta step for (n_particles, dim) positions and momenta.

    massless: dx/dt = c p/|p|, dp/dt = -grad Q
    massive:  dx/dt = p/m*,    dp/dt = -grad Q
    classical: dx/dt = p/m*,   dp/dt = 0 (Q is ignored)

    Returns (x, p, masked); ``masked[i]`` is True when a stage of particle i
    lands in a masked region, in which case its rows come back unchanged.
    Raises RuntimeError when an unmasked particle of a Q-driven regime moves
    half the box length or more along an axis.
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
        p_mag = np.sqrt(np.sum(ps**2, axis=1, keepdims=True))
        # every particle is checked before dividing, so one at rest is not a 0/0
        if np.any(p_mag == 0.0):
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
    masked = np.any([interp.masked_at(probe) for probe in stages_x + [x_new]], axis=0)
    # the interpolator wraps positions, so a Q-driven step of half a box or more is not resolved
    jump = np.abs(x_new - x)[~masked] / np.asarray(interp.grid.lengths)
    if regime != "classical" and np.any(jump >= 0.5):
        raise RuntimeError(f"a {regime} step of dt = {dt} s moved a particle {jump.max():.3g} box "
                           "lengths along an axis (at most 0.5 is resolved); lower the time step")
    return np.where(masked[:, None], x, x_new), np.where(masked[:, None], p, p_new), masked


@dataclass(frozen=True)
class BohmTrajectory:
    """An integrated ensemble: times (steps+1,), positions and momenta
    (steps+1, n, dim), and each particle's ``last_step`` (steps completed;
    later rows repeat its final state).  ``status`` is "ok" when every
    particle ran all steps, otherwise "terminated_masked"."""

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    last_step: np.ndarray
    status: str


def run_trajectory(
    qfield: QuantumPotentialField,
    x0,
    p0,
    dt: float,
    n_steps: int,
    regime: str,
) -> BohmTrajectory:
    """Integrate (n_particles, dim) seeds ``x0``, ``p0`` for ``n_steps`` steps.

    One interpolator serves the whole ensemble, and only the running rows are
    stepped, so each particle follows the path it would follow alone.  A
    particle is frozen at the step whose stage probe lands in a masked region.
    """
    x = np.array(x0, dtype=float)
    p = np.array(p0, dtype=float)
    if x.ndim != 2 or x.shape != p.shape or x.shape[1] != qfield.form.grid.dim:
        raise ValueError(f"x0 and p0 must both be (n_particles, {qfield.form.grid.dim}) arrays")
    interp = QuantumPotentialInterpolator(qfield)
    positions = np.empty((n_steps + 1, *x.shape))
    momenta = np.empty_like(positions)
    positions[0], momenta[0] = x, p
    last_step = np.full(len(x), n_steps)
    active = np.ones(len(x), dtype=bool)
    for step in range(n_steps):
        if active.any():
            x[active], p[active], masked = bohm_step(x[active], p[active], dt, regime, interp)
            last_step[np.flatnonzero(active)[masked]] = step
            active[active] = ~masked
        positions[step + 1], momenta[step + 1] = x, p
    # 0 * dt would be -0.0 for a backward run
    times = np.concatenate(([0.0], np.arange(1, n_steps + 1) * dt))
    return BohmTrajectory(times, positions, momenta, last_step,
                          "ok" if active.all() else "terminated_masked")
