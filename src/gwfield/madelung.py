"""Polar (density/phase) decomposition and everything downstream of it:
the quantum potential, Hamilton-Jacobi and continuity residuals, the energy
split E = pc + Q, and trajectory integration in the gradient of Q.  The
generalized dispersion relation and the gradient-energy split are registry
invariants of :mod:`gwfield.selfcheck`, computed from a form's polar terms.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .constants import CGS, require_positive
from .fields import NORM_TOL, ComplexField, Grid
from .wavemech import EffectiveMassParams
from . import spectral

_REGIMES = ("massless", "massive", "classical")

RHO_FLOOR_REL = 1e-12  # rho below this fraction of its peak is a node: MadelungForm.branch_mask


@dataclass(frozen=True)
class MadelungForm:
    """Polar form of a field psi = sqrt(rho) exp(i phase), with a node mask.

    The phase is unwrapped by 1D sweeps (axis 0 line through the origin, then
    axis 1 lines, then axis 2), resolving each step to the nearest multiple
    of 2*pi.  Where rho falls below :data:`RHO_FLOOR_REL` times its peak the phase is undefined;
    those points are masked, and unwrap chains through them are unreliable.  A zero field is refused.

    The form is the one polar analysis of its field, derived from ``psi`` on first use and
    kept read-only.  It caches the node mask and one pass that yields the curvature, which
    Q, the defect, the energy split and the HJ residual all read, and the mean |k|.  The
    density, S and |grad S|^2, which psi fixes bit for bit, are derived on each read and
    returned read-only.  The polar terms differentiate along each axis by line transforms
    (:func:`spectral.curvature`): psi must be periodic and band-limited (``gaussian_packet``
    wraps; a dump need not).
    """

    psi: ComplexField

    def __post_init__(self) -> None:
        if not self.psi.values.any():
            raise ValueError("a zero field has no polar form: its phase is undefined everywhere")

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    @property
    def rho(self) -> np.ndarray:
        """|psi|^2, derived on each read as :attr:`QuantumPotentialField.Q` is: the form stores none."""
        rho = self.psi.density()
        rho.setflags(write=False)
        return rho

    @cached_property
    def branch_mask(self) -> np.ndarray:
        rho = self.psi.density()
        mask = rho < RHO_FLOOR_REL * float(rho.max())
        mask.setflags(write=False)
        return mask

    @cached_property
    def _pass(self) -> tuple[np.ndarray, float]:
        """The curvature and the mean |k|, which reads the n-D spectrum of psi: that spectrum is
        freed before the curvature's line transforms begin."""
        grid, values = self.grid, self.psi.values
        mean_k = spectral.power_mean(values, grid, lambda k_sq: np.sqrt(k_sq, out=k_sq))
        curvature = spectral.curvature(values, grid, self.branch_mask)
        curvature.setflags(write=False)
        return curvature, mean_k

    curvature = property(lambda self: self._pass[0], doc="""lap(sqrt rho)/sqrt(rho) [1/cm^2];
        masked points carry zeros.  Its vanishing makes a wave packet non-dispersive: it doubles
        as the classicality diagnostic.""")
    mean_wavenumber = property(lambda self: self._pass[1],
                               doc="<|k|> over the power spectrum of psi [1/cm].")

    @property
    def action(self) -> np.ndarray:
        """S = hbar * the unwrapped phase [erg s], derived on each read."""
        phase = np.angle(self.psi.values)
        dim = self.grid.dim
        for axis in range(dim):
            sweep = (slice(None),) * (axis + 1) + (0,) * (dim - axis - 1)
            phase[sweep] = np.unwrap(phase[sweep], axis=axis)
        phase *= CGS.hbar
        phase.setflags(write=False)
        return phase

    @property
    def action_gradient_sq(self) -> np.ndarray:
        """|grad S|^2 = (hbar flux/rho)^2 [erg^2 s^2/cm^2], derived on each read; masked points
        carry zeros."""
        values = spectral.action_gradient_sq(self.psi.values, self.grid, self.branch_mask)
        values.setflags(write=False)
        return values

    def mean(self, values: np.ndarray) -> float:
        """rho-weighted mean of ``values``."""
        rho = self.psi.density()
        total = np.sum(rho)
        rho *= values
        return float(np.sum(rho) / total)

    def rms(self, values: np.ndarray) -> float:
        """Root mean square of ``values`` over the unmasked points."""
        picked = values[~self.branch_mask]
        picked **= 2
        return float(np.sqrt(np.mean(picked)))


# live forms by id(psi); a form holds its field, so the id is not reused while the entry lives
_FORMS: weakref.WeakValueDictionary[int, MadelungForm] = weakref.WeakValueDictionary()


def polar_decompose(psi: ComplexField) -> MadelungForm:
    """The polar form of ``psi``, shared while it lives: it holds ``psi``, so ``id(psi)`` is not reused."""
    if (form := _FORMS.get(id(psi))) is None:
        form = _FORMS[id(psi)] = MadelungForm(psi)
    return form


@dataclass(frozen=True)
class QuantumPotentialField:
    """Q = -(hbar^2 / 2 m*) * lap(sqrt rho)/sqrt(rho) [erg] of a polar form, read-only;
    masked points carry zeros.  The curvature, grid and mask are the form's own."""

    form: MadelungForm
    m_star: float

    def __post_init__(self) -> None:
        require_positive("m_star", self.m_star)

    @property
    def Q(self) -> np.ndarray:
        """Derived on each read: the form's cached curvature is its one home."""
        q = -(CGS.hbar**2) / (2.0 * self.m_star) * self.form.curvature
        q.setflags(write=False)
        return q


def quantum_potential(form: MadelungForm, m_star: float) -> QuantumPotentialField:
    return QuantumPotentialField(form, m_star)


def hj_residual(
    form: MadelungForm,
    params: EffectiveMassParams,
    dt_action: np.ndarray | float,
) -> float:
    """RMS of dS/dt + |grad S|^2/(2 m*) + hbar*V0 + Q over unmasked points [erg].

    ``dt_action`` is the caller-supplied dS/dt field (erg); for a stationary
    state S = W - E t it is the constant -E.
    """
    qfield = quantum_potential(form, params.m_star)
    residual = form.action_gradient_sq / (2.0 * params.m_star)
    np.add(dt_action, residual, out=residual)
    residual += CGS.hbar * params.v0
    residual += qfield.Q
    return form.rms(residual)


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
    scale = CGS.hbar / m_star
    length_scale = form.grid.volume ** (1.0 / form.grid.dim)
    denom = float(np.abs(rho_dot).max()) + scale * float(form.rho.max()) / length_scale**2
    # div(rho grad S / m*) = (hbar/m*) Im(psi* lap psi), scaled in place
    residual = spectral.flux_divergence(form.psi.values, form.grid)
    residual *= scale
    residual += rho_dot
    return form.rms(residual) / denom


class EnergyDecomposition(NamedTuple):
    pc: float
    Q_mean: float

    E = property(lambda self: self.pc + self.Q_mean)


def energy_decomposition(psi: ComplexField, params: EffectiveMassParams) -> EnergyDecomposition:
    """Split the state's energy as E = pc + Q [erg].

    pc = hbar c <|k|> uses the spectral mean of |k| (exact for momentum
    eigenstates); Q_mean is the rho-weighted mean of the quantum potential.
    For a real standing wave the spectral mean gives pc = hbar c k even
    though grad S = 0; see :func:`phase_gradient_momentum` for the
    phase-based momentum, which vanishes there.  The two do not agree for
    standing waves and both are reported rather than reconciled.
    """
    if abs(psi.norm_squared() - 1.0) > NORM_TOL:
        raise ValueError("energy decomposition requires a normalized field")
    form = polar_decompose(psi)
    pc = CGS.hbar * CGS.c * form.mean_wavenumber
    q_mean = form.mean(quantum_potential(form, params.m_star).Q)
    return EnergyDecomposition(pc=pc, Q_mean=q_mean)


def phase_gradient_momentum(form: MadelungForm) -> float:
    """rho-weighted mean of |grad S| [g cm/s]; zero for real standing waves."""
    return form.mean(np.sqrt(form.action_gradient_sq))


class QuantumPotentialInterpolator:
    """Periodic cubic B-spline interpolation of grad Q at (n, dim) points.

    The gradient's spline coefficients come from one transform of Q, once
    (:func:`spectral.gradient_spline`); a query gathers each point's 4^dim
    coefficient stencil and weights it one axis at a time, independently of
    the other points.  Off-grid queries wrap around the box.  ``masked_at``
    reports, per point, whether the nearest grid point sits in a masked
    (undefined-Q) region.  Forces are quantitatively reliable only when the
    density stays above the floor everywhere: masked zeros put a cliff into
    the Q array whose ringing leaks into the spectral gradient.
    """

    def __init__(self, qfield: QuantumPotentialField):
        self.grid = qfield.form.grid
        self.m_star = qfield.m_star
        self._coefficients = spectral.gradient_spline(qfield.Q, self.grid)
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
    if not np.isfinite(dt):  # a negative dt runs backward
        raise ValueError(f"dt must be finite, got {dt!r}")
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
    """An integrated ensemble, read-only: times (steps+1,), positions and momenta
    (steps+1, n, dim), and each particle's ``last_step`` (steps completed;
    later rows repeat its final state).  ``status`` is "ok" when every
    particle ran all steps, otherwise "terminated_masked"."""

    times: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    last_step: np.ndarray

    status = property(lambda self: "ok" if np.all(self.last_step == len(self.times) - 1)
                      else "terminated_masked")


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
    for values in (times, positions, momenta, last_step):
        values.setflags(write=False)
    return BohmTrajectory(times, positions, momenta, last_step)
