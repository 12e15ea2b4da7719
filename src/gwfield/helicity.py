"""Temporal partial-wave split of a field history and the convection current.

A time series is split by the sign of its temporal frequency content.  With
snapshots s(t_m) and DFT bins at frequencies f_n = fftfreq(n_t, dt), content
evolving as exp(-i omega t) with omega > 0 sits in bins with f_n < 0.  The
convention here: the "minus" partial wave collects the bins with f_n <= 0
(exp(-i omega t), omega >= 0, i.e. the zero-frequency bin counts as the
omega -> 0+ limit), and the "plus" partial wave the bins with f_n > 0.  The
two masks partition every bin, so psi_plus + psi_minus reconstructs the
input exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CGS
from .fields import ComplexField, Grid
from . import spectral

# largest share of the spectral energy a split lets the Nyquist bin carry
NYQUIST_TOL = 1e-10


@dataclass(frozen=True)
class TimeSeriesField:
    """Uniformly spaced snapshots of a field: values[m] is the field m*dt
    after the first snapshot."""

    grid: Grid
    values: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128).copy()
        if values.ndim != self.grid.dim + 1:
            raise ValueError("values must stack snapshots along axis 0")
        if values.shape[1:] != self.grid.shape:
            raise ValueError("snapshot shape does not match grid")
        if values.shape[0] < 8:
            raise ValueError("a time series needs at least 8 snapshots")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be finite and positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_snapshots(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_fields(cls, fields: list[ComplexField], dt: float) -> "TimeSeriesField":
        return cls(grid=fields[0].grid, values=np.stack([f.values for f in fields]), dt=dt)

    def norm(self) -> float:
        """sqrt of the snapshot-averaged squared field norm."""
        dv = self.grid.cell_volume
        per_snapshot = np.sum(np.abs(self.values) ** 2, axis=tuple(range(1, self.values.ndim)))
        return math.sqrt(float(np.mean(per_snapshot)) * dv)


def partial_wave_split(series: TimeSeriesField) -> tuple[TimeSeriesField, TimeSeriesField]:
    """Split into (psi_plus, psi_minus) by temporal frequency sign.

    Errors out if the Nyquist bin carries more than :data:`NYQUIST_TOL` of the
    total spectral energy: that content is aliased and its frequency sign is
    ambiguous.
    """
    n_t = series.n_snapshots
    spec = np.fft.fft(series.values, axis=0)
    freqs = np.fft.fftfreq(n_t, d=series.dt)
    energy = np.sum(np.abs(spec) ** 2, axis=tuple(range(1, spec.ndim)))
    total = float(energy.sum())
    if n_t % 2 == 0 and total > 0.0:
        nyquist_fraction = float(energy[n_t // 2]) / total
        if nyquist_fraction > NYQUIST_TOL:
            raise ValueError(
                f"aliased content at the Nyquist bin ({nyquist_fraction:.3e} of energy)"
            )
    shape = (n_t,) + (1,) * series.grid.dim
    minus_mask = (freqs <= 0.0).reshape(shape)
    plus = np.fft.ifft(spec * (~minus_mask), axis=0)
    minus = np.fft.ifft(spec * minus_mask, axis=0)
    make = lambda v: TimeSeriesField(grid=series.grid, values=v, dt=series.dt)
    return make(plus), make(minus)


@dataclass(frozen=True)
class CurrentField:
    """Convection current j = hbar Im(psi* grad psi) and its positive time component
    rho_t = hbar k0 |psi|^2, of a field or of each snapshot of a series (axis 0)."""

    grid: Grid
    j: tuple[np.ndarray, ...]
    rho_t: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.rho_t < 0.0):
            raise ValueError("rho_t must be >= 0")

    def mean(self) -> "CurrentField":
        """The current of a series averaged over its snapshots."""
        if self.rho_t.ndim == self.grid.dim:
            raise ValueError("the current of one field has no snapshots to average")
        return CurrentField(grid=self.grid, j=tuple(np.mean(comp, axis=0) for comp in self.j),
                            rho_t=np.mean(self.rho_t, axis=0))


def convection_current(psi: ComplexField | TimeSeriesField, k0: float) -> CurrentField:
    """The current of a field, or of every snapshot of a series at once."""
    j = tuple(CGS.hbar * flux for flux in spectral.phase_flux(psi.values, psi.grid))
    rho_t = CGS.hbar * k0 * np.abs(psi.values) ** 2
    return CurrentField(grid=psi.grid, j=j, rho_t=rho_t)


def current_continuity(series: TimeSeriesField, k0: float) -> float:
    """Normalized RMS of d rho_t/dt + div(2c j) over interior snapshots.

    rho_t = hbar k0 |psi|^2 is conserved under the first-order evolution with
    flux 2c*j: the factor 2c is the group-velocity gearing of the
    first-order reduction (modes transport at 2c k/k0).  The time derivative
    is a centered difference, so for snapshots of the exact propagator the
    residual is limited by the sampling interval, not the physics.
    """
    grid = series.grid
    current = convection_current(series, k0)
    rho_dot = (current.rho_t[2:] - current.rho_t[:-2]) / (2.0 * series.dt)
    residuals = rho_dot + spectral.divergence([2.0 * CGS.c * comp[1:-1] for comp in current.j], grid)
    length_scale = grid.volume ** (1.0 / grid.dim)
    floor = 2.0 * CGS.c * CGS.hbar * float(np.abs(series.values).max() ** 2) / length_scale**2
    denom = float(np.abs(rho_dot).max()) + floor
    return float(np.sqrt(np.mean(residuals**2))) / denom


def time_averaged_current(series: TimeSeriesField, k0: float) -> tuple[np.ndarray, ...]:
    """Snapshot-averaged convection current.

    Cross terms between partial waves average out when the series spans a
    whole common period of the retained modes, so over such a window
    avg j(psi) = avg j(psi_plus) + avg j(psi_minus).
    """
    return convection_current(series, k0).mean().j
