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

from .constants import CGS, require_positive
from .fields import ComplexField, Grid, frozen_array
from . import spectral

# largest share of the spectral energy a split lets the Nyquist bin carry
NYQUIST_TOL = 1e-10
# fewest snapshots a time series holds
MIN_SNAPSHOTS = 8


@dataclass(frozen=True)
class TimeSeriesField:
    """Uniformly spaced snapshots of a field: values[m] is the field m*dt
    after the first snapshot."""

    grid: Grid
    values: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        values = frozen_array(self.values, np.complex128)
        if values.ndim != self.grid.dim + 1:
            raise ValueError("values must stack snapshots along axis 0")
        if values.shape[1:] != self.grid.shape:
            raise ValueError("snapshot shape does not match grid")
        if values.shape[0] < MIN_SNAPSHOTS:
            raise ValueError(f"a time series needs at least {MIN_SNAPSHOTS} snapshots")
        if not np.all(np.isfinite(values)):
            raise ValueError("time series values must be finite (no NaN/Inf)")
        require_positive("dt", self.dt)
        object.__setattr__(self, "values", values)

    @property
    def n_snapshots(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_fields(cls, fields: list[ComplexField], dt: float) -> "TimeSeriesField":
        if not fields:
            raise ValueError(f"fields is empty: a time series needs at least {MIN_SNAPSHOTS} snapshots")
        grid = fields[0].grid
        if (m := next((m for m, f in enumerate(fields) if f.grid != grid), None)) is not None:
            raise ValueError(f"fields are on two grids: snapshot 0 on {grid}, snapshot {m} on {fields[m].grid}")
        (values := np.stack([f.values for f in fields])).setflags(write=False)
        return cls(grid=grid, values=values, dt=dt)

    def norm(self) -> float:
        """sqrt of the snapshot-averaged squared field norm."""
        dv = self.grid.cell_volume
        per_snapshot = np.sum(np.abs(self.values) ** 2, axis=tuple(range(1, self.values.ndim)))
        return math.sqrt(float(np.mean(per_snapshot)) * dv)


def partial_wave_split(series: TimeSeriesField) -> tuple[TimeSeriesField, TimeSeriesField]:
    """Split into (psi_plus, psi_minus) by temporal frequency sign.

    Errors out if the Nyquist bin carries more than :data:`NYQUIST_TOL` of the
    total spectral energy: its frequency sign is ambiguous.  That content is
    aliased, or leaked from a series that does not return to its first snapshot
    (such a leak reaches every bin, and its Nyquist share falls as dt^2).
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
                f"content at the Nyquist bin ({nyquist_fraction:.3e} of energy): "
                "aliased, or leaked from a series that does not span whole periods"
            )
    shape = (n_t,) + (1,) * series.grid.dim
    minus_mask = (freqs <= 0.0).reshape(shape)
    plus = np.multiply(spec, ~minus_mask)
    spec *= minus_mask  # the spectrum itself becomes psi_minus: each half is inverted in place
    halves = np.fft.ifft(plus, axis=0, out=plus), np.fft.ifft(spec, axis=0, out=spec)
    for values in halves:
        values.setflags(write=False)
    return tuple(TimeSeriesField(grid=series.grid, values=v, dt=series.dt) for v in halves)


def convection_current(psi: ComplexField | TimeSeriesField) -> np.ndarray:
    """Convection current j = hbar Im(psi* grad psi), hbar times :func:`spectral.phase_flux`, of
    a field or of every snapshot of a series at once: one read-only ``(dim, ...)`` array whose
    axis 1 indexes a series' snapshots.  Only the charge carries k0."""
    j = spectral.phase_flux(psi.values, psi.grid)
    j *= CGS.hbar
    j.setflags(write=False)
    return j


def first_order_charge(psi: ComplexField | TimeSeriesField, k0: float) -> np.ndarray:
    """Time component rho_t = hbar k0 |psi|^2 of the first-order current, read-only, of a
    field or of each snapshot of a series (axis 0).  It is >= 0 for any k0 > 0, the only k0
    it takes."""
    require_positive("k0", k0)
    rho_t = CGS.hbar * k0 * np.abs(psi.values) ** 2
    rho_t.setflags(write=False)
    return rho_t


def current_continuity(series: TimeSeriesField, k0: float) -> float:
    """Normalized RMS of d rho_t/dt + div(2c j) over interior snapshots.

    The charge rho_t (:func:`first_order_charge`) is conserved under the
    first-order evolution with flux 2c*j: the factor 2c is the group-velocity
    gearing of the first-order reduction (modes transport at 2c k/k0).
    div(2c j) = 2c hbar Im(psi* lap psi) comes from line transforms of the interior
    snapshots (:func:`spectral.flux_divergence`), and d rho_t/dt is a centered
    difference, so for snapshots of the exact propagator the residual is limited by
    the sampling interval, not the physics.
    """
    grid = series.grid
    rho_t = first_order_charge(series, k0)
    rho_dot = (rho_t[2:] - rho_t[:-2]) / (2.0 * series.dt)
    del rho_t
    scale = 2.0 * CGS.c * CGS.hbar
    residuals = spectral.flux_divergence(series.values[1:-1], grid)
    residuals *= scale
    residuals += rho_dot
    length_scale = grid.volume ** (1.0 / grid.dim)
    floor = scale * float(np.abs(series.values).max() ** 2) / length_scale**2
    denom = float(np.abs(rho_dot).max()) + floor
    return float(np.sqrt(np.mean(residuals**2))) / denom


def time_averaged_current(series: TimeSeriesField, k0: float) -> np.ndarray:
    """Snapshot-averaged convection current, one real ``(dim, ...)`` array.

    Cross terms between partial waves average out when the series spans a
    whole common period of the retained modes, so over such a window
    avg j(psi) = avg j(psi_plus) + avg j(psi_minus).  ``k0`` is not read: the current
    does not carry it.
    """
    return np.mean(convection_current(series), axis=1)
