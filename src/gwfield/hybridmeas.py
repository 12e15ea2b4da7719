"""Impulsive pointer-coupling measurement of a discrete observable.

The system starts in sum_p c_p |p> and the apparatus in a Gaussian packet of
width w centered at y0.  An impulsive coupling of strength g acting for a
time tau displaces the packet correlated with eigenvalue p to
y_p = y0 + g*p*tau; free evolution during the impulse is neglected.  That
step is deterministic, so :class:`MeasurementSetup` derives every post-impulse
value itself.  This module works in hbar = 1 units: eigenvalues, couplings and
pointer coordinates are dimensionless (conversions happen at the interface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import require_positive
from .fields import frozen_array
from .statequant import TRACE_TOL, DensityMatrix

RESOLVED_OVERLAP = 1e-6
# record.json holds the n x n overlap matrix, so the outcome count of an
# outside spec is bounded
MAX_OUTCOMES = 32


@dataclass(frozen=True)
class MeasurementSetup:
    """Eigenvalues and amplitudes of the measured observable plus the
    apparatus packet (center y0, width w), coupling g, and impulse time tau.
    It derives, read-only, the displaced pointers, the Born weights (the diagonal
    of the joint system x pointer-label state) and the packet overlaps, and
    refuses above :data:`MAX_OUTCOMES` outcomes or duplicate eigenvalues."""

    eigenvalues: tuple[float, ...]
    amplitudes: tuple[complex, ...]
    y0: float = 0.0
    w: float = 1.0
    g: float = 1.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", tuple(float(p) for p in self.eigenvalues))
        object.__setattr__(self, "amplitudes", tuple(complex(c) for c in self.amplitudes))
        if len(self.eigenvalues) != len(self.amplitudes) or not self.eigenvalues:
            raise ValueError("eigenvalues and amplitudes must be non-empty and equal length")
        total = sum(abs(c) ** 2 for c in self.amplitudes)
        if not abs(total - 1.0) <= TRACE_TOL:  # the reduced state's own; a NaN total fails too
            raise ValueError(f"amplitudes must satisfy sum |c_p|^2 = 1 within {TRACE_TOL}, got {total}")
        for name, values in (("eigenvalues", self.eigenvalues), ("y0", (self.y0,)), ("g", (self.g,))):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        require_positive("w", self.w)
        require_positive("tau", self.tau)
        with np.errstate(over="ignore"):  # the cached positions the record keeps, refused if not finite
            positions = self.pointer_positions
        if not np.all(np.isfinite(positions)):
            raise ValueError(f"y0 + g*p*tau must be finite for every eigenvalue p, got {positions.tolist()} "
                             f"(y0 = {self.y0!r}, g = {self.g!r}, tau = {self.tau!r})")
        try:
            spread = 8.0 * self.w**2
        except OverflowError:
            spread = math.inf
        if not 0.0 < spread < math.inf:
            raise ValueError(f"w = {self.w!r} gives the overlap denominator 8 w^2 = {spread!r}, "
                             "not a finite nonzero float")
        n = len(self.eigenvalues)
        if n > MAX_OUTCOMES:
            raise ValueError(f"{n} outcomes is above the ceiling MAX_OUTCOMES = {MAX_OUTCOMES}")
        if len(np.unique(self.eigenvalues)) != n:
            raise ValueError("duplicate eigenvalues: pointer positions would coincide")

    @cached_property
    def pointer_positions(self) -> np.ndarray:
        """y_p = y0 + g*p*tau for each eigenvalue p."""
        return frozen_array(self.y0 + self.g * np.asarray(self.eigenvalues) * self.tau, float)

    @cached_property
    def weights(self) -> np.ndarray:
        """Born weights |c_p|^2."""
        return frozen_array([abs(c) ** 2 for c in self.amplitudes], float)

    @cached_property
    def overlap_matrix(self) -> np.ndarray:
        """Pointer packets for outcomes p and q overlap by exp(-(y_p-y_q)^2/(8 w^2))."""
        separations = self.pointer_positions[:, None] - self.pointer_positions[None, :]
        return frozen_array(np.exp(-(separations**2) / (8.0 * self.w**2)), float)

    @cached_property
    def unresolved_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs overlapping above :data:`RESOLVED_OVERLAP`: flagged, not forced orthogonal."""
        n = len(self.eigenvalues)
        return tuple((i, j) for i in range(n) for j in range(i + 1, n)
                     if self.overlap_matrix[i, j] > RESOLVED_OVERLAP)

    resolved = property(lambda self: not self.unresolved_pairs)


@dataclass(frozen=True)
class OutcomeFrequencies:
    """Seeded outcome counts of a setup; their frequencies and the worst
    |frequency - Born weight| deviation are derived on each read."""

    setup: MeasurementSetup
    counts: np.ndarray

    frequencies = property(lambda self: self.counts / self.counts.sum())
    max_abs_deviation = property(lambda self: float(np.abs(self.frequencies - self.setup.weights).max()))


def partial_trace_system(setup: MeasurementSetup) -> DensityMatrix:
    """Trace the joint state over the apparatus factor: sum_p |c_p|^2 |p><p|."""
    return DensityMatrix(entries=np.diag(setup.weights))


def sample_outcomes(setup: MeasurementSetup, n_trials: int, seed: int) -> OutcomeFrequencies:
    """Draw outcome counts with the Born weights in one multinomial draw, so
    memory does not grow with ``n_trials``; identical seeds give identical
    tables."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_trials, setup.weights / setup.weights.sum())
    return OutcomeFrequencies(setup=setup, counts=frozen_array(counts, np.int64))
