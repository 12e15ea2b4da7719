"""Impulsive pointer-coupling measurement of a discrete observable.

The system starts in sum_p c_p |p> and the apparatus in a Gaussian packet of
width w centered at y0.  An impulsive coupling of strength g acting for a
time tau displaces the packet correlated with eigenvalue p to
y_p = y0 + g*p*tau; free evolution during the impulse is neglected.  This
module works in hbar = 1 units: eigenvalues, couplings and pointer
coordinates are dimensionless (conversions happen at the interface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statequant import DensityMatrix

RESOLVED_OVERLAP = 1e-6
# record.json holds the n x n overlap matrix, so the outcome count of an
# outside spec is bounded
MAX_OUTCOMES = 32


@dataclass(frozen=True)
class MeasurementSetup:
    """Eigenvalues and amplitudes of the measured observable plus the
    apparatus packet (center y0, width w), coupling g, and impulse time tau."""

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
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"amplitudes must satisfy sum |c_p|^2 = 1, got {total}")
        if not (self.w > 0.0 and math.isfinite(self.w)):
            raise ValueError("w must be finite and positive")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError("tau must be finite and positive")


@dataclass(frozen=True)
class MeasurementRecord:
    """Post-impulse bookkeeping: displaced pointers, Born weights (the diagonal
    of the joint system x pointer-label state) and packet overlaps."""

    eigenvalues: tuple[float, ...]
    pointer_positions: np.ndarray
    weights: np.ndarray
    overlap_matrix: np.ndarray
    resolved: bool
    unresolved_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class OutcomeFrequencies:
    """Empirical outcome table from seeded sampling."""

    counts: np.ndarray
    frequencies: np.ndarray
    max_abs_deviation: float


def run_measurement(setup: MeasurementSetup) -> MeasurementRecord:
    """Apply the impulsive coupling and freeze the pointer displacements.

    Pointer packets for outcomes p and q overlap by exp(-(y_p-y_q)^2/(8 w^2));
    pairs above :data:`RESOLVED_OVERLAP` are flagged as unresolved rather than
    forced orthogonal.  Raises ValueError above :data:`MAX_OUTCOMES` outcomes.
    """
    eigenvalues = np.asarray(setup.eigenvalues)
    n = len(eigenvalues)
    if n > MAX_OUTCOMES:
        raise ValueError(f"{n} outcomes is above the ceiling MAX_OUTCOMES = {MAX_OUTCOMES}")
    if len(np.unique(eigenvalues)) != n:
        raise ValueError("duplicate eigenvalues: pointer positions would coincide")
    pointers = setup.y0 + setup.g * eigenvalues * setup.tau
    weights = np.array([abs(c) ** 2 for c in setup.amplitudes])
    separations = pointers[:, None] - pointers[None, :]
    overlaps = np.exp(-(separations**2) / (8.0 * setup.w**2))
    unresolved = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if overlaps[i, j] > RESOLVED_OVERLAP
    )
    return MeasurementRecord(
        eigenvalues=setup.eigenvalues,
        pointer_positions=pointers,
        weights=weights,
        overlap_matrix=overlaps,
        resolved=not unresolved,
        unresolved_pairs=unresolved,
    )


def partial_trace_system(record: MeasurementRecord) -> DensityMatrix:
    """Trace the joint state over the apparatus factor: sum_p |c_p|^2 |p><p|."""
    return DensityMatrix(entries=np.diag(record.weights))


def sample_outcomes(record: MeasurementRecord, n_trials: int, seed: int) -> OutcomeFrequencies:
    """Draw outcomes with the Born weights; identical seeds give identical
    tables.  Reports the worst |empirical - weight| deviation."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(record.eigenvalues), size=n_trials, p=record.weights)
    counts = np.bincount(draws, minlength=len(record.eigenvalues))
    frequencies = counts / n_trials
    deviation = float(np.abs(frequencies - record.weights).max())
    return OutcomeFrequencies(counts=counts, frequencies=frequencies, max_abs_deviation=deviation)
