"""Finite-dimensional state algebra: density matrices, projector sets,
selective (Lüders) and non-selective (von Neumann) measurement updates, and
Schmidt decomposition.  The canonical commutator on the grid is a registry
invariant of :mod:`gwfield.selfcheck`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import require_positive
from .fields import frozen_array

_HERM_TOL = 1e-12
_EIG_TOL = 1e-12
# largest |trace - 1| of a density matrix, and of sum |c_p|^2 - 1 of a measured state
TRACE_TOL = 1e-12
PROB_FLOOR = 1e-14


def _as_complex_matrix(entries) -> np.ndarray:
    m = frozen_array(entries, np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.entries)
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > _HERM_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() < -_EIG_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigenvalues.min()}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_state(cls, state) -> "DensityMatrix":
        v = np.asarray(state, dtype=np.complex128).ravel()
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("cannot build a density matrix from the null state")
        v = v / n
        return cls(entries=np.outer(v, v.conj()))

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


@dataclass(frozen=True)
class ProjectorSet:
    """Complete set of mutually orthogonal Hermitian projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = tuple(_as_complex_matrix(p) for p in self.projectors)
        if not mats:
            raise ValueError("projector set must be non-empty")
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for idx, p in enumerate(mats):
            if p.shape != (dim, dim):
                raise ValueError("projectors must share one dimension")
            if np.abs(p - p.conj().T).max() > _HERM_TOL:
                raise ValueError(f"projector {idx} is not Hermitian")
            if np.abs(p @ p - p).max() > _HERM_TOL:
                raise ValueError(f"projector {idx} is not idempotent")
            total += p
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if np.abs(mats[i] @ mats[j]).max() > _HERM_TOL:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal")
        if np.abs(total - np.eye(dim)).max() > _HERM_TOL:
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", mats)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)

    @classmethod
    def computational(cls, dim: int) -> "ProjectorSet":
        return cls.from_basis(np.eye(dim))

    @classmethod
    def from_basis(cls, basis: np.ndarray) -> "ProjectorSet":
        """Rank-1 projectors onto the columns of a unitary matrix."""
        b = np.asarray(basis, dtype=np.complex128)
        return cls(
            projectors=tuple(np.outer(b[:, k], b[:, k].conj()) for k in range(b.shape[1]))
        )


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def luders_update(
    rho: DensityMatrix, projectors: ProjectorSet, k: int
) -> tuple[DensityMatrix, float]:
    """Selective update: (P_k rho P_k / p, p), with p = Tr(P_k rho P_k) the trace of the one
    product it normalises.  A result that rounding (about eps/p) leaves outside the
    :class:`DensityMatrix` checks raises RuntimeError naming ``k`` and ``p``."""
    if rho.dim != projectors.dim:
        raise ValueError("state and projector dimensions differ")
    if not 0 <= k < len(projectors):
        raise ValueError(f"outcome {k} is outside [0, {len(projectors)})")
    p_k = projectors.projectors[k]
    updated = _hermitize(p_k @ rho.entries @ p_k)
    prob = float(np.real(np.trace(updated)))
    if prob <= PROB_FLOOR:
        raise ValueError(f"outcome {k} has zero probability (Tr P_k rho = {prob})")
    try:
        return DensityMatrix(entries=updated / prob), prob
    except ValueError as exc:
        raise RuntimeError(f"outcome {k} of probability {prob!r} updates to no density matrix: {exc}") from None


def von_neumann_update(rho: DensityMatrix, projectors: ProjectorSet) -> DensityMatrix:
    """Non-selective update: sum_k P_k rho P_k (diagonal in the projector basis)."""
    if rho.dim != projectors.dim:
        raise ValueError("state and projector dimensions differ")
    out = sum(p_k @ rho.entries @ p_k for p_k in projectors.projectors)
    return DensityMatrix(entries=_hermitize(out))


@dataclass(frozen=True)
class SchmidtResult:
    """Singular values above threshold with the matching orthonormal bases.

    ``left_basis`` holds the left vectors as columns (dA x rank); and
    ``right_basis`` the right vectors as rows (rank x dB), so the input matrix
    reconstructs as left @ diag(coefficients) @ right.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    threshold: float

    rank = property(lambda self: len(self.coefficients))
    entangled = property(lambda self: self.rank > 1)


def schmidt_decompose(
    amplitudes, threshold: float | None = None, renormalize: bool = False
) -> SchmidtResult:
    """SVD of a bipartite amplitude matrix.

    The input must have unit Frobenius norm (i.e. a normalized state) unless
    ``renormalize`` is set.  The rank counts singular values >= threshold
    (default 1e-10 times the largest; an explicit one must be positive, since
    a zero threshold would count exact zeros, and must not exceed the largest,
    since a nonzero state has rank >= 1); rank > 1 means the state is
    entangled.
    """
    if threshold is not None:
        require_positive("threshold", threshold)
    c = np.asarray(amplitudes, dtype=np.complex128)
    if c.ndim != 2:
        raise ValueError("amplitude matrix must be 2D")
    if not np.isfinite(c).all():
        raise ValueError("amplitude matrix entries must be finite")
    frob = float(np.linalg.norm(c))
    if frob == 0.0:
        raise ValueError("cannot decompose the zero matrix")
    if renormalize:
        c = c / frob
    elif abs(frob - 1.0) > 1e-8:
        raise ValueError(f"amplitude matrix has Frobenius norm {frob}; pass renormalize=True")
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    tau = 1e-10 * float(s[0]) if threshold is None else float(threshold)
    rank = int(np.sum(s >= tau))
    if rank == 0:
        raise ValueError(f"threshold {tau:g} is above the largest Schmidt coefficient {s[0]:g}")
    return SchmidtResult(
        coefficients=frozen_array(s[:rank], float),
        left_basis=frozen_array(u[:, :rank], np.complex128),
        right_basis=frozen_array(vh[:rank, :], np.complex128),
        threshold=tau,
    )

