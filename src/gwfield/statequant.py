"""Finite-dimensional state algebra: density matrices, projector sets,
selective (Lüders) and non-selective (von Neumann) measurement updates,
Schmidt decomposition, and operator-identity checks on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField
from . import spectral

_HERM_TOL = 1e-12
_EIG_TOL = 1e-12
PROB_FLOOR = 1e-14


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=np.complex128).copy()
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
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
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() < -_EIG_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigenvalues.min()}")
        m.setflags(write=False)
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
        for p in mats:
            p.setflags(write=False)
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
    """Selective update: (P_k rho P_k / Tr(P_k rho), Tr(P_k rho))."""
    if rho.dim != projectors.dim:
        raise ValueError("state and projector dimensions differ")
    if not 0 <= k < len(projectors.projectors):
        raise ValueError(f"outcome {k} is outside [0, {len(projectors.projectors)})")
    p_k = projectors.projectors[k]
    prob = float(np.real(np.trace(p_k @ rho.entries)))
    if prob <= PROB_FLOOR:
        raise ValueError(f"outcome {k} has zero probability (Tr P_k rho = {prob})")
    updated = _hermitize(p_k @ rho.entries @ p_k) / prob
    return DensityMatrix(entries=updated), prob


def von_neumann_update(rho: DensityMatrix, projectors: ProjectorSet) -> DensityMatrix:
    """Non-selective update: sum_k P_k rho P_k (diagonal in the projector basis)."""
    if rho.dim != projectors.dim:
        raise ValueError("state and projector dimensions differ")
    out = np.zeros_like(rho.entries)
    for p_k in projectors.projectors:
        out = out + p_k @ rho.entries @ p_k
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
    rank: int
    threshold: float

    @property
    def entangled(self) -> bool:
        return self.rank > 1


def schmidt_decompose(
    amplitudes, threshold: float | None = None, renormalize: bool = False
) -> SchmidtResult:
    """SVD of a bipartite amplitude matrix.

    The input must have unit Frobenius norm (i.e. a normalized state) unless
    ``renormalize`` is set.  The rank counts singular values >= threshold
    (default 1e-10 times the largest; an explicit one must be positive, since
    a zero threshold would count exact zeros); rank > 1 means the state is
    entangled.
    """
    if threshold is not None and not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    c = np.asarray(amplitudes, dtype=np.complex128)
    if c.ndim != 2:
        raise ValueError("amplitude matrix must be 2D")
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
    return SchmidtResult(
        coefficients=s[:rank].copy(),
        left_basis=u[:, :rank].copy(),
        right_basis=vh[:rank, :].copy(),
        rank=rank,
        threshold=tau,
    )


def sawtooth_coordinate(grid, axis: int) -> np.ndarray:
    """Centered periodic coordinate along ``axis``: range [-L/2, L/2).

    The 2*pi-periodic identification puts a jump (the seam) halfway around
    the box, so operator identities using this coordinate only hold for
    fields supported away from the seam.
    """
    n = grid.n_points[axis]
    dx = grid.spacings[axis]
    line = (np.arange(n) - n * (np.arange(n) >= n // 2)) * dx
    shape = [1] * grid.dim
    shape[axis] = n
    return np.broadcast_to(line.reshape(shape), grid.shape).copy()


@dataclass(frozen=True)
class CommutatorCheck:
    """max |[D_i, x_j] psi + i s delta_ij psi| / max |psi| plus a seam warning."""

    residual: float
    seam_warning: bool


def commutator_check(
    field: ComplexField, i: int = 0, j: int = 0, momentum_scale: float = 1.0
) -> CommutatorCheck:
    """Verify [D_i, x_j] = -i delta_ij on a smooth, seam-avoiding test field.

    D_i = -i s d/dx_i with s = ``momentum_scale`` (1 for the bare displacement
    operator, hbar for the momentum operator), applied spectrally; x_j is the
    centered sawtooth coordinate.  Fields with support at the coordinate seam
    get a warning flag: the sawtooth discontinuity invalidates the check there.
    """
    grid = field.grid
    if not (0 <= i < grid.dim and 0 <= j < grid.dim):
        raise ValueError("axis indices out of range")
    x_j = sawtooth_coordinate(grid, j)
    s = momentum_scale

    def displacement(values: np.ndarray) -> np.ndarray:
        return -1j * s * spectral.gradient(values, grid)[i]

    commutator = displacement(x_j * field.values) - x_j * displacement(field.values)
    delta = 1.0 if i == j else 0.0
    residual_field = commutator + 1j * s * delta * field.values
    peak = float(np.abs(field.values).max())
    residual = float(np.abs(residual_field).max()) / peak
    seam_index = grid.n_points[j] // 2
    take = [slice(None)] * grid.dim
    take[j] = slice(seam_index - 1, seam_index + 2)
    seam_amplitude = float(np.abs(field.values[tuple(take)]).max()) / peak
    return CommutatorCheck(residual=residual, seam_warning=seam_amplitude > 1e-8)


@dataclass(frozen=True)
class ScalingCheck:
    """Idempotence report for the outer product of a scaled state."""

    residual: float
    predicted: float
    idempotent: bool


def projector_scaling_check(state, scale: complex) -> ScalingCheck:
    """Build P = |s psi><s psi| without normalizing and report ||P^2 - P||_F.

    With w = ||s psi||^2 one has P^2 = w P, so the Frobenius residual is
    |w - 1| * w: zero exactly when |scale| = 1 and the input is normalized.
    """
    scale = complex(scale)
    if scale == 0:
        raise ValueError("scale must be nonzero")
    v = scale * np.asarray(state, dtype=np.complex128).ravel()
    p = np.outer(v, v.conj())
    w = float(np.real(np.vdot(v, v)))
    residual = float(np.linalg.norm(p @ p - p))
    predicted = abs(w - 1.0) * w
    return ScalingCheck(
        residual=residual,
        predicted=predicted,
        idempotent=residual <= 1e-12 * max(1.0, w**2),
    )
