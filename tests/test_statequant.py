import math

import numpy as np
import pytest

from gwfield.statequant import (
    TRACE_TOL,
    DensityMatrix,
    ProjectorSet,
    luders_update,
    schmidt_decompose,
    von_neumann_update,
)

from conftest import registry_measurements


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mixed_state(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(entries=m / np.trace(m))


def random_pure_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def split_state(basis, rank, p, rng):
    """A pure state of weight ``p`` on the span of the first ``rank`` columns of the unitary
    ``basis``, and the projectors onto that span (outcome 0) and onto its complement."""
    head = basis[:, :rank] @ random_pure_state(rank, rng)
    tail = basis[:, rank:] @ random_pure_state(len(basis) - rank, rng)
    p_head = basis[:, :rank] @ basis[:, :rank].conj().T
    return (DensityMatrix.from_state(math.sqrt(p) * head + math.sqrt(1.0 - p) * tail),
            ProjectorSet(projectors=(p_head, np.eye(len(basis)) - p_head)))


# the computational basis rotated by 0.3 rad
ROTATED = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
PLUS = DensityMatrix(entries=0.5 * np.ones((2, 2), dtype=complex))


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(entries=np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(entries=np.eye(2, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(entries=np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("entries", [[[math.nan, 0.0], [0.0, math.nan]], [[1.0, math.nan], [math.nan, 0.0]]],
                             ids=["nan-diagonal", "nan-off-diagonal"])
    def test_non_finite_entries_rejected(self, entries):
        # every comparison with NaN is false, so only a finite check refuses these
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            DensityMatrix(entries=entries)

    def test_from_state_normalizes(self):
        rho = DensityMatrix.from_state([3.0, 4.0j])
        assert abs(rho.entries[0, 0] - 0.36) < 1e-12
        assert abs(rho.purity() - 1.0) < 1e-12


class TestProjectorSet:
    def test_computational_valid(self):
        pset = ProjectorSet.computational(4)
        assert len(pset) == 4

    def test_incomplete_rejected(self):
        eye = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="identity"):
            ProjectorSet(projectors=(np.outer(eye[:, 0], eye[:, 0]),
                                     np.outer(eye[:, 1], eye[:, 1])))

    def test_non_finite_projector_rejected(self):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            ProjectorSet(projectors=(np.diag([1.0, math.nan]), np.diag([0.0, 1.0])))

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            ProjectorSet(projectors=(0.5 * np.eye(2, dtype=complex),
                                     0.5 * np.eye(2, dtype=complex)))


def test_a_read_only_owned_matrix_is_adopted_and_a_writable_one_copied():
    frozen = [np.diag(d).astype(np.complex128) for d in ([0.36, 0.64], [1.0, 0.0], [0.0, 1.0])]
    writable = [np.diag(d).astype(np.complex128) for d in ([0.36, 0.64], [1.0, 0.0], [0.0, 1.0])]
    for m in frozen:
        m.setflags(write=False)
    assert DensityMatrix(entries=frozen[0]).entries is frozen[0]
    assert all(a is b for a, b in zip(ProjectorSet(projectors=tuple(frozen[1:])).projectors, frozen[1:]))
    kept = (DensityMatrix(entries=writable[0]).entries, *ProjectorSet(projectors=tuple(writable[1:])).projectors)
    for a, b in zip(kept, writable):
        assert a is not b and np.array_equal(a, b) and not a.flags.writeable
    writable[0][0, 0] = 0.5
    assert kept[0][0, 0] == 0.36


class TestLuders:
    def test_equal_superposition(self):
        pset = ProjectorSet.computational(2)
        updated, prob = luders_update(PLUS, pset, 0)
        assert abs(prob - 0.5) < 1e-12
        np.testing.assert_allclose(updated.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotence(self):
        pset = ProjectorSet.computational(2)
        updated, _ = luders_update(PLUS, pset, 0)
        again, prob = luders_update(updated, pset, 0)
        assert abs(prob - 1.0) < 1e-12
        np.testing.assert_allclose(again.entries, updated.entries, atol=1e-12)

    def test_rank_one_projector_oracle(self, rng):
        v = random_pure_state(3, rng)
        rho = DensityMatrix.from_state(v)
        pset = ProjectorSet.computational(3)
        k = 1
        updated, prob = luders_update(rho, pset, k)
        # direct expansion oracle: prob = <k|rho|k>, output = |k><k|
        assert abs(prob - abs(v[k]) ** 2) < 1e-12
        expected = np.zeros((3, 3), dtype=complex)
        expected[k, k] = 1.0
        np.testing.assert_allclose(updated.entries, expected, atol=1e-12)

    def test_zero_probability_rejected(self):
        rho = DensityMatrix(entries=np.diag([1.0, 0.0]).astype(complex))
        pset = ProjectorSet.computational(2)
        with pytest.raises(ValueError, match="zero probability"):
            luders_update(rho, pset, 1)

    def test_a_low_probability_outcome_updates_to_unit_trace(self, rng):
        # the probability and the state come from one product, so their traces agree
        for p in (1e-5, 1e-6, 1e-8):
            rho, pset = split_state(ROTATED, 1, p, rng)
            updated, prob = luders_update(rho, pset, 0)
            assert prob == pytest.approx(p, rel=1e-6)
            assert abs(np.trace(updated.entries) - 1.0) <= TRACE_TOL

    def test_an_update_that_rounding_leaves_no_state_is_a_numerical_failure(self, rng):
        # a rank-2 product normalised by p = 1e-8 carries rounding of about eps/p
        rho, pset = split_state(random_unitary(4, rng), 2, 1e-8, rng)
        with pytest.raises(RuntimeError, match=r"^outcome 0 of probability \S+e-0[89] updates to no density "
                                               r"matrix: density matrix has negative eigenvalue"):
            luders_update(rho, pset, 0)

    def test_outputs_valid_over_random_states(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            rho = random_mixed_state(dim, rng)
            pset = ProjectorSet.from_basis(random_unitary(dim, rng))
            probs = []
            for k in range(dim):
                try:
                    updated, prob = luders_update(rho, pset, k)
                except ValueError:
                    continue
                probs.append(prob)
                assert updated.dim == dim  # construction itself validates
            assert abs(sum(probs) - 1.0) < 1e-12


class TestVonNeumann:
    def test_diagonal_fixed_point(self):
        rho = DensityMatrix(entries=np.diag([0.2, 0.3, 0.5]).astype(complex))
        out = von_neumann_update(rho, ProjectorSet.computational(3))
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)

    def test_equal_superposition_decoheres(self):
        out = von_neumann_update(PLUS, ProjectorSet.computational(2))
        np.testing.assert_allclose(out.entries, np.diag([0.5, 0.5]), atol=1e-14)

    def test_idempotent_map(self, rng):
        rho = random_mixed_state(4, rng)
        pset = ProjectorSet.from_basis(random_unitary(4, rng))
        once = von_neumann_update(rho, pset)
        twice = von_neumann_update(once, pset)
        assert np.abs(twice.entries - once.entries).max() < 1e-12

    def test_matches_weighted_luders(self, rng):
        rho = random_mixed_state(5, rng)
        pset = ProjectorSet.from_basis(random_unitary(5, rng))
        acc = np.zeros((5, 5), dtype=complex)
        for k in range(5):
            updated, prob = luders_update(rho, pset, k)
            acc += prob * updated.entries
        out = von_neumann_update(rho, pset)
        assert np.abs(out.entries - acc).max() < 1e-12

    def test_purity_never_increases(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            rho = random_mixed_state(dim, rng)
            pset = ProjectorSet.from_basis(random_unitary(dim, rng))
            out = von_neumann_update(rho, pset)
            assert out.purity() <= rho.purity() + 1e-12
            assert abs(np.trace(out.entries) - 1.0) < 1e-14


class TestSchmidt:
    def test_bell_type(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0)
        result = schmidt_decompose(c)
        np.testing.assert_allclose(result.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert result.rank == 2
        assert result.entangled

    def test_product_state_rank_one(self, rng):
        a = random_pure_state(3, rng)
        b = random_pure_state(4, rng)
        result = schmidt_decompose(np.outer(a, b))
        assert result.rank == 1
        assert not result.entangled

    def test_reconstruction_and_normalization(self, rng):
        c = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        c /= np.linalg.norm(c)
        result = schmidt_decompose(c)
        assert abs(np.sum(result.coefficients**2) - 1.0) < 1e-10
        recon = result.left_basis @ np.diag(result.coefficients) @ result.right_basis
        assert np.abs(recon - c).max() < 1e-10

    def test_local_unitary_invariance(self, rng):
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c /= np.linalg.norm(c)
        u = random_unitary(3, rng)
        v = random_unitary(3, rng)
        before = schmidt_decompose(c).coefficients
        after = schmidt_decompose(u @ c @ v.T).coefficients
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_non_finite_matrix_rejected(self):
        # without the check the SVD runs, and fails with LinAlgError (a numerical failure)
        with pytest.raises(ValueError, match="amplitude matrix entries must be finite"):
            schmidt_decompose([[math.nan, 0.0], [0.0, 1.0]])

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            schmidt_decompose(np.zeros((2, 2)))

    def test_unnormalized_needs_flag(self):
        c = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="renormalize"):
            schmidt_decompose(c)
        result = schmidt_decompose(c, renormalize=True)
        assert abs(np.sum(result.coefficients**2) - 1.0) < 1e-10

    @pytest.mark.parametrize("threshold", [0.0, -1e-3, float("nan")])
    def test_nonpositive_threshold_rejected(self, threshold):
        # a zero threshold would count the exact zero singular value of a
        # product state and call it entangled
        product = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="threshold must be finite and positive"):
            schmidt_decompose(product, threshold=threshold)
        assert schmidt_decompose(product, threshold=1e-12).rank == 1

    def test_threshold_above_largest_coefficient_rejected(self):
        # a nonzero state has Schmidt rank >= 1: no threshold may leave it none
        bell = np.eye(2) / math.sqrt(2.0)
        with pytest.raises(ValueError, match=r"threshold 2 is above the largest Schmidt coefficient 0\.707107"):
            schmidt_decompose(bell, threshold=2.0)
        assert schmidt_decompose(bell, threshold=0.7).rank == 2


@pytest.mark.parametrize("build, message", [
    (lambda: DensityMatrix(entries=np.full((2, 3), 0.5)), r"square matrix, got shape \(2, 3\)"),
    (lambda: DensityMatrix.from_state([0.0, 0.0]), "null state"),
    (lambda: ProjectorSet(projectors=()), "non-empty"),
    (lambda: ProjectorSet(projectors=(np.eye(2), np.eye(3))), "share one dimension"),
    # idempotent, but not Hermitian
    (lambda: ProjectorSet(projectors=(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 1.0]]))),
     "projector 0 is not Hermitian"),
    # |0><0| and |+><+|: each a projector, their product not zero
    (lambda: ProjectorSet.from_basis(np.array([[1.0, math.sqrt(0.5)], [0.0, math.sqrt(0.5)]])),
     "projectors 0 and 1 are not orthogonal"),
    (lambda: luders_update(PLUS, ProjectorSet.computational(3), 0), "dimensions differ"),
    (lambda: von_neumann_update(PLUS, ProjectorSet.computational(3)), "dimensions differ"),
    (lambda: schmidt_decompose([0.6, 0.8]), "must be 2D"),
], ids=["non-square", "null-state", "empty-set", "mixed-dimensions", "non-hermitian-projector",
        "non-orthogonal-projectors", "luders-dimensions", "von-neumann-dimensions", "schmidt-1d"])
def test_each_refusal_names_its_defect(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestCommutator:
    """[D_i, x_j] = -i delta_ij lives in the ``canonical-commutator`` invariant."""

    def test_displacement_identity_1d(self):
        measured = registry_measurements("canonical-commutator")
        assert measured["seam_amplitude"] < 1e-8
        assert measured["diagonal_residual_1d"] < 1e-6

    def test_off_diagonal_2d(self):
        assert registry_measurements("canonical-commutator")["off_diagonal_residual_2d"] < 1e-6


@pytest.mark.parametrize("k", [-1, 2])
def test_luders_outcome_out_of_range_rejected(k):
    with pytest.raises(ValueError, match="outside"):
        luders_update(PLUS, ProjectorSet.computational(2), k)
