import dataclasses
import math

import numpy as np
import pytest

from gwfield.hybridmeas import (
    MAX_OUTCOMES,
    MeasurementSetup,
    partial_trace_system,
    sample_outcomes,
)
from gwfield.statequant import DensityMatrix, ProjectorSet, von_neumann_update


def equal_pair(g=1.0, tau=1.0, w=1.0):
    return MeasurementSetup(
        eigenvalues=(1.0, -1.0),
        amplitudes=(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        g=g, tau=tau, w=w,
    )


class TestSetupValidation:
    def test_amplitudes_must_be_normalized(self):
        with pytest.raises(ValueError, match="sum"):
            MeasurementSetup(eigenvalues=(1.0, 2.0), amplitudes=(1.0, 1.0))

    def test_norm_tolerance_is_the_reduced_state_trace_tolerance(self):
        # |c|^2 sums to 1 + 8e-11: inside the old 1e-10, outside the density matrix's 1e-12
        with pytest.raises(ValueError, match="amplitudes must satisfy"):
            MeasurementSetup(eigenvalues=(0.0, 1.0), amplitudes=(0.6, 0.80000000005))
        # 1 + 8e-13 passes, and its reduced state is a density matrix
        setup = MeasurementSetup(eigenvalues=(0.0, 1.0), amplitudes=(0.6, 0.8 + 5e-13))
        assert partial_trace_system(setup).dim == 2

    def test_eigenvalues_and_amplitudes_must_pair_up(self):
        with pytest.raises(ValueError, match="equal length"):
            MeasurementSetup(eigenvalues=(0.0, 1.0), amplitudes=(1.0,))

    def test_width_positive(self):
        with pytest.raises(ValueError):
            MeasurementSetup(eigenvalues=(1.0,), amplitudes=(1.0,), w=0.0)

    def test_duplicate_eigenvalues_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MeasurementSetup(
                eigenvalues=(1.0, 1.0),
                amplitudes=(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
            )

    def test_outcome_count_is_capped(self):
        n = MAX_OUTCOMES + 1
        with pytest.raises(ValueError, match=f"{n} outcomes"):
            MeasurementSetup(eigenvalues=tuple(range(n)), amplitudes=(n**-0.5,) * n)
        MeasurementSetup(eigenvalues=tuple(range(n - 1)), amplitudes=((n - 1) ** -0.5,) * (n - 1))


class TestPostImpulse:
    def test_deterministic_single_outcome(self):
        setup = MeasurementSetup(eigenvalues=(1.0, -1.0), amplitudes=(1.0, 0.0),
                                 g=3.0, tau=2.0)
        assert setup.pointer_positions[0] == setup.y0 + 3.0 * 1.0 * 2.0
        np.testing.assert_allclose(setup.weights, [1.0, 0.0])

    def test_pointer_positions_affine_exact(self):
        setup = MeasurementSetup(
            eigenvalues=(0.5, 1.5, -2.0),
            amplitudes=tuple(math.sqrt(x) for x in (0.2, 0.3, 0.5)),
            y0=0.7, g=4.0, tau=0.25,
        )
        expected = 0.7 + 4.0 * 0.25 * np.asarray(setup.eigenvalues)
        np.testing.assert_array_equal(setup.pointer_positions, expected)

    def test_well_separated_pointers_resolved(self):
        setup = equal_pair(g=10.0, tau=1.0, w=1.0)
        # separation 20 w: overlap exp(-50)
        assert setup.pointer_positions[0] - setup.pointer_positions[1] == 20.0
        assert setup.overlap_matrix[0, 1] < 1e-10
        assert setup.overlap_matrix[0, 1] == pytest.approx(math.exp(-50.0), rel=1e-12)
        assert setup.resolved

    def test_overlapping_pointers_flagged(self):
        setup = equal_pair(g=0.1, tau=1.0, w=1.0)
        assert setup.overlap_matrix[0, 1] > 0.9
        assert not setup.resolved
        assert setup.unresolved_pairs == ((0, 1),)

    @pytest.mark.parametrize("eigenvalues, amplitudes, overlaps", [
        ((0.0, 1.0, 1e308), (0.6, 0.8, 0.0), [[1.0, math.exp(-1 / 8), 0.0], [math.exp(-1 / 8), 1.0, 0.0],
                                               [0.0, 0.0, 1.0]]),
        ((-1e308, 1e308), (0.6, 0.8), np.eye(2)),
    ], ids=["one-far-pointer", "opposite-far-pointers"])
    def test_a_separation_beyond_the_float_range_overlaps_by_zero(self, eigenvalues, amplitudes, overlaps):
        # the CLI raises on overflow; the packets' overlap only underflows to 0
        setup = MeasurementSetup(eigenvalues=eigenvalues, amplitudes=amplitudes)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            np.testing.assert_allclose(setup.overlap_matrix, overlaps, rtol=1e-15, atol=0.0)
        assert setup.resolved == (len(eigenvalues) == 2)


class TestPartialTrace:
    def test_equal_superposition(self):
        setup = equal_pair(g=10.0)
        reduced = partial_trace_system(setup)
        np.testing.assert_allclose(reduced.entries, np.diag([0.5, 0.5]), atol=1e-14)

    def test_born_weights(self):
        setup = MeasurementSetup(
            eigenvalues=(1.0, -1.0),
            amplitudes=(math.sqrt(0.09), math.sqrt(0.91)),
            g=10.0,
        )
        reduced = partial_trace_system(setup)
        np.testing.assert_allclose(reduced.entries, np.diag([0.09, 0.91]), atol=1e-12)

    def test_pure_input_stays_pure(self):
        setup = MeasurementSetup(eigenvalues=(1.0, -1.0), amplitudes=(1.0, 0.0))
        reduced = partial_trace_system(setup)
        assert reduced.purity() == pytest.approx(1.0, abs=1e-12)

    def test_matches_von_neumann_update(self):
        amplitudes = (math.sqrt(0.2), math.sqrt(0.5) * 1j, -math.sqrt(0.3))
        setup = MeasurementSetup(eigenvalues=(0.0, 1.0, 2.0), amplitudes=amplitudes, g=15.0)
        reduced = partial_trace_system(setup)
        rho = DensityMatrix.from_state(np.asarray(amplitudes))
        updated = von_neumann_update(rho, ProjectorSet.computational(3))
        assert np.abs(reduced.entries - updated.entries).max() < 1e-12


class TestSampling:
    def test_certain_outcome(self):
        setup = MeasurementSetup(eigenvalues=(1.0, -1.0), amplitudes=(1.0, 0.0))
        table = sample_outcomes(setup, 1000, seed=1)
        assert table.counts[0] == 1000

    def test_seed_reproducibility(self):
        setup = equal_pair(g=10.0)
        t1 = sample_outcomes(setup, 10_000, seed=42)
        t2 = sample_outcomes(setup, 10_000, seed=42)
        np.testing.assert_array_equal(t1.counts, t2.counts)
        t3 = sample_outcomes(setup, 10_000, seed=43)
        assert not np.array_equal(t1.counts, t3.counts)

    def test_million_trials_within_bound(self):
        setup = equal_pair(g=10.0)
        table = sample_outcomes(setup, 1_000_000, seed=7)
        # binomial 3 sigma is ~1.5e-3; 5e-3 is conservative
        assert table.max_abs_deviation < 5e-3

    def test_convergence_rate(self):
        setup = MeasurementSetup(
            eigenvalues=(1.0, -1.0),
            amplitudes=(math.sqrt(0.3), math.sqrt(0.7)),
            g=10.0,
        )
        # deviation bands scale as 1/sqrt(n): 3-sigma bound at each size
        for n in (10**3, 10**5):
            table = sample_outcomes(setup, n, seed=11)
            bound = 3.0 * math.sqrt(0.3 * 0.7 / n)
            assert table.max_abs_deviation < bound + 1e-12

    def test_a_sample_is_its_setup_and_counts(self):
        setup = equal_pair(g=10.0)
        table = sample_outcomes(setup, 1000, seed=5)
        assert tuple(f.name for f in dataclasses.fields(table)) == ("setup", "counts")
        assert table.setup is setup

    def test_invalid_trials(self):
        setup = equal_pair()
        with pytest.raises(ValueError):
            sample_outcomes(setup, 0, seed=1)
