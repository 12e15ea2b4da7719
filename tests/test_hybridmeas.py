import math

import numpy as np
import pytest

from gwfield.hybridmeas import (
    MAX_OUTCOMES,
    MeasurementSetup,
    partial_trace_system,
    run_measurement,
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

    def test_width_positive(self):
        with pytest.raises(ValueError):
            MeasurementSetup(eigenvalues=(1.0,), amplitudes=(1.0,), w=0.0)


class TestRunMeasurement:
    def test_deterministic_single_outcome(self):
        setup = MeasurementSetup(eigenvalues=(1.0, -1.0), amplitudes=(1.0, 0.0),
                                 g=3.0, tau=2.0)
        record = run_measurement(setup)
        assert record.pointer_positions[0] == setup.y0 + 3.0 * 1.0 * 2.0
        np.testing.assert_allclose(record.weights, [1.0, 0.0])

    def test_pointer_positions_affine_exact(self):
        setup = MeasurementSetup(
            eigenvalues=(0.5, 1.5, -2.0),
            amplitudes=tuple(math.sqrt(x) for x in (0.2, 0.3, 0.5)),
            y0=0.7, g=4.0, tau=0.25,
        )
        record = run_measurement(setup)
        expected = 0.7 + 4.0 * 0.25 * np.asarray(setup.eigenvalues)
        np.testing.assert_array_equal(record.pointer_positions, expected)

    def test_well_separated_pointers_resolved(self):
        record = run_measurement(equal_pair(g=10.0, tau=1.0, w=1.0))
        # separation 20 w: overlap exp(-50)
        assert record.pointer_positions[0] - record.pointer_positions[1] == 20.0
        assert record.overlap_matrix[0, 1] < 1e-10
        assert record.overlap_matrix[0, 1] == pytest.approx(math.exp(-50.0), rel=1e-12)
        assert record.resolved

    def test_overlapping_pointers_flagged(self):
        record = run_measurement(equal_pair(g=0.1, tau=1.0, w=1.0))
        assert record.overlap_matrix[0, 1] > 0.9
        assert not record.resolved
        assert record.unresolved_pairs == ((0, 1),)

    def test_duplicate_eigenvalues_rejected(self):
        setup = MeasurementSetup(
            eigenvalues=(1.0, 1.0),
            amplitudes=(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        )
        with pytest.raises(ValueError, match="duplicate"):
            run_measurement(setup)

    def test_outcome_count_is_capped(self):
        n = MAX_OUTCOMES + 1
        setup = MeasurementSetup(eigenvalues=tuple(range(n)), amplitudes=(n**-0.5,) * n)
        with pytest.raises(ValueError, match=f"{n} outcomes"):
            run_measurement(setup)


class TestPartialTrace:
    def test_equal_superposition(self):
        record = run_measurement(equal_pair(g=10.0))
        reduced = partial_trace_system(record)
        np.testing.assert_allclose(reduced.entries, np.diag([0.5, 0.5]), atol=1e-14)

    def test_born_weights(self):
        setup = MeasurementSetup(
            eigenvalues=(1.0, -1.0),
            amplitudes=(math.sqrt(0.09), math.sqrt(0.91)),
            g=10.0,
        )
        reduced = partial_trace_system(run_measurement(setup))
        np.testing.assert_allclose(reduced.entries, np.diag([0.09, 0.91]), atol=1e-12)

    def test_pure_input_stays_pure(self):
        setup = MeasurementSetup(eigenvalues=(1.0, -1.0), amplitudes=(1.0, 0.0))
        reduced = partial_trace_system(run_measurement(setup))
        assert reduced.purity() == pytest.approx(1.0, abs=1e-12)

    def test_matches_von_neumann_update(self):
        amplitudes = (math.sqrt(0.2), math.sqrt(0.5) * 1j, -math.sqrt(0.3))
        setup = MeasurementSetup(eigenvalues=(0.0, 1.0, 2.0), amplitudes=amplitudes, g=15.0)
        reduced = partial_trace_system(run_measurement(setup))
        rho = DensityMatrix.from_state(np.asarray(amplitudes))
        updated = von_neumann_update(rho, ProjectorSet.computational(3))
        assert np.abs(reduced.entries - updated.entries).max() < 1e-12


class TestSampling:
    def test_certain_outcome(self):
        setup = MeasurementSetup(eigenvalues=(1.0, -1.0), amplitudes=(1.0, 0.0))
        record = run_measurement(setup)
        table = sample_outcomes(record, 1000, seed=1)
        assert table.counts[0] == 1000

    def test_seed_reproducibility(self):
        record = run_measurement(equal_pair(g=10.0))
        t1 = sample_outcomes(record, 10_000, seed=42)
        t2 = sample_outcomes(record, 10_000, seed=42)
        np.testing.assert_array_equal(t1.counts, t2.counts)
        t3 = sample_outcomes(record, 10_000, seed=43)
        assert not np.array_equal(t1.counts, t3.counts)

    def test_million_trials_within_bound(self):
        record = run_measurement(equal_pair(g=10.0))
        table = sample_outcomes(record, 1_000_000, seed=7)
        # binomial 3 sigma is ~1.5e-3; 5e-3 is conservative
        assert table.max_abs_deviation < 5e-3

    def test_convergence_rate(self):
        setup = MeasurementSetup(
            eigenvalues=(1.0, -1.0),
            amplitudes=(math.sqrt(0.3), math.sqrt(0.7)),
            g=10.0,
        )
        record = run_measurement(setup)
        # deviation bands scale as 1/sqrt(n): 3-sigma bound at each size
        for n in (10**3, 10**5):
            table = sample_outcomes(record, n, seed=11)
            bound = 3.0 * math.sqrt(0.3 * 0.7 / n)
            assert table.max_abs_deviation < bound + 1e-12

    def test_invalid_trials(self):
        record = run_measurement(equal_pair())
        with pytest.raises(ValueError):
            sample_outcomes(record, 0, seed=1)
