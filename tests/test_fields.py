import csv
import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from gwfield.constants import CGS, CgsConstants, thermal_energy
from gwfield.fields import (
    NORM_TOL,
    ComplexField,
    Grid,
    inner_product,
    make_plane_wave,
    normalize,
)
from gwfield import bosestat, cmbrvac, fieldio, helicity, hybridmeas, madelung, selfcheck, statequant, wavemech
from gwfield.fieldio import (_BLOCK_ROWS, _SIDECAR_KEYS, ConfigError, GridColumn, _complex_from_pair, _spec_floats,
                             _spec_int, _spec_matrix, _table_reader, read_field, read_object, write_field, write_table)

from conftest import coordinate_meshes, random_field, registry_measurements, run_entry
from test_kernels import plain_laplacian


def read_rows(path):
    """The header and the rows of a numeric CSV, through fieldio's block reader."""
    with path.open(newline="") as handle:
        header, blocks = _table_reader(handle, path)
        return header, np.concatenate(list(blocks))


class TestConstants:
    """The table's identities live in the ``constants-identities`` invariant."""

    def test_all_positive(self):
        for name, value in asdict(CGS).items():
            assert value > 0.0 and math.isfinite(value), name

    def test_thermal_energy_is_k_B_T_or_a_refusal_naming_T(self):
        assert thermal_energy(2.7) == CGS.k_B * 2.7
        assert thermal_energy(1e-300) == CGS.k_B * 1e-300 > 0.0
        with pytest.raises(ValueError, match=r"^T = 1e-320 underflows kT = k_B\*T to 0$"):
            thermal_energy(1e-320)
        for refused in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^T must be finite and positive"):
                thermal_energy(refused)

    def test_alpha_identity(self):
        assert registry_measurements("constants-identities")["alpha_deviation"] < 1e-6

    def test_bohr_magneton_identity(self):
        assert registry_measurements("constants-identities")["bohr_magneton_deviation"] < 1e-6

    def test_inconsistent_table_rejected(self, monkeypatch):
        monkeypatch.setattr(selfcheck, "CGS", CgsConstants(alpha=8e-3))
        assert [m.name for m in run_entry("constants-identities").misses] == ["alpha_deviation"]

    def test_checksum_stable(self):
        def digest(table):
            return hashlib.sha256(json.dumps(asdict(table), sort_keys=True).encode()).hexdigest()
        assert digest(CGS) == digest(CgsConstants())


_PSI = ComplexField(grid=Grid.of(16, 1.0), values=np.exp(np.linspace(0.0, 1.0, 16)))
_BAND = bosestat.FrequencyBand(1e11, 1e9)
# (site, parameter, call): each library entry that takes a finite positive parameter
_POSITIVE_SITES = [
    ("Grid", "lengths", lambda v: Grid.of(16, v)),
    ("EffectiveMassParams", "omega_ref", lambda v: wavemech.EffectiveMassParams(v)),
    ("GaussianPacketSpec", "sigma0", lambda v: wavemech.GaussianPacketSpec((0.5,), v, (0.0,))),
    ("MeasurementSetup", "w", lambda v: hybridmeas.MeasurementSetup((0.0,), (1.0,), w=v)),
    ("MeasurementSetup", "tau", lambda v: hybridmeas.MeasurementSetup((0.0,), (1.0,), tau=v)),
    ("VacuumModel", "T", lambda v: cmbrvac.VacuumModel(1e9, T=v)),
    ("VacuumModel", "omega_c", lambda v: cmbrvac.VacuumModel(v)),
    ("VacuumModel", "V_over_B", lambda v: cmbrvac.anomalous_moment(cmbrvac.VacuumModel(1e9, V_over_B=v))),
    ("cutoff_for_moment", "a_target", cmbrvac.cutoff_for_moment),
    ("qed_vacuum_energy", "omega_c", cmbrvac.qed_vacuum_energy),
    ("casimir_coefficient", "T", cmbrvac.casimir_coefficient),
    ("casimir_pressure", "a", cmbrvac.casimir_pressure),
    ("QuantumPotentialField", "m_star", lambda v: madelung.quantum_potential(madelung.MadelungForm(_PSI), v)),
    ("TimeSeriesField", "dt", lambda v: helicity.TimeSeriesField(_PSI.grid, np.ones((8, 16)), v)),
    ("first_order_charge", "k0", lambda v: helicity.first_order_charge(_PSI, v)),
    ("FrequencyBand", "nu", lambda v: bosestat.FrequencyBand(v, 1e9)),
    ("FrequencyBand", "d_nu", lambda v: bosestat.FrequencyBand(1e11, v)),
    ("FrequencyBand", "volume", lambda v: bosestat.FrequencyBand(1e11, 1e9, v).n_states),
    ("geometric_occupancy", "T", lambda v: bosestat.geometric_occupancy(_BAND, v, r_max=60)),
    ("ThermoState", "beta", lambda v: bosestat.ThermoState(v, 0)),
    ("maximize_entropy", "e_target", lambda v: bosestat.maximize_entropy([_BAND], v, 60)),
    ("planck_density", "T", lambda v: bosestat.planck_density(1e11, v)),
    ("planck_density", "nu", lambda v: bosestat.planck_density(v, 2.7)),
    ("planck_density-array", "nu", lambda v: bosestat.planck_density([1e11, v, 2e11], 2.7)),
    ("schmidt_decompose", "threshold",
     lambda v: statequant.schmidt_decompose(np.eye(2) / math.sqrt(2.0), threshold=v)),
]
_WAVE = wavemech.ClassicalWaveState(psi=_PSI, psi_dot=_PSI)
# the masses and times that may be zero but must be finite
_NON_NEGATIVE_SITES = [
    ("EffectiveMassParams", "mu", lambda v: wavemech.EffectiveMassParams(3e11, mu=v)),
    ("wave_energy", "mu", lambda v: wavemech.wave_energy(_WAVE, v)),
    ("evolve_classical_wave", "mu", lambda v: wavemech.evolve_classical_wave(_WAVE, v, 1e-12)),
    ("evolve_schrodinger", "t", lambda v: wavemech.evolve_schrodinger(_PSI, wavemech.EffectiveMassParams(3e11), v)),
]
# the values that may take any sign but must be finite (a negative dt runs backward)
_FINITE_SITES = [
    ("MeasurementSetup", "y0", lambda v: hybridmeas.MeasurementSetup((0.0, 1.0), (0.6, 0.8), y0=v)),
    ("MeasurementSetup", "g", lambda v: hybridmeas.MeasurementSetup((0.0, 1.0), (0.6, 0.8), g=v)),
    ("MeasurementSetup", "eigenvalues", lambda v: hybridmeas.MeasurementSetup((0.0, v), (0.6, 0.8))),
    ("MeasurementSetup", "amplitudes", lambda v: hybridmeas.MeasurementSetup((0.0, 1.0), (0.6, v))),
    ("bohm_step", "dt", lambda v: madelung.run_trajectory(
        madelung.quantum_potential(madelung.MadelungForm(_PSI), 1.0), [[0.5]], [[0.0]], v, 3, "massive")),
]
_NON_FINITE = (math.nan, math.inf, -math.inf)
_REFUSED = (-1.0, *_NON_FINITE)


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{site}.{name}={value}")
    for sites, values in ((_POSITIVE_SITES, (0.0, *_REFUSED)), (_NON_NEGATIVE_SITES, _REFUSED),
                          (_FINITE_SITES, _NON_FINITE))
    for site, name, call in sites for value in values])
def test_a_parameter_out_of_its_domain_is_refused_by_name(name, call, value):
    """A non-finite, negative (where it must not be) or zero (where it must be positive)
    physical parameter raises a ValueError whose message starts with the parameter's name,
    never a NaN or inf result."""
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call(value)


class TestGrid:
    def test_spacing_exact(self):
        grid = Grid.of((16, 32), (2.0, 4.0))
        assert grid.spacings == (2.0 / 16, 4.0 / 32)
        assert grid.cell_volume == (2.0 / 16) * (4.0 / 32)

    def test_odd_points_rejected(self):
        with pytest.raises(ValueError):
            Grid.of(9, 1.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            Grid.of(4, 1.0)

    @pytest.mark.parametrize("n_points", [16.9, math.nan, math.inf])
    def test_a_fractional_point_count_is_refused(self, n_points):
        with pytest.raises(ValueError, match=r"^n_points\[0\] must be a whole even number"):
            Grid.of(n_points, 1.0)
        assert Grid.of(16.0, 1.0).n_points == Grid.of(16, 1.0).n_points == (16,)

    def test_one_length_per_axis(self):
        with pytest.raises(ValueError, match="one entry per axis"):
            Grid(n_points=(16, 16), lengths=(1.0,))

    def test_dim_limit(self):
        with pytest.raises(ValueError, match="dim must be 1, 2 or 3, got 4"):
            Grid(n_points=(8, 8, 8, 8), lengths=(1.0,) * 4)


class TestComplexField:
    def test_values_off_the_grid_rejected(self):
        with pytest.raises(ValueError, match=r"values shape \(8,\) does not match grid \(16,\)"):
            ComplexField(grid=Grid.of(16, 1.0), values=np.ones(8, dtype=complex))

    def test_nan_rejected(self):
        grid = Grid.of(8, 1.0)
        values = np.ones(8, dtype=complex)
        values[3] = np.nan
        with pytest.raises(ValueError):
            ComplexField(grid=grid, values=values)

    def test_values_immutable(self):
        grid = Grid.of(8, 1.0)
        field = ComplexField(grid=grid, values=np.ones(8, dtype=complex))
        with pytest.raises(ValueError):
            field.values[0] = 2.0

    def test_adopts_only_read_only_arrays_that_own_their_data(self):
        grid = Grid.of(8, 1.0)
        fresh = np.ones(8, dtype=complex)
        fresh.setflags(write=False)
        assert ComplexField(grid=grid, values=fresh).values is fresh
        writable = np.ones(8, dtype=complex)
        field = ComplexField(grid=grid, values=writable)
        writable[0] = 5.0
        assert field.values[0] == 1.0 and not field.values.flags.writeable
        view = np.ones(16, dtype=complex)[::2]
        view.setflags(write=False)
        assert not np.shares_memory(ComplexField(grid=grid, values=view).values, view)
        real = np.ones(8)
        real.setflags(write=False)
        assert ComplexField(grid=grid, values=real).values.dtype == np.complex128


class TestPlaneWave:
    def test_zero_mode_constant(self):
        grid = Grid.of(16, 1.0)
        field = make_plane_wave(1.0, (0.0,), grid)
        np.testing.assert_allclose(field.values, 1.0)

    def test_unit_modulus(self):
        grid = Grid.of(32, 1.0)
        k = 2.0 * math.pi / grid.lengths[0]
        field = make_plane_wave(1.0, (k,), grid)
        np.testing.assert_allclose(np.abs(field.values), 1.0, atol=1e-14)
        # one full oscillation across the box
        assert abs(field.values[0] - field.values[-1] * np.exp(1j * k * grid.spacings[0])) < 1e-12

    def test_one_wavenumber_per_axis(self):
        with pytest.raises(ValueError, match="k_vec dimensionality"):
            make_plane_wave(1.0, (0.0, 0.0), Grid.of(16, 1.0))

    def test_non_commensurate_rejected(self):
        grid = Grid.of(16, 1.0)
        k = 1.5 * 2.0 * math.pi / grid.lengths[0]
        with pytest.raises(ValueError, match="commensurate"):
            make_plane_wave(1.0, (k,), grid)


class TestNormalize:
    def test_constant_field_unit_volume(self):
        grid = Grid.of(16, 1.0)
        field = ComplexField(grid=grid, values=2.0 * np.ones(16, dtype=complex))
        out = normalize(field)
        np.testing.assert_allclose(out.values, 1.0)

    def test_idempotent(self, rng):
        grid = Grid.of(64, 1.0)
        field = normalize(random_field(grid, rng))
        again = normalize(field)
        np.testing.assert_allclose(again.values, field.values, atol=1e-12)

    def test_global_scale_invariance_of_density(self, rng):
        grid = Grid.of(64, 1.0)
        field = random_field(grid, rng)
        scaled = ComplexField(grid=grid, values=7j * field.values)
        d1 = normalize(field).density()
        d2 = normalize(scaled).density()
        np.testing.assert_allclose(d1, d2, rtol=1e-12)

    def test_null_state_rejected(self):
        grid = Grid.of(8, 1.0)
        field = ComplexField(grid=grid, values=np.zeros(8, dtype=complex))
        with pytest.raises(ValueError, match="null state"):
            normalize(field)


class TestInnerProduct:
    def test_self_inner_product_is_one(self, rng):
        grid = Grid.of(64, 1.0)
        field = normalize(random_field(grid, rng))
        assert abs(inner_product(field, field) - 1.0) < 1e-10

    def test_fourier_modes_orthogonal(self):
        grid = Grid.of(32, 1.0)
        k = 2.0 * math.pi / grid.lengths[0]
        a = make_plane_wave(1.0, (k,), grid)
        b = make_plane_wave(1.0, (3 * k,), grid)
        assert abs(inner_product(a, b)) < 1e-10

    def test_conjugate_symmetry_against_direct_sum(self, rng):
        grid = Grid.of(32, 1.0)
        a = random_field(grid, rng)
        b = random_field(grid, rng)
        ab = inner_product(a, b)
        # independent oracle: plain python accumulation
        direct = sum(
            complex(a.values[i]).conjugate() * complex(b.values[i]) for i in range(32)
        ) * grid.cell_volume
        assert abs(ab - direct) < 1e-12
        assert abs(ab - inner_product(b, a).conjugate()) < 1e-12

    def test_grid_mismatch_rejected(self, rng):
        a = random_field(Grid.of(16, 1.0), rng)
        b = random_field(Grid.of(32, 1.0), rng)
        with pytest.raises(ValueError):
            inner_product(a, b)


class TestSpectralProperties:
    def test_parseval(self, rng):
        for shape, lengths in [((64,), (1.0,)), ((16, 16), (1.0, 2.0))]:
            grid = Grid.of(shape, lengths)
            field = random_field(grid, rng)
            physical = field.norm_squared()
            n_total = float(np.prod(grid.n_points))
            fourier = float(np.sum(np.abs(np.fft.fftn(field.values)) ** 2)) * grid.cell_volume / n_total
            assert abs(fourier / physical - 1.0) < 1e-9

    def test_3d_laplacian_eigenvalue(self):
        grid = Grid.of((16, 16, 16), (1.0, 2.0, 0.5))
        k_vec = tuple(2.0 * math.pi * m / l for m, l in zip((1, 2, 1), grid.lengths))
        k_mag_sq = sum(k * k for k in k_vec)
        psi = make_plane_wave(1.0, k_vec, grid)
        lap = plain_laplacian(psi)
        np.testing.assert_allclose(lap, -k_mag_sq * psi.values, rtol=1e-10)


class TestFieldIO:
    def test_round_trip_exact(self, rng, tmp_path):
        grid = Grid.of((16, 8), (1.0, 0.5))
        field = random_field(grid, rng)
        csv_path, side = write_field(field, tmp_path / "dump.csv", t_s=1.25e-9)
        back, meta = read_field(csv_path)
        assert back.grid == grid
        assert meta["t_s"] == 1.25e-9
        # repr round-trip is exact, comfortably under the 1e-15 budget
        np.testing.assert_array_equal(back.values, field.values)

    def test_round_trip_keeps_signed_zeros(self, tmp_path):
        pairs = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)] * 2
        values = np.array([complex(re, im) for re, im in pairs])
        csv_path, _ = write_field(ComplexField(grid=Grid.of(8, 1.0), values=values),
                                  tmp_path / "zeros.csv")
        back, _ = read_field(csv_path)
        np.testing.assert_array_equal(np.signbit(back.values.real), np.signbit(values.real))
        np.testing.assert_array_equal(np.signbit(back.values.imag), np.signbit(values.imag))

    def test_sidecar_declares_the_keys_write_field_writes(self, tmp_path):
        field = ComplexField(grid=Grid.of(8, 1.0), values=np.ones(8))
        _, side = write_field(field, tmp_path / "dump.csv", t_s=0.5)
        assert set(json.loads(side.read_text())) == set(_SIDECAR_KEYS)

    def test_round_trip_of_rows_shuffled_across_blocks(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(fieldio, "_BLOCK_ROWS", 7)
        grid = Grid.of((10, 8, 8), (1.0, 0.5, 2.0))
        values = random_field(grid, rng).values.copy()
        values.flat[:4] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        csv_path, _ = write_field(ComplexField(grid=grid, values=values), tmp_path / "dump.csv")
        header, *rows = csv_path.read_bytes().split(b"\r\n")[:-1]
        rng.shuffle(rows)
        csv_path.write_bytes(b"\r\n".join([header, *rows, b""]))
        back, _ = read_field(csv_path)
        assert back.values.tobytes() == values.tobytes()

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "orphan.csv").write_text("i,re,im\n0,1.0,0.0\n")
        with pytest.raises(FileNotFoundError):
            read_field(tmp_path / "orphan.csv")


def _packet() -> ComplexField:
    """A 1D Gaussian packet on the unit box, sum |psi|^2 dV = 0.1253... as sampled."""
    return wavemech.gaussian_packet(
        wavemech.GaussianPacketSpec(center=(0.5,), sigma0=0.05, k_carrier=(0.0,)), Grid.of(64, 1.0))


class TestNormalizedFlag:
    """A dump's ``normalized`` is derived from its values where it is written.  A reader
    refuses a true flag over values off by more than NORM_TOL (exit 2, in test_cli) and
    does not trust a false one."""

    @pytest.mark.parametrize("make, flag", [
        (lambda: normalize(_packet()), True),
        (lambda: make_plane_wave(0.6 + 0.8j, (2.0 * math.pi,), Grid.of(16, 1.0)), True),
        (lambda: make_plane_wave(1j, (0.0, 2.0 * math.pi), Grid.of((8, 8), (1.0, 1.0))), True),
        (_packet, False),
        (lambda: make_plane_wave(0.6 + 0.8j, (2.0 * math.pi,), Grid.of(16, 2.0)), False),
    ], ids=["normalize", "unit-amplitude-plane-wave", "amplitude-i-2d", "raw-packet",
            "unit-amplitude-on-a-box-of-2"])
    def test_flag_is_derived_from_the_values(self, tmp_path, make, flag):
        _, side = write_field(make(), tmp_path / "dump.csv")
        assert json.loads(side.read_text())["normalized"] is flag

    def test_flag_follows_norm_tol(self, tmp_path):
        psi = normalize(_packet())
        for scale, flag in [(1.0 + 0.25 * NORM_TOL, True), (1.0 + 2.0 * NORM_TOL, False)]:
            field = ComplexField(grid=psi.grid, values=psi.values * scale)
            _, side = write_field(field, tmp_path / "dump.csv")
            assert json.loads(side.read_text())["normalized"] is flag

    def test_false_flag_over_normalized_values_reads(self, tmp_path):
        field = normalize(_packet())
        csv_path, side = write_field(field, tmp_path / "dump.csv")
        side.write_text(side.read_text().replace('"normalized": true', '"normalized": false'))
        back, meta = read_field(csv_path)
        assert meta["normalized"] is False
        np.testing.assert_array_equal(back.values, field.values)


class TestIOMemory:
    """Traced peak of one 32^3 dump write and read (the field is 0.5 MiB); whole-file
    I/O traced 3.5 MiB for the write and 2.5 MiB for the read."""

    @staticmethod
    def traced_mib(compute) -> float:
        compute()  # lazy set-up is not counted
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compute()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - start) / 2**20

    @pytest.fixture
    def field(self, rng):
        return random_field(Grid.of((32, 32, 32), (1.0, 1.0, 1.0)), rng)

    def test_write_field(self, field, tmp_path):
        assert self.traced_mib(lambda: write_field(field, tmp_path / "dump.csv")) <= 1.0

    def test_read_field(self, field, tmp_path):
        csv_path, _ = write_field(field, tmp_path / "dump.csv")
        assert self.traced_mib(lambda: read_field(csv_path)) <= 1.75


class TestTableIO:
    def test_write_table_matches_csv_writer(self, tmp_path):
        ints = np.array([0, 1, -7, 2**40])
        floats = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1])
        status = ["ok", "ok", "terminated_masked", "ok"]
        write_table(tmp_path / "table.csv", ["n", "x", "status"], [ints, floats, status])
        with (tmp_path / "reference.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "x", "status"])
            writer.writerows([int(n), repr(float(x)), s] for n, x, s in zip(ints, floats, status))
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_block_reader_is_exact(self, rng, tmp_path):
        x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        write_table(tmp_path / "t.csv", ["i", "x"], [np.arange(500), x])
        header, data = read_rows(tmp_path / "t.csv")
        assert header == ["i", "x"]
        np.testing.assert_array_equal(data[:, 1], x)

    def test_blocks_match_csv_writer(self, rng, tmp_path):
        n = 2 * _BLOCK_ROWS + 3
        ints = rng.integers(-2**40, 2**40, n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[[0, _BLOCK_ROWS, n - 1]] = [-0.0, 5e-324, 0.1]
        status = [("ok", "terminated_masked")[k % 2] for k in range(n)]
        write_table(tmp_path / "table.csv", ["n", "x", "status"], [ints, floats, status])
        with (tmp_path / "reference.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "x", "status"])
            writer.writerows([int(k), repr(float(x)), s] for k, x, s in zip(ints, floats, status))
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        write_table(tmp_path / "numbers.csv", ["n", "x"], [ints, floats])
        header, data = read_rows(tmp_path / "numbers.csv")
        assert data.shape == (n, 2) and data[:, 1].tobytes() == floats.tobytes()

    def test_grid_columns_match_the_meshes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fieldio, "_BLOCK_ROWS", 7)
        grid = Grid.of((10, 8, 12), (1.0, 0.3, 7.0))
        columns = [*(GridColumn(grid, axis) for axis in range(3)),
                   *(GridColumn(grid, axis, coordinates=True) for axis in range(3))]
        write_table(tmp_path / "grid.csv", list("ijlxyz"), columns)
        indices = [a.ravel() for a in np.indices(grid.shape)]
        with (tmp_path / "reference.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(list("ijlxyz"))
            writer.writerows([*map(int, row[:3]), *map(repr, map(float, row[3:]))]
                             for row in zip(*indices, *(m.ravel() for m in coordinate_meshes(grid))))
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unequal"):
            write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
        assert not (tmp_path / "t.csv").exists()

    def test_width_change_between_blocks_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fieldio, "_BLOCK_ROWS", 10)
        rows = [f"{k},0.5" for k in range(20)] + [f"{k},0.5,1.5" for k in range(20, 23)]
        (tmp_path / "t.csv").write_text("\n".join(["i,x", *rows, ""]))
        with pytest.raises(ValueError, match="t.csv"):
            read_rows(tmp_path / "t.csv")


class TestBadDumps:
    def dump(self, tmp_path):
        field = ComplexField(grid=Grid.of(32, 1.0), values=np.exp(1j * np.arange(32.0)))
        csv_path, _ = write_field(field, tmp_path / "dump.csv")
        return csv_path

    def test_truncated_dump_rejected(self, tmp_path):
        csv_path = self.dump(tmp_path)
        lines = csv_path.read_bytes().split(b"\r\n")
        csv_path.write_bytes(b"\r\n".join(lines[:20]))
        with pytest.raises(ValueError, match="dump.csv"):
            read_field(csv_path)

    def test_cut_row_rejected(self, tmp_path):
        csv_path = self.dump(tmp_path)
        body = csv_path.read_bytes()
        csv_path.write_bytes(body[: body.rindex(b",")])
        with pytest.raises(ValueError, match="dump.csv"):
            read_field(csv_path)

    def test_cut_last_number_rejected(self, tmp_path):
        # the last row still has three fields; only the missing newline shows the cut
        csv_path = self.dump(tmp_path)
        csv_path.write_bytes(csv_path.read_bytes()[:-12])
        with pytest.raises(ValueError, match="newline"):
            read_field(csv_path)

    def test_lf_line_endings_accepted(self, tmp_path):
        csv_path = self.dump(tmp_path)
        expected, _ = read_field(csv_path)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"\r\n", b"\n"))
        back, _ = read_field(csv_path)
        np.testing.assert_array_equal(back.values, expected.values)

    def test_out_of_range_index_rejected(self, tmp_path):
        csv_path = self.dump(tmp_path)
        csv_path.write_text(csv_path.read_text().replace("\n31,", "\n40,"))
        with pytest.raises(ValueError, match="dump.csv"):
            read_field(csv_path)

    def test_duplicate_point_rejected(self, tmp_path):
        csv_path = self.dump(tmp_path)
        csv_path.write_text(csv_path.read_text().replace("\n31,", "\n30,"))
        with pytest.raises(ValueError, match="exactly once"):
            read_field(csv_path)

    @pytest.fixture
    def blocks_of_ten(self, monkeypatch):
        # the 32 rows fall into blocks of rows 0-9, 10-19, 20-29 and 30-31
        monkeypatch.setattr(fieldio, "_BLOCK_ROWS", 10)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows.__setitem__(25, b"3" + rows[25][2:]), "exactly once"),
        (lambda rows: rows.__setitem__(31, b"32" + rows[31][2:]), "in-range"),
        (lambda rows: rows.__setitem__(15, rows[15][: rows[15].rindex(b",")]), "malformed"),
        (lambda rows: rows.pop(17), "32 rows"),
    ], ids=["duplicate-across-blocks", "out-of-range-in-last-block", "cut-row-in-middle-block",
            "one-row-short"])
    def test_bad_rows_in_blocks_rejected(self, tmp_path, blocks_of_ten, edit, message):
        csv_path = self.dump(tmp_path)
        header, *rows = csv_path.read_bytes().split(b"\r\n")[:-1]
        edit(rows)
        csv_path.write_bytes(b"\r\n".join([header, *rows, b""]))
        with pytest.raises(ValueError, match=message) as caught:
            read_field(csv_path)
        assert "dump.csv" in str(caught.value)

    def test_another_header_rejected(self, tmp_path):
        csv_path = self.dump(tmp_path)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"i,re,im", b"x,re,im", 1))
        with pytest.raises(ValueError, match=r"unexpected field CSV header \['x', 're', 'im'\] in .*dump.csv"):
            read_field(csv_path)

    def test_header_only_rejected(self, tmp_path):
        csv_path = self.dump(tmp_path)
        csv_path.write_text("i,re,im\r\n")
        with pytest.raises(ValueError, match="dump.csv"):
            read_field(csv_path)


class TestReadObject:
    KEYS = {"n": (_spec_int, True), "x": (_spec_floats, False)}

    def test_converts_keys_present(self):
        assert read_object(self.KEYS, {"x": [1, 2.5], "n": 3.0}, "f.json") == {"n": 3, "x": (1.0, 2.5)}
        assert read_object(self.KEYS, {"n": 3}, "f.json") == {"n": 3}

    @pytest.mark.parametrize("obj, message", [
        ({"n": 3, "x": [1.0, True]}, r"f.json\['x'\]\[1\] must be a number, got True"),
        ({"n": "3"}, r"f.json\['n'\] must be a number"),
        ({"n": 3, "y": 1}, "unknown key 'y' in f.json"),
        ({"x": []}, "missing required key 'n' in f.json"),
        ([3], "f.json must be a JSON object, got a list"),
        ({"n": 3, "x": 1.0}, r"f.json\['x'\] must be a list"),
    ])
    def test_errors_name_the_key_path(self, obj, message):
        with pytest.raises(ConfigError, match=message):
            read_object(self.KEYS, obj, "f.json")

    @pytest.mark.parametrize("convert, value, message", [
        (_complex_from_pair, [0.6, 0.8, 0.0], r"f.json\['a'\] must be a number or an \[re, im\] pair"),
        (_complex_from_pair, "0.6", r"f.json\['a'\] must be a number or an \[re, im\] pair"),
        (_spec_matrix, {"re": [[1.0, 0.0], [0.0]]}, r"f.json\['a'\] needs 're' \(and 'im'\) rows of one shape"),
        (_spec_matrix, {"re": [[1.0, 0.0]], "im": [[0.0]]}, "rows of one shape"),
    ], ids=["triple", "string", "ragged-re", "im-of-another-shape"])
    def test_complex_values_of_another_shape_are_refused(self, convert, value, message):
        with pytest.raises(ConfigError, match=message):
            convert(value, "f.json['a']")
