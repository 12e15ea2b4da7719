import csv
import json
import math

import numpy as np
import pytest

from gwfield.constants import CGS, CgsConstants
from gwfield.fields import (
    ComplexField,
    Grid,
    PlaneWaveSpec,
    inner_product,
    make_plane_wave,
    normalize,
)
from gwfield import spectral
from gwfield.fieldio import (_SIDECAR_KEYS, ConfigError, _spec_floats, _spec_int, read_field,
                             read_object, read_table, write_field, write_table)

from conftest import random_field


class TestConstants:
    def test_all_positive(self):
        for name, value in CGS.as_dict().items():
            assert value > 0.0, name

    def test_alpha_identity(self):
        assert abs(CGS.e_charge**2 / (CGS.hbar * CGS.c) / CGS.alpha - 1.0) < 1e-6

    def test_bohr_magneton_identity(self):
        derived = CGS.e_charge * CGS.hbar / (2.0 * CGS.m_e * CGS.c)
        assert abs(derived / CGS.mu_B - 1.0) < 1e-6

    def test_inconsistent_table_rejected(self):
        with pytest.raises(ValueError):
            CgsConstants(alpha=8e-3)

    def test_checksum_stable(self):
        assert CGS.checksum() == CgsConstants().checksum()


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

    def test_dim_limit(self):
        with pytest.raises(ValueError):
            Grid(dim=4, n_points=(8, 8, 8, 8), lengths=(1.0,) * 4)


class TestComplexField:
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

    def test_normalized_flag_checked(self):
        grid = Grid.of(8, 1.0)
        with pytest.raises(ValueError):
            ComplexField(grid=grid, values=2.0 * np.ones(8, dtype=complex), normalized=True)


class TestPlaneWave:
    def test_zero_mode_constant(self):
        grid = Grid.of(16, 1.0)
        field = make_plane_wave(PlaneWaveSpec(1.0, (0.0,), 0.0), grid)
        np.testing.assert_allclose(field.values, 1.0)

    def test_unit_modulus(self):
        grid = Grid.of(32, 1.0)
        k = 2.0 * math.pi / grid.lengths[0]
        field = make_plane_wave(PlaneWaveSpec(1.0, (k,), CGS.c * k), grid)
        np.testing.assert_allclose(np.abs(field.values), 1.0, atol=1e-14)
        # one full oscillation across the box
        assert abs(field.values[0] - field.values[-1] * np.exp(1j * k * grid.spacings[0])) < 1e-12

    def test_massive_dispersion_enforced(self):
        L = 1.0
        k = 2.0 * math.pi / L
        mu = 2.0 * math.pi / L
        ok_omega = CGS.c * math.sqrt(k**2 + mu**2)
        spec = PlaneWaveSpec(1.0, (k,), ok_omega, mu=mu)
        assert spec.mu == mu
        with pytest.raises(ValueError):
            PlaneWaveSpec(1.0, (k,), CGS.c * k, mu=mu)

    def test_non_commensurate_rejected(self):
        grid = Grid.of(16, 1.0)
        k = 1.5 * 2.0 * math.pi / grid.lengths[0]
        with pytest.raises(ValueError, match="commensurate"):
            make_plane_wave(PlaneWaveSpec(1.0, (k,), CGS.c * k), grid)

    def test_time_argument_advances_phase(self):
        grid = Grid.of(16, 1.0)
        k = 2.0 * math.pi / grid.lengths[0]
        omega = CGS.c * k
        t = 3.7e-12
        f0 = make_plane_wave(PlaneWaveSpec(1.0, (k,), omega), grid)
        ft = make_plane_wave(PlaneWaveSpec(1.0, (k,), omega), grid, t=t)
        np.testing.assert_allclose(ft.values, f0.values * np.exp(-1j * omega * t), atol=1e-12)


class TestNormalize:
    def test_constant_field_unit_volume(self):
        grid = Grid.of(16, 1.0)
        field = ComplexField(grid=grid, values=2.0 * np.ones(16, dtype=complex))
        out = normalize(field)
        np.testing.assert_allclose(out.values, 1.0)
        assert out.normalized

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
        a = make_plane_wave(PlaneWaveSpec(1.0, (k,), CGS.c * k), grid)
        b = make_plane_wave(PlaneWaveSpec(1.0, (3 * k,), CGS.c * 3 * k), grid)
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
            fourier = spectral.fourier_norm_squared(field)
            assert abs(fourier / physical - 1.0) < 1e-9

    def test_3d_laplacian_eigenvalue(self):
        grid = Grid.of((16, 16, 16), (1.0, 2.0, 0.5))
        k_vec = tuple(2.0 * math.pi * m / l for m, l in zip((1, 2, 1), grid.lengths))
        k_mag_sq = sum(k * k for k in k_vec)
        psi = make_plane_wave(PlaneWaveSpec(1.0, k_vec, CGS.c * math.sqrt(k_mag_sq)), grid)
        lap = spectral.laplacian(psi.values, grid)
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

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "orphan.csv").write_text("i,re,im\n0,1.0,0.0\n")
        with pytest.raises(FileNotFoundError):
            read_field(tmp_path / "orphan.csv")


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

    def test_read_table_is_exact(self, rng, tmp_path):
        x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        write_table(tmp_path / "t.csv", ["i", "x"], [np.arange(500), x])
        header, data = read_table(tmp_path / "t.csv")
        assert header == ["i", "x"]
        np.testing.assert_array_equal(data[:, 1], x)

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])


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
