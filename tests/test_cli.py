import argparse
import copy
import dataclasses
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwfield
from gwfield import cli
from gwfield.cli import main
from gwfield.bosestat import FrequencyBand
from gwfield.constants import CGS
from gwfield.fields import ComplexField, Grid, normalize
from gwfield.fieldio import _matrix_json, read_field, write_field
from gwfield.hybridmeas import MeasurementSetup
from gwfield.statequant import TRACE_TOL
from gwfield.wavemech import EffectiveMassParams, GaussianPacketSpec, gaussian_packet

from test_statequant import ROTATED, random_unitary, split_state


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestPlanck:
    def test_peak_bin(self, tmp_path):
        T = 2.7
        nu_scale = CGS.k_B * T / CGS.h
        out = tmp_path / "planck"
        rc = run_cli("planck", "--t-kelvin", T, "--nu-min-hz", 0.2 * nu_scale,
                     "--nu-max-hz", 8.0 * nu_scale, "--nu-points", 2000,
                     "--output-dir", out)
        assert rc == 0
        rows = read_rows(out / "planck.csv")[1:]
        nus = np.array([float(r[0]) for r in rows])
        rhos = np.array([float(r[1]) for r in rows])
        x_peak = nus[np.argmax(rhos)] / nu_scale
        grid_step = (8.0 - 0.2) / 1999
        assert abs(x_peak - 2.8214) < grid_step + 5e-4

    def test_bad_grid_rejected(self, tmp_path, capsys):
        rc = run_cli("planck", "--t-kelvin", 2.7, "--nu-min-hz", 5.0,
                     "--nu-max-hz", 1.0, "--output-dir", tmp_path / "x")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2


class TestConfigErrors:
    def test_malformed_json(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        rc = run_cli("propagate", "--spec", spec, "--output-dir", tmp_path / "out")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "malformed JSON" in err["message"]

    def test_unknown_key_named(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "equation": "schrodinger",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "planewave": {"amplitude": 1.0, "k_vec": [0.0]},
            "omega_ref": 1e10,
            "times": [0.0],
            "frobnicate": True,
        }))
        rc = run_cli("propagate", "--spec", spec, "--output-dir", tmp_path / "out")
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "frobnicate" in err["message"]

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        rc = run_cli("propagate", "--spec", tmp_path / "absent.json",
                     "--output-dir", tmp_path / "out")
        assert rc == 4

    @pytest.mark.parametrize("kind, code", [("missing", 4), ("file", 4), ("empty", 2)])
    def test_series_directory_exit_code(self, tmp_path, capsys, kind, code):
        """A missing or non-directory ``--series-dir`` is an I/O error naming the path; a
        directory holding fewer than 8 dumps stays a configuration error."""
        series = tmp_path / "series"
        if kind == "file":
            series.write_text("")
        elif kind == "empty":
            series.mkdir()
        rc = run_cli("helicity", "--series-dir", series, "--k0-rad-per-cm", 1.0,
                     "--output-dir", tmp_path / "out")
        assert rc == code
        assert str(series) in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()

    def test_output_collision(self, tmp_path, capsys):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "existing.txt").write_text("keep me\n")
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 4
        assert (out / "existing.txt").read_text() == "keep me\n"

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "bands.json"
        spec.write_text(json.dumps({
            "bands": [{"nu_hz": 1e10, "d_nu_hz": 1e8}],
            "e_target_erg": 1.0,
            "r_max": 4,
        }))
        rc = run_cli("maxent", "--spec", spec, "--output-dir", tmp_path / "out")
        assert rc == 3


class TestDeterminism:
    def test_identical_config_identical_csv(self, tmp_path):
        args = ["planck", "--t-kelvin", 2.7, "--nu-min-hz", 1e9,
                "--nu-max-hz", 1e12, "--nu-points", 500]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--output-dir", out1) == 0
        assert run_cli(*args, "--output-dir", out2) == 0
        assert (out1 / "planck.csv").read_bytes() == (out2 / "planck.csv").read_bytes()

    def test_measure_seed_determinism(self, tmp_path):
        spec = tmp_path / "setup.json"
        spec.write_text(json.dumps({
            "eigenvalues": [1.0, -1.0],
            "amplitudes": [[0.6, 0.0], [0.8, 0.0]],
            "g": 10.0,
        }))
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            rc = run_cli("measure", "--spec", spec, "--trials", 20000, "--seed", 99,
                         "--output-dir", out)
            assert rc == 0
        assert (out1 / "frequencies.csv").read_bytes() == (out2 / "frequencies.csv").read_bytes()
        record = json.loads((out1 / "record.json").read_text())
        assert record["weights"] == [pytest.approx(0.36), pytest.approx(0.64)]
        assert record["resolved"] is True

    # one multinomial draw: 1e13 trials would be a 73 TiB array of single draws, and 2**63 - 1,
    # the largest C long its counts hold, is the most --trials takes
    @pytest.mark.parametrize("trials", [10_000_000_000_000, 2**63 - 1], ids=["1e13", "c-long-max"])
    def test_measure_trial_count_takes_no_memory(self, tmp_path, trials):
        spec = tmp_path / "setup.json"
        spec.write_text(json.dumps({"eigenvalues": [1.0, -1.0], "amplitudes": [0.6, 0.8]}))
        out = tmp_path / "m"
        assert run_cli("measure", "--spec", spec, "--trials", trials, "--seed", 5,
                       "--output-dir", out) == 0
        counts = [int(row[3]) for row in read_rows(out / "frequencies.csv")[1:]]
        assert sum(counts) == trials


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"]
        table = json.dumps(dataclasses.asdict(CGS), sort_keys=True).encode()
        assert manifest["constants_checksum"] == hashlib.sha256(table).hexdigest()
        assert manifest["config"]["subcommand"] == "casimir"
        assert manifest["config"]["a_cm"] == 1e-4
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GWFIELD_OUTPUT_DIR", str(tmp_path))
        rc = run_cli("casimir", "--a-cm", 1e-4)
        assert rc == 0
        assert (tmp_path / "gwfield-casimir" / "casimir.json").exists()


class TestCmbrAndCasimir:
    def test_cmbr_payload(self, tmp_path):
        out = tmp_path / "cmbr"
        rc = run_cli("cmbr", "--omega-c-rad-per-s", 2.87e9, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "cmbr.json").read_text())
        assert abs(payload["a_e_paper"] / 0.0011614 - 1.0) < 0.01
        assert payload["rho_vac_exact"] <= payload["rho_vac_asymptotic"]
        assert payload["qed_comparison"]["decades_above_observed_bound"] > 118.0

    def test_cold_vacuum_energy_does_not_underflow(self, tmp_path):
        # (kT)^4 underflows at 1e-80 K; rho = hbar omega_c^4 / (4 pi^2 c^3) does not
        out = tmp_path / "cmbr"
        rc = run_cli("cmbr", "--omega-c-rad-per-s", 1e-60, "--t-kelvin", 1e-80, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "cmbr.json").read_text())
        expected = CGS.hbar * 1e-60**4 / (4.0 * math.pi**2 * CGS.c**3)
        assert payload["rho_vac_exact"] == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_casimir_payload(self, tmp_path):
        out = tmp_path / "cas"
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "casimir.json").read_text())
        assert payload["pressure_dyne_per_cm2"] < 0.0
        assert abs(payload["coefficient"] / 7.5e-17 - 1.0) < 0.15

    @pytest.mark.parametrize("a_cm", [1e60, 1e300])
    def test_casimir_pressure_underflows_to_zero(self, tmp_path, a_cm):
        # a^6 overflows; the pressure -coefficient/a^6 underflows to -0.0, no failure
        out = tmp_path / "cas"
        assert run_cli("casimir", "--a-cm", a_cm, "--output-dir", out) == 0
        payload = json.loads((out / "casimir.json").read_text())
        assert payload["pressure_dyne_per_cm2"] == 0.0
        assert math.copysign(1.0, payload["pressure_dyne_per_cm2"]) == -1.0


class TestSchmidtAndUpdate:
    @staticmethod
    def bell_csv(tmp_path):
        matrix = tmp_path / "amps.csv"
        s = 1.0 / math.sqrt(2.0)
        with matrix.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["re0", "im0", "re1", "im1"])
            writer.writerow([s, 0.0, 0.0, 0.0])
            writer.writerow([0.0, 0.0, s, 0.0])
        return matrix, s

    def test_schmidt_from_csv(self, tmp_path):
        matrix, s = self.bell_csv(tmp_path)
        out = tmp_path / "schmidt"
        rc = run_cli("schmidt", "--matrix", matrix, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "schmidt.json").read_text())
        assert payload["rank"] == 2
        assert payload["entangled"] is True
        np.testing.assert_allclose(payload["coefficients"], [s, s], atol=1e-12)

    def test_schmidt_threshold_above_largest_coefficient(self, tmp_path, capsys):
        matrix, _ = self.bell_csv(tmp_path)
        out = tmp_path / "schmidt"
        rc = run_cli("schmidt", "--matrix", matrix, "--threshold", 2, "--output-dir", out)
        assert rc == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert "threshold 2" in message and "largest Schmidt coefficient 0.707107" in message
        assert not out.exists()

    def test_luders_update_via_files(self, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps({"re": [[0.5, 0.5], [0.5, 0.5]],
                                   "im": [[0.0, 0.0], [0.0, 0.0]]}))
        projectors = tmp_path / "proj.json"
        projectors.write_text(json.dumps({"projectors": [
            {"re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        ]}))
        out = tmp_path / "upd"
        rc = run_cli("update", "--rule", "luders", "--rho", rho,
                     "--projectors", projectors, "--outcome", 0, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "update.json").read_text())
        assert payload["probability"] == pytest.approx(0.5, abs=1e-12)
        assert payload["rho"]["re"][0][0] == pytest.approx(1.0, abs=1e-12)

    def test_vonneumann_update_via_files(self, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps({"re": [[0.5, 0.5], [0.5, 0.5]]}))
        projectors = tmp_path / "proj.json"
        projectors.write_text(json.dumps({"projectors": [
            {"re": [[1.0, 0.0], [0.0, 0.0]]},
            {"re": [[0.0, 0.0], [0.0, 1.0]]},
        ]}))
        out = tmp_path / "upd"
        rc = run_cli("update", "--rule", "vonneumann", "--rho", rho,
                     "--projectors", projectors, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "update.json").read_text())
        np.testing.assert_allclose(payload["rho"]["re"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    @staticmethod
    def luders_outcome_0(tmp_path, rho, pset):
        (tmp_path / "rho.json").write_text(json.dumps(_matrix_json(rho.entries)))
        (tmp_path / "proj.json").write_text(json.dumps({"projectors": list(map(_matrix_json, pset.projectors))}))
        return run_cli("update", "--rule", "luders", "--rho", tmp_path / "rho.json", "--projectors",
                       tmp_path / "proj.json", "--outcome", 0, "--output-dir", tmp_path / "upd")

    def test_a_low_probability_luders_outcome_updates_to_unit_trace(self, tmp_path, rng):
        assert self.luders_outcome_0(tmp_path, *split_state(ROTATED, 1, 1e-8, rng)) == 0
        payload = json.loads((tmp_path / "upd" / "update.json").read_text())
        assert payload["probability"] == pytest.approx(1e-8, rel=1e-6)
        assert abs(np.trace(payload["rho"]["re"]) - 1.0) <= TRACE_TOL

    def test_a_rank_two_update_that_rounding_breaks_exits_3_naming_the_outcome(self, tmp_path, rng, capsys):
        rho, pset = split_state(random_unitary(4, rng), 2, 1e-8, rng)
        assert self.luders_outcome_0(tmp_path, rho, pset) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["message"].startswith("outcome 0 of probability ")
        assert error["context"]["type"] == "RuntimeError"
        assert not (tmp_path / "upd").exists()


class TestFieldPipelines:
    def propagate_spec(self, tmp_path, n_times=9):
        grid_n, length = 256, 1.0
        k_c = 2.0 * math.pi * 16 / length
        omega = CGS.c * k_c
        period = 2.0 * math.pi / omega
        # snapshots sample exactly one full period: the tone sits on one bin
        times = [m * period / n_times for m in range(n_times)]
        spec = {
            "equation": "schrodinger",
            "grid": {"n_points": [grid_n], "lengths": [length]},
            "planewave": {"amplitude": [1.0, 0.0], "k_vec": [k_c]},
            "omega_ref": omega,
            "times": times,
        }
        path = tmp_path / "prop.json"
        path.write_text(json.dumps(spec))
        return path, k_c

    def test_propagate_then_helicity(self, tmp_path):
        spec, k_c = self.propagate_spec(tmp_path)
        prop_out = tmp_path / "prop"
        assert run_cli("propagate", "--spec", spec, "--output-dir", prop_out) == 0
        summary = read_rows(prop_out / "summary.csv")
        assert summary[0] == ["t_s", "norm", "width_0_cm", "energy"]
        assert len(summary) == 10
        norms = [float(r[1]) for r in summary[1:]]
        assert max(abs(n / norms[0] - 1.0) for n in norms) < 1e-10
        hel_out = tmp_path / "hel"
        rc = run_cli("helicity", "--series-dir", prop_out, "--k0-rad-per-cm", k_c,
                     "--output-dir", hel_out)
        assert rc == 0
        payload = json.loads((hel_out / "helicity.json").read_text())
        # the evolving plane wave is a pure exp(-i omega t) tone
        assert payload["norm_plus"] < 1e-10 * payload["norm_minus"]
        assert payload["reconstruction_error"] < 1e-10

    def static_massive_wave(self, tmp_path, mu_in_planewave):
        """Propagate a static plane wave of mu = 3/cm to a quarter period, with ``mu``
        given at the top level or in ``planewave``; returns the exit code."""
        k, mu = 8.0 * math.pi, 3.0
        omega = CGS.c * math.hypot(k, mu)
        spec = {"equation": "wave", "grid": {"n_points": [64], "lengths": [1.0]},
                "planewave": {"amplitude": 1.0, "k_vec": [k]},
                "wave_initial": "static", "times": [0.0, 0.5 * math.pi / omega]}
        (spec["planewave"] if mu_in_planewave else spec)["mu"] = mu
        (tmp_path / "static.json").write_text(json.dumps(spec))
        return run_cli("propagate", "--spec", tmp_path / "static.json",
                       "--output-dir", tmp_path / "out")

    def test_top_level_mu_sets_the_evolution(self, tmp_path):
        assert self.static_massive_wave(tmp_path, mu_in_planewave=False) == 0
        psi0, psi1 = (read_field(tmp_path / "out" / f"field_{m:04d}.csv")[0].values for m in (0, 1))
        # a static mode of frequency omega evolves as psi(0) cos(omega t): zero at a quarter period
        assert np.max(np.abs(psi1 / psi0)) < 1e-12

    def test_plane_wave_takes_no_mu_of_its_own(self, tmp_path, capsys):
        assert self.static_massive_wave(tmp_path, mu_in_planewave=True) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert "unknown key 'mu' in" in message and "['planewave']" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("equation, extra, named", [
        ("wave", {"omega_ref": 1e11}, "'omega_ref' in"),
        ("schrodinger", {"omega_ref": 1e11, "wave_initial": "static"}, "'wave_initial' in"),
        ("wave", {"planewave": {"amplitude": 1.0, "k_vec": [0.0], "omega": 0.0}}, "unknown key 'omega' in"),
    ], ids=["wave-omega-ref", "schrodinger-wave-initial", "planewave-omega"])
    def test_a_key_the_propagator_never_reads_exits_2(self, tmp_path, capsys, equation, extra, named):
        spec = {"equation": equation, "grid": {"n_points": [64], "lengths": [1.0]},
                "planewave": {"amplitude": 1.0, "k_vec": [0.0]}, "times": [0.0], **extra}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run_cli("propagate", "--spec", tmp_path / "spec.json", "--output-dir", tmp_path / "out") == 2
        assert named in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()

    def test_measure_amplitudes_off_the_unit_trace_are_named(self, tmp_path, capsys):
        # |c|^2 sums to 1 + 8e-11: the reduced state's trace check used to refuse it, naming a
        # density matrix the spec never gave
        (tmp_path / "measure.json").write_text(
            json.dumps({"eigenvalues": [0.0, 1.0], "amplitudes": [0.6, 0.80000000005]}))
        assert run_cli("measure", "--spec", tmp_path / "measure.json", "--trials", 10, "--seed", 1,
                       "--output-dir", tmp_path / "out") == 2
        assert "amplitudes must satisfy" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()

    def test_helicity_rejects_nonuniform_series(self, tmp_path):
        grid = Grid.of(64, 1.0)
        series_dir = tmp_path / "ragged"
        series_dir.mkdir()
        times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.5]
        for idx, t in enumerate(times):
            field = ComplexField(grid=grid, values=np.ones(64, dtype=complex))
            write_field(field, series_dir / f"field_{idx:04d}.csv", t_s=t)
        rc = run_cli("helicity", "--series-dir", series_dir, "--k0-rad-per-cm", 1.0,
                     "--output-dir", tmp_path / "out")
        assert rc == 2

    def test_madelung_summary(self, tmp_path):
        a = 1.0
        grid = Grid.of(512, 2.0 * a)
        k1 = math.pi / a
        psi = normalize(ComplexField(grid=grid, values=np.sin(k1 * grid.axis(0)) + 0j))
        field_csv = tmp_path / "mode.csv"
        write_field(psi, field_csv)
        out = tmp_path / "mad"
        energy = CGS.hbar * CGS.c * k1
        rc = run_cli("madelung", "--field", field_csv,
                     "--omega-ref-rad-per-s", CGS.c * k1,
                     "--energy-erg", energy, "--output-dir", out)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["Q_mean_erg"] == pytest.approx(math.pi * CGS.hbar * CGS.c / a, rel=1e-6)
        assert summary["hj_residual_erg"] < 1e-6 * energy
        rows = read_rows(out / "madelung.csv")
        assert rows[0] == ["x0_cm", "rho", "S_erg_s", "Q_erg", "defect_per_cm2"]
        assert len(rows) == 513

    def test_bohm_trajectories_csv(self, tmp_path):
        sigma = 3.0
        grid = Grid.of(512, 10.0 * sigma)
        center = 5.0 * sigma
        psi = gaussian_packet(
            GaussianPacketSpec(center=(center,), sigma0=sigma, k_carrier=(0.0,)), grid)
        field_csv = tmp_path / "packet.csv"
        write_field(psi, field_csv)
        out = tmp_path / "bohm"
        rc = run_cli("bohm", "--field", field_csv, "--omega-ref-rad-per-s", 1e11,
                     "--regime", "classical",
                     "--seed-positions", f"{center};{center + sigma}",
                     "--seed-momenta", "1e-25;0.0",
                     "--dt-s", 1e-9, "--steps", 5, "--output-dir", out)
        assert rc == 0
        rows = read_rows(out / "trajectories.csv")
        assert rows[0] == ["trajectory", "step", "t_s", "x0_cm", "p0_g_cm_per_s", "status"]
        assert len(rows) == 1 + 2 * 6
        # classical regime: second seed has zero momentum, never moves
        second = [r for r in rows[1:] if r[0] == "1"]
        assert all(float(r[3]) == pytest.approx(center + sigma, rel=1e-12) for r in second)


class TestCheck:
    def test_check_passes(self, tmp_path, capsys):
        rc = run_cli("check", "--output-dir", tmp_path / "check")
        assert rc == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "FAIL" not in printed
        results = json.loads((tmp_path / "check" / "check.json").read_text())
        assert all(entry["passed"] for entry in results)

    def test_reruns_write_identical_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("check", "--output-dir", out1) == 0
        assert run_cli("check", "--output-dir", out2) == 0
        assert (out1 / "check.json").read_bytes() == (out2 / "check.json").read_bytes()
        results = json.loads((out1 / "check.json").read_text())
        assert sorted(e["criterion"] for e in results if e["criterion"] is not None) == list(range(1, 11))
        assert all(e["measurements"] for e in results)

    def test_raising_entry_fails_the_check(self, tmp_path, capsys, monkeypatch):
        from gwfield import selfcheck

        def measure():
            raise ValueError("no state")

        monkeypatch.setattr(selfcheck, "REGISTRY", (selfcheck.Check("raises", 4, "raises", 1.0, measure),))
        out = tmp_path / "check"
        assert run_cli("check", "--output-dir", out) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["context"]["failed_criteria"] == [4]
        assert err["context"]["misses"] == {"raises": ["raised ValueError: no state"]}
        assert not out.exists()


class TestFailedRunsWriteNothing:
    def rho_and_projectors(self, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps({"re": [[0.5, 0.5], [0.5, 0.5]]}))
        projectors = tmp_path / "proj.json"
        projectors.write_text(json.dumps({"projectors": [
            {"re": [[1.0, 0.0], [0.0, 0.0]]},
            {"re": [[0.0, 0.0], [0.0, 1.0]]},
        ]}))
        return rho, projectors

    @pytest.mark.parametrize("outcome", [-1, 5])
    def test_update_outcome_out_of_range(self, tmp_path, capsys, outcome):
        rho, projectors = self.rho_and_projectors(tmp_path)
        out = tmp_path / "upd"
        rc = run_cli("update", "--rule", "luders", "--rho", rho, "--projectors", projectors,
                     "--outcome", outcome, "--output-dir", out)
        assert rc == 2
        assert "--outcome" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"times": 5},
        {"times": [0.0, 1e-16, -1.0]},
        {"grid": {"n_points": [15, 15, 15], "lengths": [1.0, 1.0, 1.0]}},
    ])
    def test_invalid_propagate_spec(self, tmp_path, capsys, change):
        spec = {
            "equation": "schrodinger",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "planewave": {"amplitude": 1.0, "k_vec": [0.0]},
            "omega_ref": 1e10,
            "times": [0.0],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**spec, **change}))
        out = tmp_path / "out"
        rc = run_cli("propagate", "--spec", path, "--output-dir", out)
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2
        assert not out.exists()

    def test_propagate_without_times(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "equation": "schrodinger",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "planewave": {"amplitude": 1.0, "k_vec": [0.0]},
            "omega_ref": 1e10,
            "times": [],
        }))
        out = tmp_path / "out"
        rc = run_cli("propagate", "--spec", path, "--output-dir", out)
        assert rc == 2
        assert "'times'" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_failing_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from gwfield import selfcheck

        forced = selfcheck.Check("forced_failure", 7, "forced failure", 1.0,
                                 lambda: [selfcheck.Measurement("always", 1.0, 0.5)])
        monkeypatch.setattr(selfcheck, "REGISTRY", (forced,))
        out = tmp_path / "check"
        rc = run_cli("check", "--output-dir", out)
        assert rc == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["code"] == 3
        assert err["context"]["failed_checks"] == ["forced_failure"]
        assert err["context"]["failed_criteria"] == [7]
        assert "criterion 7 forced_failure (always = 1 (needs < 0.5))" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("travel, code", [(0.49, 0), (0.51, 3), (2.5, 3)])
    def test_bohm_step_of_half_a_box_fails(self, tmp_path, capsys, travel, code):
        # constant density: Q is flat and no point is masked, so only the step size decides
        field = ComplexField(grid=Grid.of(64, 1.0), values=np.ones(64, dtype=complex))
        field_csv, _ = write_field(field, tmp_path / "flat.csv")
        out = tmp_path / "bohm"
        rc = run_cli("bohm", "--field", field_csv, "--omega-ref-rad-per-s", 1e11,
                     "--regime", "massless", "--seed-positions", "0.1", "--seed-momenta", "1e-20",
                     "--dt-s", travel / CGS.c, "--steps", 2, "--output-dir", out)
        assert rc == code
        if code:
            err = json.loads(capsys.readouterr().err)
            assert err["code"] == 3 and "box lengths" in err["message"]
            assert not out.exists()

    @pytest.mark.parametrize("corrupt", ["truncate", "index_40"])
    def test_bad_field_dump(self, tmp_path, capsys, corrupt):
        field = ComplexField(grid=Grid.of(32, 1.0), values=np.exp(1j * np.arange(32.0)))
        csv_path, _ = write_field(field, tmp_path / "dump.csv")
        lines = csv_path.read_text().splitlines()
        if corrupt == "truncate":
            lines = lines[:17]
        else:
            lines[-1] = "40," + lines[-1].split(",", 1)[1]
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "mad"
        rc = run_cli("madelung", "--field", csv_path, "--omega-ref-rad-per-s", 1e13,
                     "--output-dir", out)
        assert rc == 2
        assert "dump.csv" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()


def subprocess_env():
    """The environment for a fresh interpreter that imports this checkout's gwfield."""
    src = str(Path(gwfield.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# Imports a module, runs its main on each argv of a JSON list, then prints the
# modules loaded after the last run (or after the import, with no run) whose names
# start with a prefix.  The probe imports json itself only after the module.
_MODULE_PROBE = """
import importlib, sys
module = importlib.import_module(sys.argv[1])
loaded = set(sys.modules)
import json
for argv in json.loads(sys.argv[2]):
    assert module.main(argv) == 0, argv
    loaded = set(sys.modules)
print(json.dumps(sorted(m for m in loaded if m.startswith(sys.argv[3]))))
"""


def scipy_modules_after(runs, module="gwfield.cli", prefix="scipy"):
    """Modules named ``prefix``... loaded by a fresh interpreter that imports
    ``module`` and runs ``runs``."""
    argvs = json.dumps([[str(a) for a in argv] for argv in runs])
    done = subprocess.run([sys.executable, "-c", _MODULE_PROBE, module, argvs, prefix],
                          env=subprocess_env(), capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestImportBudget:
    """scipy is a test oracle, not a runtime dependency: no import and no
    subcommand loads it.  The CLI imports the layers beyond its numpy-only core
    inside the steps that run them, and the vacuum layers load no other layer.  No
    library layer loads ``hashlib`` (and with it OpenSSL) or ``json``: only the CLI does."""

    def test_import_loads_no_scipy(self):
        assert scipy_modules_after([]) == []

    def test_import_loads_no_step_layer(self):
        loaded = scipy_modules_after([], prefix="gwfield")
        assert not {"gwfield.bosestat", "gwfield.cmbrvac", "gwfield.hybridmeas", "gwfield.madelung",
                    "gwfield.selfcheck", "gwfield.statequant"}.intersection(loaded)

    @pytest.mark.parametrize("module", ["gwfield.bosestat", "gwfield.cmbrvac"])
    def test_vacuum_layer_loads_only_the_constants(self, module):
        assert scipy_modules_after([], module, prefix="gwfield") == sorted(
            ["gwfield", "gwfield.constants", module])

    def test_constants_load_no_numpy(self):
        assert scipy_modules_after([], "gwfield.constants", prefix="numpy") == []

    @pytest.mark.parametrize("module", ["gwfield.bosestat", "gwfield.madelung", "gwfield.cmbrvac"])
    def test_layer_import_loads_no_scipy(self, module):
        assert scipy_modules_after([], module) == []

    @pytest.mark.parametrize("module", ["gwfield.bosestat", "gwfield.wavemech", "gwfield.madelung",
                                        "gwfield.helicity", "gwfield.cmbrvac"])
    def test_layer_import_loads_no_hashlib_or_json(self, module):
        loaded = scipy_modules_after([], module, prefix="")
        assert not {"hashlib", "_hashlib", "json"}.intersection(loaded)

    def test_vacuum_subcommands_load_no_polar_layer(self, tmp_path):
        runs = [["casimir", "--a-cm", 1e-4, "--output-dir", tmp_path / "casimir"],
                ["cmbr", "--omega-c-rad-per-s", 2.87e9, "--output-dir", tmp_path / "cmbr"]]
        assert scipy_modules_after(runs, prefix="gwfield.madelung") == []

    def test_compute_subcommands_load_no_scipy(self, tmp_path):
        psi = gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=0.05, k_carrier=(0.0,)), Grid.of(64, 1.0))
        write_field(psi, tmp_path / "packet.csv")
        maxent = tmp_path / "maxent.json"
        maxent.write_text(json.dumps(
            {"bands": [{"nu_hz": 1e11, "d_nu_hz": 1e9}], "e_target_erg": 1e-15, "r_max": 10}))
        runs = [
            ["planck", "--t-kelvin", 2.7, "--nu-min-hz", 1e9, "--nu-max-hz", 1e12,
             "--output-dir", tmp_path / "planck"],
            ["maxent", "--spec", maxent, "--output-dir", tmp_path / "maxent"],
            ["casimir", "--a-cm", 1e-4, "--output-dir", tmp_path / "casimir"],
            ["cmbr", "--omega-c-rad-per-s", 2.87e9, "--output-dir", tmp_path / "cmbr"],
            ["madelung", "--field", tmp_path / "packet.csv", "--omega-ref-rad-per-s", 1e11,
             "--next-field", tmp_path / "packet.csv", "--dt-s", 1e-12,
             "--output-dir", tmp_path / "madelung"],
            ["check", "--output-dir", tmp_path / "check"],
            ["bohm", "--field", tmp_path / "packet.csv", "--omega-ref-rad-per-s", 1e11,
             "--regime", "massive", "--seed-positions", "0.5;0.4", "--seed-momenta", "0.0;1e-20",
             "--dt-s", 1e-12, "--steps", 2, "--output-dir", tmp_path / "bohm"],
        ]
        assert scipy_modules_after(runs) == []
        assert (tmp_path / "check" / "check.json").exists()
        assert (tmp_path / "bohm" / "trajectories.csv").exists()

    def test_numpy_only_subcommands_load_no_scipy(self, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps({"re": [[0.5, 0.5], [0.5, 0.5]]}))
        projectors = tmp_path / "proj.json"
        projectors.write_text(json.dumps({"projectors": [
            {"re": [[1.0, 0.0], [0.0, 0.0]]},
            {"re": [[0.0, 0.0], [0.0, 1.0]]},
        ]}))
        matrix = tmp_path / "amps.csv"
        matrix.write_text("re0,im0,re1,im1\n0.6,0.0,0.0,0.0\n0.0,0.0,0.8,0.0\n")
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps({"eigenvalues": [-1.0, 1.0], "amplitudes": [0.6, 0.8]}))
        k_c = 2.0 * math.pi * 4
        period = 2.0 * math.pi / (CGS.c * k_c)
        propagate = tmp_path / "prop.json"
        propagate.write_text(json.dumps({
            "equation": "schrodinger",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "planewave": {"amplitude": [1.0, 0.0], "k_vec": [k_c]},
            "omega_ref": CGS.c * k_c,
            "times": [m * period / 8 for m in range(8)],
        }))
        series = tmp_path / "series"
        runs = [
            ["update", "--rule", "vonneumann", "--rho", rho, "--projectors", projectors,
             "--output-dir", tmp_path / "update"],
            ["schmidt", "--matrix", matrix, "--output-dir", tmp_path / "schmidt"],
            ["measure", "--spec", measure, "--trials", 50, "--seed", 1,
             "--output-dir", tmp_path / "measure"],
            ["propagate", "--spec", propagate, "--output-dir", series],
            ["helicity", "--series-dir", series, "--k0-rad-per-cm", k_c,
             "--output-dir", tmp_path / "helicity"],
        ]
        assert scipy_modules_after(runs) == []
        assert (tmp_path / "helicity" / "helicity.json").exists()


class TestSpecTypeErrors:
    """A spec value of the wrong type exits 2 with a JSON error naming it, not a traceback."""

    SPECS = {
        "propagate": {
            "equation": "schrodinger",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "packet": {"center": [0.5], "sigma0": 0.05, "k_carrier": [0.0]},
            "omega_ref": 1e10,
            "times": [0.0],
        },
        "maxent": {"bands": [{"nu_hz": 1e11, "d_nu_hz": 1e9}], "e_target_erg": 1e-15, "r_max": 10},
        "measure": {"eigenvalues": [-1.0, 1.0], "amplitudes": [0.6, 0.8]},
    }
    EXTRA_ARGS = {"measure": ["--trials", 10, "--seed", 1]}

    @pytest.mark.parametrize("subcommand, path, value", [
        ("maxent", ["bands"], 5),
        ("maxent", ["bands", 0, "nu_hz"], "abc"),
        ("maxent", ["r_max"], 2.5),
        ("propagate", ["packet", "center"], 5),
        ("propagate", ["packet", "amplitude"], ["a", 0.0]),
        ("propagate", ["grid", "n_points"], {"x": 64}),
        ("measure", ["eigenvalues"], 5),
        ("measure", ["w"], [1.0]),
        ("propagate", ["grid", "n_points"], [64.5]),
        ("maxent", ["r_max"], True),
        ("propagate", ["packet", "sigma0"], "0.05"),
        ("propagate", ["packet", "center"], [True]),
        ("measure", ["g"], True),
        ("propagate", ["grid", "lengths"], ["1.0"]),
        ("propagate", ["times"], [0.0, True]),
        ("propagate", ["packet", "amplitude"], False),
        ("maxent", ["tol"], 1e-8),
    ])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, subcommand, path, value):
        spec = copy.deepcopy(self.SPECS[subcommand])
        target = spec
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        rc = run_cli(subcommand, "--spec", spec_path, *self.EXTRA_ARGS.get(subcommand, []),
                     "--output-dir", out)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2
        assert any(key in err["message"] for key in path if isinstance(key, str))
        assert not out.exists()

    def test_unforeseen_error_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        def fail(args):
            raise KeyError("unforeseen")

        monkeypatch.setattr(cli, "_cmd_casimir", fail)
        out = tmp_path / "cas"
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 1
        assert err["context"]["type"] == "KeyError"
        assert "in fail" in err["context"]["where"]
        assert not out.exists()


class TestOutOfRangeValues:
    """Flag, spec and input-file values outside their domain exit 2 and write nothing."""

    @pytest.fixture
    def inputs(self, tmp_path):
        packet = GaussianPacketSpec(center=(0.5,), sigma0=0.05, k_carrier=(0.0,))
        psi = gaussian_packet(packet, Grid.of(64, 1.0))
        write_field(psi, tmp_path / "packet.csv")
        write_field(gaussian_packet(packet, Grid.of(128, 1.0)), tmp_path / "fine.csv")
        (tmp_path / "measure.json").write_text(
            json.dumps({"eigenvalues": [-1.0, 1.0], "amplitudes": [0.6, 0.8]}))
        # sigma0 = 0.02 is under twice the spacing 1/64
        (tmp_path / "narrow.json").write_text(json.dumps({
            "equation": "schrodinger",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "packet": {"center": [0.5], "sigma0": 0.02, "k_carrier": [0.0]},
            "omega_ref": 1e10,
            "times": [0.0],
        }))
        (tmp_path / "series").mkdir()
        for idx in range(8):
            write_field(psi, tmp_path / "series" / f"field_{idx:04d}.csv", t_s=float(idx))
        (tmp_path / "nan_rho.json").write_text('{"re": [[NaN, 0.5], [0.5, 0.5]]}')
        (tmp_path / "proj.json").write_text(json.dumps({"projectors": [
            {"re": [[1.0, 0.0], [0.0, 0.0]]},
            {"re": [[0.0, 0.0], [0.0, 1.0]]},
        ]}))
        (tmp_path / "nan_amps.csv").write_text("re0,im0,re1,im1\nnan,0.0,0.0,0.0\n0.0,0.0,0.8,0.0\n")
        (tmp_path / "duplicate.json").write_text(
            json.dumps({"eigenvalues": [1.0, 1.0], "amplitudes": [0.6, 0.8]}))
        (tmp_path / "negative_energy.json").write_text(json.dumps(
            {"bands": [{"nu_hz": 1e11, "d_nu_hz": 1e9}], "e_target_erg": -1e-15, "r_max": 10}))
        # a 10^13-entry table would need 72.8 TiB: refused before anything is allocated
        (tmp_path / "huge_table.json").write_text(json.dumps(
            {"bands": [{"nu_hz": 1e11, "d_nu_hz": 1e9}], "e_target_erg": 1e-15, "r_max": 10**13}))
        write_field(ComplexField(grid=Grid.of(16, 1.0), values=np.zeros(16)), tmp_path / "zero.csv")
        (tmp_path / "unnormalized.csv").write_text("re0,im0,re1,im1\n1.0,0.0,0.0,0.0\n0.0,0.0,1.0,0.0\n")
        (tmp_path / "zero_amps.csv").write_text("re0,im0,re1,im1\n0.0,0.0,0.0,0.0\n0.0,0.0,0.0,0.0\n")
        (tmp_path / "product.csv").write_text("re0,im0,re1,im1\n1.0,0.0,0.0,0.0\n0.0,0.0,0.0,0.0\n")
        (tmp_path / "pure_rho.json").write_text(json.dumps({"re": [[1.0, 0.0], [0.0, 0.0]]}))
        for name, stamps in [("equal_stamps", [0.0] * 8), ("decreasing_stamps", range(7, -1, -1))]:
            (tmp_path / name).mkdir()
            for idx, t in enumerate(stamps):
                write_field(psi, tmp_path / name / f"field_{idx:04d}.csv", t_s=float(t))
        (tmp_path / "latin1.json").write_bytes(
            b'{"eigenvalues": [-1.0, 1.0], "amplitudes": [0.6, 0.8], "y0": "\xe9"}')
        (tmp_path / "mixed").mkdir()
        for idx in range(8):
            n = 64 if idx < 7 else 32
            write_field(ComplexField(grid=Grid.of(n, 1.0), values=np.ones(n)),
                        tmp_path / "mixed" / f"field_{idx:04d}.csv", t_s=float(idx))
        (tmp_path / "zero_planewave.json").write_text(json.dumps({
            "equation": "schrodinger",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "planewave": {"amplitude": [0.0, 0.0], "k_vec": [8.0 * math.pi]},
            "omega_ref": CGS.c * 8.0 * math.pi,
            "times": [0.0],
        }))
        pulse = {"center": [0.5], "sigma0": 0.05, "k_carrier": [0.0]}
        for name, spec in [
            ("heat", {"equation": "heat", "packet": pulse}),
            ("both", {"equation": "schrodinger", "packet": pulse, "omega_ref": 1e10,
                      "planewave": {"amplitude": [1.0, 0.0], "k_vec": [0.0]}}),
            ("neither", {"equation": "schrodinger", "omega_ref": 1e10}),
            ("no_omega_ref", {"equation": "schrodinger", "packet": pulse}),
        ]:
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"grid": {"n_points": [64], "lengths": [1.0]}, "times": [0.0], **spec}))
        # "right_moving" one-way data, by default and by name, on grids of more than one axis
        (tmp_path / "wave2d.json").write_text(json.dumps({
            "equation": "wave",
            "grid": {"n_points": [16, 16], "lengths": [1.0, 1.0]},
            "planewave": {"amplitude": [1.0, 0.0], "k_vec": [2.0 * math.pi, 0.0]},
            "times": [0.0],
        }))
        (tmp_path / "wave3d.json").write_text(json.dumps({
            "equation": "wave",
            "grid": {"n_points": [8, 8, 8], "lengths": [1.0, 1.0, 1.0]},
            "planewave": {"amplitude": [1.0, 0.0], "k_vec": [0.0, 2.0 * math.pi, 0.0]},
            "wave_initial": "right_moving",
            "times": [0.0],
        }))
        (tmp_path / "short_row.csv").write_text("re0,im0,re1,im1\n0.6,0.0\n0.8,0.0\n")
        # finite values whose mode number, m_star or V0 leaves the float range
        for name, spec in [
            ("infinite_mode", {"equation": "wave", "wave_initial": "static",
                               "grid": {"n_points": 64, "lengths": 2.0},
                               "planewave": {"amplitude": 1.0, "k_vec": [1e308]}}),
            ("tiny_omega_ref", {"equation": "schrodinger", "packet": pulse, "omega_ref": 1e-320}),
            ("huge_mu", {"equation": "schrodinger", "packet": pulse, "omega_ref": 1e10, "mu": 1e308}),
        ]:
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"grid": {"n_points": [64], "lengths": [1.0]}, "times": [0.0], **spec}))
        # a sidecar that says "normalized": true over a packet of norm 0.1253...
        _, side = write_field(psi, tmp_path / "flagged.csv")
        side.write_text(side.read_text().replace('"normalized": false', '"normalized": true'))
        (tmp_path / "unstamped").mkdir()
        for idx in range(8):
            write_field(psi, tmp_path / "unstamped" / f"field_{idx:04d}.csv")
        # a band whose state count M = 8 pi nu^2 d_nu V / c^3 overflows or underflows, next to a normal one
        normal = {"nu_hz": 1e11, "d_nu_hz": 1e9, "volume_cm3": 1e3}
        for name, band in [("huge_nu", {"nu_hz": 1e200}), ("huge_d_nu", {"d_nu_hz": 1e308}),
                           ("huge_volume", {"volume_cm3": 1e308}), ("tiny_nu", {"nu_hz": 1e-320}),
                           ("tiny_volume", {"volume_cm3": 1e-320})]:
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"bands": [normal, {**normal, **band}], "e_target_erg": 1e-15, "r_max": 60}))
        # a pointer position or an overlap denominator 8 w^2 outside the float range
        for name, key, value in [("huge_g", "g", 1e308), ("huge_tau", "tau", 1e308),
                                 ("tiny_w", "w", 1e-320), ("huge_w", "w", 1e308)]:
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"eigenvalues": [0.0, 1.0, 2.0], "amplitudes": [0.6, 0.8, 0.0], key: value}))
        return tmp_path

    BOHM = ["bohm", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11,
            "--regime", "classical", "--seed-positions", 0.5, "--seed-momenta", 0.0]

    @pytest.mark.parametrize("argv", [
        ["planck", "--t-kelvin", 0, "--nu-min-hz", 1e9, "--nu-max-hz", 1e10],
        ["casimir", "--a-cm", 1e-4, "--t-kelvin", 0],
        ["cmbr", "--omega-c-rad-per-s", 1e12, "--t-kelvin", -1],
        ["measure", "--spec", "{measure.json}", "--trials", 0, "--seed", 1],
        ["madelung", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 0],
        ["madelung", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11,
         "--next-field", "{packet.csv}", "--dt-s", 0],
        ["propagate", "--spec", "{narrow.json}"],
        BOHM + ["--dt-s", "nan", "--steps", 3],
        BOHM + ["--dt-s", 1e-9, "--steps", -3],
        ["casimir", "--a-cm", "inf"],
        ["helicity", "--series-dir", "{series}", "--k0-rad-per-cm", -1.0],
        ["update", "--rule", "vonneumann", "--rho", "{nan_rho.json}", "--projectors", "{proj.json}"],
        ["schmidt", "--matrix", "{nan_amps.csv}"],
        ["measure", "--spec", "{duplicate.json}", "--trials", 10, "--seed", 1],
        ["maxent", "--spec", "{negative_energy.json}"],
        ["maxent", "--spec", "{huge_table.json}"],
        ["bohm", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11, "--regime", "massless",
         "--seed-positions", 0.5, "--seed-momenta", 0.0, "--dt-s", 1e-12, "--steps", 3],
        ["bohm", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11, "--regime", "massless",
         "--seed-positions", "0.5;0.45;0.55", "--seed-momenta", "1e-20;0.0;-1e-20",
         "--dt-s", 1e-12, "--steps", 3],
        ["madelung", "--field", "{zero.csv}", "--omega-ref-rad-per-s", 1e11],
        ["madelung", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11,
         "--next-field", "{zero.csv}", "--dt-s", 1e-12],
        ["bohm", "--field", "{zero.csv}", "--omega-ref-rad-per-s", 1e11, "--regime", "massive",
         "--seed-positions", 0.5, "--seed-momenta", 0.0, "--dt-s", 1e-12, "--steps", 3],
        ["helicity", "--series-dir", "{mixed}", "--k0-rad-per-cm", 1.0],
        ["measure", "--spec", "{measure.json}", "--trials", 10, "--seed", -1],
        ["schmidt", "--matrix", "{unnormalized.csv}"],
        ["schmidt", "--matrix", "{zero_amps.csv}", "--renormalize"],
        ["update", "--rule", "luders", "--rho", "{pure_rho.json}", "--projectors", "{proj.json}",
         "--outcome", 1],
        ["helicity", "--series-dir", "{equal_stamps}", "--k0-rad-per-cm", 1.0],
        ["helicity", "--series-dir", "{decreasing_stamps}", "--k0-rad-per-cm", 1.0],
        ["measure", "--spec", "{latin1.json}", "--trials", 10, "--seed", 1],
        ["schmidt", "--matrix", "{product.csv}", "--threshold", 0],
        ["planck", "--t-kelvin", 2.7, "--nu-min-hz", 1e9, "--nu-max-hz", 1e10, "--nu-points", "abc"],
        ["maxent"],
        BOHM + ["--regime", "bogus", "--dt-s", 1e-12, "--steps", 3],
        ["madelung", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11,
         "--next-field", "{fine.csv}", "--dt-s", 1e-12],
    ], ids=["planck-T0", "casimir-T0", "cmbr-Tneg", "measure-trials0", "madelung-omega0",
            "madelung-dt0", "propagate-narrow-packet", "bohm-dt-nan", "bohm-steps-neg",
            "casimir-a-inf", "helicity-k0-neg", "update-nan-rho", "schmidt-nan-matrix",
            "measure-duplicate-eigenvalues", "maxent-negative-energy", "maxent-table-above-ceiling",
            "bohm-massless-at-rest",
            "bohm-massless-one-at-rest",
            "madelung-zero-dump", "madelung-zero-next-dump", "bohm-zero-dump",
            "helicity-mixed-grids", "measure-seed-neg", "schmidt-unnormalized",
            "schmidt-renormalize-zero", "update-zero-probability-outcome",
            "helicity-equal-stamps", "helicity-decreasing-stamps", "spec-not-utf8",
            "schmidt-threshold-0", "parser-bad-int", "parser-missing-spec",
            "parser-bad-choice", "madelung-next-field-other-grid"])
    def test_exits_2(self, inputs, capsys, argv):
        argv = [inputs / a[1:-1] if isinstance(a, str) and a.startswith("{") else a
                for a in argv]
        out = inputs / "out"
        rc = run_cli(*argv, "--output-dir", out)
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["code"] == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["madelung", "--field", "zero.csv", "--omega-ref-rad-per-s", 1e11],
        ["madelung", "--field", "packet.csv", "--omega-ref-rad-per-s", 1e11,
         "--next-field", "zero.csv", "--dt-s", 1e-12],
        ["bohm", "--field", "zero.csv"] + BOHM[3:] + ["--dt-s", 1e-12, "--steps", 3],
    ], ids=["madelung-field", "madelung-next-field", "bohm-field"])
    def test_zero_dump_error_names_file(self, inputs, capsys, argv):
        argv = [inputs / a if str(a).endswith(".csv") else a for a in argv]
        assert run_cli(*argv, "--output-dir", inputs / "out") == 2
        assert str(inputs / "zero.csv") in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("argv, names", [
        (["madelung", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11,
          "--next-field", "{fine.csv}", "--dt-s", 1e-12],
         ["--field", "packet.csv", "--next-field", "fine.csv"]),
        (["measure", "--spec", "{measure.json}", "--trials", 10, "--seed", -1], ["--seed"]),
        (["measure", "--spec", "{measure.json}", "--trials", 0, "--seed", 1], ["--trials"]),
        (["measure", "--spec", "{measure.json}", "--trials", 10**20, "--seed", 1], ["--trials"]),
        (["helicity", "--series-dir", "{equal_stamps}", "--k0-rad-per-cm", 1.0],
         ["t_s", "equal_stamps"]),
        (["helicity", "--series-dir", "{decreasing_stamps}", "--k0-rad-per-cm", 1.0],
         ["t_s", "decreasing_stamps"]),
        (BOHM[:-4] + ["--seed-positions", "0.5,abc", "--seed-momenta", 0.0, "--dt-s", 1e-12,
                      "--steps", 3], ["--seed-positions"]),
        (["propagate", "--spec", "{wave2d.json}"], ["wave_initial", "wave2d.json", "2D", "static"]),
        (["propagate", "--spec", "{wave3d.json}"], ["wave_initial", "wave3d.json", "3D", "static"]),
        (["propagate", "--spec", "{heat.json}"], ["equation", "heat.json", "'heat'"]),
        (["schmidt", "--matrix", "{short_row.csv}"], ["short_row.csv", "rows of 4 values"]),
        (["propagate", "--spec", "{both.json}"], ["packet", "planewave", "both.json"]),
        (["propagate", "--spec", "{neither.json}"], ["packet", "planewave", "neither.json"]),
        (["propagate", "--spec", "{no_omega_ref.json}"], ["omega_ref", "no_omega_ref.json"]),
        (BOHM[:-4] + ["--seed-positions", "nan", "--seed-momenta", 0.0, "--dt-s", 1e-12,
                      "--steps", 3], ["--seed-positions", "finite"]),
        (BOHM[:-4] + ["--seed-positions", 0.5, "--seed-momenta", "0.0,0.0", "--dt-s", 1e-12,
                      "--steps", 3], ["--seed-momenta", "1 coordinates"]),
        (BOHM[:-4] + ["--seed-positions", "0.45;0.55", "--seed-momenta", 0.0, "--dt-s", 1e-12,
                      "--steps", 3], ["--seed-positions", "--seed-momenta"]),
        (["update", "--rule", "luders", "--rho", "{pure_rho.json}", "--projectors", "{proj.json}"],
         ["--outcome"]),
        (["helicity", "--series-dir", "{unstamped}", "--k0-rad-per-cm", 1.0], ["t_s", "unstamped"]),
        (["propagate", "--spec", "{infinite_mode.json}"], ["k_vec[0]", "mode number"]),
        (["propagate", "--spec", "{tiny_omega_ref.json}"], ["omega_ref", "m_star"]),
        (["propagate", "--spec", "{huge_mu.json}"], ["mu", "V0"]),
        (["madelung", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e-320], ["omega_ref", "m_star"]),
        (["madelung", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11, "--mu-per-cm", 1e308],
         ["mu", "V0"]),
        (["madelung", "--field", "{flagged.csv}", "--omega-ref-rad-per-s", 1e11],
         ["flagged.json['normalized']", "0.1253"]),
        (["casimir", "--a-cm", 1e-60], ["a = 1e-60", "a^6"]),
        (["casimir", "--a-cm", 1e-4, "--t-kelvin", 1e-320], ["T = 1e-320", "k_B*T"]),
        (["casimir", "--a-cm", 1e-4, "--t-kelvin", 1e-300], ["a = 0.0001", "T = 1e-300", "pressure"]),
        (["cmbr", "--omega-c-rad-per-s", 1e9, "--t-kelvin", 1e-320], ["T = 1e-320", "k_B*T"]),
        (["planck", "--t-kelvin", 1e-320, "--nu-min-hz", 1, "--nu-max-hz", 2], ["T = 1e-320", "k_B*T"]),
        *[(["maxent", "--spec", f"{{{name}.json}}"], ["nu = ", "d_nu = ", "volume = ", "state count"])
          for name in ("huge_nu", "huge_d_nu", "huge_volume", "tiny_nu", "tiny_volume")],
        *[(["measure", "--spec", f"{{{name}.json}}", "--trials", 10, "--seed", 1], names)
          for name, names in [("huge_g", ["y0", "g = 1e+308", "tau"]), ("huge_tau", ["y0", "g", "tau = 1e+308"]),
                              ("tiny_w", ["w = 1e-320", "8 w^2"]), ("huge_w", ["w = 1e+308", "8 w^2"])]],
    ], ids=["madelung-next-field-other-grid", "measure-seed-neg", "measure-trials-zero",
            "measure-trials-above-c-long",
            "helicity-equal-stamps", "helicity-decreasing-stamps", "bohm-seed-not-a-number",
            "propagate-wave-2d-default-initial", "propagate-wave-3d-right-moving",
            "propagate-unknown-equation", "schmidt-short-row", "propagate-packet-and-planewave",
            "propagate-no-initial-field", "propagate-schrodinger-without-omega-ref",
            "bohm-seed-not-finite", "bohm-seed-wrong-dimension", "bohm-seed-count-mismatch",
            "update-luders-without-outcome", "helicity-dump-without-t_s",
            "propagate-infinite-mode-number", "propagate-m-star-underflows", "propagate-v0-overflows",
            "madelung-m-star-underflows", "madelung-v0-overflows", "madelung-true-flag-unnormalized",
            "casimir-a-underflow", "casimir-kT-underflow", "casimir-pressure-overflow",
            "cmbr-kT-underflow", "planck-kT-underflow",
            "maxent-nu-squared-overflow", "maxent-d_nu-count-overflow", "maxent-volume-count-overflow",
            "maxent-nu-squared-underflow", "maxent-volume-count-subnormal",
            "measure-g-pointer-overflow", "measure-tau-pointer-overflow",
            "measure-w-squared-underflow", "measure-w-squared-overflow"])
    def test_error_names_its_flag(self, inputs, capsys, argv, names):
        argv = [inputs / a[1:-1] if isinstance(a, str) and a.startswith("{") else a
                for a in argv]
        assert run_cli(*argv, "--output-dir", inputs / "out") == 2
        error = json.loads(capsys.readouterr().err)
        assert error["code"] == 2
        assert all(name in error["message"] for name in names), error["message"]
        assert not (inputs / "out").exists()

    def test_zero_field_stderr_is_one_json_line(self, inputs):
        # a fresh interpreter, so a numpy warning would reach stderr as text
        done = subprocess.run(
            [sys.executable, "-m", "gwfield.cli", "propagate",
             "--spec", str(inputs / "zero_planewave.json"), "--output-dir", str(inputs / "out")],
            env=subprocess_env(), capture_output=True, text=True)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert json.loads(lines[0])["code"] == 2
        assert not (inputs / "out").exists()


class TestNumericalFailureStderr:
    """Arithmetic errors and floating-point overflow inside a step exit 3 with
    one JSON line on stderr; an underflow to zero is no failure."""

    @pytest.fixture
    def inputs(self, tmp_path):
        write_field(gaussian_packet(GaussianPacketSpec(center=(0.5,), sigma0=0.05, k_carrier=(0.0,)),
                                    Grid.of(64, 1.0)), tmp_path / "packet.csv")
        k = 8.0 * math.pi
        (tmp_path / "huge_wave.json").write_text(json.dumps({
            "equation": "wave",
            "grid": {"n_points": [64], "lengths": [1.0]},
            "planewave": {"amplitude": 1e300, "k_vec": [k]},
            "times": [0.0, 1e-12],
        }))
        return tmp_path

    def run(self, inputs, argv):
        # a fresh interpreter, so a numpy or scipy warning would reach stderr as text
        argv = [str(inputs / a[1:-1]) if str(a).startswith("{") else str(a) for a in argv]
        return subprocess.run(
            [sys.executable, "-m", "gwfield.cli", *argv, "--output-dir", str(inputs / "out")],
            env=subprocess_env(), capture_output=True, text=True)

    @pytest.mark.parametrize("argv", [
        ["cmbr", "--omega-c-rad-per-s", 1e300],
        ["cmbr", "--omega-c-rad-per-s", 1e20, "--t-kelvin", 1e-300],
        ["bohm", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11, "--regime", "massive",
         "--seed-positions", 0.5, "--seed-momenta", 1e300, "--dt-s", 1e10, "--steps", 3],
        ["propagate", "--spec", "{huge_wave.json}"],
    ], ids=["cmbr-omega-overflow", "cmbr-quadrature-fails",
            "bohm-momentum-overflow", "propagate-amplitude-overflow"])
    def test_exits_3_with_one_json_line(self, inputs, argv):
        done = self.run(inputs, argv)
        assert done.returncode == 3, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        error = json.loads(lines[0])
        assert error["code"] == 3
        # the innermost frame of the failure, as the exit-1 path names it
        assert re.fullmatch(r"\w+\.py:\d+ in \w+", error["context"]["where"]), error["context"]
        assert not (inputs / "out").exists()

    def test_underflowing_planck_rows_are_silent(self, inputs):
        done = self.run(inputs, ["planck", "--t-kelvin", 2.7, "--nu-min-hz", 1e9,
                                 "--nu-max-hz", 1e15])
        assert (done.returncode, done.stderr) == (0, "")
        assert read_rows(inputs / "out" / "planck.csv")[-1][1] == "0.0"


class TestExitClassRule:
    """``main`` alone maps an exception type to its exit code."""

    @pytest.mark.parametrize("exc, code", [
        (ValueError("bad value"), 2),
        (cli.ConfigError("bad flag"), 2),
        (RuntimeError("diverged"), 3),
        (FloatingPointError("overflow"), 3),
        (np.linalg.LinAlgError("SVD did not converge"), 3),
        (OSError("disk full"), 4),
        (KeyError("unforeseen"), 1),
        (ZeroDivisionError("float division by zero"), 3),
        (OverflowError("math range error"), 3),
    ], ids=["ValueError", "ConfigError", "RuntimeError", "FloatingPointError", "LinAlgError",
            "OSError", "KeyError", "ZeroDivisionError", "OverflowError"])
    def test_exit_code_by_exception_type(self, tmp_path, capsys, monkeypatch, exc, code):
        def step(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_casimir", step)
        out = tmp_path / "cas"
        assert run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out) == code
        assert json.loads(capsys.readouterr().err)["code"] == code
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(flag)
        assert exit_info.value.code == 0
        assert capsys.readouterr().err == ""


SUBCOMMANDS = ["propagate", "madelung", "bohm", "schmidt", "update", "helicity", "measure",
               "planck", "maxent", "cmbr", "casimir", "check"]


class TestParserBinding:
    """Each subparser carries its step and its default output directory."""

    @staticmethod
    def subparsers():
        parser = cli.build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_subcommand_is_bound(self):
        assert sorted(self.subparsers()) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_binds_step_and_output_dir(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv("GWFIELD_OUTPUT_DIR", str(tmp_path))
        sub = self.subparsers()[name]
        assert sub.get_default("run") is getattr(cli, f"_cmd_{name}")
        assert Path(sub.get_default("output_dir")) == tmp_path / f"gwfield-{name}"
        with pytest.raises(SystemExit) as exit_info:
            run_cli(name, "--help")
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: gwfield {name}")
        assert captured.err == ""

class TestFiniteJson:
    def test_non_finite_result_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_cmd_casimir",
                            lambda args: (vars(args), {"casimir.json": {"x": float("nan")}}))
        out = tmp_path / "cas"
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 3
        assert "casimir.json" in json.loads(capsys.readouterr().err)["message"]
        assert list(tmp_path.iterdir()) == []


class TestAtomicRunDirectory:
    def test_failed_write_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        write_output = cli._write_output

        def flaky(path, value):
            calls.append(path.name)
            if len(calls) == 2:
                raise OSError("disk full")
            write_output(path, value)

        monkeypatch.setattr(cli, "_write_output", flaky)
        out = tmp_path / "cas"
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 4
        assert calls == ["casimir.json", "manifest.json"]
        assert json.loads(capsys.readouterr().err)["message"] == "disk full"
        assert list(tmp_path.iterdir()) == []

    def test_empty_target_accepted(self, tmp_path):
        out = tmp_path / "cas"
        out.mkdir()
        assert run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["casimir.json", "manifest.json"]
        assert [p.name for p in tmp_path.iterdir()] == ["cas"]


class TestJsonInputs:
    """Matrix files and dump sidecars follow the spec rule: JSON numbers of the
    declared type, known keys only.  A violation exits 2 with one JSON line
    naming the file or key, and writes nothing."""

    PROJECTORS = {"projectors": [{"re": [[1.0, 0.0], [0.0, 0.0]]}, {"re": [[0.0, 0.0], [0.0, 1.0]]}]}

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "rho.json").write_text(json.dumps({"re": [[0.5, 0.0], [0.0, 0.5]]}))
        (tmp_path / "proj.json").write_text(json.dumps(self.PROJECTORS))
        (tmp_path / "series").mkdir()
        for idx in range(8):
            write_field(ComplexField(grid=Grid.of(16, 1.0), values=np.ones(16)),
                        tmp_path / "series" / f"field_{idx:04d}.csv", t_s=float(idx))
        return tmp_path

    def expect_exit_2(self, argv, out, capsys, names):
        assert run_cli(*argv, "--output-dir", out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["code"] == 2
        assert any(name in err["message"] for name in names), err["message"]
        assert not out.exists()

    def test_matrix_entries_must_be_json_numbers(self, inputs, capsys):
        rho = inputs / "strings.json"
        rho.write_text(json.dumps({"re": [["0.5", False], [False, "0.5"]]}))
        self.expect_exit_2(["update", "--rule", "vonneumann", "--rho", rho,
                            "--projectors", inputs / "proj.json"],
                           inputs / "out", capsys, ["strings.json", "'re'"])

    def test_projector_given_as_boolean(self, inputs, capsys):
        projectors = inputs / "bool_proj.json"
        projectors.write_text(json.dumps({"projectors": [True, self.PROJECTORS["projectors"][1]]}))
        self.expect_exit_2(["update", "--rule", "vonneumann", "--rho", inputs / "rho.json",
                            "--projectors", projectors],
                           inputs / "out", capsys, ["bool_proj.json", "'projectors'"])

    @pytest.mark.parametrize("edit, names", [
        (lambda meta: meta.pop("dim"), ["field_0003.json", "'dim'"]),
        (lambda meta: meta.update(n_points=["16"]), ["field_0003.json", "'n_points'"]),
        (lambda meta: meta.update(t_s="3.0"), ["field_0003.json", "'t_s'"]),
        (lambda meta: meta.update(origin=[0.0]), ["field_0003.json", "origin"]),
        (lambda meta: meta.update(dim=2), ["field_0003.json['dim']"]),
        (lambda meta: meta.update(lengths=[1.0, 1.0]), ["field_0003.json['lengths']"]),
        (lambda meta: meta.update(normalized=1), ["field_0003.json['normalized']", "true or false"]),
    ], ids=["no-dim", "n-points-string", "t-s-string", "unknown-key", "dim-disagrees",
            "lengths-count", "normalized-not-a-boolean"])
    def test_sidecar_values_are_typed(self, inputs, capsys, edit, names):
        side = inputs / "series" / "field_0003.json"
        meta = json.loads(side.read_text())
        edit(meta)
        side.write_text(json.dumps(meta))
        self.expect_exit_2(["helicity", "--series-dir", inputs / "series", "--k0-rad-per-cm", 1.0],
                           inputs / "out", capsys, names)

    @pytest.mark.parametrize("text", ["[16, 1.0]", '{"dim": 1,'], ids=["list", "malformed"])
    def test_sidecar_must_be_a_json_object(self, inputs, capsys, text):
        (inputs / "series" / "field_0000.json").write_text(text)
        self.expect_exit_2(["madelung", "--field", inputs / "series" / "field_0000.csv",
                            "--omega-ref-rad-per-s", 1e11],
                           inputs / "out", capsys, [str(inputs / "series" / "field_0000.json")])


    @pytest.mark.parametrize("argv", [
        ["maxent", "--spec", "bad.json"],
        ["update", "--rule", "vonneumann", "--rho", "bad.json", "--projectors", "proj.json"],
        ["update", "--rule", "vonneumann", "--rho", "rho.json", "--projectors", "bad.json"],
        ["schmidt", "--matrix", "bad.csv"],
    ], ids=["maxent-spec", "update-rho", "update-projectors", "schmidt-matrix"])
    def test_non_utf8_input_names_its_file(self, inputs, capsys, argv):
        argv = [inputs / a if a.endswith((".json", ".csv")) else a for a in argv]
        bad = next(a for a in argv if isinstance(a, Path) and a.name.startswith("bad"))
        bad.write_bytes(b"re0,im0\r\n1.0,0.0\xff\r\n")
        self.expect_exit_2(argv, inputs / "out", capsys, [str(bad)])

    def test_matrix_header_error_names_its_file(self, inputs, capsys):
        matrix = inputs / "amps.csv"
        matrix.write_text("a,b\r\n1.0,0.0\r\n")
        self.expect_exit_2(["schmidt", "--matrix", matrix], inputs / "out", capsys, [str(matrix)])


class TestAbsentKeysTakeLibraryDefaults:
    """A spec without an optional key writes the same files as the spec with
    the library record's default spelled out."""

    PACKET = {"equation": "schrodinger", "grid": {"n_points": [64], "lengths": [1.0]},
              "packet": {"center": [0.5], "sigma0": 0.05, "k_carrier": [25.0]},
              "omega_ref": 1e11, "times": [0.0, 1e-12]}
    PLANEWAVE = {"equation": "schrodinger", "grid": {"n_points": 64, "lengths": 1.0},
                 "planewave": {"amplitude": [0.5, 0.5], "k_vec": [8.0 * math.pi]},
                 "omega_ref": 1e11, "times": [0.0, 1e-12]}
    MEASURE = {"eigenvalues": [-1.0, 0.0, 2.0], "amplitudes": [0.6, [0.0, 0.8], 0.0]}
    MAXENT = {"bands": [{"nu_hz": 1e11, "d_nu_hz": 1e9}], "e_target_erg": 1e-15, "r_max": 10}

    @pytest.mark.parametrize("subcommand, extra, spec, path, record, keys", [
        ("propagate", [], PACKET, ["packet"], GaussianPacketSpec, {"amplitude": "amplitude"}),
        ("propagate", [], PLANEWAVE, [], EffectiveMassParams, {"mu": "mu"}),
        ("measure", ["--trials", 100, "--seed", 3], MEASURE, [], MeasurementSetup,
         {key: key for key in ("y0", "w", "g", "tau")}),
        ("maxent", [], MAXENT, ["bands", 0], FrequencyBand, {"volume_cm3": "volume"}),
    ], ids=["packet-amplitude", "planewave-mu", "measure-pointer", "band-volume"])
    def test_same_files(self, tmp_path, subcommand, extra, spec, path, record, keys):
        defaults = {f.name: f.default for f in dataclasses.fields(record)}
        spelled = copy.deepcopy(spec)
        target = spelled
        for step in path:
            target = target[step]
        for key, field in keys.items():
            assert key not in target
            value = defaults[field]
            target[key] = [value.real, value.imag] if isinstance(value, complex) else value
        outputs = []
        for name, body in [("absent", spec), ("spelled", spelled)]:
            (tmp_path / f"{name}.json").write_text(json.dumps(body))
            out = tmp_path / name
            assert run_cli(subcommand, "--spec", tmp_path / f"{name}.json", *extra,
                           "--output-dir", out) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]
