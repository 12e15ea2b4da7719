import copy
import dataclasses
import csv
import hashlib
import json
import math
import os
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
from gwfield.fields import ComplexField, Grid, PlaneWaveSpec, normalize
from gwfield.fieldio import write_field
from gwfield.hybridmeas import MeasurementSetup
from gwfield.wavemech import GaussianPacketSpec, gaussian_packet


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
            "planewave": {"amplitude": 1.0, "k_vec": [0.0], "omega": 0.0},
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


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["constants_checksum"] == CGS.checksum()
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

    def test_casimir_payload(self, tmp_path):
        out = tmp_path / "cas"
        rc = run_cli("casimir", "--a-cm", 1e-4, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "casimir.json").read_text())
        assert payload["pressure_dyne_per_cm2"] < 0.0
        assert abs(payload["coefficient"] / 7.5e-17 - 1.0) < 0.15


class TestSchmidtAndUpdate:
    def test_schmidt_from_csv(self, tmp_path):
        matrix = tmp_path / "amps.csv"
        s = 1.0 / math.sqrt(2.0)
        with matrix.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["re0", "im0", "re1", "im1"])
            writer.writerow([s, 0.0, 0.0, 0.0])
            writer.writerow([0.0, 0.0, s, 0.0])
        out = tmp_path / "schmidt"
        rc = run_cli("schmidt", "--matrix", matrix, "--output-dir", out)
        assert rc == 0
        payload = json.loads((out / "schmidt.json").read_text())
        assert payload["rank"] == 2
        assert payload["entangled"] is True
        np.testing.assert_allclose(payload["coefficients"], [s, s], atol=1e-12)

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


class TestFieldPipelines:
    def propagate_spec(self, tmp_path, equation="schrodinger", n_times=9):
        grid_n, length = 256, 1.0
        k_c = 2.0 * math.pi * 16 / length
        omega = CGS.c * k_c
        period = 2.0 * math.pi / omega
        # snapshots sample exactly one full period: the tone sits on one bin
        times = [m * period / n_times for m in range(n_times)]
        spec = {
            "equation": equation,
            "grid": {"n_points": [grid_n], "lengths": [length]},
            "planewave": {"amplitude": [1.0, 0.0], "k_vec": [k_c], "omega": omega},
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
            "planewave": {"amplitude": 1.0, "k_vec": [0.0], "omega": 0.0},
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

    def test_failing_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        from gwfield import selfcheck

        checks = list(selfcheck.ALL_CHECKS)
        checks[1] = lambda: selfcheck.CheckResult("forced_failure", False, "monkeypatched")
        monkeypatch.setattr(selfcheck, "ALL_CHECKS", tuple(checks))
        out = tmp_path / "check"
        rc = run_cli("check", "--output-dir", out)
        assert rc == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["code"] == 3
        assert err["context"]["failed_checks"] == ["forced_failure"]
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
# scipy modules the interpreter has loaded.
_SCIPY_PROBE = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
for argv in json.loads(sys.argv[2]):
    assert module.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def scipy_modules_after(runs, module="gwfield.cli"):
    """scipy modules loaded by a fresh interpreter that imports ``module`` and runs ``runs``."""
    argvs = json.dumps([[str(a) for a in argv] for argv in runs])
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, module, argvs], env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestImportBudget:
    """Subcommands that never call scipy must not pay for importing it; only
    ``bohm`` and ``cmbr`` do."""

    def test_import_loads_no_scipy(self):
        assert scipy_modules_after([]) == []

    @pytest.mark.parametrize("module", ["gwfield.bosestat", "gwfield.madelung", "gwfield.cmbrvac"])
    def test_layer_import_loads_no_scipy(self, module):
        assert scipy_modules_after([], module) == []

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
            ["madelung", "--field", tmp_path / "packet.csv", "--omega-ref-rad-per-s", 1e11,
             "--next-field", tmp_path / "packet.csv", "--dt-s", 1e-12,
             "--output-dir", tmp_path / "madelung"],
            ["check", "--output-dir", tmp_path / "check"],
        ]
        assert scipy_modules_after(runs) == []
        assert (tmp_path / "check" / "check.json").exists()

    def test_bohm_and_cmbr_load_scipy(self, tmp_path):
        psi = gaussian_packet(
            GaussianPacketSpec(center=(0.5,), sigma0=0.05, k_carrier=(0.0,)), Grid.of(64, 1.0))
        write_field(psi, tmp_path / "packet.csv")
        bohm = ["bohm", "--field", tmp_path / "packet.csv", "--omega-ref-rad-per-s", 1e11,
                "--regime", "massive", "--seed-positions", 0.5, "--seed-momenta", 0.0,
                "--dt-s", 1e-12, "--steps", 2, "--output-dir", tmp_path / "bohm"]
        cmbr = ["cmbr", "--omega-c-rad-per-s", 2.87e9, "--output-dir", tmp_path / "cmbr"]
        assert "scipy.ndimage" in scipy_modules_after([bohm])
        assert "scipy.integrate" in scipy_modules_after([cmbr])

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
            "planewave": {"amplitude": [1.0, 0.0], "k_vec": [k_c], "omega": CGS.c * k_c},
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

        monkeypatch.setitem(cli._DISPATCH, "casimir", fail)
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
            "planewave": {"amplitude": [0.0, 0.0], "k_vec": [8.0 * math.pi],
                          "omega": CGS.c * 8.0 * math.pi},
            "omega_ref": CGS.c * 8.0 * math.pi,
            "times": [0.0],
        }))
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
        ["bohm", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11, "--regime", "massless",
         "--seed-positions", 0.5, "--seed-momenta", 0.0, "--dt-s", 1e-12, "--steps", 3],
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
            "measure-duplicate-eigenvalues", "maxent-negative-energy", "bohm-massless-at-rest",
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
        (["helicity", "--series-dir", "{equal_stamps}", "--k0-rad-per-cm", 1.0],
         ["t_s", "equal_stamps"]),
        (["helicity", "--series-dir", "{decreasing_stamps}", "--k0-rad-per-cm", 1.0],
         ["t_s", "decreasing_stamps"]),
        (BOHM[:-4] + ["--seed-positions", "0.5,abc", "--seed-momenta", 0.0, "--dt-s", 1e-12,
                      "--steps", 3], ["--seed-positions"]),
    ], ids=["madelung-next-field-other-grid", "measure-seed-neg", "helicity-equal-stamps",
            "helicity-decreasing-stamps", "bohm-seed-not-a-number"])
    def test_error_names_its_flag(self, inputs, capsys, argv, names):
        argv = [inputs / a[1:-1] if isinstance(a, str) and a.startswith("{") else a
                for a in argv]
        assert run_cli(*argv, "--output-dir", inputs / "out") == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert all(name in message for name in names), message

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
            "planewave": {"amplitude": 1e300, "k_vec": [k], "omega": CGS.c * k},
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
        ["casimir", "--a-cm", 1e-60],
        ["cmbr", "--omega-c-rad-per-s", 1e300],
        ["cmbr", "--omega-c-rad-per-s", 1e20, "--t-kelvin", 1e-300],
        ["bohm", "--field", "{packet.csv}", "--omega-ref-rad-per-s", 1e11, "--regime", "massive",
         "--seed-positions", 0.5, "--seed-momenta", 1e300, "--dt-s", 1e10, "--steps", 3],
        ["propagate", "--spec", "{huge_wave.json}"],
    ], ids=["casimir-a-underflow", "cmbr-omega-overflow", "cmbr-quadrature-fails",
            "bohm-momentum-overflow", "propagate-amplitude-overflow"])
    def test_exits_3_with_one_json_line(self, inputs, argv):
        done = self.run(inputs, argv)
        assert done.returncode == 3, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert json.loads(lines[0])["code"] == 3
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

        monkeypatch.setitem(cli._DISPATCH, "casimir", step)
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


class TestFiniteJson:
    def test_non_finite_result_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._DISPATCH, "casimir",
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
    ], ids=["no-dim", "n-points-string", "t-s-string", "unknown-key"])
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


class TestAbsentKeysTakeLibraryDefaults:
    """A spec without an optional key writes the same files as the spec with
    the library record's default spelled out."""

    PACKET = {"equation": "schrodinger", "grid": {"n_points": [64], "lengths": [1.0]},
              "packet": {"center": [0.5], "sigma0": 0.05, "k_carrier": [25.0]},
              "omega_ref": 1e11, "times": [0.0, 1e-12]}
    PLANEWAVE = {"equation": "wave", "grid": {"n_points": 64, "lengths": 1.0},
                 "planewave": {"amplitude": [0.5, 0.5], "k_vec": [8.0 * math.pi],
                               "omega": CGS.c * 8.0 * math.pi},
                 "times": [0.0, 1e-12]}
    MEASURE = {"eigenvalues": [-1.0, 0.0, 2.0], "amplitudes": [0.6, [0.0, 0.8], 0.0]}
    MAXENT = {"bands": [{"nu_hz": 1e11, "d_nu_hz": 1e9}], "e_target_erg": 1e-15, "r_max": 10}

    @pytest.mark.parametrize("subcommand, extra, spec, path, record, keys", [
        ("propagate", [], PACKET, ["packet"], GaussianPacketSpec, {"amplitude": "amplitude"}),
        ("propagate", [], PLANEWAVE, ["planewave"], PlaneWaveSpec, {"mu": "mu"}),
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
