"""The four workloads: seeded inputs, one op at a time, and output checks.

Every input comes from ``numpy.random.default_rng(seed)``; the program only
ever sees the generated spec files, field dumps and Python objects.  An op
fails when the CLI exits non-zero, when a manifest checksum does not match,
or when a result falls outside its stated tolerance.  Failed ops are counted,
never retried.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 170.0


class CheckFailed(Exception):
    """An op's output is missing, corrupt or outside its tolerance."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(outdir: Path) -> None:
    manifest_path = outdir / "manifest.json"
    require(manifest_path.is_file(), f"no manifest.json in {outdir.name}")
    outputs = json.loads(manifest_path.read_text())["outputs"]
    require(len(outputs) > 0, f"manifest in {outdir.name} lists no outputs")
    for entry in outputs:
        path = outdir / entry["path"]
        require(path.is_file() and _sha256(path) == entry["sha256"],
                f"checksum mismatch for {outdir.name}/{entry['path']}")


class CliRunner:
    """Spawns ``python -m gwfield.cli`` (or the traced entry) on the checkout's source.

    In traced mode each child writes its spans to a file; the runner merges
    them into ``spans`` (re-indexing parents) and records the spawn-to-import
    startup of every invocation.
    """

    def __init__(self, src: Path, workdir: Path):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.workdir = workdir
        self.spans: list[list] = []
        self.startups: list[float] = []

    def run(self, argv: list[str], op_id: int, traced: bool) -> tuple[float, int, str]:
        spans_path = self.workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(op_id), *argv]
        else:
            cmd = [sys.executable, "-m", "gwfield.cli", *argv]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.workdir, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = -1, f"timed out after {CLI_TIMEOUT_S} s"
        elapsed = time.monotonic() - t0
        if traced and spans_path.is_file():
            dump = json.loads(spans_path.read_text())
            spans_path.unlink()
            self.startups.append(dump["imported"] - t0)
            base = len(self.spans)
            for span in dump["spans"]:
                if span[4] is not None:
                    span[4] += base
                self.spans.append(span)
        return elapsed, code, err.strip()[-300:]

    def import_check(self, modules: str) -> None:
        """Import ``modules`` once in a fresh interpreter (part of set-up)."""
        proc = subprocess.run([sys.executable, "-c", f"import {modules}"], env=self.env,
                              cwd=self.workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import {modules}: {proc.stderr.strip()[-300:]}")


class Workload:
    """One set of inputs and the op the benchmark repeats on it.

    ``cycle`` ops form one round, and every run has at least one.  An op
    reports its wall time split into named parts: the op kind (CLI command,
    max-ent table) or, for a chain of processes, each process.  The same
    part name always times the same work on the same inputs.
    """

    name = ""
    cycle = 1
    inprocess = False
    # what one fresh interpreter imports during set-up
    imports = "gwfield.cli"

    def __init__(self, seed: int, workdir: Path, src: Path, small: bool):
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.runner = CliRunner(src, workdir)

    def setup(self) -> None:
        """Generate the inputs from the seed (the same seed gives the same inputs)."""
        raise NotImplementedError

    def op(self, op_id: int, traced: bool) -> tuple[dict[str, float], str | None]:
        """Run one op; return its wall time per part and a failure reason or None."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def _timed_call(compute, check) -> tuple[float, str | None]:
        """Time ``compute()`` in process, then ``check`` its result untimed."""
        t0 = time.monotonic()
        try:
            result = compute()
        except Exception as exc:  # a raising library call is a failed op, not a crash
            return time.monotonic() - t0, f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - t0
        try:
            check(result)
            return elapsed, None
        except CheckFailed as exc:
            return elapsed, str(exc)

    def _fresh_dir(self, op_id: int) -> Path:
        out = self.workdir / f"op{op_id:06d}"
        shutil.rmtree(out, ignore_errors=True)
        return out


# ------------------------------------------------------------------ cli_toolbox


class CliToolbox(Workload):
    """Eight short CLI subcommands in a fixed cycle; startup dominates."""

    name = "cli_toolbox"
    COMMANDS = ("update", "schmidt", "measure", "planck", "maxent", "cmbr", "casimir", "check")
    cycle = len(COMMANDS)

    def setup(self) -> None:
        from gwfield import bosestat
        from gwfield.constants import CGS

        rng = np.random.default_rng(self.seed)
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        cases = {}

        dim = int(rng.integers(2, 5))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        basis = q * (np.diag(r) / np.abs(np.diag(r)))
        projectors = [np.outer(basis[:, k], basis[:, k].conj()) for k in range(dim)]
        outcome = int(rng.integers(dim))
        (inputs / "rho.json").write_text(json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()}))
        (inputs / "projectors.json").write_text(json.dumps(
            {"projectors": [{"re": p.real.tolist(), "im": p.imag.tolist()} for p in projectors]}))
        expected_prob = float(np.real(np.trace(projectors[outcome] @ rho)))
        cases["update"] = (
            ["update", "--rule", "luders", "--rho", str(inputs / "rho.json"),
             "--projectors", str(inputs / "projectors.json"), "--outcome", str(outcome)],
            lambda out: require(abs(json.loads((out / "update.json").read_text())["probability"]
                                    - expected_prob) < 1e-12, "update probability"))

        rows, cols = (int(n) for n in rng.integers(2, 6, size=2))
        amps = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        with (inputs / "amps.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"{kind}{c}" for c in range(cols) for kind in ("re", "im")])
            for row in amps:
                writer.writerow([repr(float(getattr(v, part))) for v in row for part in ("real", "imag")])
        singular = np.linalg.svd(amps / np.linalg.norm(amps), compute_uv=False)
        cases["schmidt"] = (
            ["schmidt", "--matrix", str(inputs / "amps.csv"), "--renormalize"],
            lambda out: require(np.allclose(json.loads((out / "schmidt.json").read_text())["coefficients"],
                                            singular, rtol=0, atol=1e-10), "schmidt coefficients"))

        n_out = int(rng.integers(2, 5))
        c = rng.standard_normal(n_out) + 1j * rng.standard_normal(n_out)
        c /= np.linalg.norm(c)
        (inputs / "measure.json").write_text(json.dumps({
            "eigenvalues": list(range(n_out)),
            "amplitudes": [[float(v.real), float(v.imag)] for v in c],
            "g": float(rng.uniform(5.0, 30.0)),
        }))
        weights = np.abs(c) ** 2

        def check_measure(out: Path) -> None:
            record = json.loads((out / "record.json").read_text())
            require(np.allclose(record["weights"], weights, rtol=0, atol=1e-12), "measure weights")
            require(record["max_abs_deviation"] < 0.05, "measure sampling deviation")

        cases["measure"] = (["measure", "--spec", str(inputs / "measure.json"), "--trials", "20000",
                             "--seed", str(int(rng.integers(2**31)))], check_measure)

        t_planck = float(rng.uniform(2.0, 10.0))
        nu_scale = CGS.k_B * t_planck / CGS.h

        def check_planck(out: Path) -> None:
            with (out / "planck.csv").open(newline="") as handle:
                table = np.array([[float(v) for v in row] for row in list(csv.reader(handle))[1:]])
            require(table.shape == (1000, 2) and np.all(table[:, 1] > 0.0), "planck table")
            x_peak = table[np.argmax(table[:, 1]), 0] / nu_scale
            require(abs(x_peak - 2.8214) < 0.02, "planck peak position")

        cases["planck"] = (["planck", "--t-kelvin", repr(t_planck), "--nu-min-hz", repr(0.1 * nu_scale),
                            "--nu-max-hz", repr(10.0 * nu_scale), "--nu-points", "1000"], check_planck)

        t_maxent = float(rng.uniform(3.0, 8.0))
        band = bosestat.FrequencyBand(nu=float(rng.uniform(0.8e11, 1.3e11)), d_nu=1e9, volume=1e3)
        row = bosestat.geometric_occupancy(band, t_maxent, r_max=60)
        (inputs / "maxent.json").write_text(json.dumps({
            "bands": [{"nu_hz": band.nu, "d_nu_hz": band.d_nu, "volume_cm3": band.volume}],
            "e_target_erg": CGS.h * band.nu * float(row @ np.arange(len(row))),
            "r_max": len(row) - 1,
        }))
        cases["maxent"] = (
            ["maxent", "--spec", str(inputs / "maxent.json")],
            lambda out: require(abs(json.loads((out / "thermo.json").read_text())["temperature_K"]
                                    / t_maxent - 1.0) < 1e-8, "maxent temperature"))

        def check_cmbr(out: Path) -> None:
            payload = json.loads((out / "cmbr.json").read_text())
            exact, asym = payload["rho_vac_exact"], payload["rho_vac_asymptotic"]
            require(exact > 0.0 and math.isfinite(exact) and abs(exact / asym - 1.0) < 0.1,
                    "cmbr exact vs asymptotic vacuum energy")

        cases["cmbr"] = (["cmbr", "--omega-c-rad-per-s", repr(float(10 ** rng.uniform(9.0, 10.0))),
                          "--xi", repr(float(rng.uniform(0.5, 1.0)))], check_cmbr)

        a_cm = float(10 ** rng.uniform(-5.0, -3.0))
        t_cas = float(rng.uniform(2.0, 4.0))

        def check_casimir(out: Path) -> None:
            payload = json.loads((out / "casimir.json").read_text())
            require(payload["pressure_dyne_per_cm2"] < 0.0 and
                    abs(-payload["coefficient"] / a_cm**6 / payload["pressure_dyne_per_cm2"] - 1.0) < 1e-12,
                    "casimir a^-6 law")

        cases["casimir"] = (["casimir", "--a-cm", repr(a_cm), "--t-kelvin", repr(t_cas)], check_casimir)

        cases["check"] = (
            ["check"],
            lambda out: require(all(e["passed"] for e in json.loads((out / "check.json").read_text())),
                                "self-check battery"))
        self.cases = [cases[name] for name in self.COMMANDS]

    def op(self, op_id: int, traced: bool) -> tuple[dict[str, float], str | None]:
        argv, check = self.cases[op_id % self.cycle]
        out = self._fresh_dir(op_id)
        elapsed, code, err = self.runner.run(argv + ["--output-dir", str(out)], op_id, traced)
        try:
            require(code == 0, f"{argv[0]} exited {code}: {err}")
            check_manifest(out)
            check(out)
            reason = None
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            reason = f"{argv[0]}: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        return {argv[0]: elapsed}, reason

    def sizes(self) -> dict:
        return {"commands": list(self.COMMANDS), "maxent_bands": 1, "measure_trials": 20000,
                "planck_points": 1000}


# ------------------------------------------------------------------ cli_field3d


class CliField3d(Workload):
    """propagate -> madelung -> bohm on a seeded 3D Gaussian packet, one process each."""

    name = "cli_field3d"
    N = 32
    SNAPSHOTS = 4
    SEEDS = 3
    STEPS = 20

    def setup(self) -> None:
        from gwfield.constants import CGS

        rng = np.random.default_rng(self.seed)
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        length = 1.0
        sigma = float(rng.uniform(0.065, 0.075)) * length
        center = rng.uniform(0.0, length, size=3)
        k_carrier = 2.0 * math.pi * rng.integers(-3, 4, size=3) / length
        k_ref = 2.0 * math.pi * 8 / length
        omega_ref = CGS.c * k_ref
        m_star = CGS.hbar * omega_ref / (2.0 * CGS.c**2)
        spread_time = 2.0 * m_star * sigma**2 / CGS.hbar
        times = [0.0, 1e-3 * spread_time, 0.5 * spread_time, spread_time]
        (inputs / "propagate.json").write_text(json.dumps({
            "equation": "schrodinger",
            "grid": {"n_points": [self.N] * 3, "lengths": [length] * 3},
            "packet": {"center": center.tolist(), "sigma0": sigma, "k_carrier": k_carrier.tolist()},
            "omega_ref": omega_ref,
            "times": times,
        }))
        positions = (center + rng.uniform(-sigma, sigma, size=(self.SEEDS, 3))) % length
        momenta = CGS.hbar * (k_carrier + rng.normal(0.0, 0.5 / sigma, size=(self.SEEDS, 3)))
        points = lambda arr: ";".join(",".join(repr(float(v)) for v in row) for row in arr)
        self.times = times
        self.sigma = sigma
        self.omega_ref = omega_ref
        self.energy = CGS.hbar * omega_ref
        self.seed_positions, self.seed_momenta = points(positions), points(momenta)
        # at most half a packet width of ballistic travel over the trajectory
        self.dt = 0.5 * sigma / (self.STEPS * CGS.c)

    def op(self, op_id: int, traced: bool) -> tuple[dict[str, float], str | None]:
        base = self._fresh_dir(op_id)
        prop, mad, bohm = base / "propagate", base / "madelung", base / "bohm"
        field0, field1 = prop / "field_0000.csv", prop / "field_0001.csv"
        steps = [
            ("propagate", prop, ["--spec", str(self.workdir / "inputs" / "propagate.json")],
             self._check_propagate),
            ("madelung", mad, ["--field", str(field0), "--next-field", str(field1),
                               "--dt-s", repr(self.times[1] - self.times[0]),
                               "--omega-ref-rad-per-s", repr(self.omega_ref),
                               "--energy-erg", repr(self.energy)], self._check_madelung),
            ("bohm", bohm, ["--field", str(field0), "--omega-ref-rad-per-s", repr(self.omega_ref),
                            "--regime", "massive", f"--seed-positions={self.seed_positions}",
                            f"--seed-momenta={self.seed_momenta}", "--dt-s", repr(self.dt),
                            "--steps", str(self.STEPS)], self._check_bohm),
        ]
        parts, reason = {}, None
        for name, out, args, _ in steps:
            elapsed, code, err = self.runner.run([name, *args, "--output-dir", str(out)], op_id, traced)
            parts[name] = elapsed
            if code != 0:
                reason = f"{name} exited {code}: {err}"
                break
        if reason is None:
            try:
                for name, out, _, check in steps:
                    check_manifest(out)
                    check(out)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                reason = f"{name}: {exc}"
        shutil.rmtree(base, ignore_errors=True)
        return parts, reason

    def _check_propagate(self, out: Path) -> None:
        with (out / "summary.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        require(len(rows) == self.SNAPSHOTS, "propagate snapshot count")
        norms = [float(r[1]) for r in rows]
        require(max(abs(n / norms[0] - 1.0) for n in norms) < 1e-10, "propagate norm drift")
        # sum |psi|^2 dV of the unnormalized packet is (2 pi)^(3/2) sigma^3, up to
        # the overlap of its periodic images (below 1e-8 for these widths)
        expected = (2.0 * math.pi) ** 1.5 * self.sigma**3
        require(abs(norms[0] / expected - 1.0) < 1e-6, "propagate initial norm")

    def _check_madelung(self, out: Path) -> None:
        summary = json.loads((out / "summary.json").read_text())
        require(all(v is not None and math.isfinite(v) for v in summary.values()),
                "madelung summary values finite")

    def _check_bohm(self, out: Path) -> None:
        with (out / "trajectories.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        steps = [str(s) for s in range(self.STEPS + 1)]
        for traj in range(self.SEEDS):
            mine = [r for r in rows if r[0] == str(traj)]
            require([r[1] for r in mine] == steps, f"bohm trajectory {traj} has not run all steps")
            require(all(r[-1] == "ok" for r in mine), f"bohm trajectory {traj} did not end ok")
        require(len(rows) == self.SEEDS * len(steps), "bohm trajectory ids")
        require(all(math.isfinite(float(v)) for r in rows for v in r[2:-1]), "bohm values finite")

    def sizes(self) -> dict:
        return {"grid": [self.N] * 3, "field_csv_points": self.N**3, "snapshots": self.SNAPSHOTS,
                "bohm_seeds": self.SEEDS, "bohm_steps": self.STEPS}


# ----------------------------------------------------------------- lib_spectral


class LibSpectral(Workload):
    """Propagators, polar diagnostics and a 1D partial-wave series, in process."""

    name = "lib_spectral"
    inprocess = True
    imports = "gwfield.wavemech, gwfield.madelung, gwfield.helicity"
    RATIOS = (0.25, 0.5, 0.75, 1.0)
    SNAPSHOTS = 16

    def setup(self) -> None:
        from gwfield import wavemech
        from gwfield.constants import CGS
        from gwfield.fields import ComplexField, Grid, normalize

        rng = np.random.default_rng(self.seed)
        n3, n1 = (32, 1024) if self.small else (64, 4096)
        length = 1.0
        grid3 = Grid.of([n3] * 3, [length] * 3)
        sigma = float(rng.uniform(0.065, 0.075)) * length
        k_carrier = tuple(2.0 * math.pi * rng.integers(-3, 4, size=3) / length)
        psi = normalize(wavemech.gaussian_packet(wavemech.GaussianPacketSpec(
            center=tuple(rng.uniform(0.0, length, size=3)), sigma0=sigma, k_carrier=k_carrier), grid3))
        params = wavemech.EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi * 8 / length,
                                              mu=float(rng.uniform(0.0, 3.0)))
        state = wavemech.ClassicalWaveState(
            psi=psi, psi_dot=ComplexField(grid=grid3, values=-1j * params.omega_ref * psi.values))

        # 1D: omega_ref = c * 2 pi / L makes every mode frequency a multiple of
        # c * 2 pi / L, so a series over one revival time L/c is exactly periodic
        # and its temporal spectrum has no leakage (the Nyquist check passes).
        grid1 = Grid.of(n1, length)
        sigma1 = length / 64.0
        packet1 = normalize(wavemech.gaussian_packet(wavemech.GaussianPacketSpec(
            center=(float(rng.uniform(0.0, length)),), sigma0=sigma1,
            k_carrier=(2.0 * math.pi * int(rng.integers(48, 81)) / length,)), grid1))
        params1 = wavemech.EffectiveMassParams(omega_ref=CGS.c * 2.0 * math.pi / length)
        self.psi, self.params, self.state, self.sigma = psi, params, state, sigma
        self.spread_time = 2.0 * params.m_star * sigma**2 / CGS.hbar
        self.packet1, self.params1 = packet1, params1
        self.fine_dt = 1e-4 * 2.0 * params1.m_star * sigma1**2 / CGS.hbar
        self.revival_dt = length / CGS.c / self.SNAPSHOTS
        self.n3, self.n1 = n3, n1

    def compute(self) -> dict:
        from gwfield import helicity, madelung, wavemech

        psi, params, ts = self.psi, self.params, self.spread_time
        out: dict = {"norms": [], "widths": []}
        for ratio in self.RATIOS:
            evolved = wavemech.evolve_schrodinger(psi, params, ratio * ts)
            out["norms"].append(evolved.norm_squared())
            out["widths"].append(wavemech.packet_widths(evolved))
        mu = params.mu
        moved = wavemech.evolve_classical_wave(self.state, mu, 0.5 * ts)
        out["energy_drift"] = abs(wavemech.wave_energy(moved, mu) / wavemech.wave_energy(self.state, mu) - 1.0)

        step, t_mid = 1e-4 * ts, 0.2 * ts
        mid = wavemech.evolve_schrodinger(psi, params, t_mid)
        before = wavemech.evolve_schrodinger(psi, params, t_mid - step)
        after = wavemech.evolve_schrodinger(psi, params, t_mid + step)
        out["norms"] += [f.norm_squared() for f in (mid, before, after)]
        form = madelung.polar_decompose(mid)
        qfield = madelung.quantum_potential(form, params.m_star)
        out["q_finite"] = bool(np.all(np.isfinite(qfield.Q)))
        decomposition = madelung.energy_decomposition(mid, params)
        out["energy"] = decomposition.E
        out["continuity"] = madelung.continuity_residual(
            form, (after.density() - before.density()) / (2.0 * step), params.m_star)
        out["hj"] = madelung.hj_residual(form, params, -decomposition.E)

        fine = helicity.TimeSeriesField.from_fields(
            [wavemech.evolve_schrodinger(self.packet1, self.params1, m * self.fine_dt)
             for m in range(self.SNAPSHOTS)], dt=self.fine_dt)
        out["current_continuity"] = helicity.current_continuity(fine, self.params1.k0)
        revival = helicity.TimeSeriesField.from_fields(
            [wavemech.evolve_schrodinger(self.packet1, self.params1, m * self.revival_dt)
             for m in range(self.SNAPSHOTS)], dt=self.revival_dt)
        plus, minus = helicity.partial_wave_split(revival)
        scale = float(np.abs(revival.values).max())
        out["split_error"] = float(np.abs(plus.values + minus.values - revival.values).max()) / scale
        j_all = helicity.time_averaged_current(revival, self.params1.k0)[0]
        j_parts = (helicity.time_averaged_current(plus, self.params1.k0)[0]
                   + helicity.time_averaged_current(minus, self.params1.k0)[0])
        out["cross_term"] = float(np.abs(j_all - j_parts).max() / np.abs(j_all).max())
        return out

    def _checked(self, out: dict) -> None:
        require(max(abs(n - 1.0) for n in out["norms"]) < 1e-9, "norm drift")
        for ratio, widths in zip(self.RATIOS, out["widths"]):
            expected = self.sigma * math.sqrt(1.0 + ratio**2)
            require(max(abs(w / expected - 1.0) for w in widths) < 0.01, "Gaussian width law")
        require(out["energy_drift"] < 1e-9, "wave-energy drift")
        require(out["continuity"] < 1e-3, "3D continuity residual")
        require(out["current_continuity"] < 1e-3, "1D current continuity")
        require(out["split_error"] < 1e-10, "partial-wave reconstruction")
        require(out["cross_term"] < 1e-9, "partial-wave cross terms average out")
        require(out["q_finite"] and math.isfinite(out["energy"]) and math.isfinite(out["hj"]),
                "polar diagnostics finite")

    def op(self, op_id: int, traced: bool) -> tuple[dict[str, float], str | None]:
        elapsed, reason = self._timed_call(self.compute, self._checked)
        return {"op": elapsed}, reason

    def sizes(self) -> dict:
        return {"grid3d": [self.n3] * 3, "array3d_MiB": self.n3**3 * 16 / 2**20,
                "grid1d": self.n1, "snapshots1d": self.SNAPSHOTS,
                "schrodinger_evolves3d": len(self.RATIOS) + 3}


# ------------------------------------------------------------------- lib_maxent


class LibMaxent(Workload):
    """One maximize_entropy solve per op, certified against the closed form.

    The seed draws a pool of tables solved in turn, so a run's median does
    not hinge on how many bracketing and Brent steps one table happens to
    need (11 to 13 energy evaluations across seeds).
    """

    name = "lib_maxent"
    inprocess = True
    imports = "gwfield.bosestat"
    R_MAX = 60
    TABLES = 4
    cycle = TABLES

    def setup(self) -> None:
        from gwfield import bosestat
        from gwfield.constants import CGS

        rng = np.random.default_rng(self.seed)
        n_bands = 3 if self.small else 50
        self.tables = []
        for _ in range(self.TABLES):
            t_kelvin = float(rng.uniform(4.0, 6.0))
            nus = np.sort(rng.uniform(0.8e11, 1.6e11, size=n_bands))
            bands = [bosestat.FrequencyBand(nu=float(nu), d_nu=1e9, volume=1e3) for nu in nus]
            rows = [bosestat.geometric_occupancy(b, t_kelvin, r_max=self.R_MAX) for b in bands]
            require(all(len(row) == self.R_MAX + 1 for row in rows), "r_max covers the geometric tail")
            e_target = sum(CGS.h * b.nu * float(row @ np.arange(len(row))) for b, row in zip(bands, rows))
            self.tables.append((bands, t_kelvin, e_target))

    def _checked(self, bands, t_kelvin: float, solved) -> None:
        from gwfield import bosestat
        from gwfield.constants import CGS

        table, thermo = solved
        require(abs(thermo.beta / (CGS.k_B * t_kelvin) - 1.0) < 1e-8, "beta certificate")
        for s, band in enumerate(bands):
            certified = bosestat.geometric_occupancy(band, thermo.temperature, r_max=self.R_MAX)
            keep = certified > 1e-9 * band.n_states
            require(np.abs(table.p[s][keep] / certified[keep] - 1.0).max() < 1e-6,
                    "occupancy certificate")

    def op(self, op_id: int, traced: bool) -> tuple[dict[str, float], str | None]:
        from gwfield import bosestat

        table = op_id % self.TABLES
        bands, t_kelvin, e_target = self.tables[table]
        elapsed, reason = self._timed_call(
            lambda: bosestat.maximize_entropy(bands, e_target, r_max=self.R_MAX),
            lambda solved: self._checked(bands, t_kelvin, solved))
        return {f"table{table}": elapsed}, reason

    def sizes(self) -> dict:
        return {"tables": self.TABLES, "bands": len(self.tables[0][0]), "r_max": self.R_MAX}


WORKLOADS = {w.name: w for w in (CliToolbox, CliField3d, LibSpectral, LibMaxent)}
