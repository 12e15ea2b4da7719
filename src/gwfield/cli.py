"""Command-line entry point.

One subcommand per capability.  Each ``_cmd_*`` step only computes: it
returns the resolved configuration and its outputs, and :func:`main` alone
writes them, plus a manifest echoing the configuration, the tool version, a
checksum of the constant table, and per-file content checksums.  A run whose
configuration or computation fails writes nothing.  Exit codes: 0 success,
2 configuration/schema violation, 3 numerical failure, 4 I/O failure, 1 any
other error; every failure is reported as one JSON line on stderr, never as a
traceback.  All physics flags are CGS with the unit spelled in the flag name.

The layers backed by scipy (``bosestat``, ``cmbrvac``, ``madelung``,
``selfcheck``) are imported inside the steps that run them: importing scipy
costs ~0.9 s of a ~1.2 s start, which subcommands that never call it should
not pay.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from .constants import CGS
from . import __version__, fields, hybridmeas, statequant, wavemech
from .fields import ComplexField, Grid, PlaneWaveSpec, make_plane_wave
from .fieldio import read_field, read_table, write_field, write_table
from .helicity import TimeSeriesField, partial_wave_split, time_averaged_current


class ConfigError(ValueError):
    """Configuration or schema violation (exit code 2)."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


class CheckFailed(RuntimeError):
    """One or more self-checks failed (exit code 3); ``context`` names them."""

    def __init__(self, failed: list[str]):
        super().__init__("self-checks failed: " + ", ".join(failed))
        self.context = {"failed_checks": failed}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_json(path: str | Path) -> dict:
    p = Path(path)
    text = p.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}", {"file": str(p)}) from exc


@contextlib.contextmanager
def _validated(where: str):
    """Objects built from flag or spec values: a ValueError from their
    validation is a configuration error, not a numerical failure."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _read_dump(path: str | Path) -> tuple[ComplexField, dict]:
    """:func:`read_field`, with a malformed dump reported as a configuration error."""
    try:
        return read_field(Path(path))
    except ValueError as exc:
        raise ConfigError(str(exc), {"file": str(path)}) from exc


def _read_normalized(path: str) -> ComplexField:
    """A dump rescaled to unit box norm; an all-zero dump is a configuration error."""
    raw, _ = _read_dump(path)
    with _validated(f"field dump {path}"):
        return fields.normalize(raw)


def _ensure_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}", {"unknown_keys": unknown})
    missing = sorted(required - set(obj))
    if missing:
        raise ConfigError(f"missing required key '{missing[0]}' in {where}")


def _spec_float(value, where: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _spec_int(value, where: str) -> int:
    number = _spec_float(value, where)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _spec_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _spec_floats(value, where: str) -> tuple[float, ...]:
    return tuple(_spec_float(v, where) for v in _spec_list(value, where))


def _finite_matrix(m: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{where} holds a non-finite entry")
    return m


def _complex_matrix_from_json(obj: dict, where: str) -> np.ndarray:
    _ensure_keys(obj, {"re", "im"}, {"re"}, where)
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must hold numeric matrices: {exc}") from None
    if re.shape != im.shape:
        raise ConfigError(f"re/im shape mismatch in {where}")
    return _finite_matrix(re + 1j * im, where)


def _complex_matrix_to_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _read_matrix_csv(path: Path) -> np.ndarray:
    """Complex matrix CSV: header re0,im0,re1,im1,...; one row per matrix row."""
    header, data = read_table(path)
    if header != [f"{kind}{c}" for c in range(len(header) // 2) for kind in ("re", "im")]:
        raise ConfigError(f"matrix CSV header must be re0,im0,re1,im1,... got {header}")
    if data.size == 0 or data.shape[1] != len(header):
        raise ConfigError(f"matrix CSV {path} needs data rows of {len(header)} values")
    return _finite_matrix(data[:, 0::2] + 1j * data[:, 1::2], f"matrix CSV {path}")


def _grid_from_spec(obj: dict, where: str) -> Grid:
    _ensure_keys(obj, {"n_points", "lengths"}, {"n_points", "lengths"}, where)
    raw = obj["n_points"]
    n_points = [_spec_int(n, f"{where}.n_points") for n in (raw if isinstance(raw, list) else [raw])]
    try:
        return Grid.of(n_points, obj["lengths"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _complex_from_pair(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_spec_float(value, where))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_spec_float(value[0], where), _spec_float(value[1], where))
    raise ConfigError(f"{where} must be a number or an [re, im] pair")


def _write_output(path: Path, value) -> None:
    """Write one output: a ``(field, t_s)`` snapshot, a ``(header, columns)``
    table, or any other value as a JSON payload."""
    if isinstance(value, tuple) and isinstance(value[0], ComplexField):
        write_field(value[0], path, t_s=value[1])
    elif isinstance(value, tuple):
        write_table(path, *value)
    else:
        try:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"{path.name} would hold a non-finite number: {exc}") from None
        path.write_text(text + "\n")


def _write_manifest(outdir: Path, config: dict, t_start: float) -> None:
    outputs = [
        {"path": p.name, "sha256": _sha256(p)}
        for p in sorted(outdir.iterdir())
        if p.name != "manifest.json"
    ]
    manifest = {
        "config": config,
        "tool_version": __version__,
        "constants_checksum": CGS.checksum(),
        "wall_time_s": time.monotonic() - t_start,
        "outputs": outputs,
    }
    _write_output(outdir / "manifest.json", manifest)


def _write_run(target: Path, config: dict, outputs: dict, t_start: float) -> None:
    """Write every output and the manifest into a sibling staging directory,
    then rename it onto ``target`` (absent or empty): a run that fails while
    writing leaves neither a partial ``target`` nor the staging directory."""
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(f".{target.name}.{os.urandom(8).hex()}.partial")
    staging.mkdir()
    try:
        for name, value in outputs.items():
            _write_output(staging / name, value)
        _write_manifest(staging, config, t_start)
        os.replace(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


# ----------------------------------------------------------------- propagate


_PROPAGATE_KEYS = {
    "equation", "grid", "packet", "planewave", "mu", "omega_ref", "wave_initial", "times",
}


def _times_from_spec(value) -> list[float]:
    if not isinstance(value, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) and math.isfinite(t) and t >= 0
        for t in value
    ):
        raise ConfigError("times must be a list of finite numbers >= 0")
    return [float(t) for t in value]


@_validated("propagate spec")
def _initial_field(spec: dict, grid: Grid) -> ComplexField:
    if ("packet" in spec) == ("planewave" in spec):
        raise ConfigError("exactly one of 'packet' or 'planewave' is required in propagate spec")
    if "packet" in spec:
        obj = spec["packet"]
        _ensure_keys(obj, {"center", "sigma0", "k_carrier", "amplitude"},
                     {"center", "sigma0", "k_carrier"}, "packet")
        packet = wavemech.GaussianPacketSpec(
            center=_spec_floats(obj["center"], "packet.center"),
            sigma0=_spec_float(obj["sigma0"], "packet.sigma0"),
            k_carrier=_spec_floats(obj["k_carrier"], "packet.k_carrier"),
            amplitude=_complex_from_pair(obj.get("amplitude", 1.0), "packet.amplitude"),
        )
        return wavemech.gaussian_packet(packet, grid)
    obj = spec["planewave"]
    _ensure_keys(obj, {"amplitude", "k_vec", "omega", "mu"}, {"amplitude", "k_vec", "omega"},
                 "planewave")
    pw = PlaneWaveSpec(
        amplitude=_complex_from_pair(obj["amplitude"], "planewave.amplitude"),
        k_vec=_spec_floats(obj["k_vec"], "planewave.k_vec"),
        omega=_spec_float(obj["omega"], "planewave.omega"),
        mu=_spec_float(obj.get("mu", 0.0), "planewave.mu"),
    )
    return make_plane_wave(pw, grid)


def _cmd_propagate(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = _load_json(args.spec)
    _ensure_keys(spec, _PROPAGATE_KEYS, {"equation", "grid", "times"}, "propagate spec")
    equation = spec["equation"]
    if equation not in ("wave", "schrodinger"):
        raise ConfigError("equation must be 'wave' or 'schrodinger'")
    grid = _grid_from_spec(spec["grid"], "grid")
    mu = _spec_float(spec.get("mu", 0.0), "mu")
    times = _times_from_spec(spec["times"])
    psi0 = _initial_field(spec, grid)
    if equation == "schrodinger":
        if "omega_ref" not in spec:
            raise ConfigError("missing required key 'omega_ref' in propagate spec")
        omega_ref = _spec_float(spec["omega_ref"], "omega_ref")
        with _validated("propagate spec"):
            params = wavemech.EffectiveMassParams(omega_ref=omega_ref, mu=mu)

        def evolve(t: float) -> tuple[ComplexField, float]:
            field = wavemech.evolve_schrodinger(psi0, params, t)
            return field, wavemech.schrodinger_energy(field, params)
    else:
        initial = spec.get("wave_initial", "right_moving")
        if initial == "right_moving":
            with _validated("propagate spec"):
                state0 = wavemech.right_moving_state(psi0)
        elif initial == "static":
            zero = ComplexField(grid=grid, values=np.zeros(grid.shape, dtype=complex))
            state0 = wavemech.ClassicalWaveState(psi=psi0, psi_dot=zero)
        else:
            raise ConfigError("wave_initial must be 'right_moving' or 'static'")

        def evolve(t: float) -> tuple[ComplexField, float]:
            state = wavemech.evolve_classical_wave(state0, mu, t)
            return state.psi, wavemech.wave_energy(state, mu)
    outputs, summary = {}, []
    for idx, t in enumerate(times):
        field, energy = evolve(t)
        outputs[f"field_{idx:04d}.csv"] = (field, t)
        summary.append([t, field.norm_squared(), *wavemech.packet_widths(field), energy])
    width_names = [f"width_{i}_cm" for i in range(grid.dim)]
    outputs["summary.csv"] = (["t_s", "norm"] + width_names + ["energy"],
                              np.asarray(summary, dtype=float).reshape(len(times), grid.dim + 3).T)
    return {**vars(args), "spec": spec}, outputs


# ------------------------------------------------------------------ madelung


def _cmd_madelung(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import madelung

    if args.next_field is not None and (args.dt_s is None or args.dt_s <= 0.0):
        raise ConfigError("--next-field needs a positive --dt-s")
    with _validated("madelung flags"):
        params = wavemech.EffectiveMassParams(omega_ref=args.omega_ref_rad_per_s,
                                              mu=args.mu_per_cm)
    # box-normalized density; every reported quantity is scale-invariant
    psi = _read_normalized(args.field)
    form = madelung.polar_decompose(psi)
    qfield = madelung.quantum_potential(form, params.m_star)
    grid = psi.grid
    columns = [m.ravel() for m in grid.meshes()] + [
        a.ravel() for a in (form.rho, form.action(), qfield.Q, qfield.classicality_defect)
    ]
    axis_names = [f"x{i}_cm" for i in range(grid.dim)]
    decomposition = madelung.energy_decomposition(psi, params)
    keep = ~form.branch_mask
    summary = {
        "E_erg": decomposition.E,
        "pc_erg": decomposition.pc,
        "Q_mean_erg": decomposition.Q_mean,
        "phase_gradient_momentum_g_cm_per_s": madelung.phase_gradient_momentum(psi),
        "defect_rms_per_cm2": float(np.sqrt(np.mean(qfield.classicality_defect[keep] ** 2))),
        "mask_fraction": float(np.mean(form.branch_mask)),
        "continuity_residual": None,
        "hj_residual_erg": None,
    }
    if args.next_field is not None:
        rho_dot = (_read_normalized(args.next_field).density() - form.rho) / args.dt_s
        summary["continuity_residual"] = madelung.continuity_residual(form, rho_dot, params.m_star)
    if args.energy_erg is not None:
        summary["hj_residual_erg"] = madelung.hj_residual(form, params, -args.energy_erg)
    return vars(args), {
        "madelung.csv": (axis_names + ["rho", "S_erg_s", "Q_erg", "defect_per_cm2"], columns),
        "summary.json": summary,
    }


# ---------------------------------------------------------------------- bohm


def _parse_points(raw: str, dim: int, what: str) -> list[np.ndarray]:
    points = []
    for chunk in raw.split(";"):
        coords = [_spec_float(x, what) for x in chunk.split(",")]
        if len(coords) != dim:
            raise ConfigError(f"{what} entry '{chunk}' must have {dim} coordinates")
        points.append(np.asarray(coords))
    return points


def _cmd_bohm(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import madelung

    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    with _validated("bohm flags"):
        params = wavemech.EffectiveMassParams(omega_ref=args.omega_ref_rad_per_s)
    psi, _ = _read_dump(args.field)
    form = madelung.polar_decompose(psi)
    with _validated(f"field dump {args.field}"):  # raises only for an all-zero dump
        qfield = madelung.quantum_potential(form, params.m_star)
    dim = psi.grid.dim
    positions = _parse_points(args.seed_positions, dim, "--seed-positions")
    momenta = _parse_points(args.seed_momenta, dim, "--seed-momenta")
    if len(positions) != len(momenta):
        raise ConfigError("--seed-positions and --seed-momenta must list the same number of points")
    if args.regime == "massless" and not all(p.any() for p in momenta):
        raise ConfigError("the massless regime needs a nonzero momentum for every seed")
    trajs = [madelung.run_trajectory(qfield, x0, p0, args.dt_s, args.steps, args.regime)
             for x0, p0 in zip(positions, momenta)]
    lengths = [len(traj.times) for traj in trajs]
    columns = [
        np.repeat(np.arange(len(trajs)), lengths),
        np.concatenate([np.arange(n) for n in lengths]),
        np.concatenate([traj.times for traj in trajs]),
        *np.concatenate([traj.positions for traj in trajs]).T,
        *np.concatenate([traj.momenta for traj in trajs]).T,
        # every row is "ok" but a trajectory's last, which carries its final status
        [s for traj in trajs for s in ["ok"] * (len(traj.times) - 1) + [traj.status]],
    ]
    header = (["trajectory", "step", "t_s"] + [f"x{i}_cm" for i in range(dim)]
              + [f"p{i}_g_cm_per_s" for i in range(dim)] + ["status"])
    return vars(args), {"trajectories.csv": (header, columns)}


# ------------------------------------------------------------------- schmidt


def _cmd_schmidt(args: argparse.Namespace) -> tuple[dict, dict]:
    matrix = _read_matrix_csv(Path(args.matrix))
    result = statequant.schmidt_decompose(matrix, threshold=args.threshold,
                                          renormalize=args.renormalize)
    payload = {
        "coefficients": result.coefficients.tolist(),
        "rank": result.rank,
        "threshold": result.threshold,
        "entangled": result.entangled,
        "left_basis": _complex_matrix_to_json(result.left_basis),
        "right_basis": _complex_matrix_to_json(result.right_basis),
    }
    return vars(args), {"schmidt.json": payload}


# -------------------------------------------------------------------- update


def _cmd_update(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.rule == "luders" and args.outcome is None:
        raise ConfigError("--outcome is required for the luders rule")
    rho_obj = _load_json(args.rho)
    with _validated("rho file"):
        rho = statequant.DensityMatrix(entries=_complex_matrix_from_json(rho_obj, "rho file"))
    proj_obj = _load_json(args.projectors)
    _ensure_keys(proj_obj, {"projectors"}, {"projectors"}, "projector file")
    with _validated("projector file"):
        projectors = statequant.ProjectorSet(
            projectors=tuple(
                _complex_matrix_from_json(p, f"projector {i}")
                for i, p in enumerate(_spec_list(proj_obj["projectors"], "projectors"))
            )
        )
    payload: dict = {"rule": args.rule}
    if args.rule == "luders":
        n_outcomes = len(projectors.projectors)
        if not 0 <= args.outcome < n_outcomes:
            raise ConfigError(f"--outcome {args.outcome} is outside [0, {n_outcomes})")
        updated, prob = statequant.luders_update(rho, projectors, args.outcome)
        payload["probability"] = prob
    else:
        updated = statequant.von_neumann_update(rho, projectors)
    payload["rho"] = _complex_matrix_to_json(updated.entries)
    return vars(args), {"update.json": payload}


# ------------------------------------------------------------------ helicity


def _cmd_helicity(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.k0_rad_per_cm <= 0.0:
        raise ConfigError(f"--k0-rad-per-cm must be positive, got {args.k0_rad_per_cm}")
    series_dir = Path(args.series_dir)
    csv_paths = sorted(p for p in series_dir.glob("field_*.csv"))
    if len(csv_paths) < 8:
        raise ConfigError(f"series directory {series_dir} holds {len(csv_paths)} field dumps; need >= 8")
    fields, times = [], []
    for p in csv_paths:
        f, meta = _read_dump(p)
        if "t_s" not in meta:
            raise ConfigError(f"field dump {p} lacks a t_s stamp in its sidecar")
        fields.append(f)
        times.append(meta["t_s"])
    if any(f.grid != fields[0].grid for f in fields):
        raise ConfigError(f"field dumps in {series_dir} are not all on one grid")
    steps = np.diff(times)
    if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
        raise ConfigError("field series is not uniformly spaced in time")
    series = TimeSeriesField.from_fields(fields, dt=float(steps[0]), t0=float(times[0]))
    plus, minus = partial_wave_split(series)
    recon = float(np.abs(plus.values + minus.values - series.values).max())
    payload = {
        "norm_plus": plus.norm(),
        "norm_minus": minus.norm(),
        "reconstruction_error": recon,
    }
    averaged = time_averaged_current(series, args.k0_rad_per_cm)
    rho_t_avg = np.mean(
        CGS.hbar * args.k0_rad_per_cm * np.abs(series.values) ** 2, axis=0
    )
    grid = series.grid
    columns = [*np.indices(grid.shape).reshape(grid.dim, -1),
               *(comp.ravel() for comp in averaged), rho_t_avg.ravel()]
    header = (list("ijl"[: grid.dim])
              + [f"j{i}_avg" for i in range(grid.dim)] + ["rho_t_avg"])
    return vars(args), {"helicity.json": payload, "currents.csv": (header, columns)}


# ------------------------------------------------------------------- measure


def _cmd_measure(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = _load_json(args.spec)
    _ensure_keys(spec, {"eigenvalues", "amplitudes", "y0", "w", "g", "tau"},
                 {"eigenvalues", "amplitudes"}, "measurement spec")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    with _validated("measurement spec"):
        setup = hybridmeas.MeasurementSetup(
            eigenvalues=_spec_floats(spec["eigenvalues"], "eigenvalues"),
            amplitudes=tuple(_complex_from_pair(c, "amplitudes")
                             for c in _spec_list(spec["amplitudes"], "amplitudes")),
            y0=_spec_float(spec.get("y0", 0.0), "y0"),
            w=_spec_float(spec.get("w", 1.0), "w"),
            g=_spec_float(spec.get("g", 1.0), "g"),
            tau=_spec_float(spec.get("tau", 1.0), "tau"),
        )
        record = hybridmeas.run_measurement(setup)  # rejects duplicate eigenvalues
    table = hybridmeas.sample_outcomes(record, args.trials, args.seed)
    reduced = hybridmeas.partial_trace_system(record)
    payload = {
        "eigenvalues": list(record.eigenvalues),
        "pointer_positions": record.pointer_positions.tolist(),
        "weights": record.weights.tolist(),
        "overlap_matrix": record.overlap_matrix.tolist(),
        "resolved": record.resolved,
        "unresolved_pairs": [list(p) for p in record.unresolved_pairs],
        "reduced_state": _complex_matrix_to_json(reduced.entries),
        "max_abs_deviation": table.max_abs_deviation,
    }
    columns = [np.arange(len(record.eigenvalues)), np.asarray(record.eigenvalues, dtype=float),
               record.weights, table.counts, table.frequencies]
    return {**vars(args), "spec": spec}, {
        "record.json": payload,
        "frequencies.csv": (["outcome", "eigenvalue", "weight", "count", "frequency"], columns),
    }


# -------------------------------------------------------------------- planck


def _cmd_planck(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import bosestat

    if (args.t_kelvin <= 0 or args.nu_points < 2 or args.nu_max_hz <= args.nu_min_hz
            or args.nu_min_hz <= 0):
        raise ConfigError("planck needs t_kelvin > 0, nu_points >= 2 and 0 < nu_min < nu_max")
    nus = np.linspace(args.nu_min_hz, args.nu_max_hz, args.nu_points)
    rhos = bosestat.planck_density(nus, args.t_kelvin)
    return vars(args), {"planck.csv": (["nu_hz", "rho_erg_per_cm3_hz"], [nus, rhos])}


# -------------------------------------------------------------------- maxent


def _cmd_maxent(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import bosestat

    spec = _load_json(args.spec)
    _ensure_keys(spec, {"bands", "e_target_erg", "r_max", "tol"},
                 {"bands", "e_target_erg", "r_max"}, "maxent spec")
    bands = []
    for i, b in enumerate(_spec_list(spec["bands"], "bands")):
        _ensure_keys(b, {"nu_hz", "d_nu_hz", "volume_cm3"}, {"nu_hz", "d_nu_hz"}, f"band {i}")
        with _validated(f"band {i}"):
            bands.append(bosestat.FrequencyBand(
                nu=_spec_float(b["nu_hz"], f"band {i} nu_hz"),
                d_nu=_spec_float(b["d_nu_hz"], f"band {i} d_nu_hz"),
                volume=_spec_float(b.get("volume_cm3", 1.0), f"band {i} volume_cm3"),
            ))
    e_target = _spec_float(spec["e_target_erg"], "e_target_erg")
    r_max = _spec_int(spec["r_max"], "r_max")
    if not bands or e_target <= 0.0 or r_max < 1:
        raise ConfigError("maxent needs at least one band, e_target_erg > 0 and r_max >= 1")
    # an e_target beyond what r_max can hold stays a numerical failure (exit 3)
    table, thermo = bosestat.maximize_entropy(
        bands, e_target, r_max, tol=_spec_float(spec.get("tol", 1e-10), "tol"))
    n_bands, n_r = table.p.shape
    columns = [np.repeat(np.arange(n_bands), n_r),
               np.repeat([band.nu for band in table.bands], n_r),
               np.tile(np.arange(n_r), n_bands), table.p.ravel()]
    payload = {
        "beta_erg": thermo.beta,
        "temperature_K": thermo.temperature,
        "E_erg": thermo.E,
        "S_erg_per_K": thermo.S_entropy,
        "N_photons": thermo.N_photons,
    }
    return {**vars(args), "spec": spec}, {
        "occupancy.csv": (["band", "nu_hz", "r", "p"], columns),
        "thermo.json": payload,
    }


# ---------------------------------------------------------------------- cmbr


def _cmd_cmbr(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import cmbrvac

    with _validated("cmbr flags"):
        model = cmbrvac.VacuumModel(omega_c=args.omega_c_rad_per_s, T=args.t_kelvin,
                                    xi=args.xi, V_over_B=args.v_over_b_cm3_per_g_unit)
    rho_qed_planck = cmbrvac.qed_vacuum_energy(CGS.omega_P)
    payload = {
        "rho_vac_exact": cmbrvac.vacuum_energy(model, "exact"),
        "rho_vac_asymptotic": cmbrvac.vacuum_energy(model, "asymptotic"),
        "a_e_symbolic": cmbrvac.anomalous_moment(model, "symbolic"),
        "a_e_paper": cmbrvac.anomalous_moment(model, "paper-numeric"),
        "qed_comparison": {
            "rho_qed_at_omega_c": cmbrvac.qed_vacuum_energy(model.omega_c),
            "rho_qed_at_planck_cutoff": rho_qed_planck,
            "decades_above_observed_bound": math.log10(
                rho_qed_planck / cmbrvac.OBSERVED_VACUUM_BOUND
            ),
        },
    }
    return vars(args), {"cmbr.json": payload}


# ------------------------------------------------------------------- casimir


def _cmd_casimir(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import cmbrvac

    with _validated("casimir flags"):  # both are closed forms: only validation raises
        payload = {
            "pressure_dyne_per_cm2": cmbrvac.casimir_pressure(args.a_cm, args.t_kelvin),
            "coefficient": cmbrvac.casimir_coefficient(args.t_kelvin),
        }
    return vars(args), {"casimir.json": payload}


# --------------------------------------------------------------------- check


def _cmd_check(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import selfcheck

    results = selfcheck.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {verdict}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise CheckFailed(failed)
    payload = [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results]
    return vars(args), {"check.json": payload}


_DISPATCH = {
    "propagate": _cmd_propagate,
    "madelung": _cmd_madelung,
    "bohm": _cmd_bohm,
    "schmidt": _cmd_schmidt,
    "update": _cmd_update,
    "helicity": _cmd_helicity,
    "measure": _cmd_measure,
    "planck": _cmd_planck,
    "maxent": _cmd_maxent,
    "cmbr": _cmd_cmbr,
    "casimir": _cmd_casimir,
    "check": _cmd_check,
}


def _default_output_dir(subcommand: str) -> str:
    root = os.environ.get("GWFIELD_OUTPUT_DIR", ".")
    return str(Path(root) / f"gwfield-{subcommand}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwfield",
        description="Complex scalar wavefield toolkit (CGS units throughout).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output-dir", default=None,
                       help="output directory (must not already hold files); "
                            "defaults under $GWFIELD_OUTPUT_DIR")
        return p

    p = add("propagate", "evolve a field per a JSON spec and dump snapshots")
    p.add_argument("--spec", required=True, help="JSON propagation spec")

    p = add("madelung", "polar-form analysis of a field dump")
    p.add_argument("--field", required=True, help="field CSV (with JSON sidecar)")
    p.add_argument("--omega-ref-rad-per-s", type=float, required=True)
    p.add_argument("--mu-per-cm", type=float, default=0.0)
    p.add_argument("--next-field", default=None,
                   help="later snapshot for a finite-difference continuity residual")
    p.add_argument("--dt-s", type=float, default=None)
    p.add_argument("--energy-erg", type=float, default=None,
                   help="stationary energy for the Hamilton-Jacobi residual")

    p = add("bohm", "integrate trajectories in the quantum-potential gradient")
    p.add_argument("--field", required=True)
    p.add_argument("--omega-ref-rad-per-s", type=float, required=True)
    p.add_argument("--regime", choices=["massless", "massive", "classical"], required=True)
    p.add_argument("--seed-positions", required=True,
                   help="semicolon-separated points, comma-separated coordinates [cm]")
    p.add_argument("--seed-momenta", required=True,
                   help="matching momenta [g cm/s]")
    p.add_argument("--dt-s", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = add("schmidt", "Schmidt decomposition of an amplitude matrix CSV")
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--renormalize", action="store_true")

    p = add("update", "apply a measurement update rule to a density matrix")
    p.add_argument("--rule", choices=["luders", "vonneumann"], required=True)
    p.add_argument("--rho", required=True, help="density matrix JSON ({re, im})")
    p.add_argument("--projectors", required=True, help="projector set JSON")
    p.add_argument("--outcome", type=int, default=None)

    p = add("helicity", "partial-wave split of a snapshot directory")
    p.add_argument("--series-dir", required=True)
    p.add_argument("--k0-rad-per-cm", type=float, required=True)

    p = add("measure", "impulsive pointer measurement with seeded sampling")
    p.add_argument("--spec", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("planck", "tabulate the blackbody spectral density")
    p.add_argument("--t-kelvin", type=float, required=True)
    p.add_argument("--nu-min-hz", type=float, required=True)
    p.add_argument("--nu-max-hz", type=float, required=True)
    p.add_argument("--nu-points", type=int, default=1000)

    p = add("maxent", "maximize the occupancy multiplicity at fixed energy")
    p.add_argument("--spec", required=True, help="JSON band spec")

    p = add("cmbr", "thermal vacuum energy, moment paths and the QED contrast")
    p.add_argument("--omega-c-rad-per-s", type=float, required=True)
    p.add_argument("--t-kelvin", type=float, default=2.7)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--v-over-b", dest="v_over_b_cm3_per_g_unit", metavar="V_OVER_B",
                   type=float, default=1.0)

    p = add("casimir", "plate pressure from the thermal vacuum density")
    p.add_argument("--a-cm", type=float, required=True)
    p.add_argument("--t-kelvin", type=float, default=2.7)

    add("check", "run the invariant self-check battery")
    return parser


def _emit_error(code: int, message: str, context: dict) -> None:
    sys.stderr.write(json.dumps({"code": code, "message": message, "context": context}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.output_dir is None:
        args.output_dir = _default_output_dir(args.subcommand)
    outdir = Path(args.output_dir)
    t_start = time.monotonic()
    try:
        non_finite = sorted(k for k, v in vars(args).items()
                            if isinstance(v, float) and not math.isfinite(v))
        if non_finite:
            raise ConfigError(f"{non_finite[0]} must be finite, got {getattr(args, non_finite[0])}",
                              {"non_finite": non_finite})
        if outdir.exists() and any(outdir.iterdir()):
            raise OSError(f"output directory {outdir} exists and is not empty")
        config, outputs = _DISPATCH[args.subcommand](args)
        _write_run(outdir.resolve(), config, outputs, t_start)
    except ConfigError as exc:
        _emit_error(2, str(exc), exc.context)
        return 2
    except OSError as exc:
        _emit_error(4, str(exc), {})
        return 4
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        _emit_error(3, str(exc), {"type": type(exc).__name__, **getattr(exc, "context", {})})
        return 3
    except Exception as exc:  # last resort: a failure nobody foresaw is still one JSON line
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
        _emit_error(1, str(exc), {"type": type(exc).__name__, "where": where})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
