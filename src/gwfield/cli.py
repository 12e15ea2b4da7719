"""Command-line entry point.

One subcommand per capability.  :func:`build_parser` binds each subcommand to
its ``_cmd_*`` step and its default output directory.  A step only computes:
it returns the resolved configuration and its outputs, and :func:`main` alone
writes them, plus a manifest echoing the configuration, the tool version, a
checksum of the constant table, and per-file content checksums.  A run whose
configuration or computation fails writes nothing.  All physics flags are CGS
with the unit spelled in the flag name.

Exit codes are decided in one place, :func:`main`, by exception type: 0
success; 4 for an ``OSError`` (I/O); 3 for a ``RuntimeError``, any
``ArithmeticError`` (a floating-point overflow inside a step included) or
``numpy.linalg.LinAlgError`` (numerical failure); 2 for any other
``ValueError``, :class:`ConfigError` and the library's input validation
included (configuration or schema violation, such as a number given as a
boolean or a string in a spec, matrix file or dump sidecar, all of which
``fieldio.read_object`` reads); 1 for anything else.
Every failure, a command-line usage error included, is reported as one JSON
line on stderr, never as a traceback or usage text.

The CLI runs on numpy alone.  The layers beyond its core (``bosestat``,
``cmbrvac``, ``madelung``, ``selfcheck``) are imported inside the steps that
run them: at module level, every process that imports this module, the
benchmark runner included, would load them, which raises its peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .constants import CGS
from . import __version__, hybridmeas, statequant, wavemech
from .fields import ComplexField, Grid, make_plane_wave, normalize
from .fieldio import (_INDEX_NAMES, ConfigError, GridColumn, _complex_from_pair, _load_json,
                      _spec_float, _spec_floats, _spec_int, _spec_items, _spec_matrix, read_field,
                      read_object, read_table, write_field, write_table)
from .helicity import MIN_SNAPSHOTS, TimeSeriesField, convection_current, first_order_charge, partial_wave_split


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a :class:`ConfigError`, so it leaves :func:`main`
    as the one JSON line; ``--help`` and ``--version`` still exit 0."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _read_nonzero(path: str) -> ComplexField:
    """A field dump; an all-zero dump is a configuration error naming its file."""
    field, _ = read_field(path)
    if not field.values.any():
        raise ConfigError(f"field dump {path} holds only zeros", {"file": path})
    return field


def _spec_choice(*choices: str):
    """A converter for a JSON string that must be one of ``choices``."""
    def choice(value, where: str) -> str:
        if value not in choices:
            raise ConfigError(f"{where} must be one of {', '.join(map(repr, choices))}, got {value!r}")
        return value
    return choice


def _one_or_each(convert):
    """A converter for one value or a list of values (one per axis)."""
    each = _spec_items(convert)
    return lambda value, where: each(value, where) if isinstance(value, list) else convert(value, where)


def _complex_matrix_to_json(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _read_matrix_csv(path: Path) -> np.ndarray:
    """Complex matrix CSV: header re0,im0,re1,im1,...; one row per matrix row."""
    header, data = read_table(path)
    if header != [f"{kind}{c}" for c in range(len(header) // 2) for kind in ("re", "im")]:
        raise ConfigError(f"matrix CSV {path} needs the header re0,im0,re1,im1,... got {header}")
    if data.size == 0 or data.shape[1] != len(header):
        raise ConfigError(f"matrix CSV {path} needs data rows of {len(header)} values")
    matrix = data[:, 0::2] + 1j * data[:, 1::2]
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"matrix CSV {path} holds a non-finite entry")
    return matrix


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
            raise FloatingPointError(f"{path.name} would hold a non-finite number: {exc}") from None
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
        "constants_checksum": hashlib.sha256(json.dumps(asdict(CGS), sort_keys=True).encode()).hexdigest(),
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


# each key declaration maps a key to (converter, required); see fieldio.read_object
_GRID_KEYS = {"n_points": (_one_or_each(_spec_int), True), "lengths": (_one_or_each(_spec_float), True)}
_PACKET_KEYS = {"center": (_spec_floats, True), "sigma0": (_spec_float, True),
                "k_carrier": (_spec_floats, True), "amplitude": (_complex_from_pair, False)}
_PLANEWAVE_KEYS = {"amplitude": (_complex_from_pair, True), "k_vec": (_spec_floats, True)}
_PROPAGATE_KEYS = {
    "equation": (_spec_choice("wave", "schrodinger"), True),
    "grid": (partial(read_object, _GRID_KEYS), True),
    "packet": (partial(read_object, _PACKET_KEYS), False),
    "planewave": (partial(read_object, _PLANEWAVE_KEYS), False),
    "mu": (_spec_float, False), "omega_ref": (_spec_float, False),
    "wave_initial": (_spec_choice("right_moving", "static"), False),
    "times": (_spec_floats, True),
}


def _cmd_propagate(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = _load_json(args.spec)
    values = read_object(_PROPAGATE_KEYS, spec, args.spec)
    grid = Grid.of(**values["grid"])
    mu = values.get("mu", 0.0)
    times = values["times"]
    if not times:
        raise ConfigError(f"'times' in {args.spec} lists no snapshot time")
    if any(t < 0.0 for t in times):
        raise ConfigError(f"times must be >= 0, got {min(times)!r}")
    if ("packet" in values) == ("planewave" in values):
        raise ConfigError(f"exactly one of 'packet' or 'planewave' is required in {args.spec}")
    unread = "wave_initial" if values["equation"] == "schrodinger" else "omega_ref"
    if unread in values:
        raise ConfigError(f"'{unread}' in {args.spec} is not read by the {values['equation']} equation")
    wave_initial = values.get("wave_initial", "right_moving")
    if values["equation"] == "wave" and wave_initial == "right_moving" and grid.dim > 1:
        raise ConfigError(f"wave_initial 'right_moving', the default, is one-way data for 1D grids "
                          f"only; the {grid.dim}D grid of {args.spec} needs \"wave_initial\": \"static\"")
    psi0 = (wavemech.gaussian_packet(wavemech.GaussianPacketSpec(**values["packet"]), grid)
            if "packet" in values else make_plane_wave(grid=grid, **values["planewave"]))
    if values["equation"] == "schrodinger":
        if "omega_ref" not in values:
            raise ConfigError(f"missing required key 'omega_ref' in {args.spec}")
        params = wavemech.EffectiveMassParams(omega_ref=values["omega_ref"], mu=mu)

        def evolve(t: float) -> tuple[ComplexField, float]:
            field = wavemech.evolve_schrodinger(psi0, params, t)
            return field, wavemech.schrodinger_energy(field, params)
    else:
        if wave_initial == "right_moving":
            state0 = wavemech.right_moving_state(psi0)
        else:
            zero = ComplexField(grid=grid, values=np.zeros(grid.shape, dtype=complex))
            state0 = wavemech.ClassicalWaveState(psi=psi0, psi_dot=zero)

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
    params = wavemech.EffectiveMassParams(omega_ref=args.omega_ref_rad_per_s, mu=args.mu_per_cm)
    # box-normalized density; every reported quantity is scale-invariant
    psi = normalize(_read_nonzero(args.field))
    form = madelung.polar_decompose(psi)
    qfield = madelung.quantum_potential(form, params.m_star)
    decomposition = madelung.energy_decomposition(psi, params)
    grid, rho = psi.grid, form.rho
    columns = [GridColumn(grid, axis, coordinates=True) for axis in range(grid.dim)] + [
        a.ravel() for a in (rho, form.action, qfield.Q, form.curvature)
    ]
    axis_names = [f"x{i}_cm" for i in range(grid.dim)]
    summary = {
        "E_erg": decomposition.E,
        "pc_erg": decomposition.pc,
        "Q_mean_erg": decomposition.Q_mean,
        "phase_gradient_momentum_g_cm_per_s": madelung.phase_gradient_momentum(form),
        "defect_rms_per_cm2": form.rms(form.curvature),
        "mask_fraction": float(np.mean(form.branch_mask)),
        "continuity_residual": None,
        "hj_residual_erg": (None if args.energy_erg is None
                            else madelung.hj_residual(form, params, -args.energy_erg)),
    }
    if args.next_field is not None:
        next_psi = _read_nonzero(args.next_field)
        if next_psi.grid != grid:
            raise ConfigError(
                f"--next-field {args.next_field} is not on the grid of --field {args.field}",
                {"files": [args.field, args.next_field]})
        rho_dot = (normalize(next_psi).density() - rho) / args.dt_s
        summary["continuity_residual"] = madelung.continuity_residual(form, rho_dot, params.m_star)
    return vars(args), {
        "madelung.csv": (axis_names + ["rho", "S_erg_s", "Q_erg", "defect_per_cm2"], columns),
        "summary.json": summary,
    }


# ---------------------------------------------------------------------- bohm


def _parse_points(raw: str, dim: int, flag: str) -> np.ndarray:
    points = []
    for chunk in raw.split(";"):
        try:
            coords = [float(x) for x in chunk.split(",")]
        except ValueError:
            raise ConfigError(f"{flag} entry '{chunk}' must hold numbers") from None
        if not all(map(math.isfinite, coords)):
            raise ConfigError(f"{flag} entry '{chunk}' must be finite")
        if len(coords) != dim:
            raise ConfigError(f"{flag} entry '{chunk}' must have {dim} coordinates")
        points.append(coords)
    return np.array(points)


def _cmd_bohm(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import madelung

    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    params = wavemech.EffectiveMassParams(omega_ref=args.omega_ref_rad_per_s)
    psi = _read_nonzero(args.field)
    form = madelung.polar_decompose(psi)
    qfield = madelung.quantum_potential(form, params.m_star)
    dim = psi.grid.dim
    positions = _parse_points(args.seed_positions, dim, "--seed-positions")
    momenta = _parse_points(args.seed_momenta, dim, "--seed-momenta")
    if len(positions) != len(momenta):
        raise ConfigError("--seed-positions and --seed-momenta must list the same number of points")
    traj = madelung.run_trajectory(qfield, positions, momenta, args.dt_s, args.steps, args.regime)
    # particle i has rows 0..last_step[i]; each is "ok" but the last row of a
    # particle that stopped early
    which, step = np.nonzero(np.arange(args.steps + 1) <= traj.last_step[:, None])
    last = traj.last_step[which]
    columns = [which, step, traj.times[step], *traj.positions[step, which].T,
               *traj.momenta[step, which].T,
               np.where((step == last) & (last < args.steps), "terminated_masked", "ok")]
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
    rho = statequant.DensityMatrix(entries=_spec_matrix(_load_json(args.rho), args.rho))
    projectors = statequant.ProjectorSet(**read_object(
        {"projectors": (_spec_items(_spec_matrix), True)}, _load_json(args.projectors),
        args.projectors))
    payload: dict = {"rule": args.rule}
    if args.rule == "luders":
        n_outcomes = len(projectors)
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
    # iterdir, unlike glob, raises an OSError naming a missing or non-directory path
    csv_paths = sorted(p for p in series_dir.iterdir() if p.match("field_*.csv"))
    if len(csv_paths) < MIN_SNAPSHOTS:
        raise ConfigError(f"series directory {series_dir} holds {len(csv_paths)} field dumps; need >= {MIN_SNAPSHOTS}")
    fields, times = [], []
    for p in csv_paths:
        f, meta = read_field(p)
        if "t_s" not in meta:
            raise ConfigError(f"field dump {p} lacks a t_s stamp in its sidecar")
        fields.append(f)
        times.append(meta["t_s"])
    steps = np.diff(times)
    if not steps[0] > 0.0:
        raise ConfigError(f"t_s stamps of the field dumps in {series_dir} must increase")
    if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
        raise ConfigError("field series is not uniformly spaced in time")
    series = TimeSeriesField.from_fields(fields, dt=float(steps[0]))
    plus, minus = partial_wave_split(series)
    recon = float(np.abs(plus.values + minus.values - series.values).max())
    payload = {
        "norm_plus": plus.norm(),
        "norm_minus": minus.norm(),
        "reconstruction_error": recon,
    }
    grid = series.grid
    columns = [*(GridColumn(grid, axis) for axis in range(grid.dim)),
               *(comp.ravel() for comp in np.mean(convection_current(series), axis=1)),
               np.mean(first_order_charge(series, args.k0_rad_per_cm), axis=0).ravel()]
    header = [*_INDEX_NAMES[: grid.dim], *(f"j{i}_avg" for i in range(grid.dim)), "rho_t_avg"]
    return vars(args), {"helicity.json": payload, "currents.csv": (header, columns)}


# ------------------------------------------------------------------- measure


_MEASURE_KEYS = {"eigenvalues": (_spec_floats, True),
                 "amplitudes": (_spec_items(_complex_from_pair), True),
                 **{key: (_spec_float, False) for key in ("y0", "w", "g", "tau")}}


def _cmd_measure(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = _load_json(args.spec)
    setup = hybridmeas.MeasurementSetup(**read_object(_MEASURE_KEYS, spec, args.spec))
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not 1 <= args.trials <= 2**63 - 1:  # multinomial counts are C longs
        raise ConfigError(f"--trials must be in [1, 2**63 - 1], got {args.trials}")
    reduced = hybridmeas.partial_trace_system(setup)
    table = hybridmeas.sample_outcomes(setup, args.trials, args.seed)
    payload = {
        "eigenvalues": list(setup.eigenvalues),
        "pointer_positions": setup.pointer_positions.tolist(),
        "weights": setup.weights.tolist(),
        "overlap_matrix": setup.overlap_matrix.tolist(),
        "resolved": setup.resolved,
        "unresolved_pairs": [list(p) for p in setup.unresolved_pairs],
        "reduced_state": _complex_matrix_to_json(reduced.entries),
        "max_abs_deviation": table.max_abs_deviation,
    }
    columns = [np.arange(len(setup.eigenvalues)), np.asarray(setup.eigenvalues, dtype=float),
               setup.weights, table.counts, table.frequencies]
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


_BAND_KEYS = {"nu_hz": (_spec_float, True), "d_nu_hz": (_spec_float, True),
              "volume_cm3": (_spec_float, False)}
_MAXENT_KEYS = {"bands": (_spec_items(partial(read_object, _BAND_KEYS)), True),
                "e_target_erg": (_spec_float, True), "r_max": (_spec_int, True)}


def _cmd_maxent(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import bosestat

    spec = _load_json(args.spec)
    values = read_object(_MAXENT_KEYS, spec, args.spec)
    # a band's keys are FrequencyBand's fields in order, with their units spelled out
    bands = [bosestat.FrequencyBand(*band.values()) for band in values["bands"]]
    table, thermo = bosestat.maximize_entropy(bands, values["e_target_erg"], values["r_max"])
    n_bands, n_r = table.p.shape
    columns = [np.repeat(np.arange(n_bands), n_r),
               np.repeat([band.nu for band in table.bands], n_r),
               np.tile(np.arange(n_r), n_bands), table.p.ravel()]
    payload = {
        "beta_erg": thermo.beta,
        "temperature_K": thermo.temperature,
        "E_erg": table.total_energy(),
        "S_erg_per_K": CGS.k_B * table.ln_multiplicity(),
        "N_photons": float(table.photon_numbers().sum()),
        "energy_evaluations": thermo.energy_evaluations,
    }
    return {**vars(args), "spec": spec}, {
        "occupancy.csv": (["band", "nu_hz", "r", "p"], columns),
        "thermo.json": payload,
    }


# ---------------------------------------------------------------------- cmbr


def _cmd_cmbr(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import cmbrvac

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

    payload = {
        "pressure_dyne_per_cm2": cmbrvac.casimir_pressure(args.a_cm, args.t_kelvin),
        "coefficient": cmbrvac.casimir_coefficient(args.t_kelvin),
    }
    return vars(args), {"casimir.json": payload}


# --------------------------------------------------------------------- check


def _cmd_check(args: argparse.Namespace) -> tuple[dict, dict]:
    from . import selfcheck

    return vars(args), {"check.json": selfcheck.certify()}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gwfield",
        description="Complex scalar wavefield toolkit (CGS units throughout).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    output_root = Path(os.environ.get("GWFIELD_OUTPUT_DIR", "."))

    def add(name: str, help_text: str, step) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=step)
        p.add_argument("--output-dir", default=str(output_root / f"gwfield-{name}"),
                       help="output directory (must not already hold files); "
                            "defaults under $GWFIELD_OUTPUT_DIR")
        return p

    p = add("propagate", "evolve a field per a JSON spec and dump snapshots", _cmd_propagate)
    p.add_argument("--spec", required=True, help="JSON propagation spec")

    p = add("madelung", "polar-form analysis of a field dump", _cmd_madelung)
    p.add_argument("--field", required=True, help="field CSV (with JSON sidecar)")
    p.add_argument("--omega-ref-rad-per-s", type=float, required=True)
    p.add_argument("--mu-per-cm", type=float, default=0.0)
    p.add_argument("--next-field", default=None,
                   help="later snapshot for a finite-difference continuity residual")
    p.add_argument("--dt-s", type=float, default=None)
    p.add_argument("--energy-erg", type=float, default=None,
                   help="stationary energy for the Hamilton-Jacobi residual")

    p = add("bohm", "integrate trajectories in the quantum-potential gradient", _cmd_bohm)
    p.add_argument("--field", required=True)
    p.add_argument("--omega-ref-rad-per-s", type=float, required=True)
    p.add_argument("--regime", choices=["massless", "massive", "classical"], required=True)
    p.add_argument("--seed-positions", required=True,
                   help="semicolon-separated points, comma-separated coordinates [cm]")
    p.add_argument("--seed-momenta", required=True,
                   help="matching momenta [g cm/s]")
    p.add_argument("--dt-s", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = add("schmidt", "Schmidt decomposition of an amplitude matrix CSV", _cmd_schmidt)
    p.add_argument("--matrix", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--renormalize", action="store_true")

    p = add("update", "apply a measurement update rule to a density matrix", _cmd_update)
    p.add_argument("--rule", choices=["luders", "vonneumann"], required=True)
    p.add_argument("--rho", required=True, help="density matrix JSON ({re, im})")
    p.add_argument("--projectors", required=True, help="projector set JSON")
    p.add_argument("--outcome", type=int, default=None)

    p = add("helicity", "partial-wave split of a snapshot directory", _cmd_helicity)
    p.add_argument("--series-dir", required=True)
    p.add_argument("--k0-rad-per-cm", type=float, required=True)

    p = add("measure", "impulsive pointer measurement with seeded sampling", _cmd_measure)
    p.add_argument("--spec", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("planck", "tabulate the blackbody spectral density", _cmd_planck)
    p.add_argument("--t-kelvin", type=float, required=True)
    p.add_argument("--nu-min-hz", type=float, required=True)
    p.add_argument("--nu-max-hz", type=float, required=True)
    p.add_argument("--nu-points", type=int, default=1000)

    p = add("maxent", "maximize the occupancy multiplicity at fixed energy", _cmd_maxent)
    p.add_argument("--spec", required=True, help="JSON band spec")

    p = add("cmbr", "thermal vacuum energy, moment paths and the QED contrast", _cmd_cmbr)
    p.add_argument("--omega-c-rad-per-s", type=float, required=True)
    p.add_argument("--t-kelvin", type=float, default=2.7)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--v-over-b", dest="v_over_b_cm3_per_g_unit", metavar="V_OVER_B",
                   type=float, default=1.0)

    p = add("casimir", "plate pressure from the thermal vacuum density", _cmd_casimir)
    p.add_argument("--a-cm", type=float, required=True)
    p.add_argument("--t-kelvin", type=float, default=2.7)

    add("check", "certify every acceptance criterion and invariant of the registry", _cmd_check)
    return parser


def _emit_error(code: int, message: str, context: dict) -> int:
    sys.stderr.write(json.dumps({"code": code, "message": message, "context": context}) + "\n")
    return code


def _where(exc: Exception) -> str:
    import traceback
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t_start = time.monotonic()
        run = vars(args).pop("run")
        outdir = Path(args.output_dir)
        non_finite = sorted(k for k, v in vars(args).items()
                            if isinstance(v, float) and not math.isfinite(v))
        if non_finite:
            raise ConfigError(f"{non_finite[0]} must be finite, got {getattr(args, non_finite[0])}",
                              {"non_finite": non_finite})
        if outdir.exists() and any(outdir.iterdir()):
            raise OSError(f"output directory {outdir} exists and is not empty")
        # an overflow, a division by zero or a NaN inside a step is a numerical
        # failure; underflow to zero is not
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            config, outputs = run(args)
        _write_run(outdir.resolve(), config, outputs, t_start)
    except OSError as exc:
        return _emit_error(4, str(exc), {})
    # LinAlgError subclasses ValueError, so it must be caught before ValueError
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return _emit_error(3, str(exc), {"type": type(exc).__name__, "where": _where(exc),
                                         **getattr(exc, "context", {})})
    except ValueError as exc:  # ConfigError and the library's input validation
        return _emit_error(2, str(exc), {"type": type(exc).__name__, **getattr(exc, "context", {})})
    except Exception as exc:  # last resort: a failure nobody foresaw is still one JSON line
        return _emit_error(1, str(exc), {"type": type(exc).__name__, "where": _where(exc)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
