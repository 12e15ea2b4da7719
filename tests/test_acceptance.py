"""Acceptance criteria: one test per entry of the ``gwfield.selfcheck`` registry,
named ``test_criterion_<number>_<name>`` or ``test_invariant_<name>``.  Each
prints the entry's PASS/FAIL line (visible with ``pytest -s``), then asserts
every measurement against its bound and the run time against the budget.
The rest keep every public function and class of the package in use, every public
method and property read outside its class, every top-level import of a module read in it,
every grid transform in ``spectral.py``, every ``hashlib`` import in ``cli.py``, every
meshgrid open, every option of one set by some call in the package and to more than one
value, each value that a record derives equal to the value it once stored, every array a
record stores read-only, and every positivity or non-negativity refusal in ``constants``.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from gwfield import bosestat, cli, fieldio, helicity, hybridmeas, madelung, selfcheck, statequant, wavemech
from gwfield.constants import CGS
from gwfield.fields import ComplexField, Grid, normalize


def _acceptance_test(check):
    def test():
        result = selfcheck.run(check)
        print(result.line())
        assert not result.misses, f"{check.name} missed: " + "; ".join(map(str, result.misses))
        assert result.elapsed_s < check.budget_s, (
            f"{check.name} blew its {check.budget_s}s budget: {result.elapsed_s:.2f}s")
    return test


for _check in selfcheck.REGISTRY:
    _kind = "invariant" if _check.criterion is None else f"criterion_{_check.criterion}"
    _name = f"test_{_kind}_{_check.name.replace('-', '_')}"
    globals()[_name] = _acceptance_test(_check)


def test_registry_holds_each_criterion_once():
    assert sorted(c.criterion for c in selfcheck.REGISTRY if c.criterion is not None) == list(range(1, 11))
    assert [c.name for c in selfcheck.REGISTRY if c.criterion is None] == [
        "constants-identities", "plane-wave-orthogonality", "partial-wave-split", "dispersion-relation",
        "gradient-energy-split", "charge-positivity-contrast", "canonical-commutator"]
    assert len({c.name for c in selfcheck.REGISTRY}) == len(selfcheck.REGISTRY)


def test_every_public_name_has_a_reader_in_the_package():
    """A public top-level function or class is read somewhere in ``src/gwfield`` outside
    its own definition: a paper identity lives in the registry or a CLI step, or nowhere."""
    # perfbench/workloads.py calls it, and the benchmark changes only on its own (ROADMAP item 1)
    benchmark_only = {"time_averaged_current"}
    defined, reads = {}, []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined[owner] = path.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    reads.append((owner, sub.id))
                elif isinstance(sub, ast.Attribute):
                    reads.append((owner, sub.attr))
    unread = {name: module for name, module in defined.items()
              if name not in benchmark_only and not any(read == name != owner for owner, read in reads)}
    assert not unread, f"public names nothing in the package reads: {unread}"


def test_every_public_method_and_property_has_a_reader_outside_its_class():
    """A public method, or a ``property(...)`` of a public class, of ``src/gwfield`` is read
    by attribute name somewhere in the package outside its own class: an accessor that only
    its class reads restates another, and a fact has one accessor."""
    # perfbench's tracer reads it, and the benchmark changes only on its own (ROADMAP item 1)
    benchmark_only = {("BohmTrajectory", "status")}
    members, reads = {}, []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for cls in classes:
            for node in cls.body if not cls.name.startswith("_") else ():
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    members[cls.name, node.name] = path.name
                elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                      and getattr(node.value.func, "id", None) == "property"):
                    members.update({(cls.name, t.id): path.name for t in node.targets})
        inside = {id(sub): cls.name for cls in classes for sub in ast.walk(cls)}
        reads += [(inside.get(id(n)), n.attr) for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    unread = sorted(f"{module}: {owner}.{name}" for (owner, name), module in members.items()
                    if (owner, name) not in benchmark_only
                    and not any(attr == name and cls != owner for cls, attr in reads))
    assert not unread, f"public methods and properties only their own class reads: {unread}"


def test_every_module_level_import_is_read():
    """A name that a module of ``src/gwfield`` imports at its top level is read in that module."""
    unread = []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unread += [f"{path.name}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in reads]
    assert not unread, f"imports nothing reads: {unread}"


def test_every_grid_transform_is_in_spectral():
    """Only ``spectral.py`` calls a grid transform (``np.fft.*fftn``), and no module calls a
    half-spectrum one (``rfft*``, ``irfft*``): the package has one transform family, in one home."""
    stray = []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if name.startswith(("rfft", "irfft")) or (name.endswith("fftn") and path.name != "spectral.py"):
                    stray.append(f"{path.name}:{node.lineno} {name}")
    assert not stray, f"grid transforms outside spectral.py: {stray}"


def test_only_the_cli_imports_hashlib():
    """No module of ``src/gwfield`` but ``cli.py`` imports ``hashlib``, at any depth: the
    manifest is the one place that hashes, and a library layer loads no OpenSSL."""
    stray = []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if path.name != "cli.py" and any(name.split(".")[0] == "hashlib" for name in names):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"hashlib imports outside cli.py: {stray}"


def test_every_meshgrid_is_open():
    """Every ``np.meshgrid`` call in ``src/gwfield`` passes ``sparse=True``: a grid
    formula broadcasts open axes and builds no full N^dim coordinate mesh."""
    full = []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", "")) == "meshgrid":
                keywords = {k.arg: getattr(k.value, "value", None) for k in node.keywords}
                if keywords.get("sparse") is not True:
                    full.append(f"{path.name}:{node.lineno}")
    assert not full, f"np.meshgrid calls without sparse=True: {full}"


def test_a_frozen_record_is_written_only_while_it_is_built():
    """``object.__setattr__`` appears in ``src/gwfield`` only inside a ``__post_init__``: a frozen
    record is normalised while it is built and never written after, not even as a cache."""
    stray = []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        building = {id(sub) for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
                    for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and getattr(node.value, "id", None) == "object" and id(node) not in building):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"object.__setattr__ outside __post_init__: {stray}"


def _package_options():
    """Each defaulted parameter of a public function, class or method in ``src/gwfield``, as
    ``"owner.parameter"``, with what each package call to its owner passes for it: the argument's
    AST node, ``...`` through a ``*`` or ``**`` spread, or None when the call relies on the
    default.  A call passes a parameter by keyword, by position, or through a spread."""
    exempt = {
        ("main", "argv"),  # the console script calls main() bare; argv is for callers that pass a list
        ("CgsConstants", None),  # its fields are the constant table's data, not options
    }
    options, calls = {}, []  # options: (owner, parameter) -> position, None if keyword-only

    def add(owner, args, skip=0):
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        options.update({(owner, a.arg): i for i, a in enumerate(positional) if i >= first})
        options.update({(owner, a.arg): None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d})

    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add(node.name, node.args)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                options.update({(node.name, s.target.id): i for i, s in enumerate(fields) if s.value})
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and (
                            method.name == "__init__" or not method.name.startswith("_")):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in method.decorator_list)
                        add(node.name if method.name == "__init__" else method.name, method.args,
                            skip=0 if static else 1)
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]

    def passed(call, name, position):
        keywords = {k.arg: k.value for k in call.keywords}
        if name in keywords:
            return keywords[name]
        if any(isinstance(a, ast.Starred) for a in call.args) or None in keywords:
            return ...
        return call.args[position] if position is not None and position < len(call.args) else None

    return {f"{owner}.{name}": [passed(call, name, position) for call in calls
                                if getattr(call.func, "id", getattr(call.func, "attr", None)) == owner]
            for (owner, name), position in options.items() if not exempt & {(owner, name), (owner, None)}}


def test_every_option_is_set_somewhere_in_the_package():
    """A defaulted parameter of a public function, class or method is passed by some call in
    ``src/gwfield``: an option that only tests set is a constant, or gone."""
    unset = sorted(option for option, values in _package_options().items()
                   if all(value is None for value in values))
    assert not unset, f"options no call in the package passes: {unset}"


def test_no_option_has_one_value_in_use():
    """A defaulted parameter that every package call sets, always to the same literal, has one
    value in use: it is a constant, not an option.  A call that relies on the default, or passes
    a name, an expression or a spread, gives it a second value."""

    def literal(node):
        try:
            return repr(ast.literal_eval(node))
        except ValueError:  # the default (None), a spread (...), a name or an expression
            return None

    one_value = sorted(option for option, values in _package_options().items()
                       if len(literals := {literal(value) for value in values}) == 1 and None not in literals)
    assert not one_value, f"options every package call sets to one literal: {one_value}"


def test_derived_values_equal_what_the_records_stored(tmp_path):
    """Each value a record derives equals what it stored before it was derived, with the
    same type, so the JSON and CSV outputs that carry it keep their bytes."""
    rng = np.random.default_rng(5)
    amplitudes = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    for threshold in (None, 0.3):
        schmidt = statequant.schmidt_decompose(amplitudes, threshold=threshold, renormalize=True)
        singular = np.linalg.svd(amplitudes / np.linalg.norm(amplitudes), compute_uv=False)
        assert type(schmidt.rank) is int and schmidt.rank == int(np.sum(singular >= schmidt.threshold))

    for eigenvalues, resolved in (((0.0, 1.0, 2.0), True), ((0.0, 0.1, 5.0), False)):
        setup = hybridmeas.MeasurementSetup(eigenvalues, (0.6, 0.6j, 0.28**0.5), g=30.0)
        separated = setup.overlap_matrix[np.triu_indices(3, 1)] <= hybridmeas.RESOLVED_OVERLAP
        assert setup.resolved is bool(np.all(separated)) is resolved
        table = hybridmeas.sample_outcomes(setup, 977, seed=3)
        assert np.array_equal(table.frequencies, table.counts / 977)
        # the worst deviation sample_outcomes stored, as it computed it
        for n_trials, seed in ((1, 0), (977, 3), (10_000, 11), (1_000_000, 2026)):
            table = hybridmeas.sample_outcomes(setup, n_trials, seed)
            stored = float(np.abs(table.counts / n_trials - setup.weights).max())
            assert type(table.max_abs_deviation) is float and table.max_abs_deviation == stored

    grid = Grid.of(64, 1.0)
    psi = normalize(wavemech.gaussian_packet(wavemech.GaussianPacketSpec((0.5,), 0.08, (2 * np.pi * 3,)), grid))
    split = madelung.energy_decomposition(psi, wavemech.EffectiveMassParams(omega_ref=3e11))
    assert split.E == split.pc + split.Q_mean

    # the maxent totals ThermoState stored, now derived from its table by the step that writes them
    band = bosestat.FrequencyBand(1e11, 1e9, 1e3)
    spec = tmp_path / "maxent.json"
    spec.write_text(json.dumps({"bands": [{"nu_hz": band.nu, "d_nu_hz": band.d_nu, "volume_cm3": band.volume}],
                                "e_target_erg": 1e-12, "r_max": 60}))
    assert cli.main(["maxent", "--spec", str(spec), "--output-dir", str(tmp_path / "maxent")]) == 0
    written = json.loads((tmp_path / "maxent" / "thermo.json").read_text())
    table, _ = bosestat.maximize_entropy([band], 1e-12, 60)
    totals = {"E_erg": table.total_energy(), "S_erg_per_K": CGS.k_B * table.ln_multiplicity(),
              "N_photons": float(table.photon_numbers().sum())}
    assert all(type(value) is float for value in totals.values())
    assert {key: written[key] for key in totals} == totals
    assert abs(totals["E_erg"] - 1e-12) <= bosestat.ENERGY_TOL * 1e-12

    for n_points, lengths in ((16, 1.0), ((16, 8), (1.0, 0.5)), ((8, 8, 10), (1.0, 2.0, 3.0))):
        grid = Grid.of(n_points, lengths)
        assert grid.dim == len(np.atleast_1d(n_points)) == len(grid.lengths)
        dump = tmp_path / f"field_{grid.dim}d.csv"
        fieldio.write_field(ComplexField(grid=grid, values=np.ones(grid.shape)), dump)
        assert json.loads(fieldio.sidecar_path(dump).read_text())["dim"] == grid.dim
        assert fieldio.read_field(dump)[0].grid == grid


def test_every_array_a_record_stores_is_read_only():
    """Each public record, built through its public path, stores only read-only arrays, so no
    write can undo a check its constructor made (a density matrix's unit trace, say)."""
    grid = Grid.of(64, 1.0)
    psi = normalize(wavemech.gaussian_packet(wavemech.GaussianPacketSpec((0.5,), 0.06, (2 * np.pi * 3,)), grid))
    params = wavemech.EffectiveMassParams(omega_ref=3e11)
    form = madelung.polar_decompose(psi)
    qfield = madelung.quantum_potential(form, params.m_star)
    series = helicity.TimeSeriesField.from_fields(
        [ComplexField(grid=grid, values=psi.values * np.exp(-0.25j * np.pi * m)) for m in range(8)], dt=1e-12)
    band = bosestat.FrequencyBand(1e11, 1e9, 1e3)
    rho = statequant.DensityMatrix.from_state([0.6, 0.8j])
    projectors = statequant.ProjectorSet.computational(2)
    setup = hybridmeas.MeasurementSetup((0.0, 1.0), (0.6, 0.8), g=30.0)
    table = hybridmeas.sample_outcomes(setup, 100, seed=1)
    records = [
        psi, series, *helicity.partial_wave_split(series), wavemech.right_moving_state(psi).psi_dot,
        *bosestat.maximize_entropy([band], 1e-12, 60), rho, projectors,
        statequant.luders_update(rho, projectors, 1)[0], statequant.von_neumann_update(rho, projectors),
        statequant.schmidt_decompose([[0.6, 0.0], [0.0, 0.8]]), setup, table,
        form, qfield, madelung.run_trajectory(qfield, [[0.5]], [[0.0]], 1e-14, 3, "massive"),
    ]
    arrays = []  # ("Record.attribute", array) for each array a record stores
    for rec in records:
        for name in dir(rec):  # every public read, which fills the cached ones
            if not name.startswith("_"):
                getattr(rec, name)
        stored = rec._asdict() if isinstance(rec, tuple) else vars(rec)
        arrays += [(f"{type(rec).__name__}.{name}", array) for name, value in stored.items()
                   for array in (value if isinstance(value, tuple) else (value,)) if isinstance(array, np.ndarray)]
    writable = sorted({name for name, array in arrays if array.flags.writeable})
    assert not writable, f"records that store writable arrays: {writable}"
    assert {"OutcomeFrequencies.counts", "SchmidtResult.left_basis",
            "BohmTrajectory.last_step", "MadelungForm._pass"} <= {n for n, _ in arrays}
    derived = [getattr(setup, name) for name in ("pointer_positions", "weights", "overlap_matrix")] + [
        getattr(form, name) for name in ("rho", "action", "action_gradient_sq")]
    assert all(isinstance(array, np.ndarray) and not array.flags.writeable for array in derived)
    with pytest.raises(ValueError, match="read-only"):
        table.counts[0] += 50


def test_every_positivity_refusal_is_require_positive():
    """No ``raise ValueError(...)`` in ``src/gwfield`` says "positive" or "finite and" in its
    message, except the ones in ``constants.require_positive`` and
    ``constants.require_nonnegative``: a parameter that must be finite and > 0, or finite and
    >= 0, is refused there, with one message, and NaN and inf never slip through a
    hand-written copy."""
    stray = []
    for path in sorted(Path(selfcheck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = {id(sub) for node in tree.body if path.name == "constants.py"
                and getattr(node, "name", None) in ("require_positive", "require_nonnegative")
                for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and id(node) not in home
                    and getattr(node.exc.func, "id", None) == "ValueError"
                    and any(word in ast.unparse(arg) for arg in node.exc.args
                            for word in ("positive", "finite and"))):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"positivity refusals outside constants.require_positive/require_nonnegative: {stray}"
