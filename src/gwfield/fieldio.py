"""Field serialization (CSV body plus JSON sidecar with grid metadata) and
the one reader of JSON inputs.

The CSV carries one row per grid point with the per-axis indices followed by
the real and imaginary parts.  Floats are written with ``repr``, whose
shortest round-trip representation reproduces the double exactly on read.
Every CSV the package writes goes through :func:`write_table`, and every
JSON object the tool reads (spec objects, ``{re, im}`` matrix files, dump
sidecars) through :func:`read_object`.  Its converters are private, so a
tracer of the public functions records no span per value.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .fields import ComplexField, Grid

_INDEX_NAMES = ("i", "j", "l")


class ConfigError(ValueError):
    """Configuration or schema violation (exit code 2)."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


def _load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}", {"file": str(path)}) from exc


def read_object(keys: dict, obj, where: str) -> dict:
    """Read the JSON object ``obj`` by its declaration ``keys``.

    ``keys`` maps each allowed key to ``(converter, required)``; a converter
    ``convert(value, where)`` returns the value or raises :class:`ConfigError`
    naming ``where``, the object's file and key path.  Returns the converted
    value of each key present, in declaration order; an absent optional key is
    left out, so the record built from the result supplies its own default.
    """
    obj = _spec_object(obj, where)
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in {where}", {"unknown_keys": unknown})
    missing = [key for key, (_, required) in keys.items() if required and key not in obj]
    if missing:
        raise ConfigError(f"missing required key '{missing[0]}' in {where}")
    return {key: convert(obj[key], f"{where}[{key!r}]")
            for key, (convert, _) in keys.items() if key in obj}


def _spec_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got a {type(value).__name__}")
    return value


def _spec_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _spec_float(value, where: str) -> float:
    """A finite JSON number: an int or a float, never a boolean or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _spec_int(value, where: str) -> int:
    number = _spec_float(value, where)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _spec_items(convert):
    """A converter for a JSON list whose items each pass ``convert``: a tuple."""
    def items(value, where: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(convert(v, f"{where}[{i}]") for i, v in enumerate(value))
    return items


_spec_floats = _spec_items(_spec_float)
_spec_ints = _spec_items(_spec_int)


def _complex_from_pair(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_spec_float(value, where))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_spec_float(value[0], where), _spec_float(value[1], where))
    raise ConfigError(f"{where} must be a number or an [re, im] pair")


_MATRIX_KEYS = {"re": (_spec_items(_spec_floats), True), "im": (_spec_items(_spec_floats), False)}


def _spec_matrix(value, where: str) -> np.ndarray:
    """A complex matrix from a ``{re, im}`` object of row lists; ``im`` defaults to zeros."""
    parts = read_object(_MATRIX_KEYS, value, where)
    re = parts["re"]
    im = parts.get("im", tuple((0.0,) * len(row) for row in re))
    if not re or len(im) != len(re) or {len(row) for row in re + im} != {len(re[0])}:
        raise ConfigError(f"{where} needs 're' (and 'im') rows of one shape")
    return np.array(re) + 1j * np.array(im)


# the keys write_field writes; `periodic` and `units` only describe the dump
_SIDECAR_KEYS = {"dim": (_spec_int, True), "n_points": (_spec_ints, True),
                 "lengths": (_spec_floats, True), "normalized": (_spec_bool, True),
                 "periodic": (_spec_bool, False), "units": (_spec_object, False),
                 "t_s": (_spec_float, False)}


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_table(path: str | Path, header: list[str], columns) -> None:
    """Write equal-length 1-D ``columns`` under ``header`` as CSV.

    Float columns are written with ``repr`` (shortest round trip), integer and
    string columns with ``str``.  Rows end in CRLF, as in the csv module's
    default dialect.
    """
    cells = []
    for col in columns:
        col = np.asarray(col)
        cells.append(map(repr if col.dtype.kind == "f" else str, col.tolist()))
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(row) + "\r\n" for row in zip(*cells, strict=True))


def _index_columns(grid: Grid) -> tuple[list[str], list[np.ndarray]]:
    """Names and values of the per-axis index columns, one row per grid point in C order."""
    return list(_INDEX_NAMES[: grid.dim]), list(np.indices(grid.shape).reshape(grid.dim, -1))


def write_field(field: ComplexField, csv_path: str | Path, t_s: float | None = None) -> tuple[Path, Path]:
    """Write field values to ``csv_path`` and grid metadata to a sidecar.

    Returns the (csv, sidecar) paths.  ``t_s`` optionally stamps the snapshot
    time so that series consumers can recover uniform spacing.
    """
    csv_path = Path(csv_path)
    grid = field.grid
    values = field.values.ravel()
    names, indices = _index_columns(grid)
    write_table(csv_path, names + ["re", "im"], [*indices, values.real, values.imag])
    meta = {
        "dim": grid.dim,
        "n_points": list(grid.n_points),
        "lengths": list(grid.lengths),
        "periodic": True,
        "normalized": field.normalized,
        "units": {"lengths": "cm", "values": "cm^(-dim/2) when normalized, arbitrary otherwise"},
    }
    if t_s is not None:
        meta["t_s"] = float(t_s)
    side = sidecar_path(csv_path)
    side.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return csv_path, side


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV table: its header and a 2-D float array of its rows.

    Parsing is exact for ``repr``-written floats.  A malformed body raises
    ValueError naming the file; an empty body gives an empty array.
    """
    with Path(path).open(newline="") as handle:
        try:  # the header read decodes a whole chunk: a byte that is not UTF-8 fails here too
            header = handle.readline().rstrip("\r\n").split(",")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on an empty body
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed CSV {path}: {exc}") from exc
    return header, data


def read_field(csv_path: str | Path) -> tuple[ComplexField, dict]:
    """Inverse of :func:`write_field`: returns the field and the sidecar's
    converted values.

    Raises ValueError naming the file unless the sidecar holds only keys that
    :func:`write_field` writes, each of its type, with ``dim`` entries in
    ``n_points`` and ``lengths``, and unless every grid point appears exactly
    once with in-range indices and the file ends in a newline (a dump cut
    inside its last number still parses as a shorter number).
    """
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    if not side.exists():
        raise FileNotFoundError(f"missing sidecar {side}")
    meta = read_object(_SIDECAR_KEYS, _load_json(side), str(side))
    for key in ("n_points", "lengths"):
        if len(meta[key]) != meta["dim"]:
            raise ConfigError(f"{side}['dim'] is {meta['dim']}, but {side}[{key!r}] has "
                              f"length {len(meta[key])}")
    grid = Grid(dim=meta["dim"], n_points=meta["n_points"], lengths=meta["lengths"])
    header, data = read_table(csv_path)
    expected = list(_INDEX_NAMES[: grid.dim]) + ["re", "im"]
    if header != expected:
        raise ValueError(f"unexpected field CSV header {header} in {csv_path}, expected {expected}")
    n = math.prod(grid.shape)
    idx = data[:, : grid.dim]
    if data.shape != (n, grid.dim + 2) or np.any((idx < 0) | (idx >= grid.shape) | (idx % 1 != 0)):
        raise ValueError(f"field CSV {csv_path} does not hold {n} rows of in-range grid indices")
    flat = np.ravel_multi_index(tuple(idx.astype(np.intp).T), grid.shape)
    if np.any(np.bincount(flat, minlength=n) != 1):
        raise ValueError(f"field CSV {csv_path} does not list every grid point exactly once")
    with csv_path.open("rb") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read() != b"\n":
            raise ValueError(f"field CSV {csv_path} does not end in a newline: its last row is cut")
    values = np.empty(n, dtype=np.complex128)
    values.real[flat] = data[:, grid.dim]
    values.imag[flat] = data[:, grid.dim + 1]
    field = ComplexField(grid=grid, values=values.reshape(grid.shape), normalized=meta["normalized"])
    return field, meta
