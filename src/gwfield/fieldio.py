"""Every file format: field dumps (CSV body plus JSON sidecar with grid metadata),
tables, complex matrices and JSON files.

The CSV carries one row per grid point with the per-axis indices followed by
the real and imaginary parts.  Floats are written with ``repr``, whose
shortest round-trip representation reproduces the double exactly on read.
Every CSV the package writes goes through :func:`write_table`, and every
CSV it reads through one block parser: both hold at most :data:`_BLOCK_ROWS`
rows beyond the data itself, so I/O memory does not grow with the grid.
Every JSON object the tool reads (spec objects, ``{re, im}`` matrix files, dump
sidecars) through :func:`read_object`, and writes each through :func:`write_json`.
Its converters are private, so a tracer of the public functions records no span per value.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .fields import NORM_TOL, ComplexField, Grid

_INDEX_NAMES = ("i", "j", "l")
# rows formatted or parsed at once
_BLOCK_ROWS = 2048


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


def _matrix_json(m: np.ndarray) -> dict:
    """The ``{re, im}`` object that :func:`_spec_matrix` reads."""
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def write_json(path: str | Path, value) -> None:
    """Write indented JSON with sorted keys and a final newline; a NaN or an infinity raises
    FloatingPointError naming the file."""
    try:
        text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"{Path(path).name} would hold a non-finite number: {exc}") from None
    Path(path).write_text(text + "\n")


# the keys write_field writes; `periodic` and `units` only describe the dump
_SIDECAR_KEYS = {"dim": (_spec_int, True), "n_points": (_spec_ints, True),
                 "lengths": (_spec_floats, True), "normalized": (_spec_bool, True),
                 "periodic": (_spec_bool, False), "units": (_spec_object, False),
                 "t_s": (_spec_float, False)}


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".json")


class GridColumn:
    """The axis-``axis`` index of each point of ``grid`` in C order, or, with ``coordinates``,
    the point's coordinate, the index times ``grid.spacings[axis]`` (bit for bit the ravelled
    ``axis`` entry of ``np.meshgrid(..., indexing="ij")`` over ``grid.axis``): a table column
    formed one slice of rows at a time, never as a full-grid array."""

    def __init__(self, grid: Grid, axis: int, coordinates: bool = False):
        self.shape, self.axis, self.spacing = grid.shape, axis, grid.spacings[axis] if coordinates else None
        self.dtype = np.dtype(np.float64 if coordinates else np.intp)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, rows: slice) -> np.ndarray:
        index = np.unravel_index(np.arange(*rows.indices(len(self))), self.shape)[self.axis]
        return index if self.spacing is None else index * self.spacing


def write_table(path: str | Path, header: list[str], columns) -> None:
    """Write equal-length 1-D ``columns`` (arrays, lists or :class:`GridColumn`) under
    ``header`` as CSV, one block of rows at a time.

    Float columns are written with ``repr`` (shortest round trip), integer and
    string columns with ``str``.  Rows end in CRLF, as in the csv module's
    default dialect.  Columns of unequal lengths raise ValueError before the
    file is opened.
    """
    columns = [col if hasattr(col, "dtype") else np.asarray(col) for col in columns]
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"table {path} has columns of unequal lengths {sorted(lengths)}")
    formats = [repr if col.dtype.kind == "f" else str for col in columns]
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            cells = [map(fmt, col[rows].tolist()) for fmt, col in zip(formats, columns)]
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_field(field: ComplexField, csv_path: str | Path, t_s: float | None = None) -> tuple[Path, Path]:
    """Write field values to ``csv_path`` and grid metadata to a sidecar.

    Returns the (csv, sidecar) paths.  ``t_s`` optionally stamps the snapshot time so
    that series consumers can recover uniform spacing.  The sidecar's ``normalized``
    says whether the values hold sum |psi|^2 dV = 1 to ``fields.NORM_TOL``.
    """
    csv_path = Path(csv_path)
    grid = field.grid
    values = field.values.ravel()
    indices = [GridColumn(grid, axis) for axis in range(grid.dim)]
    write_table(csv_path, [*_INDEX_NAMES[: grid.dim], "re", "im"], [*indices, values.real, values.imag])
    meta = {
        "dim": grid.dim,
        "n_points": list(grid.n_points),
        "lengths": list(grid.lengths),
        "periodic": True,
        "normalized": abs(field.norm_squared() - 1.0) <= NORM_TOL,
        "units": {"lengths": "cm", "values": "cm^(-dim/2) when normalized, arbitrary otherwise"},
    }
    if t_s is not None:
        meta["t_s"] = float(t_s)
    side = sidecar_path(csv_path)
    write_json(side, meta)
    return csv_path, side


def _table_reader(handle, path) -> tuple[list[str], Iterator[np.ndarray]]:
    """The header of the CSV open in ``handle`` and an iterator over its body: 2-D float
    blocks of at most :data:`_BLOCK_ROWS` rows, of one width.  Parsing is exact for
    ``repr``-written floats; a malformed row or a byte that is not UTF-8 raises ValueError
    naming the file."""
    try:  # the header read decodes a whole chunk: a byte that is not UTF-8 fails here too
        header = handle.readline().rstrip("\r\n").split(",")
    except ValueError as exc:
        raise ValueError(f"malformed CSV {path}: {exc}") from exc
    return header, _row_blocks(handle, path)


def _row_blocks(handle, path) -> Iterator[np.ndarray]:
    width, n_rows = None, 0
    while True:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on an empty body
                block = np.loadtxt(handle, delimiter=",", ndmin=2, max_rows=_BLOCK_ROWS)
        except ValueError as exc:
            raise ValueError(f"malformed CSV {path} after row {n_rows}: {exc}") from exc
        if not len(block):
            return
        width = width or block.shape[1]
        if block.shape[1] != width:
            raise ValueError(f"malformed CSV {path}: rows of {width} and of {block.shape[1]} values")
        n_rows += len(block)
        yield block
        if len(block) < _BLOCK_ROWS:  # blank lines do not count: a short block ends the body
            return


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """The complex matrix of a CSV of header re0,im0,re1,im1,..., one row per matrix row; another
    header, no row, another width or a non-finite entry is a ConfigError naming the file."""
    with Path(path).open(newline="") as handle:
        header, blocks = _table_reader(handle, path)
        if header != [f"{kind}{c}" for c in range(len(header) // 2) for kind in ("re", "im")]:
            raise ConfigError(f"matrix CSV {path} needs the header re0,im0,re1,im1,... got {header}")
        blocks = list(blocks)
    if not blocks or blocks[0].shape[1] != len(header):
        raise ConfigError(f"matrix CSV {path} needs data rows of {len(header)} values")
    data = np.concatenate(blocks)
    matrix = data[:, 0::2] + 1j * data[:, 1::2]
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"matrix CSV {path} holds a non-finite entry")
    return matrix


def read_field(csv_path: str | Path) -> tuple[ComplexField, dict]:
    """Inverse of :func:`write_field`: returns the field and the sidecar's
    converted values.

    Raises ValueError naming the file unless the sidecar holds only keys that
    :func:`write_field` writes, each of its type, with ``dim`` entries in
    ``n_points`` and ``lengths``, and unless every grid point appears exactly
    once with in-range indices and the file ends in a newline (a dump cut
    inside its last number still parses as a shorter number), and unless a true
    ``normalized`` holds of the values (a false one is not trusted).  The body is
    parsed and scattered into the field one block of rows at a time.
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
    grid = Grid(n_points=meta["n_points"], lengths=meta["lengths"])
    with csv_path.open(newline="") as handle:
        header, blocks = _table_reader(handle, csv_path)
        expected = list(_INDEX_NAMES[: grid.dim]) + ["re", "im"]
        if header != expected:
            raise ValueError(f"unexpected field CSV header {header} in {csv_path}, expected {expected}")
        values = _scatter_rows(blocks, grid, csv_path)
    with csv_path.open("rb") as handle:
        handle.seek(-1, os.SEEK_END)
        if handle.read() != b"\n":
            raise ValueError(f"field CSV {csv_path} does not end in a newline: its last row is cut")
    field = ComplexField(grid=grid, values=values)
    if meta["normalized"] and abs(field.norm_squared() - 1.0) > NORM_TOL:
        raise ConfigError(f"{side}['normalized'] is true, but sum |psi|^2 dV = {field.norm_squared()!r}")
    return field, meta


def _scatter_rows(blocks, grid: Grid, csv_path: Path) -> np.ndarray:
    """The read-only values of a field dump's row ``blocks``, each checked for in-range
    indices, once every grid point has appeared exactly once."""
    n = math.prod(grid.shape)
    miscounted = f"field CSV {csv_path} does not hold {n} rows of in-range grid indices"
    values = np.empty(grid.shape, dtype=np.complex128)
    flat_values = values.reshape(-1)
    seen = np.zeros(n, dtype=bool)
    n_rows = 0
    for block in blocks:
        idx = block[:, : grid.dim]
        if block.shape[1] != grid.dim + 2 or np.any((idx < 0) | (idx >= grid.shape) | (idx % 1 != 0)):
            raise ValueError(miscounted)
        flat = np.ravel_multi_index(tuple(idx.astype(np.intp).T), grid.shape)
        flat_values.real[flat] = block[:, grid.dim]
        flat_values.imag[flat] = block[:, grid.dim + 1]
        seen[flat] = True
        n_rows += len(block)
    if n_rows != n:
        raise ValueError(miscounted)
    # n rows that cover every point list each point once
    if not seen.all():
        raise ValueError(f"field CSV {csv_path} does not list every grid point exactly once")
    values.setflags(write=False)
    return values
