"""Field serialization: CSV body plus JSON sidecar with grid metadata.

The CSV carries one row per grid point with the per-axis indices followed by
the real and imaginary parts.  Floats are written with ``repr``, whose
shortest round-trip representation reproduces the double exactly on read.
Every CSV the package writes goes through :func:`write_table`.
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


def write_field(field: ComplexField, csv_path: str | Path, t_s: float | None = None) -> tuple[Path, Path]:
    """Write field values to ``csv_path`` and grid metadata to a sidecar.

    Returns the (csv, sidecar) paths.  ``t_s`` optionally stamps the snapshot
    time so that series consumers can recover uniform spacing.
    """
    csv_path = Path(csv_path)
    grid = field.grid
    values = field.values.ravel()
    write_table(csv_path, list(_INDEX_NAMES[: grid.dim]) + ["re", "im"],
                [*np.indices(grid.shape).reshape(grid.dim, -1), values.real, values.imag])
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
        header = handle.readline().rstrip("\r\n").split(",")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on an empty body
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed CSV {path}: {exc}") from exc
    return header, data


def read_field(csv_path: str | Path) -> tuple[ComplexField, dict]:
    """Inverse of :func:`write_field`: returns the field and the sidecar dict.

    Raises ValueError naming the file unless every grid point appears exactly
    once with in-range indices and the file ends in a newline (a dump cut
    inside its last number still parses as a shorter number).
    """
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    if not side.exists():
        raise FileNotFoundError(f"missing sidecar {side}")
    meta = json.loads(side.read_text())
    grid = Grid(dim=meta["dim"], n_points=tuple(meta["n_points"]), lengths=tuple(meta["lengths"]))
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
    field = ComplexField(grid=grid, values=values.reshape(grid.shape),
                         normalized=bool(meta.get("normalized", False)))
    return field, meta
