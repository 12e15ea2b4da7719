"""Byte identity of the CLI's outputs on fixed inputs.

``golden/table.json`` lists argv lists that run on the files in ``golden/inputs``:
the eight ``cli_toolbox`` commands of the benchmark, a 50-band ``maxent`` (the first
seed-1 ``lib_maxent`` table, whose rows converge at different iterations), one 1D
propagate -> madelung -> bohm -> helicity chain, the ``cli_field3d``
propagate -> madelung -> bohm chains of seeds 1-3 on a 32^3 packet, a 1D wave-equation
series split into both partial waves, a 2D packet chain (helicity, madelung with both
residuals, massless and classical bohm), an unresolved measure, a thresholded schmidt, a
vonneumann update and four plane-wave propagate runs (the last on a 128^2 grid, large
enough that numpy forms ``amplitude * exp(...)`` in place, its operands swapped).  Beside each argv
it keeps the sha256 of every file the run writes; a manifest is hashed without its
``wall_time_s``.  The runs go in process through ``cli.main``, in a fresh working
directory and with relative paths, so every byte of every output, manifests included, is
a function of the inputs alone.

A change that moves an output on purpose regenerates the table, and says which files moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from gwfield import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE = GOLDEN / "table.json"


def _digest(path: Path) -> str:
    if path.name != "manifest.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = json.loads(path.read_text())
    del manifest["wall_time_s"]
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def output_digests(runs: list[dict], workdir: Path) -> list[dict[str, str]]:
    """Copy the inputs into ``workdir``, the working directory, and run each argv of ``runs``
    there: one dict per run, from each file in its output directory to the file's digest."""
    shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
    digests = []
    for run in runs:
        argv = run["argv"]
        assert cli.main(argv) == 0, f"{argv[0]} failed"
        outdir = workdir / argv[argv.index("--output-dir") + 1]
        digests.append({p.name: _digest(p) for p in sorted(outdir.iterdir())})
    return digests


def test_outputs_match_the_table(tmp_path, monkeypatch):
    table = json.loads(TABLE.read_text())
    monkeypatch.chdir(tmp_path)
    # name each file by its output directory: four runs are a bohm, three a madelung
    moved = [f"{run['argv'][run['argv'].index('--output-dir') + 1]}/{name}"
             for run, got in zip(table["runs"], output_digests(table["runs"], tmp_path), strict=True)
             for name in sorted(got.keys() | run["outputs"].keys()) if got.get(name) != run["outputs"].get(name)]
    assert not moved, f"moved {moved} (table made with numpy {table['numpy']}, this is numpy {np.__version__})"


if __name__ == "__main__":
    import os
    import tempfile

    table = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for run, digests in zip(table["runs"], output_digests(table["runs"], Path(tmp))):
            run["outputs"] = digests
    table["numpy"] = np.__version__
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
