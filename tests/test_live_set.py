"""The live set of the ``lib_spectral`` benchmark op, step by step.

Each line of ``LibSpectral.compute`` (``perfbench/workloads.py``) is one step.  The op runs at
its small size (32^3 and a 1024-point series) under tracemalloc, with its locals kept alive as
``compute`` keeps them, and a line tracer reads the traced peak of every step; the set-up's
arrays are not counted.  A memory change reads here which step holds the op's peak.
"""

import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import LibSpectral  # noqa: E402

# one full complex grid at 32^3, the unit of the bound
FULL = 32**3 * 16


def step_peaks(workload: LibSpectral) -> dict[str, float]:
    """The traced peak of each line of ``workload.compute`` [full grids], by its source text, from
    the traced memory before the op.  The op runs once beforehand, so lazy set-up is not counted."""
    workload.compute()
    code = LibSpectral.compute.__code__
    lines = Path(code.co_filename).read_text().splitlines()
    peaks: dict[str, float] = {}
    running = []  # the line whose step is open

    def local(frame, event, arg):
        if event in ("line", "return"):
            if running:
                step = lines[running.pop() - 1].strip()
                peaks[step] = max(peaks.get(step, 0.0), (tracemalloc.get_traced_memory()[1] - start) / FULL)
            tracemalloc.reset_peak()
            if event == "line":
                running.append(frame.f_lineno)
        return local

    previous = sys.gettrace()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        workload.compute()
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
    return peaks


def test_lib_spectral_top_step():
    # seed 1 (seeds 2 and 3 read the same top): the top step is the split check at 9.42 grids,
    # then the series' time-averaged currents 9.28, continuity 8.02 and the polar step 7.56;
    # while the derivatives read n-D spectra the currents held 10.77 and the polar step 9.43
    with tempfile.TemporaryDirectory() as workdir:
        workload = LibSpectral(seed=1, workdir=Path(workdir), src=ROOT / "src", small=True)
        workload.setup()
        peaks = step_peaks(workload)
    top = max(peaks, key=peaks.get)
    assert peaks[top] <= 9.6, f"top step {peaks[top]:.2f} grids: {top}"
