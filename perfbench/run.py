#!/usr/bin/env python3
"""gwfield benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout, in a closed loop with
one client and one op in flight, against the checkout's own ``src/`` tree.
Prints a report (machine stamp, sizes, every metric with its unit and
sample count) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, and reports the per-layer metrics from
the traced half plus ``trace.overhead_s`` (traced minus untraced
``op_best_s``).  ``--workload all`` runs every workload in turn, each in its own
process.  Spans, results and scratch files go under ``.perfbench/`` in the
checkout; scratch files are removed when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("cli_toolbox", "cli_field3d", "lib_spectral", "lib_maxent")
SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 60.0)


def cap_threads() -> None:
    """Cap the BLAS/OpenMP thread counts at nproc (before numpy is imported)."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, nproc))
        except ValueError:
            value = nproc
        os.environ[var] = str(max(1, min(value, nproc)))


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_stamp() -> dict:
    model = platform.processor()
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def tail(durations: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def best(part_times: dict[str, list[float]], cycle: int) -> float:
    """Fastest time of each part in the run, summed over a round, per op.

    A slow stretch of a shared host that covers part of a run moves medians
    and means, but not the fastest repeat of the same work on the same inputs.
    """
    return sum(min(times) for times in part_times.values()) / cycle


def measure(workload, seconds: float, traced: bool, next_id: int, tracer=None):
    """Closed loop of ops until ``seconds`` have passed and one whole round has run.

    Returns the wall time of every op, the times of every part by name, the
    failure reasons and the next op id.
    """
    durations, part_times, failures = [], {}, []
    start = time.monotonic()
    while len(durations) < workload.cycle or time.monotonic() - start < seconds:
        if tracer is not None:
            tracer.op = next_id
        parts, reason = workload.op(next_id, traced)
        next_id += 1
        durations.append(sum(parts.values()))
        for part, elapsed in parts.items():
            part_times.setdefault(part, []).append(elapsed)
        if reason is not None:
            failures.append(reason)
    return durations, part_times, failures, next_id


def import_checkout_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gwfield = importlib.import_module("gwfield")
    if not Path(gwfield.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"gwfield imported from {gwfield.__file__}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, out_root: Path = OUT) -> dict:
    """Run one workload; return the report lines and the result object."""
    cap_threads()
    import_checkout_package()
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    load_start = os.getloadavg()
    try:
        workload = WORKLOADS[name](seed, workdir, SRC, small)
        # imported here so that no set-up sample includes this process's first import
        for module in workload.imports.split(", "):
            importlib.import_module(module)
        setup_times, setup_failures, failures = [], [], []
        for _ in range(1 if trace else SETUP_REPS):
            t0 = time.monotonic()
            workload.runner.import_check(workload.imports)
            workload.setup()
            if workload.inprocess:
                _, reason = workload.op(-1, False)
                if reason is not None:
                    setup_failures.append(f"warm-up: {reason}")
            setup_times.append(time.monotonic() - t0)

        tracer = None
        if trace:
            durations, part_times, failed, next_id = measure(workload, seconds / 2.0, False, 0)
            failures += failed
            if workload.inprocess:
                tracer = Tracer()
                tracer.install()
            traced, traced_parts, failed, _ = measure(workload, seconds / 2.0, True, next_id, tracer)
            failures += failed
            attempted = len(durations) + len(traced)
        else:
            durations, part_times, failed, _ = measure(workload, seconds, False, 0)
            failures += failed
            attempted = len(durations)
        rusage = resource.RUSAGE_SELF if workload.inprocess else resource.RUSAGE_CHILDREN
        peak_rss_mib = resource.getrusage(rusage).ru_maxrss / 1024.0
        sizes = workload.sizes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end = os.getloadavg()

    stamp = dict(machine_stamp(), loadavg_start=load_start, loadavg_end=load_end)
    p50 = statistics.median(durations)
    op_best_s = best(part_times, workload.cycle)
    fewest = min(len(times) for times in part_times.values())
    lines = [
        f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}",
        "machine: " + json.dumps(stamp, sort_keys=True),
        "sizes: " + json.dumps(sizes, sort_keys=True),
        f"op_best_s = {op_best_s:.6g} s (fastest of each of {len(part_times)} parts, "
        f"n>={fewest} each, per op of a {workload.cycle}-op round)",
        f"op_p50_s = {p50:.6g} s (n={len(durations)})",
    ]
    tail_value = tail(durations)
    if tail_value is None:
        lines.append(f"op_tail_s omitted: no percentile above the median has 10 samples beyond it "
                     f"(n={len(durations)})")
    else:
        lines.append(f"op_tail_s = {tail_value[1]:.6g} s (p{tail_value[0]:g}, n={len(durations)})")
    ops_per_s = len(durations) / sum(durations)
    setup_s = statistics.median(setup_times)
    error_rate = len(failures) / attempted
    lines += [
        f"ops_per_s = {ops_per_s:.6g} 1/s (n={len(durations)})",
        f"setup_s = {setup_s:.6g} s (median of {len(setup_times)})",
        f"peak_rss_mib = {peak_rss_mib:.6g} MiB "
        f"({'RUSAGE_SELF' if workload.inprocess else 'RUSAGE_CHILDREN'})",
        f"error_rate = {error_rate:.6g} ratio ({len(failures)} failed / {attempted} attempted)",
    ]
    lines += [f"FAILED: {reason}" for reason in (setup_failures + failures)[:20]]

    if trace:
        spans = tracer.spans if tracer is not None else workload.runner.spans
        layers = layer_metrics(spans, len(traced), workload.runner.startups,
                               best(traced_parts, workload.cycle) - op_best_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        lines.append(f"per-layer metrics from {len(traced)} traced ops "
                     "(per op, except rates, ratios, per-step/per-solve times and "
                     "cli.startup_s, the median per invocation):")
        lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in layers.items()]
        spans_path = out_root / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["layer", "function", "start", "end", "parent", "op", "note"],
            "spans": spans,
        }))
    else:
        # op times are reported above but not declared: see README.md
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {"correct": not (failures or setup_failures), "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": stamp, "sizes": sizes, "durations_s": durations, "part_times_s": part_times,
              "op_best_s": op_best_s, "op_p50_s": p50, "ops_per_s": ops_per_s,
              "setup_s_samples": setup_times, "failures": setup_failures + failures,
              "op_tail_s": None if tail_value is None else {"percentile": tail_value[0], "value": tail_value[1]},
              "error_rate": error_rate, "result": result}
    (out_root / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"lines": lines, "result": result}


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; the last line maps name -> result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gwfield" / "cli.py").is_file():
        print(f"perfbench: no gwfield source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
