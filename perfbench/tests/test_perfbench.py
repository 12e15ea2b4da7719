"""Tests of the benchmark itself: every workload once, untraced and traced,
at the smallest sizes its inputs allow; metric names and units must match
BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric(name, trace, tmp_path):
    outcome = run.run_workload(name, seed=7, seconds=0.01, trace=trace, small=True,
                               out_root=tmp_path)
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], outcome["lines"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    report = "\n".join(outcome["lines"])
    for name_in_report in ("op_best_s", "op_p50_s", "op_tail_s", "ops_per_s", "setup_s",
                           "peak_rss_mib", "error_rate", "machine:", "sizes:"):
        assert name_in_report in report
    # scratch output dirs are gone; only the record (and spans when traced) remain
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == sorted([f"result-{name}-seed7-trace{int(trace)}.json"]
                          + ([f"spans-{name}-seed7.json"] if trace else []))


def test_traced_layers_where_they_run(tmp_path):
    metrics = run.run_workload("lib_maxent", seed=3, seconds=0.01, trace=True, small=True,
                               out_root=tmp_path)["result"]["metrics"]
    assert metrics["bosestat.solves"]["value"] == 1.0
    assert metrics["bosestat.self_s"]["value"] > 0.0
    assert metrics["cli.invocations"]["value"] == 0.0
    assert metrics["spectral.calls"]["value"] == 0.0


def test_inputs_follow_the_seed(tmp_path):
    run.import_checkout_package()

    def inputs(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        workload = WORKLOADS["cli_toolbox"](seed, workdir, run.SRC, small=True)
        workload.setup()
        return {p.name: p.read_bytes() for p in (workdir / "inputs").iterdir()}

    first, again, other = inputs(11, "a"), inputs(11, "b"), inputs(12, "c")
    assert first == again
    assert all(first[name] != other[name] for name in first)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([float(v) for v in range(100)]) == (90.0, 89.0)
    assert run.tail([float(v) for v in range(30)]) == (60.0, 17.0)
    assert run.tail([1.0] * 20) is None


def test_best_takes_the_fastest_repeat_of_each_part():
    parts = {"update": [1.2, 0.9, 1.5], "check": [2.0, 2.4, 1.6]}
    assert run.best(parts, cycle=2) == pytest.approx((0.9 + 1.6) / 2)
    assert run.best({"propagate": [2.0, 1.8], "bohm": [2.1, 2.5]}, cycle=1) == pytest.approx(3.9)


def test_bohm_check_rejects_cut_trajectories(tmp_path):
    workload = WORKLOADS["cli_field3d"](1, tmp_path, run.SRC, small=True)
    header = "trajectory,step,t_s,x0,x1,x2,p0,p1,p2,status\n"

    def write(rows):
        (tmp_path / "trajectories.csv").write_text(header + "".join(
            f"{traj},{step},0.0,0.1,0.2,0.3,1.0,1.0,1.0,{status}\n" for traj, step, status in rows))

    full = [(t, s, "ok") for t in range(workload.SEEDS) for s in range(workload.STEPS + 1)]
    write(full)
    workload._check_bohm(tmp_path)
    write([row for row in full if row[1] < workload.STEPS])
    with pytest.raises(CheckFailed):
        workload._check_bohm(tmp_path)
    write(full[:-1] + [(workload.SEEDS - 1, workload.STEPS, "terminated_masked")])
    with pytest.raises(CheckFailed):
        workload._check_bohm(tmp_path)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "lib_maxent",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
