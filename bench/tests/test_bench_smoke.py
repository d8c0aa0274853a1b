"""Smoke test of the benchmark: ``python -m pytest bench/tests -q``.

Not collected by the tier-1 run (``testpaths = ["tests"]``).  Every
workload runs in ``--smoke`` mode (1 round of 10 operations, numbers not
comparable), timed and traced, and must emit exactly the metrics
``BENCHMARK.json`` declares and leave nothing behind.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _worker_processes():
    found = []
    for path in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(path, "rb") as handle:
                arguments = handle.read().split(b"\0")
            # The script a Python interpreter runs is its first argument.
            if arguments[1:2] and arguments[1].endswith(b"bench/worker.py"):
                found.append(path)
        except OSError:
            pass
    return found


def test_benchmark_json_meets_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    # A run is run_seconds plus about 10 s of set-ups, oracle check,
    # warm-up round and the round in flight when the time is up.
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (SPEC["run_seconds"] + 10) <= 0.85 * 3420
    names = list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_no_file_is_collected_by_the_tier1_pattern():
    for directory, _dirs, files in os.walk(os.path.join(ROOT, "bench")):
        assert not [name for name in files if name.startswith("bench_")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_the_declared_metrics_and_leaves_nothing(
        workload, trace):
    segments = set(os.listdir("/dev/shm"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "7", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    assert "NOT COMPARABLE" in done.stdout
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 10
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        listed = [line for line in lines[:-1]
                  if line.split()[:1] == [metric["name"]]
                  and line.split()[-1] == metric["unit"]]
        assert len(listed) == 1, metric["name"]
    if not trace:
        assert all(value["value"] > 0
                   for value in result["metrics"].values())
    else:
        with open(os.path.join(
                ROOT, "bench", "out", "trace_%s.json" % workload)) as handle:
            trace_file = json.load(handle)
        assert trace_file["smoke"] is True
        assert trace_file["columns"][:2] == ["id", "name"]
        assert trace_file["spans"]
    assert set(os.listdir("/dev/shm")) <= segments
    assert not glob.glob(os.path.join(ROOT, "bench", "out", "work_*"))
    assert not _worker_processes()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()
