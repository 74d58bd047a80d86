"""A ``--smoke`` pass over every workload: tiny windows, no claim about
speed — only that each run sets up, checks its outputs, reports every
metric of the contract and leaves nothing behind."""

import json
import shutil
import subprocess
import sys

import pytest

from .. import spec

_CONTRACT = spec.load()
_RUN = str(spec.HERE / "run.py")


def _run(tmp_path, *arguments):
    done = subprocess.run(
        [sys.executable, _RUN, "--smoke", "--seconds", "0.6", "--seed", "17",
         "--out", str(tmp_path / "out"), *arguments],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    return done, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("workload", spec.workload_names(_CONTRACT))
def test_untraced_run_reports_the_end_to_end_metrics(tmp_path, workload):
    done, result = _run(tmp_path, "--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if workload == "overload_isolation":
        # whether a steady request meets its latency limit depends on
        # how busy this machine is; here only the plumbing is on trial
        assert result["failed"] < result["attempted"]
    else:
        assert done.returncode == 0, done.stdout + done.stderr
        assert result["correct"] is True and result["failed"] == 0
    units = spec.units(_CONTRACT, "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload,entered,starved", [
    ("pages_inproc", ("web.", "core.stubs."), ("ipc.", "jvm.", "jkvm.")),
    ("calls_hosted", ("core.",), ("web.", "ipc.", "jvm.", "jkvm.")),
    ("calls_vm", ("jkvm.", "jvm."), ("web.", "ipc.", "core.")),
    ("pages_xproc", ("web.", "ipc."), ("jvm.", "jkvm.")),
    ("overload_isolation", ("web.",), ("ipc.", "jvm.", "jkvm.")),
])
def test_traced_run_shows_which_layers_a_workload_enters(
        tmp_path, workload, entered, starved):
    done, result = _run(tmp_path, "--workload", workload, "--trace", "1")
    if workload != "overload_isolation":  # see the untraced test
        assert done.returncode == 0, done.stdout + done.stderr
    units = spec.units(_CONTRACT, "per_layer")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert "trace.overhead_share" in result["metrics"]
    trace_file = tmp_path / "out" / f"trace-{workload}.jsonl"
    names = {json.loads(line)["name"]
             for line in trace_file.read_text().splitlines()}
    for prefix in entered:
        assert any(name.startswith(prefix) for name in names), names
    for prefix in starved:
        assert not any(name.startswith(prefix) for name in names), names


def test_a_wrong_body_raises_failed_and_the_exit_code(tmp_path):
    done, result = _run(tmp_path, "--workload", "pages_inproc",
                        "--trace", "0", "--corrupt", "1")
    assert done.returncode != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "wrong body" in done.stdout


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path)
    shutil.copytree(spec.HERE, tmp_path / "benchmarks" / "jkbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/jkbench/run.py", "--workload",
         "calls_hosted", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
