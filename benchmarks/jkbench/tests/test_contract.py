"""Lint of ``BENCHMARK.json`` against the benchmark contract's limits,
and of jkbench's independence from the code it measures."""

import re

from .. import spec

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_shape():
    contract = spec.load()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert spec.BENCHMARK_JSON.stat().st_size <= 64 * 1024
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 1 <= len(contract["command"]) <= 32
    assert all(len(part) <= 200 for part in contract["command"])
    assert 1 <= len(contract["paths"]) <= 16
    for path in contract["paths"]:
        assert _PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (spec.ROOT / path).is_dir()
    script = contract["command"][1]
    assert any(script.startswith(path + "/") for path in contract["paths"])
    assert (spec.ROOT / script).is_file()


def test_the_run_budget_fits_the_drivers_cap():
    contract = spec.load()
    runs = 4 + 22 * len(contract["workloads"])
    # set-up x3 and warm-up ride on every run: allow 10 s beside the
    # measured seconds and the whole campaign must still fit 3420 s
    assert runs * (contract["run_seconds"] + 10) <= 3420


def test_names_units_and_limits():
    contract = spec.load()
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert _UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(_NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in contract["end_to_end"])


def test_every_layer_metric_names_its_module():
    prefixes = ("web.http.", "web.httpd.", "web.isapi.", "web.jkweb.",
                "web.control.", "web.streaming.", "core.stubs.",
                "core.capability.", "core.domain.", "core.convention.",
                "core.fastcopy.", "core.serial.", "core.policy.",
                "core.quota.", "core.regions.", "ipc.lrmi.", "ipc.shm.",
                "jkvm.kernel.", "jvm.threaded.", "jvm.verifier.",
                "loadgen.", "trace.")
    for metric in spec.load()["per_layer"]:
        assert metric["name"].startswith(prefixes), metric["name"]


def test_the_instrument_imports_only_the_public_api():
    banned = re.compile(
        r"repro\.bench|repro\.web\.client|\bloadgen\b\s*import"
        r"|import\s+loadgen"
        r"|fetch_once|fetch_many|measure_throughput|run_mixed_load")
    for source in spec.HERE.glob("*.py"):
        assert not banned.search(source.read_text(encoding="utf-8")), source
