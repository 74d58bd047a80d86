"""The benchmark's contract, read from ``BENCHMARK.json`` at the repo root
so metric names, units and bounds are written down exactly once."""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec=None):
    return [w["name"] for w in (spec or load())["workloads"]]


def units(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def shape(values, unit_by_name):
    """``{name: {"value", "unit"}}`` for exactly the contract's names;
    a layer a workload never enters reads 0."""
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in unit_by_name.items()}
