"""``--compare A.json B.json``: the no-regression table between two
result files written by ``python -m benchmarks.jkbench --out DIR``.

Per (workload, end-to-end metric): both medians, both spreads, the
change in the metric's worse direction against its bound, and a verdict:
``regressed`` (B's median worse than A's by more than the bound),
``unresolved`` (either side's own spread is wider than the bound, so
the comparison cannot tell) or ``ok``.  An observation is one set's
value when a file holds several sets (``--repeat``), else one window's.
"""

from __future__ import annotations

import json
import statistics

from .stats import spread_share


def observations(result, workload, metric):
    """The values ``result`` holds for one (workload, metric)."""
    runs = [run[f"{workload}:0"]["metrics"][metric]
            for run in result["sets"]]
    if len(runs) > 1:
        return [run["value"] for run in runs]
    return runs[0].get("windows", [runs[0]["value"]])


def verdict(a_values, b_values, better, bound):
    """``(a_median, b_median, a_spread, b_spread, worse_by, verdict)``;
    ``worse_by`` is B's change in the bad direction as a share of A."""
    a, b = statistics.median(a_values), statistics.median(b_values)
    change = (b - a) / abs(a) if a else 0.0
    worse_by = change if better == "lower" else -change
    a_spread, b_spread = spread_share(a_values), spread_share(b_values)
    if worse_by > bound:
        word = "regressed"
    elif max(a_spread, b_spread) > bound:
        word = "unresolved"
    else:
        word = "ok"
    return a, b, a_spread, b_spread, worse_by, word


def compare(result_a, result_b, contract):
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            rows.append((workload, metric["name"], *verdict(
                observations(result_a, workload, metric["name"]),
                observations(result_b, workload, metric["name"]),
                metric["better"], metric["bound"]), metric["bound"]))
    return rows


def main(path_a, path_b, contract):
    with open(path_a, encoding="utf-8") as a, \
            open(path_b, encoding="utf-8") as b:
        rows = compare(json.load(a), json.load(b), contract)
    print(f"{'workload':20s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'spreadA':>8s} {'spreadB':>8s} {'worse by':>9s} {'bound':>6s}")
    for workload, metric, a, b, sa, sb, worse, word, bound in rows:
        print(f"{workload:20s} {metric:18s} {a:12.6g} {b:12.6g} "
              f"{sa:8.1%} {sb:8.1%} {worse:+9.1%} {bound:6.0%}  {word}")
    return 1 if any(row[7] == "regressed" for row in rows) else 0
