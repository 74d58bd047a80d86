"""Spans recorded from jkbench's own wrappers, and the arithmetic on them.

A span is ``(name, start_ns, end_ns)`` on ``CLOCK_MONOTONIC``, which is
system-wide on Linux: spans recorded in the load generator, the server
process and a forked domain host share one time line.  Traced page and
call runs drive one operation at a time, so every span of an operation
starts inside the operation's root span and nesting is recovered from
the time line alone — the hot-path cost of a span stays two clock reads
and one append, and no identifier has to ride the request (which would
defeat the very request caches the workload is meant to exercise).
"""

from __future__ import annotations

import json
from time import perf_counter_ns as now_ns


class Recorder:
    """An in-memory span buffer; ``enabled`` gates every wrapper."""

    def __init__(self):
        self.enabled = False
        self.spans = []

    def wrap(self, name, fn):
        """``fn`` with a span around each call while enabled."""
        spans = self.spans

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, now_ns()))

        return traced

    def drain(self):
        spans = list(self.spans)
        del self.spans[:len(spans)]
        return spans


class Spanned:
    """Proxy giving one method of ``target`` a span; every other
    attribute passes through (servlets, capabilities, gateways)."""

    def __init__(self, recorder, name, target, method="service"):
        self.__dict__["_target"] = target
        self.__dict__[method] = recorder.wrap(name, getattr(target, method))

    def __getattr__(self, attribute):
        return getattr(self._target, attribute)


ROOT_PREFIX = "loadgen."


def nest(spans):
    """Give every span an ``op_id`` and a ``parent``.

    Spans named ``loadgen.*`` are operation roots (the generator's own
    span around one page or one batch).  Any other span belongs to the
    innermost span that contains its *start*: a reply streamed by a
    domain host can reach the client before the server-side handler
    span closes, so a child may end after its parent.  ``parent`` is
    the index of the parent record in the returned (start-sorted) list;
    spans before the first root get ``op_id`` -1.
    """
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    records = []
    stack = []  # indices into records, innermost last
    op_id = -1
    for name, start, end in ordered:
        if name.startswith(ROOT_PREFIX):
            stack.clear()
            op_id += 1
        else:
            while stack and records[stack[-1]]["end_ns"] < start:
                stack.pop()
        records.append({"name": name, "op_id": op_id,
                        "parent": stack[-1] if stack else None,
                        "start_ns": start, "end_ns": end})
        stack.append(len(records) - 1)
    return records


def self_times(records):
    """Per-record self time in ns: the span's duration minus the part
    of it its children cover."""
    own = [r["end_ns"] - r["start_ns"] for r in records]
    for record in records:
        parent = record["parent"]
        if parent is not None:
            covered = (min(record["end_ns"], records[parent]["end_ns"])
                       - record["start_ns"])
            own[parent] -= max(covered, 0)
    return own


def write_jsonl(path, records, limit_ops=None):
    """One span per line; ``limit_ops`` keeps only the first operations
    so a trace file stays readable (aggregates use every span)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            if limit_ops is not None and record["op_id"] >= limit_ops:
                continue
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
