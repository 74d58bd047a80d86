"""Workload name -> implementation."""

from __future__ import annotations

#: Window length per workload: the shortest that holds, with margin, the
#: thousand latency samples a p99 needs at the workload's rate.
WINDOW_S = {"pages_inproc": 0.5, "pages_xproc": 0.5, "calls_hosted": 1.0,
            "calls_vm": 1.5, "overload_isolation": 3.0}


def run(name, seed, shape, traced, out_dir, corrupt=False):
    if name in ("pages_inproc", "pages_xproc"):
        from . import pages

        return pages.run(name, seed, shape, traced, out_dir, corrupt)
    if name == "overload_isolation":
        from . import overload

        return overload.run(seed, shape, traced, out_dir)
    from . import calls

    return calls.run(name, seed, shape, traced, out_dir)
