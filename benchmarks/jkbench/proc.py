"""Placement, process-tree accounting and leak checks (Linux ``/proc``)."""

from __future__ import annotations

import glob
import os
import tempfile

_TICK_US = 1e6 / os.sysconf("SC_CLK_TCK")


def cpus():
    """``(sut_cpu, generator_cpu)``: distinct when the host allows it."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[min(1, len(allowed) - 1)]


def pin(cpu):
    os.sched_setaffinity(0, {cpu})


def _stat_fields(pid):
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read()
    # comm may contain spaces and parentheses; fields restart after it.
    return data[data.rindex(b")") + 2:].split()


def tree(root):
    """``root`` and every live descendant, by scanning parent pids (the
    per-task ``children`` file is not available on every kernel)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parents[int(entry)] = int(_stat_fields(entry)[1])
            except (OSError, ValueError, IndexError):
                continue
    members, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        if pid in parents or pid == root:
            members.append(pid)
            frontier.extend(p for p, pp in parents.items() if pp == pid)
    return members


def cpu_us(pids):
    """User+system CPU consumed so far by ``pids`` (10 ms ticks)."""
    ticks = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks * _TICK_US


def peak_rss_mib(pids):
    """Summed ``VmHWM`` of ``pids`` in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024


def alive(pid):
    try:
        state = _stat_fields(pid)[0]
    except OSError:
        return False
    return state != b"Z"


def leak_snapshot():
    """What a workload must leave exactly as it found it."""
    return {
        "shm": set(glob.glob("/dev/shm/jkr*")),
        "sockets": set(glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-lrmi-*.sock"))),
    }


def leaks(before, pids):
    """Human-readable leak list: surviving pids, new region segments,
    new LRMI socket files."""
    found = [f"pid {pid} survived" for pid in pids if alive(pid)]
    after = leak_snapshot()
    for kind in ("shm", "sockets"):
        found.extend(f"leaked {path}" for path in
                     sorted(after[kind] - before[kind]))
    return found
