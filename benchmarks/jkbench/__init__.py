"""jkbench: the repo's one pinned, seeded, traced benchmark.

Five workloads (``pages_inproc``, ``pages_xproc``, ``calls_hosted``,
``calls_vm``, ``overload_isolation``) measure the system from outside:
its own load generators, payloads, servlets and guest classes drive the
public API of ``repro.core`` / ``repro.web`` / ``repro.ipc`` /
``repro.jkvm`` / ``repro.jvm`` and nothing else, so editing the
instrument is the only way to move a number without moving the system.
See ``README.md`` beside this file and ``BENCHMARK.json`` at the root.
"""

DEFAULT_SEED = 17
