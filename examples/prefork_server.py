"""Prefork serving + out-of-process servlet deployment, end to end.

Run with::

    PYTHONPATH=src python examples/prefork_server.py

Demonstrates the two process-boundary tiers PR 5 added on top of the
reactor:

* a :class:`~repro.web.prefork.PreforkServer` master forking N
  J-Kernel web-server workers behind one port (each on its own
  SO_REUSEPORT listener, each an LRMI endpoint the master controls),
  with rolling hot-swap and cross-process accounting;
* a servlet deployed *out-of-process* (Remote-Playground style): its
  domain lives in a forked host reached through cross-process LRMI, so
  killing that process 503s its URLs — and the supervisor respawns it —
  while every other route keeps serving.
"""

import os
import signal
import time

from repro.web import (
    JKernelWebServer,
    PreforkServer,
    Servlet,
    ServletResponse,
    fetch_once,
)


class WhoAmI(Servlet):
    """Answers with the pid that actually served the request."""

    def service(self, request):
        return ServletResponse(
            200, {"Content-Type": "text/plain"},
            f"served by pid {os.getpid()}\n".encode(),
        )


def build_worker():
    """Runs in each forked worker: a full J-Kernel web server."""
    jk = JKernelWebServer(workers=2)
    jk.server.documents.put("/", b"prefork demo: try /servlet/whoami\n")
    jk.install_servlet("/whoami", WhoAmI)
    return jk


def main():
    print(f"master pid {os.getpid()}")
    with PreforkServer(build_worker, workers=4) as master:
        print(f"serving on 127.0.0.1:{master.port} "
              f"with workers {master.worker_pids()}")

        seen = set()
        for _ in range(12):
            response = fetch_once("127.0.0.1", master.port, "/servlet/whoami")
            seen.add(response.body.decode().strip())
        print("requests landed on:", *sorted(seen), sep="\n  ")

        print("\nrolling restart (zero downtime)...")
        master.rolling_restart()
        print("new fleet:", master.worker_pids())
        response = fetch_once("127.0.0.1", master.port, "/servlet/whoami")
        print("still serving:", response.body.decode().strip())

        stats = master.stats()
        print(f"\nreconciled requests_served={stats['requests_served']} "
              f"(crash replacements: {stats['crash_replacements']})")

    # -- out-of-process servlet in a single-process server ----------------
    print("\nout-of-process servlet demo")
    with JKernelWebServer(workers=2) as jk:
        registration = jk.install_servlet_out_of_process("/sandbox", WhoAmI)
        response = fetch_once("127.0.0.1", jk.port, "/servlet/sandbox")
        print("sandboxed servlet:", response.body.decode().strip(),
              f"(host pid {registration.host.pid})")

        print("killing the sandbox host...")
        os.kill(registration.host.pid, signal.SIGKILL)
        deadline = time.time() + 10
        while time.time() < deadline:
            response = fetch_once("127.0.0.1", jk.port, "/servlet/sandbox")
            if response.status == 200:
                break
            print(f"  -> {response.status} (supervisor respawning)")
            time.sleep(0.1)
        print("recovered:", response.body.decode().strip(),
              f"(respawns: {registration.respawns})")


if __name__ == "__main__":
    main()
