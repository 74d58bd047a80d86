"""Test-wide fixtures."""

from __future__ import annotations

import glob
import os
import socket
import tempfile

import pytest
from hypothesis import settings

from repro.core import reset_repository
from repro.core.regions import _owner_pid, _pid_alive

# ``--hypothesis-profile=ci`` (the web CI job): property tests run ten
# times deeper and stay deterministic.  Tier-1 keeps the default profile.
settings.register_profile(
    "ci", derandomize=True,
    max_examples=settings.get_profile("default").max_examples * 10,
)


def _serving(path):
    """True when something still accepts on the socket file ``path``."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def _orphaned(segment):
    """True when the process that owns a region segment is gone."""
    pid = _owner_pid(os.path.basename(segment))
    return pid is not None and not _pid_alive(pid)


def _ipc_litter():
    """What dead processes left on the host: endpoint socket files
    nobody serves and sealed-region segments whose owner is gone.

    The live ones are not litter, whoever owns them: a served socket
    belongs to a session sharing the temp directory, and a live
    process's ``jkr<pid>g*`` segments are ``regions._POOL``'s free list
    (revoked regions return to it by design) until its ``atexit``."""
    sockets = glob.glob(os.path.join(tempfile.gettempdir(), "repro-*.sock"))
    segments = glob.glob("/dev/shm/jkr*")
    return ({path for path in sockets if not _serving(path)}
            | {path for path in segments if _orphaned(path)})


@pytest.fixture(scope="session", autouse=True)
def no_ipc_litter():
    """Every endpoint unlinks its socket path and every host's region
    segments go with it: the session fails if it leaves more stale ones
    behind than it found."""
    before = _ipc_litter()
    yield
    leaked = sorted(_ipc_litter() - before)
    assert not leaked, f"test session left IPC files behind: {leaked}"


#: ``select.select``'s descriptor ceiling on Linux.
FD_SETSIZE = 1024


@pytest.fixture()
def above_fd_setsize():
    """``dup2(fd)`` onto a free descriptor number above FD_SETSIZE,
    returning the new number (closed at teardown) — what a reactor with
    a thousand clients hands out.  Skips where RLIMIT_NOFILE is too low
    to have one."""
    import resource

    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft <= FD_SETSIZE + 64:
        pytest.skip(f"RLIMIT_NOFILE {soft} leaves no descriptor above "
                    f"{FD_SETSIZE}")
    opened = []

    def dup(fd):
        target = FD_SETSIZE + 16
        while True:
            try:
                os.fstat(target)
            except OSError:
                break
            target += 1
        os.dup2(fd, target)
        opened.append(target)
        return target

    yield dup
    for fd in opened:
        try:
            os.close(fd)
        except OSError:
            pass


@pytest.fixture()
def repository():
    """A fresh global repository for tests that bind names."""
    return reset_repository()


@pytest.fixture(params=["msvm", "sunvm"])
def profile(request):
    """Parametrize a test over both VM cost profiles."""
    return request.param


@pytest.fixture(params=["threaded", "generic"])
def dispatch_tier(request):
    """Parametrize over the interpreter's two dispatch tiers, so every
    ``vm``-fixture test doubles as a threaded-vs-generic differential."""
    return request.param


@pytest.fixture()
def vm(profile, dispatch_tier):
    from tests.support import fresh_vm

    return fresh_vm(profile=profile,
                    threaded_code=(dispatch_tier == "threaded"))


@pytest.fixture()
def sun_vm():
    from tests.support import fresh_vm

    return fresh_vm(profile="sunvm")
