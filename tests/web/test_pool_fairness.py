"""Weighted-fair dispatch in ``DomainWorkerPool``.

Every ordering test holds the pool's worker(s) on a ``threading.Event``,
enqueues while nothing can be dispatched, releases, and reads the order
the tasks ran in: the verdicts depend on the queue discipline alone,
never on how fast anything ran.  Waits are bounded synchronisation
(an event or a polled predicate with a deadline), not assertions.
"""

import socket
import threading
import time

from repro.web import (
    DomainWorkerPool,
    NativeHttpServer,
    Response,
    fetch_pipelined,
    format_response,
)
from repro.web.control import AdmissionController
from repro.web.httpd import _EventLoop, _Slot

DEADLINE = 10.0


def _eventually(predicate):
    deadline = time.monotonic() + DEADLINE
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class _Held:
    """A started pool whose every worker sits in a gate task, so that
    what is submitted next queues up until :meth:`release`."""

    def __init__(self, workers=1, capacity=128):
        self.pool = DomainWorkerPool(workers, capacity).start()
        self.order = []
        self._releases = []
        for index in range(workers):
            assert self.hold(f"_gate{index}").wait(DEADLINE)

    def hold(self, tenant, label=None):
        """Queue a task that records ``label`` and then blocks until
        its gate is opened; returns its "entered" event."""
        entered, release = threading.Event(), threading.Event()

        def gate():
            if label is not None:
                self.order.append(label)
            entered.set()
            assert release.wait(DEADLINE)

        assert self.pool.submit(gate, tenant)
        self._releases.append(release)
        return entered

    def add(self, label, tenant=None, weight=1.0):
        return self.pool.submit(lambda: self.order.append(label),
                                tenant, weight)

    def open_oldest_gate(self):
        self._releases.pop(0).set()

    def release(self):
        """Open every gate and wait for the queue to drain; returns
        what ran, in order."""
        while self._releases:
            self.open_oldest_gate()
        stats = self.pool.stats
        _eventually(lambda: stats()["completed"] == stats()["submitted"])
        return self.order

    def close(self):
        while self._releases:
            self.open_oldest_gate()
        self.pool.stop()


class TestOrdering:
    def test_one_tenant_is_strict_fifo(self):
        """(a) no tenant named, or one tenant: arrival order exactly."""
        for tenant in (None, "/only"):
            held = _Held()
            try:
                for label in range(50):
                    assert held.add(label, tenant)
                assert held.release() == list(range(50))
            finally:
                held.close()

    def test_newcomer_does_not_wait_behind_a_backlog(self):
        """(b) eight queued for A, then one for B: B runs second."""
        held = _Held()
        try:
            for index in range(8):
                held.add(f"a{index}", "A")
            held.add("b0", "B")
            order = held.release()
        finally:
            held.close()
        assert order == ["a0", "b0"] + [f"a{i}" for i in range(1, 8)]

    def test_weights_three_to_one_hold_in_every_prefix(self):
        """(c) a long backlog at weights 3:1 is dispatched 3:1 all the
        way along, not only in total."""
        held = _Held()
        try:
            for _ in range(90):
                held.add("a", "A", 3.0)
            for _ in range(30):
                held.add("b", "B", 1.0)
            order = held.release()
        finally:
            held.close()
        assert order.count("a") == 90 and order.count("b") == 30
        seen_a = seen_b = 0
        for label in order:
            seen_a += label == "a"
            seen_b += label == "b"
            # A is owed three dispatches for each of B's, to within one
            # dispatch either way.
            assert abs(seen_a - 3 * seen_b) <= 3, (seen_a, seen_b)

    def test_idle_tenant_banks_no_credit(self):
        """(d) B sits out a hundred of A's dispatches; when it comes
        back it takes turns with A, it does not run a burst first."""
        held = _Held()
        try:
            held.add("b", "B")
            for _ in range(100):
                held.add("a", "A")
            entered = held.hold("A", label="a")
            for _ in range(10):
                held.add("a", "A")
            held.open_oldest_gate()
            assert entered.wait(DEADLINE)
            assert held.order.count("a") == 101  # B was idle all along
            del held.order[:]
            for _ in range(5):
                held.add("b", "B")
            order = held.release()
        finally:
            held.close()
        assert order == ["b", "a"] * 5 + ["a"] * 5

    def test_same_tenant_order_survives_interleaving(self):
        """(e) whatever the weights and the interleaving, a tenant's own
        tasks run in the order it submitted them."""
        held = _Held()
        weights = {"A": 1.0, "B": 4.0, "C": 0.3}
        try:
            for index in range(120):
                tenant = "ABC"[(index * 7 + index // 5) % 3]
                held.add((tenant, index), tenant, weights[tenant])
            order = held.release()
        finally:
            held.close()
        assert len(order) == 120
        for tenant in weights:
            own = [index for name, index in order if name == tenant]
            assert own == sorted(own)
        assert order != sorted(order, key=lambda item: item[1])

    def test_non_positive_weight_is_least_favoured_not_an_error(self):
        held = _Held()
        try:
            for weight in (0.0, -2.0, float("nan")):
                held.add("z", "Z", weight)
            for _ in range(5):
                held.add("a", "A")
            order = held.release()
        finally:
            held.close()
        # Z's first task starts level with A's; the price of the weight
        # is paid by its next ones.
        assert order == ["z"] + ["a"] * 5 + ["z"] * 2


class TestBounds:
    def test_capacity_still_refuses_and_counts(self):
        """(f) the queue bound is the parent's: refused, counted."""
        held = _Held(capacity=4)
        try:
            assert all(held.add(i, f"t{i}") for i in range(4))
            assert not held.add("over", "t-over")
            assert not held.add("over", None)
            stats = held.pool.stats()
            assert stats["rejected"] == 2 and stats["queued"] == 4
        finally:
            held.close()

    def test_stop_clears_queue_and_tags(self):
        held = _Held()
        held.add("never", "A")
        held.add("never", "B")
        assert held.pool.stats()["queued"] == 2
        stopper = threading.Thread(target=held.pool.stop)
        stopper.start()  # joins the worker, which the gate still holds
        _eventually(lambda: held.pool.stats()["queued"] == 0)
        held.open_oldest_gate()
        stopper.join(DEADLINE)
        assert not stopper.is_alive()
        assert held.pool._finish == {}
        assert held.order == []
        assert not held.pool.submit(lambda: None)  # stopped: refused

    def test_invented_tenants_do_not_grow_the_tag_map(self):
        """(f) a thousand one-shot tenants, dispatched while another
        worker keeps the pool from ever going idle: the tag map stays
        within ``capacity``, and is empty once the pool has drained."""
        pool = DomainWorkerPool(workers=2, capacity=16).start()
        entered, release = threading.Event(), threading.Event()
        try:
            assert pool.submit(lambda: (entered.set(),
                                        release.wait(DEADLINE)), "_gate")
            assert entered.wait(DEADLINE)
            largest = 0
            for index in range(1000):
                ran = threading.Event()
                assert pool.submit(ran.set, f"/one-shot-{index}")
                assert ran.wait(DEADLINE)
                largest = max(largest, len(pool._finish))
            assert 2 < largest <= pool.capacity
            release.set()
            _eventually(lambda: pool._idle == pool.workers
                        and not pool._finish)
            assert pool.stats()["completed"] == 1001
        finally:
            release.set()
            pool.stop()

    def test_task_failure_is_counted_not_swallowed(self):
        pool = DomainWorkerPool(workers=1).start()
        done = threading.Event()
        try:
            assert pool.submit(lambda: 1 / 0)
            assert pool.submit(done.set)
            assert done.wait(DEADLINE)
            _eventually(lambda: pool.stats()["completed"] == 2)
            stats = pool.stats()
            assert stats["failed"] == 1 and stats["submitted"] == 2
        finally:
            pool.stop()


class _Gates:
    """A started pool whose every task blocks on a gate of its own, and
    a record of the most tasks each tenant ever ran at once."""

    def __init__(self, workers=2):
        self.pool = DomainWorkerPool(workers).start()
        self.entered = {}
        self.gates = {}
        self.most = {}
        self._now = {}
        self._lock = threading.Lock()

    def submit(self, label, tenant, weight=1.0):
        entered, gate = threading.Event(), threading.Event()
        self.entered[label], self.gates[label] = entered, gate

        def task():
            with self._lock:
                now = self._now[tenant] = self._now.get(tenant, 0) + 1
                self.most[tenant] = max(self.most.get(tenant, 0), now)
            entered.set()
            assert gate.wait(DEADLINE)
            with self._lock:
                self._now[tenant] -= 1

        assert self.pool.submit(task, tenant, weight)

    def started(self, label):
        return self.entered[label].wait(DEADLINE)

    def finish(self, label):
        self.gates[label].set()

    def parks_instead_of(self, label):
        """Wait until either a worker parks or ``label`` starts; True
        when the worker parked and ``label`` did not start."""
        entered = self.entered[label]
        _eventually(lambda: entered.is_set() or self.pool._idle == 1)
        return not entered.is_set()

    def drained(self):
        _eventually(lambda: self.pool._idle == self.pool.workers
                    and not self.pool._finish)

    def close(self):
        for gate in self.gates.values():
            gate.set()
        self.pool.stop()


class TestReservations:
    """Two workers, and tenants weighted 15:1: while the favoured tenant
    holds a tag the light one may run ceil(2 x 1/16) = 1 task at once
    and the favoured one ceil(2 x 15/16) = 2.  Every verdict is read
    while the workers sit in gates or parked, never from a timing."""

    def test_light_tenant_keeps_off_the_favoured_tenants_worker(self):
        """(a) the favoured tenant is between requests: the light
        tenant's backlog waits, and the favoured tenant's next request
        starts on the worker it left free."""
        gates = _Gates()
        try:
            gates.submit("f1", "F", 15.0)
            assert gates.started("f1")
            for label in ("l1", "l2", "l3"):
                gates.submit(label, "L", 1.0)
            assert gates.started("l1")
            gates.finish("f1")
            assert gates.parks_instead_of("l2")
            gates.submit("f2", "F", 15.0)
            assert gates.started("f2")
            assert gates.pool.stats()["running"] == 2
            gates.finish("l1")
            assert gates.started("l2")
            gates.finish("f2")
            assert gates.parks_instead_of("l3")
            gates.finish("l2")
            assert gates.started("l3")
            gates.finish("l3")
            gates.drained()
        finally:
            gates.close()
        assert gates.most == {"F": 1, "L": 1}

    def test_one_tenant_runs_on_every_worker(self):
        """(b) alone, a tenant's share is the whole pool."""
        gates = _Gates()
        try:
            gates.submit("a1", "A", 0.5)
            gates.submit("a2", "A", 0.5)
            assert gates.started("a1") and gates.started("a2")
            assert gates.pool.stats()["running"] == 2
        finally:
            gates.close()
        assert gates.most == {"A": 2}

    def test_reservation_ends_when_the_pool_drains(self):
        """(c) once nothing is queued or running the tags are gone, and
        with them the favoured tenant's reservation."""
        gates = _Gates()
        try:
            gates.submit("f1", "F", 15.0)
            assert gates.started("f1")
            gates.submit("l1", "L", 1.0)
            gates.submit("l2", "L", 1.0)
            assert gates.started("l1")
            gates.finish("f1")
            assert gates.parks_instead_of("l2")
            gates.finish("l1")
            assert gates.started("l2")
            gates.finish("l2")
            gates.drained()
            gates.submit("l3", "L", 1.0)
            gates.submit("l4", "L", 1.0)
            assert gates.started("l3") and gates.started("l4")
        finally:
            gates.close()
        assert gates.most == {"F": 1, "L": 2}

    def test_reservation_ends_when_its_tenant_has_gone(self):
        """At 1:1 each tenant may run ceil(2 x 1/2) = 1 task while both
        hold a tag.  B runs one task and leaves while A has three queued;
        once two of A's tasks have started since B's ended, B's tag and
        reservation are gone and A runs two at once, with work still
        queued — the pool never drains."""
        gates = _Gates()
        try:
            gates.submit("a1", "A")
            assert gates.started("a1")
            gates.submit("b1", "B")
            assert gates.started("b1")
            for label in ("a2", "a3", "a4"):
                gates.submit(label, "A")
            gates.finish("b1")
            assert gates.parks_instead_of("a2")
            gates.finish("a1")
            assert gates.started("a2")
            assert gates.parks_instead_of("a3")
            gates.finish("a2")
            assert gates.started("a3") and gates.started("a4")
            assert gates.pool.stats()["running"] == 2
            assert "B" not in gates.pool._finish
        finally:
            gates.close()
        assert gates.most == {"A": 2, "B": 1}

    def test_stop_returns_while_a_worker_is_parked(self):
        """(d) the parked worker leaves on stop, not on the capped task
        it was waiting for."""
        gates = _Gates()
        threads = list(gates.pool._threads)
        gates.submit("f1", "F", 15.0)
        assert gates.started("f1")
        gates.submit("l1", "L", 1.0)
        gates.submit("l2", "L", 1.0)
        assert gates.started("l1")
        gates.finish("f1")
        assert gates.parks_instead_of("l2")
        stopper = threading.Thread(target=gates.pool.stop)
        stopper.start()  # joins the worker l1 still holds
        _eventually(lambda: sum(t.is_alive() for t in threads) == 1)
        gates.finish("l1")
        stopper.join(DEADLINE)
        assert not stopper.is_alive()
        assert not gates.entered["l2"].is_set()
        assert gates.pool._busy == {} and gates.pool._finish == {}

    def test_passing_over_a_capped_tenant_keeps_virtual_time(self):
        """At weights 3:1 the favoured tenant's tags step by a third.
        The light tenant's queued task (tag 1) is capped behind its
        running first, so F's tasks tagged 1 and 4/3 pass it; when it
        runs at last, virtual time stays at 4/3 and does not go back."""
        gates = _Gates()
        try:
            gates.submit("f1", "F", 3.0)
            assert gates.started("f1")
            gates.submit("l1", "L", 1.0)
            assert gates.started("l1")
            gates.submit("l2", "L", 1.0)  # tag 1
            for label in ("f2", "f3", "f4", "f5"):  # 1/3, 2/3, 1, 4/3
                gates.submit(label, "F", 3.0)
            for label in ("f1", "f2", "f3", "f4"):
                gates.finish(label)
                assert gates.started(f"f{int(label[1]) + 1}")
            stats = gates.pool.stats()
            assert stats["passed_over"] == 2
            assert stats["queued"] == 1 and stats["running"] == 2
            assert not gates.entered["l2"].is_set()
            gates.finish("l1")
            assert gates.started("l2")
            assert gates.pool._vtime == 4 / 3
        finally:
            gates.close()


class _GatedServer:
    """One pool worker, held inside ``/servlet/gate`` until released;
    the other servlets record the order they ran in."""

    def __init__(self, admission, **kwargs):
        self.order = []
        self.entered = threading.Event()
        self.released = threading.Event()
        self.server = NativeHttpServer(workers=1, pool_workers=1,
                                       admission=admission, **kwargs)
        self.server.add_extension("/servlet/gate", self._gate)
        self.server.add_extension("/servlet", self._record)
        self.server.start()
        self._sockets = []

    def _gate(self, request):
        self.entered.set()
        assert self.released.wait(DEADLINE)
        return Response(200, {}, b"gate")

    def _record(self, request):
        self.order.append(request.path)
        return Response(200, {}, request.path.encode())

    def send(self, path):
        """One request on a connection of its own; the reply is read
        by :meth:`replies` after the gate opens."""
        conn = socket.create_connection(("127.0.0.1", self.server.port),
                                        timeout=DEADLINE)
        conn.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        self._sockets.append(conn)
        return conn

    def queued(self, count):
        _eventually(lambda: self.server.pool.stats()["queued"] == count)

    def replies(self):
        out = []
        for conn in self._sockets:
            data = b""
            while chunk := conn.recv(65536):
                data += chunk
            conn.close()
            out.append(data)
        self._sockets = []
        return out

    def close(self):
        self.released.set()
        for conn in self._sockets:
            conn.close()
        self.server.stop()


class TestThroughTheServer:
    def test_pipelined_tenants_reordered_in_pool_answered_in_order(self):
        """(g) the pool runs a light tenant's request ahead of a heavy
        neighbour's backlog, and the connection still answers strictly
        in request order."""
        gated = _GatedServer(AdmissionController(
            weights={"/a": 1.0, "/b": 1.0}))
        paths = ["/servlet/gate", "/servlet/a/1", "/servlet/a/2",
                 "/servlet/a/3", "/servlet/b/1"]
        replies = []
        client = threading.Thread(
            target=lambda: replies.extend(fetch_pipelined(
                "127.0.0.1", gated.server.port, paths)))
        try:
            client.start()
            assert gated.entered.wait(DEADLINE)
            gated.queued(4)
            gated.released.set()
            client.join(DEADLINE)
            assert not client.is_alive()
        finally:
            gated.close()
        assert gated.order == ["/servlet/a/1", "/servlet/b/1",
                               "/servlet/a/2", "/servlet/a/3"]
        assert [r.body for r in replies] == [b"gate"] + [
            path.encode() for path in paths[1:]]

    def test_deprioritized_tenant_queues_behind_equal_weight_peer(self):
        """(g) two tenants of equal configured weight, one throttled:
        the weight admission sized its share by also spaces its queued
        requests, so the peer's second request overtakes its second."""
        controller = AdmissionController(deprioritized_fraction=0.25)
        controller.set_deprioritized("/slow")
        gated = _GatedServer(controller)
        try:
            gated.send("/servlet/gate")
            assert gated.entered.wait(DEADLINE)
            for count, path in enumerate(
                    ["/servlet/slow/1", "/servlet/slow/2",
                     "/servlet/peer/1", "/servlet/peer/2"], start=1):
                gated.send(path)
                gated.queued(count)
            gated.released.set()
            replies = gated.replies()
        finally:
            gated.close()
        assert all(reply.startswith(b"HTTP/1.0 200") for reply in replies)
        assert gated.order == ["/servlet/slow/1", "/servlet/peer/1",
                               "/servlet/peer/2", "/servlet/slow/2"]
        pool = gated.server.stats()["pool"]
        assert pool["failed"] == 0 and pool["queued"] == 0


class TestMemoisedRefusals:
    def test_shed_503_bytes_equal_a_fresh_formatting(self):
        controller = AdmissionController(max_inflight=1, retry_after_s=3)
        assert controller.decide("/servlet/pin/x").admitted
        fresh = format_response(
            Response(503, {"Content-Type": "text/plain",
                           "Retry-After": "3"},
                     b"overloaded: at-capacity"), False, "HTTP/1.0")
        gated = _GatedServer(controller)
        try:
            for _ in range(3):  # built once, then served from the memo
                gated.send("/servlet/x")
            assert gated.replies() == [fresh] * 3
            # The memo is keyed on everything that shapes the bytes.
            kept = fetch_pipelined("127.0.0.1", gated.server.port,
                                   ["/servlet/x", "/servlet/x"])
            assert [(r.status, r.headers["connection"],
                     r.headers["retry-after"]) for r in kept] == [
                (503, "keep-alive", "3")] * 2
        finally:
            gated.close()
            controller.finish("/pin")

    def test_pool_refused_503_bytes_equal_a_fresh_formatting(self):
        fresh = format_response(
            Response(503, {"Content-Type": "text/plain"}, b"server busy"),
            False, "HTTP/1.0")
        gated = _GatedServer(None, pool_capacity=1)
        try:
            gated.send("/servlet/gate")
            assert gated.entered.wait(DEADLINE)
            gated.send("/servlet/queued")
            gated.queued(1)
            for _ in range(2):
                gated.send("/servlet/refused")
            _eventually(
                lambda: gated.server.pool.stats()["rejected"] == 2)
            gated.released.set()
            replies = gated.replies()
        finally:
            gated.close()
        assert replies[2:] == [fresh, fresh]
        assert replies[1].startswith(b"HTTP/1.0 200")


class TestStopReleasesUnits:
    """Every admitted request holds one admission unit until its
    response slot is ready; work a stopping server drops must hand its
    unit back all the same."""

    def test_running_and_queued_requests_release_their_units(self):
        controller = AdmissionController(max_inflight=16)
        gated = _GatedServer(controller)
        try:
            gated.send("/servlet/gate")
            assert gated.entered.wait(DEADLINE)
            for count, path in enumerate(["/servlet/a/1", "/servlet/b/1"],
                                         start=1):
                gated.send(path)
                gated.queued(count)
            assert controller.inflight() == 3
            # The loops stop first, then the pool drops the queue and
            # joins the worker still inside the gate.
            stopper = threading.Thread(target=gated.server.stop)
            stopper.start()
            _eventually(lambda: gated.server.pool.stats()["queued"] == 0)
            gated.released.set()
            stopper.join(DEADLINE)
            assert not stopper.is_alive()
        finally:
            gated.close()
        assert controller.inflight() == 0
        assert gated.order == []

    def test_a_completion_the_loop_never_drained_releases_its_unit(self):
        controller = AdmissionController()
        server = NativeHttpServer(workers=1, admission=controller)
        loop = _EventLoop(server, 0)
        try:
            decision = controller.decide("/servlet/a/x")
            slot = _Slot(True, "HTTP/1.0")
            slot.tenant = decision.tenant
            assert loop.post(("complete", None, slot, b""))
            assert controller.inflight() == 1
            loop._cleanup()
        finally:
            server.stop()
        assert controller.inflight() == 0
        assert not loop.post(("complete", None, slot, b""))


class TestCloseOrder:
    def test_connection_leaves_live_set_before_its_socket_closes(self):
        """A peer learns of the close the instant ``close()`` runs; by
        then ``live_connections()`` must already not count it."""
        server = NativeHttpServer(workers=1).start()
        try:
            loop = server._loops[0]
            client = socket.create_connection(("127.0.0.1", server.port),
                                              timeout=DEADLINE)
            _eventually(lambda: len(loop.connections) == 1)
            conn = next(iter(loop.connections))
            counted_at_close = []

            class Recording:
                def __init__(self, sock):
                    self._sock = sock

                def close(self):
                    counted_at_close.append(server.live_connections())
                    self._sock.close()

                def __getattr__(self, name):
                    return getattr(self._sock, name)

            conn.sock = Recording(conn.sock)
            client.close()
            _eventually(lambda: counted_at_close)
        finally:
            server.stop()
        assert counted_at_close == [0]
