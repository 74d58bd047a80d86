"""Cross-process LRMI protocol units, exercised IN-process.

The differential suite (`test_xproc_lrmi.py`) proves the semantics
through real forked hosts; a forked child's lines are invisible to the
parent's coverage tracer, so this suite drives the same host-side
machinery — :class:`_HostKernel`, :class:`_Connection`, the marshal
layer, the export table — over a ``socketpair`` with a serving thread in
THIS process.  That pins the protocol pieces (framing, descriptors,
error replies, broadcast, control verbs) at unit level, where a
malformed-frame regression shows up as one failing assertion instead of
a hung fork.
"""

import socket
import threading

import pytest

from repro.core import Capability, Domain, Remote, RevokedException
from repro.core.errors import AccessDeniedError, NotSerializableError
from repro.core.serial import dumps
from repro.ipc import ExportTable, ProtocolError, RemoteCapability
from repro.ipc import lrmi
from repro.ipc.lrmi import (
    MF_CALL,
    MF_CALL_TABLED,
    MF_INLINE,
    OP_BYE,
    OP_CALL,
    _CALL_HDR,
    _Connection,
    _ConnectionPeer,
    _HostKernel,
    _Peer,
    _describe,
    _resolve,
    exported_methods,
    marshal,
    unmarshal,
)


class IUnit(Remote):
    def ping(self): ...
    def echo(self, value): ...
    def fail(self): ...
    def call_back(self, cb): ...


class UnitImpl(IUnit):
    def ping(self):
        return 7

    def echo(self, value):
        return value

    def fail(self):
        raise ValueError("unit boom")

    def call_back(self, cb):
        return cb.ping() * 2


def _capability(label="unit"):
    domain = Domain(f"unit-{label}")
    return domain.run(lambda: Capability.create(UnitImpl(), label=label))


class _Harness:
    """A host kernel served over a socketpair, no fork involved."""

    def __init__(self, bindings):
        self.kernel = _HostKernel(bindings)
        client_sock, host_sock = socket.socketpair()
        client_sock.settimeout(10.0)
        host_sock.settimeout(10.0)
        self.host_conn = _Connection(host_sock, None,
                                     dispatcher=self.kernel.handle_control)
        self.host_conn.peer = _ConnectionPeer(self.kernel, self.host_conn)
        self.kernel.register_connection(self.host_conn)
        self.client = _Peer()
        self.client_conn = _Connection(client_sock, self.client)
        self.client.call_fast = lambda eid, index, m, a: (
            self.client_conn.call_fast(eid, index, a))
        self.client.control = lambda verb, *args: self.client_conn.control(
            verb, args)
        self.thread = threading.Thread(
            target=self.host_conn.serve_loop, daemon=True
        )
        self.thread.start()

    def lookup(self, name):
        return self.client.control("lookup", name)

    def close(self):
        try:
            self.client_conn._send(OP_BYE, 0, b"")
        except OSError:
            pass
        self.client_conn.close()
        self.thread.join(5.0)
        self.host_conn.close()


@pytest.fixture()
def harness():
    instance = _Harness({"unit": _capability()})
    yield instance
    instance.close()


class TestProtocolRoundTrips:
    def test_lookup_and_call(self, harness):
        proxy = harness.lookup("unit")
        assert isinstance(proxy, RemoteCapability)
        assert proxy.ping() == 7
        assert proxy.echo([1, 2, 3]) == [1, 2, 3]

    def test_callee_exception_typed(self, harness):
        proxy = harness.lookup("unit")
        with pytest.raises(ValueError, match="unit boom"):
            proxy.fail()

    def test_unknown_binding_raises(self, harness):
        with pytest.raises(KeyError):
            harness.lookup("ghost")

    def test_unknown_control_verb(self, harness):
        with pytest.raises(ProtocolError):
            harness.client.control("frobnicate")

    def test_call_on_swept_export_raises_revoked(self, harness):
        proxy = harness.lookup("unit")
        # revoke behind the export table's back, then sweep directly
        capability = harness.kernel.exports.get(proxy._export_id)
        capability.revoke()
        dropped = harness.kernel.exports.sweep()
        assert dropped == [proxy._export_id]
        with pytest.raises(RevokedException):
            proxy.ping()

    def test_revoke_control_broadcasts(self, harness):
        proxy = harness.lookup("unit")
        assert harness.client.control("revoke", proxy._export_id) is True
        # the broadcast interleaved ahead of the control result
        assert proxy.revoked
        with pytest.raises(RevokedException):
            proxy.ping()

    def test_terminate_control(self, harness):
        proxy = harness.lookup("unit")
        assert harness.client.control("terminate", "unit") is True
        with pytest.raises(RevokedException):
            proxy.ping()

    def test_stats_and_ping_verbs(self, harness):
        harness.lookup("unit")
        stats = harness.client.control("stats")
        assert stats["bindings"] == ["unit"]
        assert stats["exports"] >= 1
        assert "unit" in stats["domains"]
        assert harness.client.control("ping") == "pong"

    def test_stats_reports_what_would_otherwise_be_swallowed(self, harness):
        stats = harness.client.control("stats")
        assert stats["connection_errors"] == 0
        assert stats["ring_setup_failures"] == 0
        assert stats["ring_close_failures"] == 0

    def test_ring_setup_failure_is_counted_and_falls_back_inline(
            self, harness, monkeypatch):
        from repro.ipc import lrmi

        def no_shared_memory(size):
            raise OSError("no /dev/shm here")

        monkeypatch.setattr(lrmi.BulkRing, "create", no_shared_memory)
        big = b"r" * (lrmi.SHM_THRESHOLD + 1)
        proxy = harness.lookup("unit")
        assert proxy.echo(big) == big  # both directions, both inline
        assert proxy.echo(big) == big  # a failed set-up is not retried
        assert harness.client.ring_setup_failures.value == 1
        stats = harness.client.control("stats")
        assert stats["ring_setup_failures"] == 1

    def test_nested_callback_over_one_socket(self, harness):
        proxy = harness.lookup("unit")
        callback = _capability("cb")  # lives client-side
        # host -> client call interleaves inside the client's await
        assert proxy.call_back(callback) == 14


def _raw_call(connection, payload):
    """Send ``payload`` as one OP_CALL frame, as a hostile peer would,
    and await its reply on the same connection."""
    call_id = connection._call_ids()
    return connection._round(
        lambda: connection._send(OP_CALL, call_id, payload), call_id, None)


def _call_frame(export_id, method_index, *values):
    return (bytes((MF_CALL,)) + _CALL_HDR.pack(export_id, method_index)
            + b"".join(dumps(value) for value in values))


class TestHostileCallFrames:
    """A call is an MF_CALL frame addressed by method index, with at most
    one value after the arguments: the caller's context.  Anything else
    a raw peer sends gets a typed :class:`ProtocolError` reply, changes
    nothing, and leaves the connection usable."""

    @pytest.mark.parametrize("frame", [
        "envelope", "index_past_table", "malformed_context",
        "nameless_context", "empty_name_context", "non_str_name_context",
        "two_trailing_values", "short_header", "descriptors_no_tuple",
        "descriptor_no_tuple",
    ])
    def test_forged_frame_is_refused(self, harness, frame):
        proxy = harness.lookup("unit")
        export_id = proxy._export_id
        capability = harness.kernel.exports.get(export_id)
        target = capability._target
        payload = {
            # the old envelope, naming an exported method by string
            "envelope": bytes((MF_INLINE,)) + dumps(
                (export_id, "echo", (3,), {})),
            "index_past_table": _call_frame(
                export_id, len(exported_methods(capability)), ()),
            "malformed_context": _call_frame(
                export_id, 0, (), ("kv.read",)),
            # the old shape: permission sets with no domain name
            "nameless_context": _call_frame(
                export_id, 0, (), ((("kv.read", "*"),),)),
            "empty_name_context": _call_frame(
                export_id, 0, (), (("", (("kv.read", "*"),)),)),
            "non_str_name_context": _call_frame(
                export_id, 0, (), ((7, (("kv.read", "*"),)),)),
            "two_trailing_values": _call_frame(
                export_id, 0, (), (("t", (("kv", "*"),)),),
                (("t", (("kv", "*"),)),)),
            "short_header": bytes((MF_CALL, 0, 0)),
            # MF_CALL_TABLED: call header, descriptors, then the args
            "descriptors_no_tuple": bytes((MF_CALL_TABLED,))
            + _CALL_HDR.pack(export_id, 0) + dumps(5) + dumps(()),
            "descriptor_no_tuple": bytes((MF_CALL_TABLED,))
            + _CALL_HDR.pack(export_id, 0) + dumps(("back",)) + dumps(()),
        }[frame]
        with pytest.raises(ProtocolError):
            _raw_call(harness.client_conn, payload)
        assert not capability.revoked
        assert capability._target is target
        assert harness.kernel.exports.get(export_id) is capability
        assert not harness.client_conn.closed
        assert proxy.echo(3) == 3

    def test_trailing_context_is_enforced(self, harness):
        """A well-formed context after the arguments joins the host's
        walk for the dispatch: a guarded method the context does not
        grant is denied."""
        guarded = Domain("guarded").run(lambda: Capability.create(
            UnitImpl(), label="guarded", guard="unit.ping"))
        harness.kernel.bindings["guarded"] = guarded
        proxy = harness.lookup("guarded")
        index = exported_methods(guarded).index("ping")
        granted = (("remote-caller", (("unit.ping", "*"),)),)
        assert _raw_call(harness.client_conn,
                         _call_frame(proxy._export_id, index, (),
                                     granted)) == 7
        with pytest.raises(AccessDeniedError) as info:
            _raw_call(harness.client_conn,
                      _call_frame(proxy._export_id, index, (),
                                  (("remote-caller",
                                    (("unit.echo", "*"),)),)))
        assert info.value.domain == "remote-caller"
        assert proxy.ping() == 7  # no context: the host's chain alone

    def test_typed_error_reply_keeps_the_connection(self, harness):
        """An error reply arrives whole, whatever its type: a callee's
        ``OSError`` is the callee's, not a dead wire (no close, no
        replay of a call that already ran)."""

        class DenyingImpl(UnitImpl):
            def ping(self):
                raise PermissionError("callee says no")

        harness.kernel.bindings["denying"] = Domain("denying").run(
            lambda: Capability.create(DenyingImpl(), label="denying"))
        proxy = harness.lookup("denying")
        with pytest.raises(PermissionError, match="callee says no"):
            proxy.ping()
        assert not harness.client_conn.closed
        assert proxy.echo(5) == 5


class TestProxyCalls:
    def test_keyword_call_raises_before_sending(self):
        sent = []
        peer = _Peer()
        peer.call_fast = lambda *call: sent.append(call)
        proxy = peer.proxy_for(1, "x", ("echo",))
        with pytest.raises(TypeError, match="keyword"):
            proxy.echo(value=3)
        proxy.echo(3)
        assert sent == [(1, 0, "echo", (3,))]

    def test_restricted_caller_context_follows_the_arguments(self, harness):
        """An unrestricted frame ends with the arguments; a restricted
        caller's context is one more value in the same MF_CALL frame."""
        frames = []
        original = harness.client_conn._send_built

        def spying(frame, splice_at, descriptors, fds=()):
            if frame[0] == OP_CALL:
                frames.append(bytes(frame))
            return original(frame, splice_at, descriptors, fds)

        harness.client_conn._send_built = spying
        proxy = harness.lookup("unit")
        assert proxy.echo(3) == 3
        caller = Domain("restricted-unit-caller")
        caller.set_policy(["kv.read"])
        assert caller.run(lambda: proxy.echo(3)) == 3
        plain, restricted = frames
        header = 6 + _CALL_HDR.size
        assert plain[5] == MF_CALL
        assert restricted[5:header] == plain[5:header]
        assert plain[header:] == dumps((3,))
        assert restricted[header:] == dumps((3,)) + dumps(
            (("restricted-unit-caller", (("kv.read", "*"),)),))


class TestExportDescriptors:
    """A peer's method tuple becomes a proxy class only when every name
    is a plain public identifier that no proxy member already uses."""

    @pytest.mark.parametrize("methods", [
        ("__bool__",), ("__init__",), ("_target",), ("revoke",),
        ("revoked",), ("label",), ("class",), ("not-a-name",),
        ("ping", "ping"), (7,), ["ping"],
        tuple(f"m{i}" for i in range(257)),
    ], ids=lambda methods: repr(methods)[:20])
    def test_bad_method_tuple_is_refused(self, methods):
        peer = _Peer()
        before = dict(lrmi._proxy_classes)
        with pytest.raises(ProtocolError):
            peer.proxy_for(1, "x", methods)
        with pytest.raises(ProtocolError):
            _resolve(peer, ("export", 2, "x", methods))
        assert dict(lrmi._proxy_classes) == before
        assert peer._proxies == {}

    def test_full_index_space_is_accepted(self):
        methods = tuple(f"m{i}" for i in range(256))
        proxy = _Peer().proxy_for(1, "x", methods)
        assert exported_methods(proxy) == methods

    def test_export_past_the_index_space_is_not_serializable(self):
        wide = type("IWide", (Remote,), {
            f"m{i}": (lambda self: None) for i in range(257)})
        impl = type("WideImpl", (wide,), {})
        capability = Domain("wide").run(
            lambda: Capability.create(impl(), label="wide"))
        peer = _Peer()
        with pytest.raises(NotSerializableError, match="256"):
            _describe(peer, capability)
        assert len(peer.exports) == 0


class TestMarshalLayer:
    def test_describe_real_capability_exports(self):
        peer = _Peer()
        capability = _capability()
        kind, export_id, label, methods = _describe(peer, capability)
        assert kind == "export"
        assert peer.exports.get(export_id) is capability
        assert set(methods) >= {"ping", "echo", "fail", "call_back"}

    def test_describe_own_proxy_goes_back(self):
        peer = _Peer()
        proxy = peer.proxy_for(5, "p", ("ping",))
        assert _describe(peer, proxy) == ("back", 5)

    def test_describe_foreign_proxy_rejected(self):
        peer, other = _Peer(), _Peer()
        proxy = other.proxy_for(5, "p", ("ping",))
        with pytest.raises(NotSerializableError):
            _describe(peer, proxy)

    def test_resolve_back_unknown_export_is_revoked(self):
        peer = _Peer()
        with pytest.raises(RevokedException):
            _resolve(peer, ("back", 12345))

    def test_resolve_unknown_descriptor_kind(self):
        with pytest.raises(ProtocolError):
            _resolve(_Peer(), ("sideways", 1))

    def test_marshal_unmarshal_round_trip_with_capability(self):
        sender, receiver = _Peer(), _Peer()
        capability = _capability()
        data = marshal(sender, {"cap": capability, "n": 3})
        value = unmarshal(receiver, data)
        assert value["n"] == 3
        # a real capability crossed as an export: the receiver holds a
        # proxy naming the sender's export id
        proxy = value["cap"]
        assert isinstance(proxy, RemoteCapability)
        assert sender.exports.get(proxy._export_id) is capability

    def test_marshal_unmarshal_back_reference(self):
        sender, receiver = _Peer(), _Peer()
        capability = _capability()
        export_id = receiver.exports.export(capability)
        proxy = sender.proxy_for(export_id, "unit", ("ping",))
        # sending the receiver's own export back collapses the proxy to
        # the original capability object — identity preserved
        data = marshal(sender, [proxy])
        (resolved,) = unmarshal(receiver, data)
        assert resolved is capability

    def test_proxy_identity_stable_per_export(self):
        peer = _Peer()
        first = peer.proxy_for(9, "x", ("ping",))
        second = peer.proxy_for(9, "x", ("ping",))
        assert first is second

    def test_mark_revoked_flips_cached_proxies_only(self):
        peer = _Peer()
        proxy = peer.proxy_for(3, "x", ("ping",))
        peer.mark_revoked([3, 99])  # unknown ids are ignored
        assert proxy.revoked


class TestExportTable:
    def test_export_is_idempotent_per_object(self):
        table = ExportTable()
        capability = _capability()
        first = table.export(capability)
        assert table.export(capability) == first
        assert table.get(first) is capability
        assert len(table) == 1

    def test_sweep_only_drops_revoked(self):
        table = ExportTable()
        live = _capability("live")
        doomed = _capability("doomed")
        table.export(live)
        doomed_id = table.export(doomed)
        doomed.revoke()
        assert table.sweep() == [doomed_id]
        assert table.get(doomed_id) is None
        assert len(table) == 1

    def test_exported_methods_of_proxy(self):
        peer = _Peer()
        proxy = peer.proxy_for(1, "x", ("b", "a"))
        assert exported_methods(proxy) == ("b", "a")


class TestWireRobustness:
    def test_short_frame_rejected(self):
        from repro.ipc import send_frame
        from repro.ipc.lrmi import WireError

        a, b = socket.socketpair()
        try:
            send_frame(a, b"xx")  # below the 5-byte header
            conn = _Connection(b, _Peer())
            with pytest.raises(WireError, match="short frame"):
                conn._recv()
        finally:
            a.close()
            b.close()

    def test_serve_loop_tells_a_hang_up_from_a_truncated_frame(self):
        """Between frames the peer simply left (pool eviction closes
        without a BYE); inside one, the failure reaches the accept loop,
        which counts it."""
        from repro.ipc.lrmi import WireError

        a, b = socket.socketpair()
        a.close()
        _Connection(b, _Peer(), dispatcher=lambda verb, args: None
                    ).serve_loop()  # returns, raises nothing
        a, b = socket.socketpair()
        a.sendall((64).to_bytes(4, "big") + b"\x01trunc")
        a.close()
        conn = _Connection(b, _Peer(), dispatcher=lambda verb, args: None)
        with pytest.raises(WireError, match="mid-frame"):
            conn.serve_loop()
        assert conn.closed

    def test_peer_base_requires_overrides(self):
        peer = _Peer()
        with pytest.raises(NotImplementedError):
            peer.call_fast(1, 0, "m", ())
        with pytest.raises(NotImplementedError):
            peer.control("stats")

    def test_connection_peer_control_rejected(self):
        kernel = _HostKernel({"unit": _capability()})
        a, b = socket.socketpair()
        try:
            conn = _Connection(b, None)
            peer = _ConnectionPeer(kernel, conn)
            with pytest.raises(ProtocolError):
                peer.control("revoke", 1)
        finally:
            a.close()
            b.close()

    def test_send_revoked_on_dead_socket_closes_connection(self):
        a, b = socket.socketpair()
        conn = _Connection(b, _Peer())
        a.close()
        b.close()
        conn.send_revoked([1, 2])
        assert conn.closed

    def test_uncopyable_callee_exception_degrades_to_remote(self, harness):
        from repro.core import RemoteException

        class Opaque:
            pass

        # an exception whose args cannot serialize must still cross,
        # wrapped, instead of killing the serving connection
        capability = harness.kernel.exports  # reach in: bind a new impl

        class WeirdImpl(IUnit):
            def ping(self):
                raise ValueError(Opaque())

            def echo(self, value): ...
            def fail(self): ...
            def call_back(self, cb): ...

        weird = Domain("weird").run(
            lambda: Capability.create(WeirdImpl(), label="weird")
        )
        harness.kernel.bindings["weird"] = weird
        proxy = harness.lookup("weird")
        # the in-process stub wraps the uncopyable args first; either
        # wrapper layer is acceptable — what matters is a typed
        # RemoteException, not a dead connection
        with pytest.raises(RemoteException, match="ValueError"):
            proxy.ping()

    def test_client_side_revoked_broadcast_into_serving_loop(self, harness):
        # a client may broadcast too (symmetric protocol): the host's
        # serve loop applies it to its proxy cache and keeps serving
        from repro.ipc.lrmi import OP_REVOKED
        from repro.core.serial import dumps

        harness.client_conn._send(OP_REVOKED, 0, dumps([123]))
        proxy = harness.lookup("unit")
        assert proxy.ping() == 7

    def test_proxy_repr_states(self):
        peer = _Peer()
        proxy = peer.proxy_for(4, "thing", ("ping",))
        assert "live" in repr(proxy)
        peer.mark_revoked([4])
        assert "revoked" in repr(proxy)


class TestDomainClientEdges:
    """Client-pool behaviors against a real (forked) host."""

    def _world(self):
        from repro.ipc import DomainHostProcess, connect

        def setup():
            domain = Domain("edge-server")
            return {
                "unit": domain.run(
                    lambda: Capability.create(UnitImpl(), label="unit")
                ),
                "plain": domain.run(
                    lambda: Capability.create(UnitImpl(), label="plain")
                ),
            }

        host = DomainHostProcess(setup, name="edges").start()
        return host, connect(host)

    def test_closed_client_refuses_calls(self):
        from repro.core import DomainUnavailableException

        host, client = self._world()
        try:
            proxy = client.lookup("unit")
            assert proxy.ping() == 7
            client.close()
            with pytest.raises(DomainUnavailableException):
                client.lookup("unit")
        finally:
            host.stop()

    def test_proxy_revoke_on_dead_host_is_silent(self):
        import os as os_module
        import signal

        host, client = self._world()
        try:
            proxy = client.lookup("unit")
            os_module.kill(host.pid, signal.SIGKILL)
            import time

            time.sleep(0.1)
            proxy.revoke()  # must not raise: dead host == revoked
            assert proxy.revoked
            with pytest.raises(RevokedException):
                proxy.ping()
        finally:
            client.close()
            host.stop()

    def test_host_counts_truncated_frames_not_clean_disconnects(self):
        import time

        host, client = self._world()
        try:
            assert client.lookup("unit").ping() == 7
            client.close()  # BYE, then EOF between frames
            other = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            other.connect(host.path)
            other.close()   # no BYE: what a pool eviction looks like
            client = type(client)(host.path)
            assert client.stats()["connection_errors"] == 0
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(host.path)
            raw.sendall((64).to_bytes(4, "big") + b"\x01trunc")
            raw.close()
            deadline = time.monotonic() + 5.0
            while (client.stats()["connection_errors"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert client.stats()["connection_errors"] == 1
        finally:
            client.close()
            host.stop()

    def test_pool_reuses_connections(self):
        host, client = self._world()
        try:
            proxy = client.lookup("unit")
            for _ in range(10):
                assert proxy.ping() == 7
            # the steady state runs on one pooled connection
            assert len(client._free) == 1
        finally:
            client.close()
            host.stop()

    def test_context_manager_closes(self):
        host, client = self._world()
        try:
            with client as open_client:
                assert open_client.lookup("unit").ping() == 7
            assert client._closed
        finally:
            host.stop()
