"""The comparators the paper measures against (``repro.bench.baselines``):
the COM-like component model of Table 2 and the interpreted JWS of
Table 5."""

import pytest

from repro.bench.baselines.com import (
    IN_PROC,
    OUT_OF_PROC,
    ComError,
    ComInterface,
    ComRegistry,
    create_instance,
)
from repro.bench.baselines.jws import JWSServer
from repro.web import fetch_once


_CALC = ComInterface("ICalc", ["add", "concat", "null_op"])


class Calc:
    def add(self, a, b):
        return a + b

    def concat(self, a, b):
        return a + b

    def null_op(self):
        return 0


def _registry():
    registry = ComRegistry()
    registry.register_class("CLSID_Calc", Calc, _CALC)
    return registry


class TestComInProc:
    def test_vtable_call(self):
        pointer = create_instance(_registry(), "CLSID_Calc", IN_PROC)
        assert pointer.method("add")(2, 3) == 5
        assert pointer.invoke(_CALC.vtable_index("add"), 4, 5) == 9

    def test_query_interface(self):
        pointer = create_instance(_registry(), "CLSID_Calc", IN_PROC)
        assert pointer.query_interface("ICalc") is pointer
        with pytest.raises(ComError, match="E_NOINTERFACE"):
            pointer.query_interface("IUnknown2")

    def test_unregistered_class(self):
        with pytest.raises(ComError, match="CLASSNOTREG"):
            create_instance(_registry(), "CLSID_Ghost", IN_PROC)

    def test_unknown_method(self):
        with pytest.raises(ComError, match="no method"):
            _CALC.vtable_index("subtract")


class TestComOutOfProc:
    def test_marshalled_calls(self):
        pointer = create_instance(_registry(), "CLSID_Calc", OUT_OF_PROC)
        try:
            assert pointer.method("add")(40, 2) == 42
            assert pointer.method("concat")("foo", "bar") == "foobar"
            assert pointer.method("null_op")() == 0
        finally:
            pointer._com_host.stop()

    def test_bytes_arguments(self):
        pointer = create_instance(_registry(), "CLSID_Calc", OUT_OF_PROC)
        try:
            assert pointer.method("concat")(b"ab", b"cd") == b"abcd"
        finally:
            pointer._com_host.stop()

    def test_bad_activation_context(self):
        with pytest.raises(ComError, match="unknown activation"):
            create_instance(_registry(), "CLSID_Calc", "somewhere")


class TestJWS:
    @pytest.fixture()
    def jws(self):
        server = JWSServer({"/a": b"alpha", "/bb": b"beta-doc"})
        server.start()
        yield server
        server.stop()

    def test_serves_documents_interpreted(self, jws):
        response = fetch_once("127.0.0.1", jws.port, "/a")
        assert response.status == 200
        assert response.body == b"alpha"
        response = fetch_once("127.0.0.1", jws.port, "/bb")
        assert response.body == b"beta-doc"

    def test_404_path(self, jws):
        assert fetch_once("127.0.0.1", jws.port, "/zz").status == 404

    def test_handle_bytes_direct(self, jws):
        raw = b"GET /a HTTP/1.0\r\n\r\n"
        response = jws.handle_bytes(raw)
        assert response.startswith(b"HTTP/1.0 200")
        assert response.endswith(b"alpha")

    def test_malformed_request_400(self, jws):
        assert jws.handle_bytes(b"NONSENSE\r\n\r\n").startswith(
            b"HTTP/1.0 400"
        )

    def test_counts_requests(self, jws):
        before = jws.requests_served
        jws.handle_bytes(b"GET /a HTTP/1.0\r\n\r\n")
        assert jws.requests_served == before + 1
