"""The ServletRequest's wire form, the carrier of every out-of-process page.

A request whose headers are all ``str`` -> ``str`` and whose fields hold
no NUL crosses as ONE packed ``bytes`` value (u32 head length, the UTF-8
head ``method NUL path (NUL key NUL value)*``, then the body); any other
request crosses field-wise.  Both forms must round-trip every field
exactly — in this process and through a real forked host — and a
forged packed value must fail typed without ever constructing a
request.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Capability, Domain
from repro.core.errors import NotSerializableError
from repro.core.serial import dumps, loads
from repro.ipc import DomainHostProcess, connect
from repro.web import Servlet, ServletRequest, ServletResponse
from repro.web import servlet as servlet_module

# Text with the awkward corners made likely: NUL, non-ASCII, astral.
_TEXT = (st.text(st.characters(codec="utf-8"), max_size=12)
         | st.sampled_from(["", "\0", "a\0b", "é", "✓ ok", "\U0001F600"]))
_VALUES = (_TEXT | st.integers(-2 ** 63, 2 ** 63 - 1) | st.booleans()
           | st.none() | st.binary(max_size=8)
           | st.floats(allow_nan=False))
_HEADERS = (st.dictionaries(_TEXT, _TEXT, max_size=6)
            | st.dictionaries(_TEXT | st.integers(), _VALUES, max_size=6))
_REQUESTS = st.builds(ServletRequest, _TEXT, _TEXT, _HEADERS,
                      st.binary(max_size=64 * 1024))


def _typed_items(headers):
    return sorted(((type(k).__name__, repr(k)), (type(v).__name__, repr(v)))
                  for k, v in headers.items())


def _assert_same(back, request):
    assert type(back) is ServletRequest
    assert type(back.method) is str and back.method == request.method
    assert type(back.path) is str and back.path == request.path
    assert _typed_items(back.headers) == _typed_items(request.headers)
    assert type(back.body) is bytes and back.body == request.body


def _packable(request):
    fields = [request.method, request.path]
    for key, value in request.headers.items():
        if type(key) is not str or type(value) is not str:
            return False
        fields += (key, value)
    return not any("\0" in field for field in fields)


@settings(derandomize=True, deadline=None)
@given(_REQUESTS)
def test_every_request_round_trips_field_by_field(request):
    reduced = servlet_module._reduce_request(request)
    assert (len(reduced) == 1) == _packable(request)
    _assert_same(loads(dumps(request)), request)


# -- forged packed values -----------------------------------------------------

def _stream_with_packed(packed):
    """A ServletRequest stream whose one packed value is ``packed``."""
    genuine = ServletRequest("GET", "/", {"Host": "h"})
    (value,) = servlet_module._reduce_request(genuine)
    stream = dumps(genuine)
    assert stream.endswith(dumps(value))
    return stream[:len(stream) - len(dumps(value))] + dumps(packed)


def _packed(head, body=b"", length=None):
    size = len(head) if length is None else length
    return struct.pack(">I", size) + head + body


@pytest.mark.parametrize("packed", [
    _packed(b"GET\0/\0Host"),                 # ragged head: a key alone
    _packed(b"GET"),                          # ragged head: no path
    _packed(b"GET\0/\xff\xfe\0x\0y"),         # bad UTF-8
    _packed(b"GET\0/", length=1000),          # length past the end
    b"\0\0",                                  # shorter than the length
], ids=["ragged-key", "ragged-path", "bad-utf8", "past-end", "no-length"])
def test_forged_packed_value_fails_typed_and_builds_nothing(
        packed, monkeypatch):
    built = []
    original = servlet_module.ServletRequest

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(servlet_module, "ServletRequest", counting)
    with pytest.raises(NotSerializableError):
        loads(_stream_with_packed(packed))
    assert built == []


def test_forged_value_of_the_wrong_type_fails_typed():
    with pytest.raises(NotSerializableError):
        loads(_stream_with_packed("GET\0/"))


# -- through a real process ---------------------------------------------------

class _EchoServlet(Servlet):
    """Answers with every field of the request it received, serialized."""

    def service(self, request):
        fields = (request.method, request.path, request.headers.to_dict(),
                  request.body)
        return ServletResponse(200, {}, dumps(fields))


def _echo_setup():
    domain = Domain("sealed-wire-echo")
    return {"echo": domain.run(
        lambda: Capability.create(_EchoServlet(), label="echo"))}


_CROSSING = [
    ServletRequest("GET", "/a", {"Host": "example", "Accept": "*/*",
                                 "X-Trace": "ü\U0001F600"}),
    ServletRequest("POST", "/form", {"Content-Type": "text/plain",
                                     "Content-Length": 5}, b"hello"),
    ServletRequest("GET", "/nul", {"X-Odd": "a\0b", "Host": "h"}),
    ServletRequest("PUT", "/", {}, b""),
    ServletRequest("POST", "/bulk", {"Host": "h", "X-Size": "65536"},
                   bytes(range(256)) * 256),
]


def test_requests_cross_a_process_boundary_whole():
    host = DomainHostProcess(_echo_setup, name="sealed-wire").start()
    client = connect(host)
    try:
        echo = client.lookup("echo")
        for request in _CROSSING:
            response = echo.service(request)
            method, path, headers, body = loads(bytes(response.body))
            _assert_same(ServletRequest(method, path, headers, body),
                         request)
    finally:
        client.close()
        host.stop()
