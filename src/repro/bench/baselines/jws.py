"""The "Java Web Server" analogue (Table 5's JWS column).

"The order-of-magnitude gap between J-Kernel and JWS is due to the fact
that JWS is written entirely in Java and is executed without a JIT
compiler."

Accordingly, this server's request handling — request-line parsing, URL
matching and response assembly — executes as MiniJVM *bytecode on the
interpreter*: every byte of the response is produced by interpreted guest
instructions.  The native layer only moves bytes between sockets and the
guest heap.
"""

from __future__ import annotations

import array as _array
import socket
import threading
import time

from repro.jvm import VM, ClassAssembler, MapResolver
from repro.jvm.classfile import ACC_PUBLIC, ACC_STATIC
from repro.jvm.errors import JThrowable
from repro.jvm.instructions import (
    AALOAD,
    ALOAD,
    ARETURN,
    ARRAYLENGTH,
    ASTORE,
    BALOAD,
    BASTORE,
    GETSTATIC,
    GOTO,
    IADD,
    ICONST,
    IF_ICMPEQ,
    IF_ICMPGE,
    IF_ICMPNE,
    IINC,
    ILOAD,
    ISTORE,
    ISUB,
    NEWARRAY,
)
from repro.web.httpd import ACCEPT_STOP, accept_next

HANDLER = "jws/Handler"

_BAD_REQUEST = (
    b"HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\nConnection: close"
    b"\r\n\r\n"
)


def _handler_classfile():
    """The interpreted request handler: parse, match, assemble — all guest
    bytecode (see module docstring for why there is no arraycopy here)."""
    ca = ClassAssembler(HANDLER)
    static = ACC_PUBLIC | ACC_STATIC
    ca.field("nDocs", "I", static)
    ca.field("paths", "[[B", static)
    ca.field("headers", "[[B", static)
    ca.field("bodies", "[[B", static)
    ca.field("notFound", "[B", static)

    m = ca.method("handle", "([B)[B", static)
    # locals: 0=req 1=i 2=start 3=end 4=d 5=j 6=p/h 7=b 8=resp 9=plen
    not_found = m.label("notfound")
    # --- find first space ---
    m.emit(ICONST, 0)
    m.emit(ISTORE, 1)
    scan1 = m.here()
    m.emit(ALOAD, 0)
    m.emit(ILOAD, 1)
    m.emit(BALOAD)
    m.emit(ICONST, 32)
    found1 = m.label()
    m.emit(IF_ICMPEQ, found1)
    m.emit(IINC, 1, 1)
    m.emit(GOTO, scan1.pc)
    m.mark(found1)
    # start = i + 1; i = start
    m.emit(ILOAD, 1)
    m.emit(ICONST, 1)
    m.emit(IADD)
    m.emit(ISTORE, 2)
    m.emit(ILOAD, 2)
    m.emit(ISTORE, 1)
    # --- find second space ---
    scan2 = m.here()
    m.emit(ALOAD, 0)
    m.emit(ILOAD, 1)
    m.emit(BALOAD)
    m.emit(ICONST, 32)
    found2 = m.label()
    m.emit(IF_ICMPEQ, found2)
    m.emit(IINC, 1, 1)
    m.emit(GOTO, scan2.pc)
    m.mark(found2)
    m.emit(ILOAD, 1)
    m.emit(ISTORE, 3)  # end
    # --- document loop ---
    m.emit(ICONST, 0)
    m.emit(ISTORE, 4)
    loop_d = m.here()
    m.emit(ILOAD, 4)
    m.emit(GETSTATIC, HANDLER, "nDocs")
    m.emit(IF_ICMPGE, not_found)
    m.emit(GETSTATIC, HANDLER, "paths")
    m.emit(ILOAD, 4)
    m.emit(AALOAD)
    m.emit(ASTORE, 6)
    m.emit(ALOAD, 6)
    m.emit(ARRAYLENGTH)
    m.emit(ISTORE, 9)
    next_d = m.label("next_d")
    m.emit(ILOAD, 9)
    m.emit(ILOAD, 3)
    m.emit(ILOAD, 2)
    m.emit(ISUB)
    m.emit(IF_ICMPNE, next_d)
    # byte-compare path
    m.emit(ICONST, 0)
    m.emit(ISTORE, 5)
    cmp_loop = m.here()
    m.emit(ILOAD, 5)
    m.emit(ILOAD, 9)
    match = m.label("match")
    m.emit(IF_ICMPGE, match)
    m.emit(ALOAD, 6)
    m.emit(ILOAD, 5)
    m.emit(BALOAD)
    m.emit(ALOAD, 0)
    m.emit(ILOAD, 2)
    m.emit(ILOAD, 5)
    m.emit(IADD)
    m.emit(BALOAD)
    m.emit(IF_ICMPNE, next_d)
    m.emit(IINC, 5, 1)
    m.emit(GOTO, cmp_loop.pc)
    m.mark(next_d)
    m.emit(IINC, 4, 1)
    m.emit(GOTO, loop_d.pc)
    # --- assemble response ---
    m.mark(match)
    m.emit(GETSTATIC, HANDLER, "headers")
    m.emit(ILOAD, 4)
    m.emit(AALOAD)
    m.emit(ASTORE, 6)  # h
    m.emit(GETSTATIC, HANDLER, "bodies")
    m.emit(ILOAD, 4)
    m.emit(AALOAD)
    m.emit(ASTORE, 7)  # b
    m.emit(ALOAD, 6)
    m.emit(ARRAYLENGTH)
    m.emit(ALOAD, 7)
    m.emit(ARRAYLENGTH)
    m.emit(IADD)
    m.emit(NEWARRAY, "B")
    m.emit(ASTORE, 8)
    # copy header bytes
    m.emit(ICONST, 0)
    m.emit(ISTORE, 5)
    copy_h = m.here()
    m.emit(ILOAD, 5)
    m.emit(ALOAD, 6)
    m.emit(ARRAYLENGTH)
    body_start = m.label("body")
    m.emit(IF_ICMPGE, body_start)
    m.emit(ALOAD, 8)
    m.emit(ILOAD, 5)
    m.emit(ALOAD, 6)
    m.emit(ILOAD, 5)
    m.emit(BALOAD)
    m.emit(BASTORE)
    m.emit(IINC, 5, 1)
    m.emit(GOTO, copy_h.pc)
    # copy body bytes
    m.mark(body_start)
    m.emit(ICONST, 0)
    m.emit(ISTORE, 5)
    copy_b = m.here()
    m.emit(ILOAD, 5)
    m.emit(ALOAD, 7)
    m.emit(ARRAYLENGTH)
    done = m.label("done")
    m.emit(IF_ICMPGE, done)
    m.emit(ALOAD, 8)
    m.emit(ALOAD, 6)
    m.emit(ARRAYLENGTH)
    m.emit(ILOAD, 5)
    m.emit(IADD)
    m.emit(ALOAD, 7)
    m.emit(ILOAD, 5)
    m.emit(BALOAD)
    m.emit(BASTORE)
    m.emit(IINC, 5, 1)
    m.emit(GOTO, copy_b.pc)
    m.mark(done)
    m.emit(ALOAD, 8)
    m.emit(ARETURN)
    # 404
    m.mark(not_found)
    m.emit(GETSTATIC, HANDLER, "notFound")
    m.emit(ARETURN)
    return ca.build()


def _signed_list(data):
    """Bytes -> list of signed guest byte values, via one C-level cast."""
    return memoryview(data).cast("b").tolist()


class JWSServer:
    """Interpreted-servlet web server over real sockets."""

    def __init__(self, documents, host="127.0.0.1", port=0, profile="sunvm"):
        self.host = host
        self.port = port
        self.vm = VM(profile=profile)
        classfile = _handler_classfile()
        loader = self.vm.new_loader(
            "jws", resolver=MapResolver({classfile.name: classfile})
        )
        self.handler_class = loader.load(HANDLER)
        self._byte_array_class = self.vm.array_class_for_descriptor(
            "[B", self.vm.boot_loader
        )
        self._install_documents(documents)
        self._vm_lock = threading.Lock()
        self._listener = None
        self._accept_thread = None
        self._running = False
        self._connections = set()
        self._conn_lock = threading.Lock()
        self._served = 0  # guarded by _vm_lock (every request holds it)

    def _guest_bytes(self, data):
        array = self.vm.heap.new_array(
            self._byte_array_class, len(data), owner="jws"
        )
        array.elems[:] = _signed_list(data)
        return array

    def _install_documents(self, documents):
        rtclass = self.handler_class
        entries = sorted(documents.items())
        paths = []
        headers = []
        bodies = []
        for path, body in entries:
            if isinstance(body, str):
                body = body.encode("utf-8")
            header = (
                "HTTP/1.0 200 OK\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: keep-alive\r\n\r\n"
            ).encode("latin-1")
            paths.append(self._guest_bytes(path.encode("latin-1")))
            headers.append(self._guest_bytes(header))
            bodies.append(self._guest_bytes(body))
        array_of_arrays = self.vm.array_class_for_descriptor(
            "[[B", self.vm.boot_loader
        )

        def ref_array(items):
            array = self.vm.heap.new_array(
                array_of_arrays, len(items), owner="jws"
            )
            array.elems[:] = items
            return array

        not_found_payload = (
            b"HTTP/1.0 404 Not Found\r\nContent-Length: 9\r\n"
            b"Connection: keep-alive\r\n\r\nnot found"
        )
        statics = {
            "nDocs": len(entries),
            "paths": ref_array(paths),
            "headers": ref_array(headers),
            "bodies": ref_array(bodies),
            "notFound": self._guest_bytes(not_found_payload),
        }
        for name, value in statics.items():
            rtclass.static_slots[rtclass.static_index[name]] = value

    @property
    def requests_served(self):
        return self._served

    # -- request processing -------------------------------------------------------
    def handle_bytes(self, raw_request):
        """Run one raw HTTP request through the interpreted handler."""
        with self._vm_lock:
            self._served += 1
            request_array = self._guest_bytes(raw_request)
            try:
                response = self.vm.call_static(
                    self.handler_class, "handle", "([B)[B",
                    [request_array], domain_tag="jws",
                )
            except JThrowable:
                return _BAD_REQUEST
            try:
                # Guest byte arrays hold i8-wrapped values; one C-level
                # pack beats a per-byte mask loop.
                return _array.array("b", response.elems).tobytes()
            except (OverflowError, TypeError):
                return bytes((value & 0xFF) for value in response.elems)

    # -- sockets --------------------------------------------------------------------
    def start(self):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="jws-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        while self._running:
            conn = accept_next(self._listener, lambda: self._running)
            if conn is None:
                continue
            if conn is ACCEPT_STOP:
                break
            with self._conn_lock:
                self._connections.add(conn)
            worker = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            worker.start()

    def _serve_connection(self, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            buffer = b""
            while self._running:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(8192)
                    if not chunk:
                        return
                    buffer += chunk
                raw, _, buffer = buffer.partition(b"\r\n\r\n")
                conn.sendall(self.handle_bytes(raw + b"\r\n\r\n"))
        except OSError:
            pass
        finally:
            conn.close()
            with self._conn_lock:
                self._connections.discard(conn)

    def stop(self):
        self._running = False
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(2.0)
            self._accept_thread = None
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
