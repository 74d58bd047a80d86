"""The extensible HTTP server stack (paper §4, Table 5).  Table 5's JWS
comparator lives in ``repro.bench.baselines.jws``."""

from .client import (
    LoadReport,
    fetch_many,
    fetch_once,
    fetch_pipelined,
    measure_throughput,
    run_mixed_load,
)
from .http import (
    HttpError,
    Request,
    RequestParser,
    Response,
    format_request,
    format_response,
    read_request,
    read_response,
)
from .httpd import (
    DocumentStore,
    DomainWorkerPool,
    NativeHttpServer,
    ResponseCache,
    make_listener,
)
from .isapi import IsapiBridge
from .jkweb import (
    JKernelWebServer,
    OutOfProcessRegistration,
    ServletRegistration,
    SystemServlet,
)
from .prefork import PreforkError, PreforkServer
from .servlet import (
    Servlet,
    ServletRequest,
    ServletResponse,
    error_response,
    text_response,
)

__all__ = [
    "DocumentStore",
    "DomainWorkerPool",
    "HttpError",
    "IsapiBridge",
    "JKernelWebServer",
    "LoadReport",
    "NativeHttpServer",
    "OutOfProcessRegistration",
    "PreforkError",
    "PreforkServer",
    "Request",
    "RequestParser",
    "Response",
    "ResponseCache",
    "Servlet",
    "ServletRegistration",
    "ServletRequest",
    "ServletResponse",
    "SystemServlet",
    "error_response",
    "fetch_many",
    "fetch_once",
    "fetch_pipelined",
    "format_request",
    "format_response",
    "make_listener",
    "measure_throughput",
    "read_request",
    "read_response",
    "run_mixed_load",
    "text_response",
]
