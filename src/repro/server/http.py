"""HTTP/JSON transport for the solve server (stdlib only).

Exposes a running :class:`~repro.server.server.SolveServer` over the
versioned wire protocol of :mod:`repro.api`, using nothing beyond
``http.server.ThreadingHTTPServer`` — no new dependencies.  The adapter is a
thin shell: every request is decoded into the same
:class:`~repro.api.schemas.SolveRequestV1` the in-process path admits, runs
through the *untouched* queue/scheduler/policy, and the response is encoded
losslessly — an HTTP round-trip under a fixed seed is bit-identical to the
in-process path (tested in ``tests/test_server_http.py``).

Endpoints
---------
=======  =================  ===================================================
method   path               body / answer
=======  =================  ===================================================
POST     ``/v1/solve``      ``solve_request`` → ``solve_response`` (sync)
POST     ``/v1/submit``     ``solve_request`` → ``job_status`` (queued, 202)
GET      ``/v1/jobs/<id>``  → ``job_status`` (result / error once finished),
                             looked up by :meth:`SolveServer.find_job`
GET      ``/v1/metrics``    → ``telemetry`` snapshot
                             (``?format=prometheus`` → text exposition)
GET      ``/v1/healthz``    → liveness + queue state
GET      ``/v1/learn``      → online-learning status (trainer state, model
                             version, record counters; ``enabled: false``
                             on a learning-free server)
=======  =================  ===================================================

Tracing: a client may send an ``X-Repro-Trace-Id`` header on solve/submit;
the server pins it as the ambient trace id for the request (so a traced
server's spans join the caller's trace) and echoes the id — the client's, or
the server-generated one when tracing is on — on the response header and in
``SolveResponseV1.trace_id``.

Failures travel as :class:`~repro.api.errors.ErrorEnvelope` bodies under the
HTTP status of their code: admission rejections keep their structured reason
(``invalid`` → 400, ``queue_full`` → 429, ``draining``/``closed`` → 503),
malformed JSON and schema violations map to ``bad_request`` (400), version
mismatches to ``unsupported_version`` (400), unknown jobs/paths to
``not_found`` (404), and anything unexpected to ``internal`` (500).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.api.errors import (
    AdmissionError,
    ErrorEnvelope,
    ERROR_BAD_REQUEST,
    ERROR_NOT_FOUND,
    SchemaError,
)
from repro.api.schemas import SolveRequestV1, TelemetrySnapshot
from repro.logging_utils import get_logger
from repro.obs.trace import use_trace_id
from repro.server.queue import job_status
from repro.server.server import SolveServer
from repro.version import __version__

__all__ = ["HTTPFrontEnd", "SolveHTTPServer", "WireHandler", "TRACE_HEADER"]

_LOG = get_logger("server.http")

#: Request bodies beyond this size are rejected (``bad_request``) before any
#: decoding work happens — a wire server must bound what it buffers.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Header propagating a request's trace id in both directions.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Longest accepted inbound trace id (anything longer is ignored — the
#: header is client-controlled and must not become an amplification vector
#: for span attributes and logs).
MAX_TRACE_ID_CHARS = 128


class WireHandler(BaseHTTPRequestHandler):
    """Transport plumbing shared by every ``/v1/*`` JSON wire handler.

    Owns the parts of speaking the wire protocol that are independent of
    *what* is being served: JSON/text responses with correct framing, typed
    :class:`~repro.api.errors.ErrorEnvelope` answers, bounded body reading,
    keep-alive-safe body draining, trace-header extraction and the
    exception-to-envelope dispatch.  :class:`SolveHTTPServer`'s handler and
    the fleet router's front end (:mod:`repro.fleet.router`) both subclass
    this, so the two wire surfaces cannot drift apart.
    """

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    #: Logger of the concrete handler (subclasses override for their own
    #: channel).
    wire_log = _LOG

    @property
    def owner(self) -> "HTTPFrontEnd":
        """The :class:`HTTPFrontEnd` this exchange is served by."""
        return self.server.owner

    # -- plumbing ------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        self.wire_log.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, envelope: ErrorEnvelope) -> None:
        self._send_json(envelope.http_status, envelope.to_json_dict())

    def _body_length(self) -> int:
        try:
            return int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            return -1

    def _drain_body(self) -> None:
        """Consume an unread request body so keep-alive framing stays intact.

        Replying without reading the body would leave its bytes on the
        connection, where a keep-alive client's *next* request line would be
        parsed out of them.  Unknown or unreasonable lengths instead mark
        the connection for closing.
        """
        length = self._body_length()
        if length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 1 << 20))
            if not chunk:
                self.close_connection = True
                return
            length -= len(chunk)

    def _request_trace_id(self) -> str | None:
        """The caller's trace id from ``X-Repro-Trace-Id``, if plausible."""
        raw = self.headers.get(TRACE_HEADER)
        if raw is None:
            return None
        raw = raw.strip()
        if not raw or len(raw) > MAX_TRACE_ID_CHARS:
            return None
        return raw

    def _split_path(self) -> tuple[str, dict[str, list[str]]]:
        """``self.path`` split into the route and its parsed query string."""
        route, _, query = self.path.partition("?")
        return route, parse_qs(query)

    def _read_body(self) -> bytes:
        """The request body, bounded by :data:`MAX_BODY_BYTES`."""
        length = self._body_length()
        if length < 0:
            self.close_connection = True
            raise SchemaError("Content-Length header is not an integer")
        if length == 0:
            raise SchemaError("request body is empty")
        if length > MAX_BODY_BYTES:
            # the oversized body stays unread; the connection cannot be
            # reused for a further request
            self.close_connection = True
            raise SchemaError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound")
        return self.rfile.read(length)

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except (AdmissionError, SchemaError) as error:
            self._send_error_envelope(ErrorEnvelope.from_exception(error))
        except BrokenPipeError:
            pass  # client went away mid-answer; nothing to send it
        except Exception as error:  # noqa: BLE001 - the wire must answer
            self.wire_log.exception("unhandled error serving %s", self.path)
            self._send_error_envelope(ErrorEnvelope.from_exception(error))


class _Handler(WireHandler):
    """Routes one HTTP exchange onto the owning :class:`SolveHTTPServer`."""

    def _read_request_schema(self) -> SolveRequestV1:
        body = self._read_body()
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SchemaError(f"request body is not valid JSON ({error})")
        return SolveRequestV1.from_json_dict(payload)

    # -- routes --------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        route, _ = self._split_path()
        if route == "/v1/solve":
            self._dispatch(self._post_solve)
        elif route == "/v1/submit":
            self._dispatch(self._post_submit)
        else:
            self._drain_body()
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such endpoint {self.path}"))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route, query = self._split_path()
        if route == "/v1/healthz":
            self._dispatch(self._get_healthz)
        elif route == "/v1/learn":
            self._dispatch(self._get_learn)
        elif route == "/v1/metrics":
            self._dispatch(lambda: self._get_metrics(query))
        elif route.startswith("/v1/jobs/"):
            self._dispatch(lambda: self._get_job(route))
        else:
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such endpoint {self.path}"))

    def _post_solve(self) -> None:
        request = self._read_request_schema()
        trace_id = self._request_trace_id()
        with use_trace_id(trace_id):
            response = self.owner.solve_server.solve(request)
        echo = response.trace_id or trace_id
        self._send_json(200, response.to_json_dict(),
                        headers=None if echo is None else {TRACE_HEADER: echo})

    def _post_submit(self) -> None:
        request = self._read_request_schema()
        trace_id = self._request_trace_id()
        with use_trace_id(trace_id):
            job = self.owner.solve_server.submit(request)
        echo = job.trace_id or trace_id
        self._send_json(202, job_status(job).to_json_dict(),
                        headers=None if echo is None else {TRACE_HEADER: echo})

    def _get_job(self, route: str) -> None:
        token = route[len("/v1/jobs/"):]
        try:
            job_id = int(token)
        except ValueError:
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_BAD_REQUEST,
                message=f"job id {token!r} is not an integer"))
            return
        job = self.owner.solve_server.find_job(job_id)
        if job is None:
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_NOT_FOUND, message=f"no such job {job_id}"))
            return
        self._send_json(200, job_status(job).to_json_dict())

    def _get_metrics(self, query: dict[str, list[str]]) -> None:
        fmt = (query.get("format") or ["json"])[-1].lower()
        if fmt == "prometheus":
            self._send_text(
                200, self.owner.solve_server.prometheus_metrics(),
                content_type="text/plain; version=0.0.4; charset=utf-8")
            return
        if fmt != "json":
            self._send_error_envelope(ErrorEnvelope(
                code=ERROR_BAD_REQUEST,
                message=f"unknown metrics format {fmt!r} "
                        "(expected 'json' or 'prometheus')"))
            return
        snapshot = TelemetrySnapshot.from_snapshot(
            self.owner.solve_server.telemetry_snapshot())
        self._send_json(200, snapshot.to_json_dict())

    def _get_healthz(self) -> None:
        self._send_json(
            200, self.owner.solve_server.health_snapshot())

    def _get_learn(self) -> None:
        self._send_json(
            200, self.owner.solve_server.learn_status())


class _FrontEndHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows the front end owning it."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler_class: type[WireHandler],
                 owner: "HTTPFrontEnd") -> None:
        super().__init__(address, handler_class)
        self.owner = owner


class HTTPFrontEnd:
    """Bind / serve / shut down lifecycle shared by every wire front end.

    :class:`SolveHTTPServer` and the fleet router
    (:class:`~repro.fleet.router.FleetRouter`) both inherit it.  A subclass
    supplies only its :attr:`handler_class` (a :class:`WireHandler` whose
    requests reach the front end as ``self.owner``), its
    :attr:`thread_name`, the line logged once serving starts
    (:meth:`_serving_message`) and what must happen once the listening
    socket is closed (:meth:`_after_close`).
    """

    handler_class: type[WireHandler]
    thread_name: str
    log = _LOG

    def __init__(self, host: str, port: int) -> None:
        self._requested_address = (host, int(port))
        self._httpd: _FrontEndHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def _serving_message(self) -> str:
        return f"serving HTTP on {self.url}"

    def _after_close(self) -> None:
        """Release what the front end owns once its socket is closed."""

    def _bind(self) -> _FrontEndHTTPServer:
        if self._httpd is None:
            self._httpd = _FrontEndHTTPServer(
                self._requested_address, self.handler_class, self)
        return self._httpd

    @property
    def port(self) -> int:
        """The bound port (binds lazily, resolving an ephemeral request)."""
        return self._bind().server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self._requested_address[0]}:{self.port}"

    def start(self) -> "HTTPFrontEnd":
        """Bind and serve from a daemon thread; returns ``self``."""
        httpd = self._bind()
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=httpd.serve_forever, name=self.thread_name,
                kwargs={"poll_interval": 0.05}, daemon=True)
            self._thread.start()
        self.log.info(self._serving_message())
        return self

    def serve_forever(self) -> None:
        """Bind and serve in the calling thread until :meth:`shutdown`."""
        httpd = self._bind()
        self.log.info(self._serving_message())
        try:
            httpd.serve_forever(poll_interval=0.05)
        finally:
            self._close_http()
            self._after_close()

    def _close_http(self) -> None:
        if self._httpd is not None:
            self._httpd.server_close()
            self._httpd = None

    def shutdown(self) -> None:
        """Stop accepting connections, then run :meth:`_after_close`.

        Only valid from a thread other than the one inside
        :meth:`serve_forever` (the stdlib restriction); the CLIs' blocking
        mode instead interrupts ``serve_forever`` and relies on its
        ``finally`` clause for the same cleanup.
        """
        thread = self._thread
        if self._httpd is not None and thread is not None and thread.is_alive():
            self._httpd.shutdown()
        if thread is not None:
            thread.join(timeout=5.0)
        self._thread = None
        self._close_http()
        self._after_close()

    def __enter__(self) -> "HTTPFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SolveHTTPServer(HTTPFrontEnd):
    """Serve a :class:`SolveServer` over HTTP/JSON.

    Parameters
    ----------
    solve_server:
        The server to expose; a fresh one (owned, and shut down with the
        adapter) is built from ``server_kwargs`` when ``None``.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see :attr:`port`
        after :meth:`start`).
    server_kwargs:
        Forwarded to :class:`SolveServer` when it is owned (its
        ``max_tracked_jobs`` bounds what ``GET /v1/jobs/<id>`` can find).

    Usage::

        with SolveHTTPServer(port=0) as http_server:
            client = HTTPClient(http_server.url)
            ...

    or blocking (the CLI's ``repro-serve --http`` mode)::

        SolveHTTPServer(port=8080).serve_forever()
    """

    handler_class = _Handler
    thread_name = "solve-http-server"

    def __init__(self, solve_server: SolveServer | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 **server_kwargs) -> None:
        super().__init__(host, port)
        self._owns_solve_server = solve_server is None
        self.solve_server = (SolveServer(**server_kwargs)
                             if solve_server is None else solve_server)

    def _after_close(self) -> None:
        if self._owns_solve_server:
            self.solve_server.shutdown()
