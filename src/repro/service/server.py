"""A stdlib HTTP server fronting one :class:`LocalFSBackend` — the shared
cache a worker fleet warms together.

``python -m repro cache serve`` runs this in the foreground;
:class:`CacheServer` is also embeddable (``start()``/``stop()`` drive a
background thread, which is how the test suite and two-process demos use
it).  The protocol is deliberately tiny and mirrors the on-disk layout:

* ``GET /v<codec>/<key>`` — entry payload (404 on a miss),
* ``PUT /v<codec>/<key>`` — store a JSON payload (400 on undecodable input),
* ``HEAD /v<codec>/<key>`` — existence probe,
* ``DELETE /v<codec>/<key>`` — remove an entry,
* ``GET /v<codec>/`` — ``{"keys": [...]}`` listing,
* ``POST /v<codec>/batch/get`` — ``{"keys": [...]}`` in, ``{"entries":
  {key: payload}, "missing": [...]}`` out: many entries per round trip,
* ``POST /v<codec>/batch/put`` — ``{"entries": {key: payload}}`` in,
  ``{"stored": n}`` out,
* ``POST /v<codec>/compile`` — ``{"jobs": [<CompileJob spec>, ...]}`` in,
  ``{"results": [{"key", "outcome", "payload"}, ...]}`` out: each job is
  a hit in this server's store, or a cold compile by a store-less
  server-side :class:`~repro.service.compile_service.CompileService`
  that the server then persists into its store, with cross-client
  in-flight dedup — two clients requesting the same content hash await one
  compile — and a bounded job queue that answers 429 + ``Retry-After``
  when full,
* ``GET /stats`` — the backing store's statistics (a scan of its entries),
* ``GET /metrics`` — the process metrics registry in Prometheus text
  exposition format (request counters/latencies, store op latencies,
  circuit-breaker state, server compile outcomes/queue depth; see
  ``docs/observability.md``).

Every error response carries a JSON body (``{"error": ..., "status":
...}``), including the stdlib-generated ones (unsupported method, bad
request line).  With ``quiet=False`` each request is logged as one line:
``method path status bytes latency_ms``.

Keys must be 64-char lowercase hex (the content-address alphabet), which
also rules out path traversal.  A namespace other than the server's codec
version is a 404: a client on a newer codec gets clean misses, never a
mis-decoded program.  The server binds loopback by default; to sit beyond
loopback, start it with a shared-secret bearer token
(``--token``/``REPRO_CACHE_TOKEN``) — mutating and compile routes then
require ``Authorization: Bearer <token>`` and answer 401 otherwise.
Request bodies are bounded: a missing ``Content-Length`` is a 411, a
malformed one a 400, and one over ``max_payload_bytes`` a 413.

The server speaks HTTP/1.1 with TCP_NODELAY, so a client's connection
stays open across its requests until it has been idle for 30 s.  Any
reply that leaves a declared request body unread closes the connection.
"""

from __future__ import annotations

import contextlib
import hmac
import json
import os
import re
import socket
import threading
import traceback
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set

from ..obs import get_metrics
from .backends import (
    DEFAULT_MAX_PAYLOAD_BYTES,
    DEFAULT_MAX_PENDING,
    LocalFSBackend,
    cache_token_default,
)
from .compile_service import CompileJob

__all__ = ["CacheServer", "DEFAULT_PORT"]

#: Default TCP port of ``python -m repro cache serve``.
DEFAULT_PORT = 8750

_ENTRY_PATTERN = re.compile(r"^/(v\d+)/([0-9a-f]{64})$")
_LIST_PATTERN = re.compile(r"^/(v\d+)/?$")
_BATCH_PATTERN = re.compile(r"^/(v\d+)/batch/(get|put)$")
_COMPILE_PATTERN = re.compile(r"^/(v\d+)/compile$")
_KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

_SERVER_REQUESTS = get_metrics().counter(
    "repro_server_requests_total",
    "Cache server requests by method and response status.",
    ("method", "status"),
)
_SERVER_REQUEST_SECONDS = get_metrics().histogram(
    "repro_server_request_seconds",
    "Cache server request latency by method and route class.",
    ("method", "route"),
)
_SERVER_CONNECTIONS = get_metrics().counter(
    "repro_server_connections_total",
    "Cache server connections accepted (a kept-alive client reuses one).",
)
_SERVER_COMPILE_JOBS = get_metrics().counter(
    "repro_server_compile_jobs_total",
    "Server-side compile jobs by outcome (hit, compiled, deduplicated, error).",
    ("outcome",),
)
_SERVER_COMPILE_SECONDS = get_metrics().histogram(
    "repro_server_compile_seconds",
    "Server-side cold compile latency (queue wait included).",
)
_SERVER_COMPILE_QUEUE = get_metrics().gauge(
    "repro_server_compile_queue_depth",
    "Cold compile jobs currently queued or running server-side.",
)
_SERVER_COMPILE_THROTTLED = get_metrics().counter(
    "repro_server_compile_throttled_total",
    "Compile jobs rejected with 429 because the job queue was full.",
)

#: Prometheus text exposition content type.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _route_class(path: str) -> str:
    """Low-cardinality route label for the latency histogram."""
    if path == "/stats":
        return "stats"
    if path == "/metrics":
        return "metrics"
    if _ENTRY_PATTERN.match(path):
        return "entry"
    if _LIST_PATTERN.match(path):
        return "list"
    if _BATCH_PATTERN.match(path):
        return "batch"
    if _COMPILE_PATTERN.match(path):
        return "compile"
    return "other"


class QueueFullError(Exception):
    """The server's cold-compile queue is at capacity (maps to a 429)."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__("compile queue full")
        self.retry_after_s = retry_after_s


class _Inflight:
    """One in-progress cold compile other clients can await."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[dict] = None
        self.error: Optional[str] = None


#: CompileJob wire fields (``benchmark``/``strategy`` required, rest default).
_JOB_FIELD_TYPES = {
    "benchmark": str,
    "strategy": str,
    "topology": str,
    "seed": int,
    "max_colors": int,
    "admission": str,
}


def _parse_job(spec: object) -> CompileJob:
    """A wire job spec -> :class:`CompileJob`, or ``ValueError`` on junk."""
    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")
    unknown = set(spec) - set(_JOB_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown job fields: {sorted(unknown)}")
    for field in ("benchmark", "strategy"):
        if field not in spec:
            raise ValueError(f"job spec requires {field!r}")
    for field, value in spec.items():
        if field == "max_colors" and value is None:
            continue
        expected = _JOB_FIELD_TYPES[field]
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ValueError(f"job field {field!r} must be {expected.__name__}")
    return CompileJob(**spec)


class _CacheRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-cache/1.0"
    # HTTP/1.1 keeps a client's connection open across requests.  Without
    # TCP_NODELAY, a reply written as headers then body waits out the
    # client's delayed ACK (~40 ms) on every request of a kept-alive stream.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Idle seconds after which a silent kept-alive connection is dropped,
    #: releasing its handler thread.
    timeout = 30.0

    def __init__(self, *args, owner: "CacheServer", quiet: bool = True, **kwargs):
        self._owner = owner
        self._backend = owner.backend
        self._quiet = quiet
        self._status: Optional[int] = None
        self._response_bytes = 0
        self._body_read = False
        # BaseHTTPRequestHandler handles the request inside __init__, so the
        # owner reference must be bound before chaining up.
        super().__init__(*args, **kwargs)

    def setup(self) -> None:
        super().setup()
        _SERVER_CONNECTIONS.inc()
        self._owner._track_connection(self.connection, live=True)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self._owner._track_connection(self.connection, live=False)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client (or stop()) ended a kept-alive stream mid-read

    def _body_pending(self) -> bool:
        """Whether the request declared a body this handler has not read."""
        headers = getattr(self, "headers", None)
        if self._body_read or headers is None:
            return False
        length = headers.get("Content-Length")
        return bool(headers.get("Transfer-Encoding")) or (
            length is not None and length.strip() != "0"
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if not self._quiet:
            super().log_message(format, *args)

    def log_request(self, code: object = "-", size: object = "-") -> None:
        # The stdlib per-response log line is replaced by the structured
        # one-liner emitted in _handle (method path status bytes latency_ms).
        pass

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._status = code
        super().send_response(code, message)
        if self._body_pending():
            # Any reply that leaves the request body unread (a 404 route, a
            # 401, a length error, a 500) ends the connection: on a
            # kept-alive stream that body would be parsed as the next request.
            self.send_header("Connection", "close")

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """JSON error bodies, including for stdlib-generated 4xx/5xx."""
        try:
            short, _ = self.responses[code]
        except (KeyError, AttributeError):
            short = "error"
        body = json.dumps({"error": message or short, "status": code}).encode()
        self.send_response(code, message)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if not self._body_pending():  # else send_response already closed
            self.send_header("Connection", "close")
        self.end_headers()
        if getattr(self, "command", "") != "HEAD" and code >= 200 and code not in (
            204,
            304,
        ):
            self.wfile.write(body)
            self._response_bytes += len(body)

    # ------------------------------------------------------------------
    # response helpers
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
            self._response_bytes += len(body)

    def _send_empty(self, status: int) -> None:
        self.send_response(status)
        if status != 204:  # 204 carries no entity at all
            self.send_header("Content-Length", "0")
        self.end_headers()

    def _send_metrics(self) -> None:
        body = get_metrics().render_prometheus().encode()
        self.send_response(200)
        self.send_header("Content-Type", _METRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._response_bytes += len(body)

    def _entry_key(self) -> Optional[str]:
        match = _ENTRY_PATTERN.match(self.path)
        if match is None or match.group(1) != self._backend.format:
            return None
        return match.group(2)

    # ------------------------------------------------------------------
    # request-body and auth discipline
    # ------------------------------------------------------------------
    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after answering a length error.

        ``Content-Length`` discipline: missing is a 411, junk is a 400 (it
        used to fall into the blanket 500 handler via ``int()``), and
        anything over the server's ``max_payload_bytes`` is a 413 — the
        body is never read, so one request cannot buffer unbounded memory.
        The 400 and 413 leave a declared body unread, so they close the
        connection (see :meth:`send_response`).
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            self._send_json(411, {"error": "Content-Length required"})
            return None
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            self._send_json(400, {"error": f"malformed Content-Length: {raw!r}"})
            return None
        if length > self._owner.max_payload_bytes:
            self._send_json(
                413,
                {"error": f"payload exceeds {self._owner.max_payload_bytes} bytes"},
            )
            return None
        body = self.rfile.read(length)
        self._body_read = True
        return body

    def _read_json_object(self) -> Optional[dict]:
        """The request body decoded as a JSON object, errors pre-answered."""
        body = self._read_body()
        if body is None:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._send_json(400, {"error": "payload is not valid JSON"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "payload must be a JSON object"})
            return None
        return payload

    def _authorized(self) -> bool:
        """Whether the request carries the server's bearer token (if any).

        Constant-time comparison; a server without a token accepts every
        request (the trusted-loopback default).
        """
        token = self._owner.token
        if not token:
            return True
        header = self.headers.get("Authorization", "")
        return hmac.compare_digest(header.encode(), f"Bearer {token}".encode())

    def _send_unauthorized(self) -> None:
        body = json.dumps(
            {"error": "missing or invalid bearer token", "status": 401}
        ).encode()
        self.send_response(401)
        self.send_header("Content-Type", "application/json")
        self.send_header("WWW-Authenticate", "Bearer")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._response_bytes += len(body)

    def _send_throttled(self, retry_after_s: float) -> None:
        body = json.dumps({"error": "compile queue full", "status": 429}).encode()
        self.send_response(429)
        self.send_header("Content-Type", "application/json")
        self.send_header("Retry-After", str(max(1, round(retry_after_s))))
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self._response_bytes += len(body)

    # ------------------------------------------------------------------
    # methods
    # ------------------------------------------------------------------
    def _handle(self, method: str, func: Callable[[], None]) -> None:
        """Dispatch one request, recording metrics and the structured log.

        The one place an unexpected handler exception becomes a 500: a cache
        must not crash per request.  If the reply was already begun, the
        connection is closed instead, since a second status line would
        corrupt the stream.  The counter/histogram labels stay
        low-cardinality: status codes and route *classes*
        (entry/list/stats/metrics/other), never raw paths.
        """
        self._status = None
        self._response_bytes = 0
        self._body_read = False
        start = perf_counter()
        try:
            func()
        except Exception as error:  # noqa: BLE001 - a cache must not crash per request
            self.log_error("%s %s failed\n%s", method, self.path, traceback.format_exc())
            if self._status is None:
                self._send_json(500, {"error": str(error)})
            else:
                self.close_connection = True
        finally:
            elapsed = perf_counter() - start
            status = self._status if self._status is not None else 0
            _SERVER_REQUESTS.inc(method=method, status=str(status))
            _SERVER_REQUEST_SECONDS.observe(
                elapsed, method=method, route=_route_class(self.path)
            )
            if not self._quiet:
                self.log_message(
                    "%s %s %s %dB %.2fms",
                    method,
                    self.path,
                    status,
                    self._response_bytes,
                    elapsed * 1e3,
                )

    def do_GET(self) -> None:
        self._handle("GET", self._get)

    def do_HEAD(self) -> None:
        self._handle("HEAD", self._head)

    def do_PUT(self) -> None:
        self._handle("PUT", self._put)

    def do_POST(self) -> None:
        self._handle("POST", self._post)

    def do_DELETE(self) -> None:
        self._handle("DELETE", self._delete)

    def _get(self) -> None:
        if self.path == "/stats":
            self._send_json(200, self._backend.stats())
            return
        if self.path == "/metrics":
            self._send_metrics()
            return
        listing = _LIST_PATTERN.match(self.path)
        if listing is not None:
            if listing.group(1) != self._backend.format:
                self._send_json(404, {"error": "unknown namespace"})
            else:
                self._send_json(200, {"keys": list(self._backend.keys())})
            return
        key = self._entry_key()
        if key is None:
            self._send_json(404, {"error": "not found"})
            return
        payload = self._backend.get(key)
        if payload is None:
            self._send_json(404, {"error": "miss"})
        else:
            self._send_json(200, payload)

    def _head(self) -> None:
        key = self._entry_key()
        if key is not None and self._backend.contains(key):
            self._send_empty(200)
        else:
            self._send_empty(404)

    def _put(self) -> None:
        key = self._entry_key()
        if key is None:
            self._send_json(404, {"error": "not found"})
            return
        if not self._authorized():
            self._send_unauthorized()
            return
        payload = self._read_json_object()
        if payload is None:
            return
        self._backend.put(key, payload)
        self._send_empty(204)

    def _post(self) -> None:
        match = _BATCH_PATTERN.match(self.path)
        if match is not None:
            if match.group(1) != self._backend.format:
                self._send_json(404, {"error": "unknown namespace"})
            elif match.group(2) == "get":
                self._batch_get()
            else:
                self._batch_put()
            return
        match = _COMPILE_PATTERN.match(self.path)
        if match is not None:
            if match.group(1) != self._backend.format:
                self._send_json(404, {"error": "unknown namespace"})
            else:
                self._compile()
            return
        self._send_json(404, {"error": "not found"})

    def _batch_get(self) -> None:
        payload = self._read_json_object()
        if payload is None:
            return
        keys = payload.get("keys")
        if not isinstance(keys, list) or not all(
            isinstance(key, str) and _KEY_PATTERN.match(key) for key in keys
        ):
            self._send_json(400, {"error": "keys must be a list of 64-char hex"})
            return
        entries: Dict[str, dict] = {}
        missing: List[str] = []
        for key in keys:
            value = self._backend.get(key)
            if value is None:
                missing.append(key)
            else:
                entries[key] = value
        self._send_json(200, {"entries": entries, "missing": missing})

    def _batch_put(self) -> None:
        if not self._authorized():
            self._send_unauthorized()
            return
        payload = self._read_json_object()
        if payload is None:
            return
        entries = payload.get("entries")
        if not isinstance(entries, dict) or not all(
            isinstance(key, str) and _KEY_PATTERN.match(key) and isinstance(value, dict)
            for key, value in entries.items()
        ):
            self._send_json(
                400, {"error": "entries must map 64-char hex keys to JSON objects"}
            )
            return
        stored = sum(1 for key, value in entries.items() if self._backend.put(key, value))
        self._send_json(200, {"stored": stored})

    def _compile(self) -> None:
        if not self._authorized():
            self._send_unauthorized()
            return
        payload = self._read_json_object()
        if payload is None:
            return
        specs = payload.get("jobs")
        if not isinstance(specs, list) or not specs:
            self._send_json(400, {"error": "jobs must be a non-empty list"})
            return
        try:
            jobs = [_parse_job(spec) for spec in specs]
        except ValueError as error:
            self._send_json(400, {"error": str(error)})
            return
        try:
            results = self._owner.resolve_jobs(jobs)
        except QueueFullError as error:
            self._send_throttled(error.retry_after_s)
            return
        except ValueError as error:  # unknown strategy/benchmark/admission
            self._send_json(400, {"error": str(error)})
            return
        self._send_json(200, {"results": results})

    def _delete(self) -> None:
        key = self._entry_key()
        if key is not None and self._backend.delete(key):
            self._send_empty(204)
        else:
            self._send_json(404, {"error": "not found"})


class CacheServer:
    """Serves a local program store over HTTP to a fleet of workers.

    Parameters
    ----------
    root:
        Store root directory (default: ``REPRO_CACHE_DIR`` or the XDG cache
        path, exactly like a local store).
    host / port:
        Bind address; ``port=0`` picks a free port (tests).  The default is
        loopback; beyond loopback, start with a bearer token.
    max_bytes:
        Optional LRU byte budget enforced by the backing store after every
        upload, so a fleet cannot grow the shared cache without bound.
    quiet:
        Suppress per-request logging (default); the CLI turns logging on.
    token:
        Shared-secret bearer token required on mutating and compile routes
        (``PUT``/``DELETE``/``batch/put``/``compile``).  ``None`` reads
        ``REPRO_CACHE_TOKEN``; an empty string disables auth explicitly.
    max_payload_bytes:
        Request-body cap; larger uploads are refused with a 413 before the
        body is read.
    max_pending:
        Bound on cold compile jobs queued or running at once; cold work
        beyond it is answered 429 + ``Retry-After`` so thin clients back
        off instead of piling onto a saturated server.  In-flight dedup
        waiters cost no slot (they add no compile work).
    retry_after_s:
        The backoff hint sent in the 429 ``Retry-After`` header.
    """

    #: How long a dedup waiter blocks on another client's in-flight compile
    #: before giving up (maps to a 500 on that request; the next retry will
    #: either hit the store or take ownership itself).
    INFLIGHT_WAIT_S = 600.0

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        max_bytes: Optional[int] = None,
        quiet: bool = True,
        token: Optional[str] = None,
        max_payload_bytes: int = DEFAULT_MAX_PAYLOAD_BYTES,
        max_pending: int = DEFAULT_MAX_PENDING,
        retry_after_s: float = 1.0,
    ) -> None:
        self.backend = LocalFSBackend(root, max_bytes=max_bytes)
        self.token = token if token is not None else cache_token_default()
        self.max_payload_bytes = max_payload_bytes
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s
        self._compile_service = None
        self._service_lock = threading.Lock()
        # One cold compile at a time: the service's memoized compilers are
        # shared across same-shape jobs and are not thread-safe; the queue
        # bound applies to jobs *waiting* on this lock.
        self._compile_lock = threading.Lock()
        self._inflight: Dict[str, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._pending = 0
        _SERVER_COMPILE_QUEUE.set(0)
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        handler = partial(_CacheRequestHandler, owner=self, quiet=quiet)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # server-side compilation (POST /v<codec>/compile)
    # ------------------------------------------------------------------
    def compile_service(self):
        """The server-side compile service, built lazily on first use.

        Store-less and pinned local-only: :meth:`_resolve_one` probes and
        fills this server's store itself, and an ambient
        ``REPRO_REMOTE_COMPILE`` pointing back at this server must never
        make it forward its own cold misses.
        """
        from .compile_service import CompileService

        with self._service_lock:
            if self._compile_service is None:
                self._compile_service = CompileService(enabled=False, remote_compile="")
            return self._compile_service

    def resolve_jobs(self, jobs: List[CompileJob]) -> List[dict]:
        """Resolve a batch of jobs to wire results, in job order.

        Each result is ``{"key", "outcome", "payload"}`` with outcome
        ``hit`` (served from the store), ``compiled`` (cold compile owned
        by this request) or ``deduplicated`` (awaited another client's
        in-flight compile of the same content hash).

        Raises :class:`QueueFullError` when admitting this request's next
        cold compile would exceed ``max_pending``, and ``ValueError`` when
        a job spec resolves to nothing known — both before any state leaks.
        """
        service = self.compile_service()
        results = []
        for job in jobs:
            key = service.job_key(job)  # ValueError on unknown specs
            outcome, payload = self._resolve_one(service, key, job)
            _SERVER_COMPILE_JOBS.inc(outcome=outcome)
            results.append({"key": key, "outcome": outcome, "payload": payload})
        return results

    def _resolve_one(self, service, key: str, job: CompileJob):
        while True:
            payload = self.backend.get(key)
            if payload is not None:
                return "hit", payload
            with self._inflight_lock:
                entry = self._inflight.get(key)
                owner = entry is None
                if owner:
                    if self._pending >= self.max_pending:
                        _SERVER_COMPILE_THROTTLED.inc()
                        raise QueueFullError(self.retry_after_s)
                    entry = _Inflight()
                    self._inflight[key] = entry
                    self._pending += 1
                    _SERVER_COMPILE_QUEUE.set(self._pending)
            if not owner:
                if not entry.event.wait(timeout=self.INFLIGHT_WAIT_S):
                    raise RuntimeError(f"timed out awaiting in-flight compile of {key}")
                if entry.error is not None:
                    raise RuntimeError(entry.error)
                if entry.payload is not None:
                    return "deduplicated", entry.payload
                continue  # owner produced nothing usable; re-resolve from scratch
            try:
                # Probe again as the owner: another request may have persisted
                # the key and retired its in-flight entry between the first
                # probe and this registration.  Then it is a plain hit.
                payload = self.backend.get(key)
                if payload is not None:
                    entry.payload = payload
                    return "hit", payload
                start = perf_counter()
                with self._compile_lock:
                    result = service.compile(job)  # repro-lint: serialized-compile(this lock exists to hold one cold compile at a time; see __init__)
                payload = result.to_dict()
                self.backend.put(key, payload)
                entry.payload = payload
                _SERVER_COMPILE_SECONDS.observe(perf_counter() - start)
                return "compiled", payload
            except QueueFullError:
                raise
            except Exception as error:
                entry.error = str(error)
                _SERVER_COMPILE_JOBS.inc(outcome="error")
                raise
            finally:
                # Persisted (the put above) before the entry is retired, so
                # no moment exists where a key is neither in-flight nor
                # served from the store.
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                    self._pending -= 1
                    _SERVER_COMPILE_QUEUE.set(self._pending)
                entry.event.set()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve in the calling thread until interrupted (the CLI path)."""
        self.httpd.serve_forever()

    def start(self) -> "CacheServer":
        """Serve from a daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-cache-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop a :meth:`start`-ed server and release the socket."""
        self.httpd.shutdown()
        self.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def close(self) -> None:
        """Release the listening socket (after ``serve_forever`` returns).

        Kept-alive connections outlive the accept loop, so they are shut
        down too: their handler threads exit and clients see the server gone.
        """
        self.httpd.server_close()
        with self._connections_lock:
            live = list(self._connections)
        for connection in live:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)

    def _track_connection(self, connection: socket.socket, live: bool) -> None:
        with self._connections_lock:
            if live:
                self._connections.add(connection)
            else:
                self._connections.discard(connection)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheServer(url={self.url!r}, root={str(self.backend.root)!r})"
