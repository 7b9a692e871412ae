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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..obs import get_metrics
from .backends import (
    _KEY_PATTERN,
    DEFAULT_MAX_PAYLOAD_BYTES,
    DEFAULT_MAX_PENDING,
    LocalFSBackend,
    cache_token_default,
)
from .compile_service import CompileJob

__all__ = ["CacheServer", "DEFAULT_PORT"]

#: Default TCP port of ``python -m repro cache serve``.
DEFAULT_PORT = 8750

#: ``/stats``, ``/metrics``, or a ``/v<codec>`` namespace followed by nothing
#: (the listing), an entry key, a batch route or ``compile``.
_PATH_PATTERN = re.compile(
    r"/(?:(stats|metrics)|(v\d+)(?:/(?:([0-9a-f]{64})|(batch/get|batch/put|compile))?)?)"
)

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


def _parse_path(path: str) -> Tuple[str, Optional[str], Optional[str]]:
    """``(route, namespace, key)`` of a request path.

    The route is ``entry``, ``list``, ``batch/get``, ``batch/put``,
    ``compile``, ``stats``, ``metrics``, or ``other`` for anything else;
    the namespace (``v<codec>``) and the entry key are ``None`` where the
    path has none.
    """
    match = _PATH_PATTERN.fullmatch(path)
    if match is None:
        return "other", None, None
    plain, namespace, key, op = match.groups()
    return plain or op or ("entry" if key else "list"), namespace, key


def _json(payload: object) -> bytes:
    return json.dumps(payload).encode()


class QueueFullError(Exception):
    """The server's cold-compile queue is at capacity (maps to a 429)."""


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
        # An unread body already closes the connection (see send_response).
        close = () if self._body_pending() else (("Connection", "close"),)
        self._reply(
            code, _json({"error": message or short, "status": code}),
            headers=close, reason=message,
        )

    def _reply(
        self,
        status: int,
        body: bytes = b"",
        content_type: str = "application/json",
        headers: Iterable[Tuple[str, str]] = (),
        reason: Optional[str] = None,
    ) -> None:
        """Write one reply: the status line, headers, then the body.

        A 204 carries no entity headers at all; a HEAD reply declares its
        body but never sends it.  The reply leaves in one write, so a client
        that acts on the headers alone (a 404, a 401) and closes cannot cut
        the body off mid-reply.
        """
        self.send_response(status, reason)
        if body:
            self.send_header("Content-Type", content_type)
        for name, value in headers:
            self.send_header(name, value)
        if status != 204:
            self.send_header("Content-Length", str(len(body)))
        if self.command == "HEAD":
            body = b""
        self._response_bytes += len(body)
        # What end_headers() writes; an HTTP/0.9 reply has no head at all.
        head = b""
        if self.request_version != "HTTP/0.9":
            head = b"".join(self._headers_buffer) + b"\r\n"
            self._headers_buffer = []
        self.wfile.write(head + body)

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
            self._reply(411, _json({"error": "Content-Length required"}))
            return None
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            self._reply(400, _json({"error": f"malformed Content-Length: {raw!r}"}))
            return None
        if length > self._owner.max_payload_bytes:
            limit = self._owner.max_payload_bytes
            self._reply(413, _json({"error": f"payload exceeds {limit} bytes"}))
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
            self._reply(400, _json({"error": "payload is not valid JSON"}))
            return None
        if not isinstance(payload, dict):
            self._reply(400, _json({"error": "payload must be a JSON object"}))
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

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _handle(self) -> None:
        """Dispatch one request, recording metrics and the structured log.

        The path is parsed once; then a wrong namespace or a (method,
        route) outside :attr:`ROUTES` is a 404, a route that needs the
        bearer token and lacks it is a 401 — both before any body is read
        — and otherwise the route's handler runs with the entry key.

        The one place an unexpected handler exception becomes a 500: a cache
        must not crash per request.  If the reply was already begun, the
        connection is closed instead, since a second status line would
        corrupt the stream.  The counter/histogram labels stay
        low-cardinality: status codes and route *classes*
        (entry/list/stats/metrics/batch/compile/other), never raw paths.
        """
        method = self.command
        self._status = None
        self._response_bytes = 0
        self._body_read = False
        start = perf_counter()
        route, namespace, key = _parse_path(self.path)
        try:
            handler, needs_token = self.ROUTES.get((method, route), (None, False))
            if handler is None or namespace not in (None, self._backend.format):
                # A HEAD miss declares no body, like the entry route's own 404.
                error = "not found" if handler is None else "unknown namespace"
                self._reply(404, b"" if method == "HEAD" else _json({"error": error}))
            elif needs_token and not self._authorized():
                self._reply(
                    401,
                    _json({"error": "missing or invalid bearer token", "status": 401}),
                    headers=(("WWW-Authenticate", "Bearer"),),
                )
            else:
                handler(self, key)
        except Exception as error:  # noqa: BLE001 - a cache must not crash per request
            self.log_error("%s %s failed\n%s", method, self.path, traceback.format_exc())
            if self._status is None:
                self._reply(500, _json({"error": str(error)}))
            else:
                self.close_connection = True
        finally:
            elapsed = perf_counter() - start
            status = self._status if self._status is not None else 0
            _SERVER_REQUESTS.inc(method=method, status=str(status))
            _SERVER_REQUEST_SECONDS.observe(
                elapsed, method=method, route=route.partition("/")[0]
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

    do_GET = do_HEAD = do_PUT = do_POST = do_DELETE = _handle

    # ------------------------------------------------------------------
    # routes: each handler receives the entry key (None off the entry route)
    # ------------------------------------------------------------------
    def _get_entry(self, key: str) -> None:
        payload = self._backend.get(key)
        if payload is None:
            self._reply(404, _json({"error": "miss"}))
        else:
            self._reply(200, _json(payload))

    def _head_entry(self, key: str) -> None:
        self._reply(200 if self._backend.contains(key) else 404)

    def _put_entry(self, key: str) -> None:
        payload = self._read_json_object()
        if payload is None:
            return
        self._backend.put(key, payload)
        self._reply(204)

    def _delete_entry(self, key: str) -> None:
        if self._backend.delete(key):
            self._reply(204)
        else:
            self._reply(404, _json({"error": "not found"}))

    def _list(self, _key: None) -> None:
        self._reply(200, _json({"keys": list(self._backend.keys())}))

    def _stats(self, _key: None) -> None:
        self._reply(200, _json(self._backend.stats()))

    def _metrics(self, _key: None) -> None:
        self._reply(200, get_metrics().render_prometheus().encode(), _METRICS_CONTENT_TYPE)

    def _batch_get(self, _key: None) -> None:
        payload = self._read_json_object()
        if payload is None:
            return
        keys = payload.get("keys")
        if not isinstance(keys, list) or not all(
            isinstance(key, str) and _KEY_PATTERN.fullmatch(key) for key in keys
        ):
            self._reply(400, _json({"error": "keys must be a list of 64-char hex"}))
            return
        entries = self._backend.get_many(keys)
        missing = [key for key in keys if key not in entries]
        self._reply(200, _json({"entries": entries, "missing": missing}))

    def _batch_put(self, _key: None) -> None:
        payload = self._read_json_object()
        if payload is None:
            return
        entries = payload.get("entries")
        if not isinstance(entries, dict) or not all(
            isinstance(key, str) and _KEY_PATTERN.fullmatch(key) and isinstance(value, dict)
            for key, value in entries.items()
        ):
            self._reply(
                400, _json({"error": "entries must map 64-char hex keys to JSON objects"})
            )
            return
        self._reply(200, _json({"stored": self._backend.put_many(entries)}))

    def _compile(self, _key: None) -> None:
        payload = self._read_json_object()
        if payload is None:
            return
        specs = payload.get("jobs")
        if not isinstance(specs, list) or not specs:
            self._reply(400, _json({"error": "jobs must be a non-empty list"}))
            return
        try:
            jobs = [_parse_job(spec) for spec in specs]
            results = self._owner.resolve_jobs(jobs)
        except QueueFullError:
            retry_after = str(max(1, round(self._owner.RETRY_AFTER_S)))
            self._reply(
                429,
                _json({"error": "compile queue full", "status": 429}),
                headers=(("Retry-After", retry_after),),
            )
            return
        except ValueError as error:  # junk spec, or unknown strategy/benchmark/admission
            self._reply(400, _json({"error": str(error)}))
            return
        self._reply(200, _json({"results": results}))

    #: ``(method, route) -> (handler, needs the bearer token)``: every request
    #: the server answers beyond a 404.  The token guards every route that
    #: writes, deletes or compiles.
    ROUTES: Dict[Tuple[str, str], Tuple[Callable[..., None], bool]] = {
        ("GET", "entry"): (_get_entry, False),
        ("HEAD", "entry"): (_head_entry, False),
        ("PUT", "entry"): (_put_entry, True),
        ("DELETE", "entry"): (_delete_entry, True),
        ("GET", "list"): (_list, False),
        ("POST", "batch/get"): (_batch_get, False),
        ("POST", "batch/put"): (_batch_put, True),
        ("POST", "compile"): (_compile, True),
        ("GET", "stats"): (_stats, False),
        ("GET", "metrics"): (_metrics, False),
    }


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
    """

    #: How long a dedup waiter blocks on another client's in-flight compile
    #: before giving up (maps to a 500 on that request; the next retry will
    #: either hit the store or take ownership itself).
    INFLIGHT_WAIT_S = 600.0
    #: The backoff hint, in seconds, sent in a 429's ``Retry-After`` header.
    RETRY_AFTER_S = 1.0
    #: How often, in seconds, the accept loop checks for a shutdown request;
    #: :meth:`stop` waits up to this long (the stdlib default is 0.5 s).
    POLL_INTERVAL_S = 0.05

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
    ) -> None:
        self.backend = LocalFSBackend(root, max_bytes=max_bytes)
        self.token = token if token is not None else cache_token_default()
        self.max_payload_bytes = max_payload_bytes
        self.max_pending = max_pending
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
        self._connections_lock = threading.Condition()
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
                        raise QueueFullError("compile queue full")
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
        self.httpd.serve_forever(poll_interval=self.POLL_INTERVAL_S)

    def start(self) -> "CacheServer":
        """Serve from a daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            args=(self.POLL_INTERVAL_S,),
            name="repro-cache-server",
            daemon=True,
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
        Returns once those threads have finished (at most a few seconds), so
        every request the server answered has been counted and logged.
        """
        self.httpd.server_close()
        with self._connections_lock:
            live = list(self._connections)
        for connection in live:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)
        with self._connections_lock:
            self._connections_lock.wait_for(lambda: not self._connections, timeout=5)

    def _track_connection(self, connection: socket.socket, live: bool) -> None:
        with self._connections_lock:
            if live:
                self._connections.add(connection)
            else:
                self._connections.discard(connection)
                self._connections_lock.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheServer(url={self.url!r}, root={str(self.backend.root)!r})"
