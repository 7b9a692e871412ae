"""The one reply rule of the cache-server clients.

Every route of :class:`HTTPBackend` and :class:`RemoteCompileClient` reads a
reply the same way: any reply below 500 means the server is up (the breaker
closes), while a 5xx, no reply at all, or a 2xx body that is not the route's
JSON shape is a failure that feeds the breaker.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.service import CompileJob, ProgramStore, RemoteCompileClient
from repro.service.backends import HTTPBackend
from repro.service.server import CacheServer

KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62
JOB = CompileJob(benchmark="bv(4)", strategy="ColorDynamic")


@contextlib.contextmanager
def stub_server(status, body=b"", headers=None):
    """A server answering every request on every route with one reply."""

    class _Stub(BaseHTTPRequestHandler):
        def _answer(self):
            self.rfile.read(int(self.headers.get("Content-Length") or 0))
            self.send_response(status)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)

        do_GET = do_HEAD = do_PUT = do_POST = do_DELETE = _answer

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


@contextlib.contextmanager
def refused_port():
    """The URL of a loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    yield f"http://127.0.0.1:{port}"


def stats_view(stats):
    """What a ``stats()`` result says: (server stats served, no reply at all)."""
    return "entries" in stats, stats.get("unreachable")


# route -> (call, body of a good 200, value of that reply, value of a refusal,
#           value of a failure, whether the route reads a 2xx body)
ROUTES = {
    "get": (
        lambda client: client.get(KEY),
        {"x": 1}, {"x": 1}, None, None, True,
    ),
    "put": (
        lambda client: client.put(KEY, {"x": 1}),
        None, True, False, False, False,
    ),
    "contains": (
        lambda client: client.contains(KEY),
        None, True, False, False, False,
    ),
    "keys": (
        lambda client: list(client.keys()),
        {"keys": [KEY]}, [KEY], [], [], True,
    ),
    "delete": (
        lambda client: client.delete(KEY),
        None, True, False, False, False,
    ),
    "stats": (
        lambda client: stats_view(client.stats()),
        {"entries": 3}, (True, None), (False, False), (False, True), True,
    ),
    "get_many": (
        lambda client: client.get_many([KEY]),
        {"entries": {KEY: {"x": 1}}, "missing": []}, {KEY: {"x": 1}}, {}, {}, True,
    ),
    "put_many": (
        lambda client: client.put_many({KEY: {"x": 1}}),
        {"stored": 1}, 1, 0, 0, True,
    ),
    "compile_jobs": (
        lambda client: client.compile_jobs([JOB]),
        {"results": [{"key": KEY, "outcome": "hit", "payload": {"program": 1}}]},
        [{"program": 1}], None, None, True,
    ),
}

#: column -> (status, body, headers); ``None`` is a port nothing listens on.
REPLIES = {
    "good-200": (200, "good", {}),
    "malformed-200": (200, b"<html>not json</html>", {}),
    "401": (401, {"error": "missing or invalid bearer token"}, {"WWW-Authenticate": "Bearer"}),
    "404": (404, {"error": "not found"}, {}),
    "429": (429, {"error": "compile queue full"}, {"Retry-After": "2"}),
    "500": (500, {"error": "boom"}, {}),
    "refused": None,
}


def expected(route, column):
    """``(value, errors moved)`` that the one rule gives *route* under *column*."""
    _, _, good, refusal, failure, reads_body = ROUTES[route]
    if column == "good-200":
        return good, False
    if column == "malformed-200":
        return (failure, True) if reads_body else (good, False)
    if column in ("500", "refused"):
        return failure, True
    return refusal, False  # 401, 404, 429: the server answered


def make_client(route, url, sleeps):
    if route == "compile_jobs":
        return RemoteCompileClient(url, timeout_s=5.0, sleep=sleeps.append)
    return HTTPBackend(url, timeout_s=5.0)


@pytest.mark.parametrize("column", list(REPLIES))
@pytest.mark.parametrize("route", list(ROUTES))
def test_every_route_reads_a_reply_by_the_one_rule(route, column):
    sleeps = []
    if REPLIES[column] is None:
        server = refused_port()
    else:
        status, body, headers = REPLIES[column]
        if body == "good":
            body = ROUTES[route][1]
        raw = body if isinstance(body, bytes) else json.dumps(body or {}).encode()
        server = stub_server(status, raw, headers)
    with server as url:
        client = make_client(route, url, sleeps)
        value = ROUTES[route][0](client)
        client.close()
    want_value, errors_moved = expected(route, column)
    breaker = client._breaker.stats()
    assert value == want_value
    assert (breaker["errors"] > 0) is errors_moved
    if not errors_moved:
        assert breaker["breaker_state"] == "closed"
    if route == "compile_jobs" and column == "429":
        # Backpressure is retried after Retry-After plus jitter, never a failure.
        assert len(sleeps) == client.max_attempts - 1
        assert all(2.0 <= delay <= 4.0 for delay in sleeps)
    elif route == "compile_jobs" and not errors_moved:
        assert sleeps == []  # a refusal falls back at once: the same bytes cannot succeed


class TestTokenlessReader:
    """A worker without the server's token still reads the shared cache."""

    @pytest.fixture()
    def secured_server(self, tmp_path):
        server = CacheServer(root=tmp_path / "store", port=0, token="sesame").start()
        try:
            server.backend.put(KEY, {"x": 1})
            yield server
        finally:
            server.stop()

    def test_refused_publishes_do_not_cut_off_anonymous_reads(self, tmp_path, secured_server):
        store = ProgramStore(tmp_path / "anonymous", remote_url=secured_server.url)
        for _ in range(store.remote._breaker.trip_after):
            assert store.put(OTHER_KEY, {"y": 2})  # stored locally; publish refused
        assert not secured_server.backend.contains(OTHER_KEY)
        assert store.get(KEY) == {"x": 1}
        stats = store.stats()
        assert stats["remote_breaker_state"] == "closed"
        assert stats["remote_errors"] == 0

    def test_refused_publishes_fail_cache_warm_and_push(self, tmp_path, secured_server, capsys):
        local = str(tmp_path / "worker")
        url = secured_server.url
        warm = ["cache", "warm", "fig11", "--benchmarks", "bv(4)", "--cache-dir", local]
        assert main([*warm, "--remote-cache", url]) == 1
        assert "refused" in capsys.readouterr().err
        assert main(["cache", "push", "--cache-dir", local, "--remote-cache", url]) == 1
        assert "refused" in capsys.readouterr().err
        assert secured_server.backend.stats()["entries"] == 1  # only the held entry

    def test_an_authed_store_still_publishes(self, tmp_path, secured_server, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_TOKEN", "sesame")
        store = ProgramStore(tmp_path / "authed", remote_url=secured_server.url)
        assert store.put(OTHER_KEY, {"y": 2})
        assert secured_server.backend.get(OTHER_KEY) == {"y": 2}
        assert store.remote.errors == 0
