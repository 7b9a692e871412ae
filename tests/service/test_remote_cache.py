"""The shared cache server: wire protocol, backend-combination bit-identity,
and the two-process `cache serve` + `figure --remote-cache` workflow."""

import errno
import json
import urllib.error
import urllib.request

import pytest

from repro.analysis import clear_sweep_caches
from repro.cli import main
from repro.noise import estimate_success
from repro.program import PROGRAM_CODEC_VERSION
from repro.service import backends
from repro.service import (
    CompileJob,
    CompileService,
    HTTPBackend,
    ProgramStore,
    service_override,
)

KEY = "ab" + "0" * 62
JOB = CompileJob(benchmark="bv(4)", strategy="ColorDynamic")


def http(method, url, body=None):
    request = urllib.request.Request(url, data=body, method=method)
    return urllib.request.urlopen(request, timeout=10)


class TestWireProtocol:
    def test_roundtrip_via_raw_http(self, cache_server):
        url = f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/{KEY}"
        payload = {"x": 1.5, "nested": {"y": [1, 2, 3]}}
        with http("PUT", url, json.dumps(payload).encode()) as response:
            assert response.status == 204
        with http("GET", url) as response:
            assert json.loads(response.read()) == payload
        with http("HEAD", url) as response:
            assert response.status == 200
        with http("DELETE", url) as response:
            assert response.status == 204
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("GET", url)
        assert excinfo.value.code == 404

    def test_listing_and_stats_endpoints(self, cache_server):
        backend = HTTPBackend(cache_server.url)
        backend.put(KEY, {"x": 1})
        with http("GET", f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/") as response:
            assert json.loads(response.read()) == {"keys": [KEY]}
        with http("GET", f"{cache_server.url}/stats") as response:
            stats = json.loads(response.read())
        assert stats["entries"] == 1
        assert stats["format"] == f"v{PROGRAM_CODEC_VERSION}"

    def test_invalid_json_rejected_and_not_stored(self, cache_server):
        url = f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/{KEY}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("PUT", url, b"{ not json")
        assert excinfo.value.code == 400
        assert not cache_server.backend.contains(KEY)

    def test_non_object_payload_rejected(self, cache_server):
        url = f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/{KEY}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("PUT", url, b"[1, 2, 3]")
        assert excinfo.value.code == 400

    def test_foreign_codec_namespace_is_404(self, cache_server):
        cache_server.backend.put(KEY, {"x": 1})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("GET", f"{cache_server.url}/v999/{KEY}")
        assert excinfo.value.code == 404

    def test_malformed_keys_rejected(self, cache_server):
        for bad in ("nothex", "..%2f..%2fescape", "AB" + "0" * 62):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http("GET", f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/{bad}")
            assert excinfo.value.code == 404

    def test_server_stores_entries_in_standard_layout(self, cache_server):
        HTTPBackend(cache_server.url).put(KEY, {"x": 1})
        expected = cache_server.backend._path(KEY)
        assert expected.is_file()
        assert json.loads(expected.read_text()) == {"x": 1}


class TestBackendCombinationBitIdentity:
    """One compilation, served bit-identically through every backend shape."""

    def test_every_backend_combination_serves_identical_programs(
        self, tmp_path, cache_server
    ):
        publisher = CompileService(
            store=ProgramStore(tmp_path / "publisher", remote_url=cache_server.url)
        )
        original = publisher.compile(JOB)
        truth = original.program.to_dict()
        truth_report = estimate_success(original.program)

        stores = {
            "tiered-cold-local": ProgramStore(tmp_path / "tier", remote_url=cache_server.url),
            "local-after-write-back": ProgramStore(tmp_path / "tier"),
        }
        for name, store in stores.items():
            service = CompileService(store=store)
            result = service.compile(JOB)
            assert service.stats.misses == 0 and service.stats.hits == 1, name
            assert result.cache_hit is True, name
            assert result.program.to_dict() == truth, name
            report = estimate_success(result.program)
            assert report.success_rate == truth_report.success_rate, name
            assert report.crosstalk_fidelity_product == truth_report.crosstalk_fidelity_product

    def test_local_only_and_remote_only_entries_are_bit_identical(
        self, tmp_path, cache_server
    ):
        """The stored bytes agree between a local store and the server's store."""
        local_service = CompileService(cache_dir=str(tmp_path / "local"))
        local_service.compile(JOB)
        key = local_service.job_key(JOB)

        remote_service = CompileService(
            store=ProgramStore(tmp_path / "client", remote_url=cache_server.url)
        )
        remote_service.compile(JOB)

        local_payload = ProgramStore(tmp_path / "local").get(key)
        remote_payload = cache_server.backend.get(key)
        assert local_payload is not None and remote_payload is not None

        def canonical(payload):
            program = json.loads(json.dumps(payload["program"]))
            # The only legitimate difference between two independent
            # compilations of one job is the measured wall-clock time.
            program["metadata"].pop("compile_time_s")
            return program

        assert canonical(local_payload) == canonical(remote_payload)


class TestRemoteCacheCLI:
    def test_push_pull_evict_commands(self, tmp_path, capsys, cache_server):
        warm_dir = tmp_path / "warm"
        assert main(
            ["cache", "warm", "fig11", "--benchmarks", "bv(4)",
             "--cache-dir", str(warm_dir)]
        ) == 0
        capsys.readouterr()

        # push the warmed entries to the shared server
        assert main(
            ["cache", "push", "--cache-dir", str(warm_dir),
             "--remote-cache", cache_server.url]
        ) == 0
        assert "4 entries copied" in capsys.readouterr().out
        assert cache_server.backend.stats()["entries"] == 4

        # pull them into a fresh machine's store
        pull_dir = tmp_path / "pulled"
        assert main(
            ["cache", "pull", "--cache-dir", str(pull_dir),
             "--remote-cache", cache_server.url]
        ) == 0
        assert "4 entries copied" in capsys.readouterr().out
        assert ProgramStore(pull_dir).stats()["entries"] == 4

        # evict everything via the CLI budget knob
        assert main(["cache", "evict", "--max-bytes", "0", "--cache-dir", str(pull_dir)]) == 0
        assert "evicted 4" in capsys.readouterr().out
        assert ProgramStore(pull_dir).stats()["entries"] == 0

    def test_pull_onto_a_full_disk_reports_an_error(
        self, tmp_path, capsys, monkeypatch, cache_server
    ):
        HTTPBackend(cache_server.url).put(KEY, {"x": 1})

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(backends.os, "replace", no_space)
        pull_dir = tmp_path / "pulled"
        assert main(
            ["cache", "pull", "--cache-dir", str(pull_dir),
             "--remote-cache", cache_server.url]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: could not write entries to {pull_dir}")
        assert "No space left on device" in line
        assert ProgramStore(pull_dir).stats()["entries"] == 0

    def test_push_without_url_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_REMOTE_CACHE", raising=False)
        assert main(["cache", "push", "--cache-dir", str(tmp_path)]) == 2
        assert "cache server URL" in capsys.readouterr().err

    def test_warm_to_unreachable_server_reports_failure(self, tmp_path, capsys):
        exit_code = main(
            ["cache", "warm", "fig11", "--benchmarks", "bv(4)",
             "--cache-dir", str(tmp_path),
             "--remote-cache", "http://127.0.0.1:9"]
        )
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "remote cache failed" in captured.err
        # The local tier was still warmed.
        assert ProgramStore(tmp_path).stats()["entries"] == 4

    def test_push_to_unreachable_server_reports_failure(self, tmp_path, capsys):
        store = ProgramStore(tmp_path)
        store.put(KEY, {"x": 1})
        exit_code = main(
            ["cache", "push", "--cache-dir", str(tmp_path),
             "--remote-cache", "http://127.0.0.1:9"]
        )
        assert exit_code == 1
        assert "failed" in capsys.readouterr().err

    def test_cache_stats_can_include_remote(self, capsys, tmp_path, cache_server):
        cache_server.backend.put(KEY, {"x": 1})
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path),
             "--remote-cache", cache_server.url]
        ) == 0
        out = capsys.readouterr().out
        assert "remote_entries" in out and "remote_url" in out

    def test_two_process_demo_zero_recompiles_and_identical_output(
        self, tmp_path, capsys, cache_server
    ):
        """`cache serve` + `figure --remote-cache`: the acceptance demo.

        Worker 1 (fresh local store) compiles and publishes to the server;
        worker 2 (another fresh local store) replays the figure with zero
        recompiles, and both print byte-identical tables — which also match
        a local-only run.
        """
        argv = ["figure", "fig09", "--benchmarks", "bv(4)"]

        clear_sweep_caches()
        assert main(argv + ["--cache-dir", str(tmp_path / "local-only")]) == 0
        local_only_out = capsys.readouterr().out

        clear_sweep_caches()
        assert main(
            argv + ["--cache-dir", str(tmp_path / "worker1"),
                    "--remote-cache", cache_server.url]
        ) == 0
        first_out = capsys.readouterr().out
        assert cache_server.backend.stats()["entries"] == 5  # published

        # Second worker: nothing local, everything served by the fleet cache.
        clear_sweep_caches()
        with service_override(
            cache_dir=str(tmp_path / "worker2"), remote_cache=cache_server.url
        ) as service:
            assert main(argv) == 0
        second_out = capsys.readouterr().out
        assert service.stats.misses == 0
        assert service.stats.hits == 5
        assert second_out == first_out == local_only_out
        clear_sweep_caches()


# ---------------------------------------------------------------------------
# PR 8: Content-Length discipline, bearer-token auth, batched wire routes
# ---------------------------------------------------------------------------
from http.client import HTTPConnection

from repro.service.server import CacheServer

KEY2 = "ef" + "2" * 62


def raw_request(server, method, path, headers=None, body=b""):
    """Speak HTTP with full header control (urllib always sets Content-Length)."""
    host, port = server.httpd.server_address[:2]
    connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest(method, path, skip_accept_encoding=True)
        for name, value in (headers or {}).items():
            connection.putheader(name, value)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestContentLengthDiscipline:
    def entry_path(self):
        return f"/v{PROGRAM_CODEC_VERSION}/{KEY}"

    def test_missing_content_length_is_411(self, cache_server):
        status, _, body = raw_request(cache_server, "PUT", self.entry_path())
        assert status == 411
        assert b"Content-Length" in body
        assert not cache_server.backend.contains(KEY)

    @pytest.mark.parametrize("junk", ["banana", "1e3", "-5", ""])
    def test_junk_content_length_is_400_not_500(self, cache_server, junk):
        status, _, _ = raw_request(
            cache_server, "PUT", self.entry_path(), headers={"Content-Length": junk}
        )
        assert status == 400
        assert not cache_server.backend.contains(KEY)

    def test_oversized_payload_is_413_and_never_read(self, tmp_path):
        server = CacheServer(
            root=tmp_path / "store", port=0, max_payload_bytes=64
        ).start()
        try:
            payload = json.dumps({"pad": "x" * 1024}).encode()
            status, _, _ = raw_request(
                server, "PUT", self.entry_path(),
                headers={"Content-Length": str(len(payload))},
            )
            assert status == 413
            assert not server.backend.contains(KEY)
            # The batched and compile routes share the same body discipline.
            for path in (f"/v{PROGRAM_CODEC_VERSION}/batch/put",
                         f"/v{PROGRAM_CODEC_VERSION}/compile"):
                status, _, _ = raw_request(
                    server, "POST", path, headers={"Content-Length": "100000"}
                )
                assert status == 413
        finally:
            server.stop()


class TestHandlerFaults:
    """A handler that raises answers 500 on every method; the server keeps serving."""

    ENTRY = f"/v{PROGRAM_CODEC_VERSION}/{KEY}"

    @pytest.mark.parametrize(
        "method, path, body, backend_method",
        [
            ("GET", ENTRY, b"", "get"),
            ("HEAD", ENTRY, b"", "contains"),
            ("PUT", ENTRY, b'{"x": 1}', "put"),
            ("DELETE", ENTRY, b"", "delete"),
            ("POST", f"/v{PROGRAM_CODEC_VERSION}/batch/get", b'{"keys": ["%s"]}' % KEY.encode(),
             "get"),
        ],
    )
    def test_a_raising_backend_is_a_500(
        self, cache_server, monkeypatch, method, path, body, backend_method
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cache_server.backend, backend_method, boom)
        headers = {"Content-Length": str(len(body))} if body else {}
        status, _, _ = raw_request(cache_server, method, path, headers, body)
        assert status == 500
        monkeypatch.undo()
        with http("GET", f"{cache_server.url}/stats") as response:
            assert response.status == 200


class TestBearerTokenAuth:
    @pytest.fixture()
    def secured_server(self, tmp_path):
        server = CacheServer(root=tmp_path / "store", port=0, token="sesame").start()
        try:
            yield server
        finally:
            server.stop()

    def put_status(self, server, token=None):
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        body = json.dumps({"x": 1}).encode()
        headers["Content-Length"] = str(len(body))
        return raw_request(
            server, "PUT", f"/v{PROGRAM_CODEC_VERSION}/{KEY}", headers, body
        )

    def test_mutating_routes_refuse_anonymous_requests(self, secured_server):
        status, headers, _ = self.put_status(secured_server)
        assert status == 401
        assert headers.get("WWW-Authenticate") == "Bearer"
        assert not secured_server.backend.contains(KEY)

    def test_wrong_token_is_401(self, secured_server):
        status, _, _ = self.put_status(secured_server, token="open-says-me")
        assert status == 401

    def test_right_token_is_accepted(self, secured_server):
        status, _, _ = self.put_status(secured_server, token="sesame")
        assert status == 204
        assert secured_server.backend.get(KEY) == {"x": 1}

    @pytest.mark.parametrize("token", [None, "open-says-me"])
    def test_delete_refuses_a_missing_or_wrong_token(self, secured_server, token):
        secured_server.backend.put(KEY, {"x": 1})
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        status, response_headers, _ = raw_request(
            secured_server, "DELETE", f"/v{PROGRAM_CODEC_VERSION}/{KEY}", headers
        )
        assert status == 401
        assert response_headers.get("WWW-Authenticate") == "Bearer"
        assert secured_server.backend.get(KEY) == {"x": 1}

    def test_delete_with_the_token_removes_the_entry(self, secured_server):
        secured_server.backend.put(KEY, {"x": 1})
        status, _, _ = raw_request(
            secured_server, "DELETE", f"/v{PROGRAM_CODEC_VERSION}/{KEY}",
            {"Authorization": "Bearer sesame"},
        )
        assert status == 204
        assert not secured_server.backend.contains(KEY)

    def test_batch_put_and_compile_require_the_token(self, secured_server):
        for path, body in (
            (f"/v{PROGRAM_CODEC_VERSION}/batch/put", b'{"entries": {}}'),
            (f"/v{PROGRAM_CODEC_VERSION}/compile", b'{"jobs": []}'),
        ):
            status, _, _ = raw_request(
                secured_server, "POST", path,
                headers={"Content-Length": str(len(body))}, body=body,
            )
            assert status == 401, path

    def test_read_routes_stay_anonymous(self, secured_server):
        secured_server.backend.put(KEY, {"x": 1})
        for path in (f"/v{PROGRAM_CODEC_VERSION}/{KEY}",
                     f"/v{PROGRAM_CODEC_VERSION}/",
                     "/stats", "/metrics"):
            with http("GET", f"{secured_server.url}{path}") as response:
                assert response.status == 200, path

    def test_http_backend_sends_the_token(self, secured_server):
        anonymous = HTTPBackend(secured_server.url)
        assert anonymous.put(KEY2, {"y": 2}) is False
        authed = HTTPBackend(secured_server.url, token="sesame")
        assert authed.put(KEY2, {"y": 2}) is True
        assert anonymous.get(KEY2) == {"y": 2}  # reads need no token


class TestBatchWireRoutes:
    def test_batch_get_splits_hits_and_misses(self, cache_server):
        cache_server.backend.put(KEY, {"x": 1})
        body = json.dumps({"keys": [KEY, KEY2]}).encode()
        with http(
            "POST", f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/batch/get", body
        ) as response:
            payload = json.loads(response.read())
        assert payload == {"entries": {KEY: {"x": 1}}, "missing": [KEY2]}

    def test_batch_put_stores_and_counts(self, cache_server):
        body = json.dumps({"entries": {KEY: {"x": 1}, KEY2: {"y": 2}}}).encode()
        with http(
            "POST", f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/batch/put", body
        ) as response:
            assert json.loads(response.read()) == {"stored": 2}
        assert cache_server.backend.get(KEY2) == {"y": 2}

    @pytest.mark.parametrize(
        "body",
        [b'{"keys": "abc"}', b'{"keys": ["junk"]}', b'{"keys": 1}', b"[]",
         b'{"keys": ["%s\\n"]}' % KEY.encode()],
    )
    def test_malformed_batch_get_is_400(self, cache_server, body):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("POST", f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/batch/get", body)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "body",
        [b'{"entries": []}', b'{"entries": {"junk": {}}}',
         b'{"entries": {"%s": [1]}}' % KEY.encode(),
         b'{"entries": {"%s\\n": {}}}' % KEY.encode()],
    )
    def test_malformed_batch_put_is_400(self, cache_server, body):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("POST", f"{cache_server.url}/v{PROGRAM_CODEC_VERSION}/batch/put", body)
        assert excinfo.value.code == 400
        assert cache_server.backend.stats()["entries"] == 0

    def test_foreign_namespace_batch_is_404(self, cache_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            http("POST", f"{cache_server.url}/v999/batch/get", b'{"keys": []}')
        assert excinfo.value.code == 404


# ---------------------------------------------------------------------------
# Kept-alive streams: an unread request body is never parsed as a request
# ---------------------------------------------------------------------------
import socket


def raw_exchange(server, data: bytes) -> bytes:
    """Send *data* on one socket and read until the server closes it."""
    host, port = server.httpd.server_address[:2]
    received = b""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk


class TestKeptAliveStream:
    SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: cache\r\n\r\n"

    @pytest.mark.parametrize(
        "method, path",
        [
            ("PUT", f"/v{PROGRAM_CODEC_VERSION}/not-a-key"),  # malformed key: 404
            ("POST", "/nowhere"),  # unknown route: 404
            ("POST", "/v999/compile"),  # unknown namespace: 404
        ],
    )
    def test_an_early_reply_gets_exactly_one_response(self, cache_server, method, path):
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: cache\r\n"
            f"Content-Length: {len(self.SMUGGLED)}\r\n\r\n"
        ).encode()
        received = raw_exchange(cache_server, head + self.SMUGGLED)
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(b"HTTP/1.1 404")
        assert b"Connection: close" in received

    def test_a_consumed_request_keeps_the_connection(self, cache_server):
        probe = b"GET /stats HTTP/1.1\r\nHost: cache\r\n\r\n"
        closing = b"GET /stats HTTP/1.1\r\nHost: cache\r\nConnection: close\r\n\r\n"
        received = raw_exchange(cache_server, probe + probe + closing)
        assert received.count(b"HTTP/1.1 200") == 3
