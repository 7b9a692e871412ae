"""The remote compile tier: ``POST /v<codec>/compile``, the thin client's
retry/backoff discipline, cross-client in-flight dedup, queue backpressure,
and the ``figure --remote-compile`` routing."""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis import clear_sweep_caches, figure_compile_jobs
from repro.cli import build_parser, main
from repro.program import PROGRAM_CODEC_VERSION
from repro.service import (
    CompileJob,
    CompileService,
    RemoteCompileClient,
    service_override,
)
from repro.service import server as server_mod
from repro.service.server import CacheServer

JOB = CompileJob(benchmark="bv(4)", strategy="ColorDynamic")
OTHER_JOB = CompileJob(benchmark="bv(9)", strategy="ColorDynamic")
FORMAT = f"v{PROGRAM_CODEC_VERSION}"


def post_compile(server, jobs, token=None):
    body = json.dumps({"jobs": jobs}).encode()
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        f"{server.url}/{FORMAT}/compile", data=body, method="POST", headers=headers
    )
    return urllib.request.urlopen(request, timeout=120)


def job_spec(job):
    return {"benchmark": job.benchmark, "strategy": job.strategy}


class TestCompileEndpoint:
    def test_batch_resolves_hit_after_compile(self, cache_server):
        with post_compile(cache_server, [job_spec(JOB), job_spec(JOB)]) as response:
            results = json.loads(response.read())["results"]
        assert [r["outcome"] for r in results] == ["compiled", "hit"]
        key = cache_server.compile_service().job_key(JOB)
        assert results[0]["key"] == key
        assert results[0]["payload"] == results[1]["payload"]
        # Persisted before the response: immediately served to every client.
        assert cache_server.backend.get(key) == results[0]["payload"]

    def test_second_request_is_a_pure_store_hit(self, cache_server):
        with post_compile(cache_server, [job_spec(JOB)]):
            pass
        before = server_mod._SERVER_COMPILE_JOBS.value(outcome="hit")
        with post_compile(cache_server, [job_spec(JOB)]) as response:
            results = json.loads(response.read())["results"]
        assert results[0]["outcome"] == "hit"
        assert server_mod._SERVER_COMPILE_JOBS.value(outcome="hit") == before + 1

    @pytest.mark.parametrize(
        "body",
        [
            b"{}",  # no jobs at all
            b'{"jobs": []}',  # empty batch
            b'{"jobs": [17]}',  # spec is not an object
            b'{"jobs": [{"strategy": "ColorDynamic"}]}',  # benchmark missing
            b'{"jobs": [{"benchmark": "bv(4)", "strategy": "ColorDynamic", "x": 1}]}',
            b'{"jobs": [{"benchmark": "bv(4)", "strategy": "ColorDynamic", "seed": true}]}',
            b'{"jobs": [{"benchmark": "bv(4)", "strategy": "nope"}]}',  # unknown strategy
        ],
    )
    def test_malformed_specs_are_400(self, cache_server, body):
        request = urllib.request.Request(
            f"{cache_server.url}/{FORMAT}/compile", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_foreign_namespace_is_404(self, cache_server):
        request = urllib.request.Request(
            f"{cache_server.url}/v999/compile", data=b'{"jobs": []}', method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404


class TestCrossClientDedup:
    @staticmethod
    def _gate_compiles(service, monkeypatch):
        """Hold every cold compile until released; returns the gate handles."""
        compile_started = threading.Event()
        release_compile = threading.Event()
        cold_compiles = []
        real_compile = service.compile

        def gated_compile(job):
            cold_compiles.append(job)
            compile_started.set()
            assert release_compile.wait(timeout=60)
            return real_compile(job)

        monkeypatch.setattr(service, "compile", gated_compile)
        return compile_started, release_compile, cold_compiles

    @staticmethod
    def _client_threads(server):
        results = [None, None]

        def client(slot):
            results[slot] = RemoteCompileClient(server.url).compile_jobs([JOB])

        threads = [threading.Thread(target=client, args=(slot,)) for slot in (0, 1)]
        return threads, results

    def test_two_clients_one_cold_compile(self, cache_server, monkeypatch):
        """Same job from two clients: one compile, even across a stale probe.

        The second client's store probe misses, and only then does the
        first client's compile persist and retire.  The second request then
        wins in-flight ownership of a key that is already stored: it must
        answer ``hit`` without compiling again.
        """
        service = cache_server.compile_service()
        compile_started, release_compile, cold_compiles = self._gate_compiles(
            service, monkeypatch
        )

        # Interleaving hook: the first store probe after the owner's compile
        # started is the second client's.  It reads the store (a miss), then
        # holds that answer until the owner has persisted and retired.
        second_probed = threading.Event()
        owner_retired = threading.Event()
        stale_probe_due = [True]
        real_get = cache_server.backend.get

        def interleaving_get(key):
            payload = real_get(key)
            if compile_started.is_set() and stale_probe_due[0]:
                stale_probe_due[0] = False
                second_probed.set()
                assert owner_retired.wait(timeout=60)
            return payload

        monkeypatch.setattr(cache_server.backend, "get", interleaving_get)

        jobs_metric = server_mod._SERVER_COMPILE_JOBS
        before = {o: jobs_metric.value(outcome=o) for o in ("compiled", "hit", "deduplicated")}

        (first, second), results = self._client_threads(cache_server)
        first.start()
        assert compile_started.wait(timeout=60)
        second.start()
        assert second_probed.wait(timeout=60)
        release_compile.set()
        first.join(timeout=120)  # answered: the entry is persisted and retired
        assert not first.is_alive()
        owner_retired.set()
        second.join(timeout=120)

        assert len(cold_compiles) == 1
        assert results[0] is not None and results[1] is not None
        assert results[0] == results[1]
        assert jobs_metric.value(outcome="compiled") == before["compiled"] + 1
        assert jobs_metric.value(outcome="hit") == before["hit"] + 1
        assert jobs_metric.value(outcome="deduplicated") == before["deduplicated"]

    def test_waiter_awaits_the_owners_compile(self, cache_server, monkeypatch):
        """A client arriving mid-compile waits for the owner: ``deduplicated``."""
        service = cache_server.compile_service()
        compile_started, release_compile, cold_compiles = self._gate_compiles(
            service, monkeypatch
        )

        # Interleaving hook: in-flight records whose event reports the
        # moment a waiter parks on it, so the owner is released only then.
        waiter_parked = threading.Event()

        class ParkingEvent(threading.Event):
            def wait(self, timeout=None):
                waiter_parked.set()
                return super().wait(timeout)

        class ObservedInflight(server_mod._Inflight):
            def __init__(self):
                super().__init__()
                self.event = ParkingEvent()

        monkeypatch.setattr(server_mod, "_Inflight", ObservedInflight)

        jobs_metric = server_mod._SERVER_COMPILE_JOBS
        compiled_before = jobs_metric.value(outcome="compiled")
        deduped_before = jobs_metric.value(outcome="deduplicated")

        (first, second), results = self._client_threads(cache_server)
        first.start()
        assert compile_started.wait(timeout=60)
        second.start()
        assert waiter_parked.wait(timeout=60)
        release_compile.set()
        first.join(timeout=120)
        second.join(timeout=120)

        assert len(cold_compiles) == 1
        assert results[0] is not None and results[1] is not None
        assert results[0] == results[1]
        assert jobs_metric.value(outcome="compiled") == compiled_before + 1
        assert jobs_metric.value(outcome="deduplicated") == deduped_before + 1


class TestQueueBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CacheServer, "RETRY_AFTER_S", 7)
        server = CacheServer(root=tmp_path / "store", port=0, max_pending=1).start()
        try:
            service = server.compile_service()
            compile_started = threading.Event()
            release_compile = threading.Event()
            real_compile = service.compile

            def gated_compile(job):
                compile_started.set()
                assert release_compile.wait(timeout=60)
                return real_compile(job)

            monkeypatch.setattr(service, "compile", gated_compile)
            throttled_before = server_mod._SERVER_COMPILE_THROTTLED.value()

            first_result = []

            def first_client():
                with post_compile(server, [job_spec(JOB)]) as response:
                    first_result.append(json.loads(response.read()))

            thread = threading.Thread(target=first_client)
            thread.start()
            assert compile_started.wait(timeout=60)
            assert server_mod._SERVER_COMPILE_QUEUE.value() == 1

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_compile(server, [job_spec(OTHER_JOB)])
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "7"
            assert (
                server_mod._SERVER_COMPILE_THROTTLED.value() == throttled_before + 1
            )

            release_compile.set()
            thread.join(timeout=120)
            assert first_result[0]["results"][0]["outcome"] == "compiled"
            assert server_mod._SERVER_COMPILE_QUEUE.value() == 0
        finally:
            server.stop()


def reply(status, payload=None, headers=None):
    """A ``KeepAliveConnection.request`` result: ``(status, headers, body)``."""
    body = b"" if payload is None else json.dumps(payload).encode()
    return status, dict(headers or {}), body


def stub_wire(monkeypatch, client, answers):
    """Answer the client's requests in turn with *answers* (the last repeats).

    An exception answer is raised, like a request that got no reply.
    """
    pending = list(answers)

    def request(method, path, body=None, headers=None):
        answer = pending.pop(0) if len(pending) > 1 else pending[0]
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(client._wire, "request", request)


class TestClientRetryDiscipline:
    def make_client(self, sleeps, **kwargs):
        client = RemoteCompileClient(
            "http://127.0.0.1:9",
            sleep=sleeps.append,
            rng=random.Random(0),
            **kwargs,
        )
        return client

    def test_429_honours_retry_after_with_jitter_and_stays_healthy(self, monkeypatch):
        sleeps = []
        client = self.make_client(sleeps)
        busy = reply(429, {"error": "compile queue full"}, {"Retry-After": "3"})
        done = reply(200, {"results": [{"payload": {"program": 1}}]})
        stub_wire(monkeypatch, client, [busy, busy, done])
        assert client.compile_jobs([JOB]) == [{"program": 1}]
        assert len(sleeps) == 2
        for delay in sleeps:
            assert 3.0 <= delay <= 6.0  # Retry-After + uniform(0, hint) jitter
        assert client.tripped is False

    def test_transient_errors_back_off_then_trip_the_breaker(self, monkeypatch):
        sleeps = []
        client = self.make_client(sleeps, trip_after=3, backoff_s=0.5)
        stub_wire(monkeypatch, client, [ConnectionRefusedError("connection refused")])
        assert client.compile_jobs([JOB]) is None
        assert client.tripped is True
        # Two exponential backoffs before the third failure opens the
        # breaker; a tripped client gives up without a further sleep.
        assert len(sleeps) == 2
        assert 0.5 <= sleeps[0] <= 1.0 and 1.0 <= sleeps[1] <= 2.0
        assert client.compile_jobs([JOB]) is None  # breaker short-circuits

    def test_terminal_4xx_fails_over_without_tripping(self, monkeypatch):
        sleeps = []
        client = self.make_client(sleeps)
        stub_wire(monkeypatch, client, [reply(400, {"error": "bad spec"})])
        assert client.compile_jobs([JOB]) is None
        assert sleeps == []  # no retry: the same bytes cannot succeed
        assert client.tripped is False

    def test_5xx_counts_against_the_breaker(self, monkeypatch):
        client = self.make_client([], trip_after=1)
        stub_wire(monkeypatch, client, [reply(503, {"error": "boom"})])
        assert client.compile_jobs([JOB]) is None
        assert client.tripped is True

    def test_malformed_response_is_a_failure_not_a_crash(self, monkeypatch):
        client = self.make_client([], trip_after=1)
        stub_wire(monkeypatch, client, [reply(200, {"results": "nope"})])
        assert client.compile_jobs([JOB]) is None
        assert client.tripped is True

    def test_empty_batch_is_free(self):
        assert RemoteCompileClient("http://127.0.0.1:9").compile_jobs([]) == []


class TestServiceRouting:
    def test_cold_miss_is_resolved_remotely_and_cached_locally(
        self, tmp_path, cache_server
    ):
        service = CompileService(
            cache_dir=str(tmp_path / "local"), remote_compile=cache_server.url
        )
        result = service.compile(JOB)
        assert service.stats.remote_compiles == 1
        assert service.stats.misses == 0
        key = service.job_key(JOB)
        assert cache_server.backend.contains(key)

        # Adopted payloads land in the local store: the next service over
        # the same cache_dir serves a plain local hit, no network.
        rerun = CompileService(cache_dir=str(tmp_path / "local"), remote_compile="")
        rehit = rerun.compile(JOB)
        assert rerun.stats.hits == 1
        assert rehit.program.to_dict() == result.program.to_dict()

    def test_unreachable_server_falls_back_to_local_compile(self, tmp_path):
        service = CompileService(
            cache_dir=str(tmp_path / "local"),
            remote_compile="http://127.0.0.1:9",
        )
        # Same dead URL, but with retry pacing stubbed out for test speed.
        service._remote_client_instance = RemoteCompileClient(
            "http://127.0.0.1:9", timeout_s=0.5, sleep=lambda s: None
        )
        result = service.compile(JOB)
        assert result.program is not None  # compiled locally, not an error
        assert service.stats.misses == 1
        assert service.stats.remote_compiles == 0

    def test_undecodable_remote_payload_falls_back_to_local_compile(
        self, tmp_path, monkeypatch
    ):
        service = CompileService(
            cache_dir=str(tmp_path / "local"), remote_compile="http://127.0.0.1:9"
        )
        client = service._remote_client()
        monkeypatch.setattr(client, "compile_jobs", lambda jobs: [{"program": None}])
        result = service.compile(JOB)
        assert result.program.name == JOB.benchmark  # compiled locally, not an error
        assert service.stats.misses == 1
        assert service.stats.remote_compiles == 0
        assert service.store.local.contains(service.job_key(JOB))

    def test_batch_routes_misses_through_the_server(self, tmp_path, cache_server):
        service = CompileService(
            cache_dir=str(tmp_path / "local"), remote_compile=cache_server.url
        )
        results = service.compile_batch([JOB, OTHER_JOB, JOB])
        assert len(results) == 3
        assert service.stats.remote_compiles == 2
        assert service.stats.deduplicated == 1
        assert service.stats.misses == 0
        for job in (JOB, OTHER_JOB):
            assert cache_server.backend.contains(service.job_key(job))


    def test_process_sweep_compiles_remotely_from_the_parent(
        self, tmp_path, cache_server
    ):
        from repro.analysis import SweepJob, SweepRunner

        jobs = [
            SweepJob(benchmark="bv(4)", strategy="ColorDynamic"),
            SweepJob(benchmark="bv(4)", strategy="Baseline U"),
            SweepJob(benchmark="bv(9)", strategy="ColorDynamic"),
            SweepJob(benchmark="bv(4)", strategy="ColorDynamic"),
        ]
        clear_sweep_caches()
        with service_override(
            cache_dir=str(tmp_path / "local"), remote_compile=cache_server.url
        ) as service:
            remote = SweepRunner(max_workers=2).run(jobs)
        clear_sweep_caches()
        with service_override(enabled=False):
            local = SweepRunner().run(jobs)
        clear_sweep_caches()
        # One request for the three distinct points, none compiled here.
        assert service.stats.remote_compiles == 3
        assert service.stats.misses == 0
        assert [o.success_rate for o in remote] == [o.success_rate for o in local]

    def test_batch_falls_back_to_the_worker_pool_when_the_server_is_down(
        self, tmp_path
    ):
        service = CompileService(
            cache_dir=str(tmp_path / "local"),
            remote_compile="http://127.0.0.1:9",
        )
        service._remote_client_instance = RemoteCompileClient(
            "http://127.0.0.1:9", timeout_s=0.5, sleep=lambda s: None
        )
        results = service.compile_batch([JOB, OTHER_JOB], max_workers=2)
        assert [r.program.name for r in results] == ["bv(4)", "bv(9)"]
        assert service.stats.misses == 2
        assert service.stats.remote_compiles == 0
        for job in (JOB, OTHER_JOB):
            assert service.store.local.contains(service.job_key(job))


class TestRemoteCompileCLI:
    def test_serve_flags_reach_the_server(self, tmp_path):
        args = build_parser().parse_args(
            ["cache", "serve", "--token", "sesame", "--max-pending", "2",
             "--max-payload-bytes", "4096"]
        )
        server = CacheServer(
            root=tmp_path / "store", port=0, token=args.token,
            max_pending=args.max_pending, max_payload_bytes=args.max_payload_bytes,
        )
        try:
            assert server.token == "sesame"
            assert server.max_pending == 2
            assert server.max_payload_bytes == 4096
        finally:
            server.close()

    def test_figure_remote_compile_demo(self, tmp_path, capsys, cache_server):
        """`cache serve` + `figure --remote-compile`: every cold miss is
        compiled server-side, and a second fresh worker compiles nothing
        anywhere — all 4 jobs are server store hits."""
        argv = ["figure", "fig11", "--benchmarks", "bv(4)"]

        clear_sweep_caches()
        with service_override(
            cache_dir=str(tmp_path / "worker1"), remote_compile=cache_server.url
        ) as service:
            assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert service.stats.misses == 0
        assert service.stats.remote_compiles == 4
        assert cache_server.backend.stats()["entries"] == 4
        compiled = server_mod._SERVER_COMPILE_JOBS.value(outcome="compiled")

        clear_sweep_caches()
        with service_override(
            cache_dir=str(tmp_path / "worker2"), remote_compile=cache_server.url
        ) as service:
            assert main(argv) == 0
        second_out = capsys.readouterr().out
        assert service.stats.misses == 0  # zero local cold compiles
        assert service.stats.remote_compiles == 4
        # ... and zero *server*-side cold compiles either: pure store hits.
        assert server_mod._SERVER_COMPILE_JOBS.value(outcome="compiled") == compiled
        assert second_out == first_out
        clear_sweep_caches()


@pytest.mark.slow
class TestFullGridDemo:
    def test_110_job_grid_compiles_entirely_on_the_server(
        self, tmp_path, cache_server
    ):
        """The acceptance demo: the full Fig. 9 grid (110 jobs), resolved
        entirely through ``POST /v<codec>/compile``."""
        jobs = figure_compile_jobs("fig09")
        assert len(jobs) == 110
        service = CompileService(
            cache_dir=str(tmp_path / "worker"), remote_compile=cache_server.url
        )
        results = service.compile_batch(jobs)
        assert len(results) == 110
        assert service.stats.misses == 0
        assert service.stats.remote_compiles == 110
        assert cache_server.backend.stats()["entries"] == 110


class TestKeepAliveClient:
    """One persistent connection per client, healed quietly when it goes stale."""

    def test_twenty_compiles_use_one_connection(self, cache_server):
        client = RemoteCompileClient(cache_server.url)
        before = server_mod._SERVER_CONNECTIONS.value()
        for _ in range(20):
            assert client.compile_jobs([JOB]) is not None
        assert server_mod._SERVER_CONNECTIONS.value() - before == 1
        assert client.stats()["errors"] == 0

    def test_idle_drop_is_healed_without_a_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_mod._CacheRequestHandler, "timeout", 0.2)
        server = CacheServer(root=tmp_path / "store", port=0).start()
        try:
            client = RemoteCompileClient(server.url, trip_after=1, max_attempts=1)
            assert client.compile_jobs([JOB]) is not None
            deadline = time.monotonic() + 10
            while server._connections:  # wait for the server to hang up
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert client.compile_jobs([JOB]) is not None
            assert client.stats()["errors"] == 0
            assert not client.tripped
        finally:
            server.stop()

    def test_a_stopped_server_still_trips_the_breaker(self, tmp_path):
        server = CacheServer(root=tmp_path / "store", port=0).start()
        client = RemoteCompileClient(
            server.url, timeout_s=2.0, trip_after=3, sleep=lambda s: None
        )
        assert client.compile_jobs([JOB]) is not None
        server.stop()
        assert client.compile_jobs([OTHER_JOB]) is None
        assert client.tripped
        assert client.stats()["errors"] == 3
