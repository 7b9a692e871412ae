"""Client for the cache server's batched ``POST /v<codec>/compile`` route.

:class:`RemoteCompileClient` ships :class:`CompileJob` specs to a
``python -m repro cache serve`` instance and returns the server-resolved
:class:`~repro.core.compiler.CompilationResult` payloads — the thin-client
half of the remote compile tier: the server owns the warm store *and* the
cold compiles, so a fleet of clients never compiles the same content hash
twice between them.  Each client sends its requests over one kept-alive
connection (:class:`~repro.service.backends.KeepAliveConnection`), so a
grid of single-job requests pays one TCP handshake, not one per job.

Failure discipline mirrors :class:`~repro.service.backends.HTTPBackend`:
remote compilation is an accelerator, never a dependency.  Any terminal
failure returns ``None`` and the caller compiles locally; a shared
:class:`~repro.service.backends.CircuitBreaker` (labeled by remote
``host:port``) opens after consecutive failures so a black-holed server
costs a few timeouts, not one per grid point.  A 429 from the server's
bounded job queue is *backpressure*, not failure: the client honours the
``Retry-After`` hint plus decorrelating jitter for a few attempts before
giving up — it never counts against the breaker, because the server is
healthy, just busy.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..program import PROGRAM_CODEC_VERSION
from .backends import CircuitBreaker, KeepAliveConnection, cache_token_default
from .compile_service import CompileJob

if TYPE_CHECKING:
    import urllib.error

__all__ = ["RemoteCompileClient"]

#: How many jobs one compile request carries at most; figure-grid batches
#: beyond this are chunked so a single request stays within the server's
#: payload cap and its queue admission stays granular.
COMPILE_CHUNK_JOBS = 200


class RemoteCompileClient:
    """Batched remote compilation against one cache server.

    Parameters
    ----------
    base_url:
        The server's base URL (``http://host:port``); a bare ``host:port``
        is accepted.
    timeout_s:
        Socket timeout of the client's connection, per blocking read or
        write.  Generous by default — the server may
        be cold-compiling the whole batch behind this request.
    token:
        Bearer token for the server's auth (compile is a mutating route).
        ``None`` reads ``REPRO_CACHE_TOKEN``.
    trip_after:
        Consecutive failures before the circuit breaker opens.
    max_attempts:
        Attempts per chunk when the server answers 429 (queue full) or a
        transient network error occurs.
    backoff_s:
        Base backoff for transient network errors; 429s use the server's
        ``Retry-After`` hint instead.  Both get decorrelating jitter.
    sleep / rng:
        Injection points for tests (`time.sleep` and a fresh
        ``random.Random()`` by default; retry pacing is wall-clock policy,
        not compile-path semantics, so the jitter is deliberately unseeded).
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 600.0,
        token: Optional[str] = None,
        trip_after: int = 3,
        max_attempts: int = 4,
        backoff_s: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        from urllib.parse import urlsplit

        if "://" not in base_url:
            base_url = f"http://{base_url}"
        self.url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.format = f"v{PROGRAM_CODEC_VERSION}"
        self.token = token if token is not None else cache_token_default()
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._breaker = CircuitBreaker(
            urlsplit(self.url).netloc or self.url, trip_after=trip_after
        )
        self._wire = KeepAliveConnection(self.url, timeout_s)

    @property
    def tripped(self) -> bool:
        """Whether the breaker is open (remote compilation is skipped)."""
        return self._breaker.tripped

    def stats(self) -> Dict[str, object]:
        """Breaker/error state for diagnostics and ``cache stats``."""
        return {"url": self.url, **self._breaker.stats()}

    # ------------------------------------------------------------------
    # wire
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the kept-alive connection to the server."""
        self._wire.close()

    def _post_jobs(self, jobs: List[CompileJob]):
        body = json.dumps({"jobs": [asdict(job) for job in jobs]}).encode()
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return self._wire.request(
            "POST", f"/{self.format}/compile", body=body, headers=headers
        )

    def _retry_after_s(self, error: urllib.error.HTTPError) -> float:
        try:
            hinted = float(error.headers.get("Retry-After", ""))
        except (TypeError, ValueError):
            hinted = self.backoff_s
        return max(0.0, hinted)

    def _compile_chunk(self, jobs: List[CompileJob]) -> Optional[List[dict]]:
        """One chunk through the wire, with 429 backoff; ``None`` on failure."""
        import urllib.error

        for attempt in range(self.max_attempts):
            delay: Optional[float] = None
            try:
                with self._post_jobs(jobs) as response:
                    payload = json.loads(response.read().decode("utf-8"))
                results = payload.get("results") if isinstance(payload, dict) else None
                if not isinstance(results, list) or len(results) != len(jobs):
                    raise ValueError("malformed compile response")
                out: List[dict] = []
                for result in results:
                    value = result.get("payload") if isinstance(result, dict) else None
                    if not isinstance(value, dict):
                        raise ValueError("malformed compile result payload")
                    out.append(value)
                self._breaker.note_success()
                return out
            except urllib.error.HTTPError as error:
                if error.code == 429:
                    # Backpressure from a healthy server: honour its hint,
                    # decorrelate the fleet with jitter, and never count it
                    # against the breaker.
                    self._breaker.note_success()
                    delay = self._retry_after_s(error)
                else:
                    # 4xx/5xx: the server spoke, but this request cannot
                    # succeed (bad spec, no such route, server bug) — a
                    # retry would send the same bytes, so fail over to
                    # local compilation; only availability errors feed the
                    # breaker.
                    if error.code >= 500:
                        self._breaker.note_failure()
                    else:
                        self._breaker.note_success()
                    return None
            except (urllib.error.URLError, OSError, ValueError):
                self._breaker.note_failure()
                if self._breaker.tripped:
                    return None
                delay = self.backoff_s * (2**attempt)
            if attempt + 1 >= self.max_attempts:
                return None
            self._sleep(delay + self._rng.uniform(0, delay))
        return None

    def compile_jobs(self, jobs: List[CompileJob]) -> Optional[List[dict]]:
        """Compile *jobs* remotely; payload dicts in job order, or ``None``.

        ``None`` means "remote tier unavailable" (breaker open, exhausted
        retries, malformed response) and the caller should compile locally.
        All-or-nothing per call: a chunk failure fails the whole batch, so
        the caller never has to merge partial remote results.
        """
        if not jobs:
            return []
        if self._breaker.tripped:
            return None
        out: List[dict] = []
        for offset in range(0, len(jobs), COMPILE_CHUNK_JOBS):
            chunk = jobs[offset : offset + COMPILE_CHUNK_JOBS]
            payloads = self._compile_chunk(chunk)
            if payloads is None:
                return None
            out.extend(payloads)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteCompileClient(url={self.url!r}, format={self.format!r})"
