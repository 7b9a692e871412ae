"""Client for the cache server's batched ``POST /v<codec>/compile`` route.

:class:`RemoteCompileClient` ships :class:`CompileJob` specs to a
``python -m repro cache serve`` instance and returns the server-resolved
:class:`~repro.core.compiler.CompilationResult` payloads — the thin-client
half of the remote compile tier: the server owns the warm store *and* the
cold compiles, so a fleet of clients never compiles the same content hash
twice between them.

It is a :class:`~repro.service.backends.ServerClient`, like
:class:`~repro.service.backends.HTTPBackend`: one kept-alive connection,
one circuit breaker labeled by remote ``host:port``, and one exchange
that decides whether the server failed (a 5xx, no reply, or a 2xx body
that is not ``{"results": [{"payload": {...}}, ...]}`` with one result per
job).  Remote compilation is an accelerator, never a dependency: a chunk
that cannot be compiled remotely returns ``None`` and the caller compiles
locally.  On top of the exchange the client keeps its retry policy:

* a 429 from the server's bounded job queue is *backpressure*: the client
  sleeps for the ``Retry-After`` hint plus decorrelating jitter and
  retries, a few attempts at most;
* a failure backs off exponentially and retries until the breaker opens;
* any other 4xx (a bad spec, a missing token) falls back at once — a
  retry would send the same bytes.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional

from .backends import ServerClient
from .compile_service import CompileJob

__all__ = ["RemoteCompileClient"]

#: How many jobs one compile request carries at most; figure-grid batches
#: beyond this are chunked so a single request stays within the server's
#: payload cap and its queue admission stays granular.
COMPILE_CHUNK_JOBS = 200


def _compiled_payloads(value: object, count: int) -> List[dict]:
    """The ``count`` result payloads of a compile reply, in job order."""
    results = value.get("results") if isinstance(value, dict) else None
    if not isinstance(results, list) or len(results) != count:
        raise ValueError("malformed compile response")
    payloads = [result.get("payload") if isinstance(result, dict) else None for result in results]
    if not all(isinstance(payload, dict) for payload in payloads):
        raise ValueError("malformed compile result payload")
    return payloads


class RemoteCompileClient(ServerClient):
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
        super().__init__(base_url, timeout_s, trip_after, token)
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    def stats(self) -> Dict[str, object]:
        """Breaker/error state for diagnostics and ``cache stats``."""
        return {"url": self.url, **self.breaker_stats()}

    def _retry_after_s(self, headers: Mapping[str, str]) -> float:
        try:
            hinted = float(headers.get("Retry-After", ""))
        except (TypeError, ValueError):
            hinted = self.backoff_s
        return max(0.0, hinted)

    def _compile_chunk(self, jobs: List[CompileJob]) -> Optional[List[dict]]:
        """One chunk through the exchange, with the retry policy; ``None`` on failure."""
        path, body = f"/{self.format}/compile", {"jobs": [asdict(job) for job in jobs]}
        shape = partial(_compiled_payloads, count=len(jobs))
        for attempt in range(self.max_attempts):
            reply = self._exchange("POST", path, body, op="compile", shape=shape)
            if reply.status is None:
                if self.tripped:
                    return None
                delay = self.backoff_s * (2**attempt)
            elif reply.status == 429:
                delay = self._retry_after_s(reply.headers)
            else:
                return reply.value  # the payloads, or None for a refusal
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
