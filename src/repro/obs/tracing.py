"""Span tracing with Chrome ``trace_event`` export.

The tracer is *zero-cost when disabled*: :func:`span` performs a single
attribute check on the process-global :class:`Tracer` and hands back one
shared no-op context manager, so an instrumented call site costs one
function call and one attribute read when tracing is off.  When enabled,
each span records its wall time via :func:`time.perf_counter_ns` — on
Linux that is ``CLOCK_MONOTONIC``, which is system-wide, so spans recorded
in batch worker processes land on the same timeline as the parent process
and can be merged without clock alignment.

Span records are plain dicts of primitives (picklable, JSON-able)::

    {"name": str, "ts_ns": int, "dur_ns": int,
     "pid": int, "tid": int, "depth": int, "args": dict}

Exports:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON format (``{"traceEvents": [...]}``), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.
* :func:`summary_tree` — an aggregated text tree (calls + total ms per
  span path) for terminal use.
* :func:`merge_records` — deterministic merge of per-worker buffers: the
  result is sorted by ``(ts_ns, pid, tid, name)``, never by arrival order.

Tracing never feeds cache keys and never alters compile output; it only
observes.  See ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, Iterable, Iterator, List, Tuple

__all__ = [
    "Tracer",
    "get_tracer",
    "span",
    "set_enabled",
    "is_enabled",
    "merge_records",
    "chrome_trace",
    "write_chrome_trace",
    "summary_tree",
]

SpanRecord = Dict[str, Any]


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: The singleton no-op span; every disabled ``span()`` call returns this
#: exact object, so disabling tracing allocates nothing per call.
NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: stamps ``perf_counter_ns`` on enter, records on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_depth", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tid = threading.get_ident()
        depth = tracer._depths.get(tid, 0)
        tracer._depths[tid] = depth + 1
        self._depth = depth
        self._start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        end_ns = perf_counter_ns()
        tracer = self._tracer
        tid = threading.get_ident()
        tracer._depths[tid] = self._depth
        tracer._records.append(
            {
                "name": self._name,
                "ts_ns": self._start_ns,
                "dur_ns": end_ns - self._start_ns,
                "pid": os.getpid(),
                "tid": tid,
                "depth": self._depth,
                "args": self._args,
            }
        )
        return False


class Tracer:
    """A buffer of completed spans plus the ``enabled`` switch.

    ``list.append`` is atomic under the GIL, so one tracer may be shared
    by every thread in a process; worker *processes* each get their own
    (module globals are per-process) and hand their buffers back to the
    parent via :meth:`drain` / :meth:`ingest`.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._records: List[SpanRecord] = []
        self._depths: Dict[int, int] = {}

    def span(self, name: str, **args: Any):
        """Open a span named ``name`` with optional key=value attributes."""
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, args)

    def records(self) -> List[SpanRecord]:
        """A copy of the completed-span buffer."""
        return list(self._records)

    def drain(self) -> List[SpanRecord]:
        """Return and clear the completed-span buffer."""
        records, self._records = self._records, []
        return records

    def ingest(self, records: Iterable[SpanRecord]) -> None:
        """Append externally recorded spans (e.g. from a worker process)."""
        self._records.extend(records)

    def clear(self) -> None:
        self._records = []
        self._depths = {}


#: Process-global tracer used by the module-level :func:`span` helper.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def span(name: str, **args: Any):
    """Open a span on the process-global tracer.

    This is the one function instrumented call sites use::

        with span("solver", qubits=n):
            ...

    Disabled cost: one attribute check, then the shared no-op span.
    """
    if not _TRACER.enabled:
        return NOOP_SPAN
    return _Span(_TRACER, name, args)


def set_enabled(enabled: bool) -> None:
    """Switch the process-global tracer on or off."""
    _TRACER.enabled = bool(enabled)


def is_enabled() -> bool:
    return _TRACER.enabled


def _sort_key(record: SpanRecord) -> Tuple[int, int, int, str]:
    return (record["ts_ns"], record["pid"], record["tid"], record["name"])


def merge_records(*groups: Iterable[SpanRecord]) -> List[SpanRecord]:
    """Merge span buffers into one timeline, deterministically.

    The result is sorted by ``(ts_ns, pid, tid, name)`` — a pure function
    of the records themselves — so merging the same buffers in any
    arrival order yields the identical timeline.
    """
    merged: List[SpanRecord] = []
    for group in groups:
        merged.extend(group)
    merged.sort(key=_sort_key)
    return merged


def chrome_trace(records: Iterable[SpanRecord]) -> Dict[str, Any]:
    """Render records as a Chrome ``trace_event`` JSON document.

    Every span becomes a complete ("ph": "X") event; Chrome nests events
    on the same pid/tid lane by timestamp containment, so the span tree
    appears as a flame graph without explicit parent links.
    """
    events = []
    for rec in sorted(records, key=_sort_key):
        event: Dict[str, Any] = {
            "name": rec["name"],
            "ph": "X",
            "cat": "repro",
            "ts": rec["ts_ns"] / 1000.0,
            "dur": rec["dur_ns"] / 1000.0,
            "pid": rec["pid"],
            "tid": rec["tid"],
        }
        if rec["args"]:
            event["args"] = dict(rec["args"])
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, records: Iterable[SpanRecord]) -> Path:
    """Write :func:`chrome_trace` JSON to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(records)) + "\n")
    return path


def _iter_paths(
    records: Iterable[SpanRecord],
) -> Iterator[Tuple[Tuple[str, ...], SpanRecord]]:
    """Yield ``(call path, record)`` pairs using timestamp containment.

    Records are grouped into (pid, tid) lanes; within a lane a span is a
    child of the nearest earlier span that still encloses its start time.
    """
    by_lane: Dict[Tuple[int, int], List[SpanRecord]] = {}
    for rec in sorted(records, key=_sort_key):
        by_lane.setdefault((rec["pid"], rec["tid"]), []).append(rec)
    for lane in sorted(by_lane):
        stack: List[Tuple[str, int]] = []
        for rec in by_lane[lane]:
            start = rec["ts_ns"]
            while stack and stack[-1][1] <= start:
                stack.pop()
            path = tuple(name for name, _ in stack) + (rec["name"],)
            stack.append((rec["name"], start + rec["dur_ns"]))
            yield path, rec


def summary_tree(records: Iterable[SpanRecord]) -> str:
    """Aggregate records into an indented text tree.

    One line per distinct span *path* (e.g. ``compile > schedule >
    coloring``) with call count and total milliseconds; children are
    ordered by total time (descending) then name, so the output is a
    deterministic function of the records.
    """
    totals: Dict[Tuple[str, ...], List[float]] = {}
    for path, rec in _iter_paths(records):
        row = totals.setdefault(path, [0, 0])
        row[0] += 1
        row[1] += rec["dur_ns"]
    if not totals:
        return "(no spans recorded)"

    def children_of(prefix: Tuple[str, ...]) -> List[Tuple[str, ...]]:
        depth = len(prefix) + 1
        kids = [
            p for p in totals if len(p) == depth and p[: len(prefix)] == prefix
        ]
        return sorted(kids, key=lambda p: (-totals[p][1], p[-1]))

    lines = [f"{'span':<44} {'calls':>7} {'total_ms':>12}"]

    def emit(path: Tuple[str, ...]) -> None:
        count, total_ns = totals[path]
        indent = "  " * (len(path) - 1)
        label = indent + path[-1]
        lines.append(f"{label:<44} {int(count):>7} {total_ns / 1e6:>12.3f}")
        for kid in children_of(path):
            emit(kid)

    for root in children_of(()):
        emit(root)
    return "\n".join(lines)
