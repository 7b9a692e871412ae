"""Outside-in layer timing for the traced run.

The traced run wraps the public callables the sweep path goes through --
from these benchmark files, with no span added to ``src/`` -- and keeps the
*self* time of each layer: a wrapper's elapsed time minus the time of the
wrappers nested inside it on the same thread.  A wrapper called inside a
wrapper of the same family (``BaselineStatic.compile`` delegating to
``ColorDynamic.compile``) passes straight through, so nothing is counted
twice.  The compile sub-phases come from the existing ``repro.obs`` spans.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List

#: Strategy figure name -> metric slug (``compile.<slug>_ms``).
STRATEGY_SLUGS = {
    "ColorDynamic": "colordynamic",
    "Baseline N": "baseline_n",
    "Baseline G": "baseline_g",
    "Baseline U": "baseline_u",
    "Baseline S": "baseline_s",
}

#: Every layer a wrapper can report, in output order.
LAYERS = (
    "workloads.circuit",
    "service.job_key",
    "service.make_compiler",
    *(f"compile.{slug}" for slug in STRATEGY_SLUGS.values()),
    "estimate",
    "codec.encode",
    "codec.decode",
    "store.get",
    "store.put",
    "remote.compile_call",
)

#: ``repro.obs`` span names read for the compile sub-phases.
COMPILE_PHASES = ("prepare", "schedule", "coloring", "solver")


class LayerClock:
    """Per-layer self time and call counts, shared by every thread."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.phases: Dict[str, float] = {}  # compile sub-phase ms, see phase_ms()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, family: str, func):
        clock = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            stack = clock._stack()
            if stack and stack[-1][0] == family:
                return func(*args, **kwargs)
            frame = [family, 0]  # [family, nanoseconds spent in nested wrappers]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with clock._lock:
                    clock.self_ns[layer] += elapsed - frame[1]
                    clock.calls[layer] += 1

        return timed

    def attributed_ns(self) -> int:
        return sum(self.self_ns.values())


def _targets():
    """``(owner, attribute, layer, family)`` for every wrapped callable."""
    from repro.analysis import experiments
    from repro.baselines import STRATEGY_REGISTRY
    from repro.core.compiler import CompilationResult
    from repro.service import compile_service
    from repro.service.remote_compile import RemoteCompileClient
    from repro.service.store import ProgramStore

    service_cls = compile_service.CompileService
    targets = [
        (ProgramStore, "get", "store.get", "store.get"),
        (ProgramStore, "put", "store.put", "store.put"),
        (ProgramStore, "put_local", "store.put", "store.put"),
        (CompilationResult, "to_dict", "codec.encode", "codec.encode"),
        (CompilationResult, "from_dict", "codec.decode", "codec.decode"),
        (experiments, "estimate_success", "estimate", "estimate"),
        (service_cls, "job_key", "service.job_key", "service.job_key"),
        (compile_service, "benchmark_circuit", "workloads.circuit", "workloads.circuit"),
        (compile_service, "make_compiler", "service.make_compiler", "service.make_compiler"),
        (RemoteCompileClient, "compile_jobs", "remote.compile_call", "remote.compile_call"),
    ]
    for strategy, cls in STRATEGY_REGISTRY.items():
        targets.append((cls, "compile", f"compile.{STRATEGY_SLUGS[strategy]}", "compile"))
    return targets


@contextmanager
def installed(clock: LayerClock) -> Iterator[LayerClock]:
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, name, layer, family in _targets():
            own = vars(owner).get(name)
            saved.append((owner, name, own))
            if isinstance(own, classmethod):
                replacement = classmethod(clock.wrap(layer, family, own.__func__))
            else:
                replacement = clock.wrap(layer, family, getattr(owner, name))
            setattr(owner, name, replacement)
        yield clock
    finally:
        for owner, name, own in reversed(saved):
            if own is None:
                delattr(owner, name)  # the attribute was inherited
            else:
                setattr(owner, name, own)


def phase_ms(records) -> Dict[str, float]:
    """Compile sub-phase totals (ms) from drained ``repro.obs`` span records.

    ``coloring`` and ``solver`` run inside ``schedule``; ``schedule`` is
    reported as its self time, without them.
    """
    total = dict.fromkeys(COMPILE_PHASES, 0)
    for record in records:
        if record["name"] in total:
            total[record["name"]] += record["dur_ns"]
    total["schedule"] -= total["coloring"] + total["solver"]
    return {phase: ns / 1e6 for phase, ns in total.items()}
