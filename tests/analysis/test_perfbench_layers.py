"""perfbench's outside-in layer wrappers still see the sweep path.

``perfbench/layers.py`` times layers by wrapping public callables by name.
A refactor that renames one, or routes a sweep around it, would make the
benchmark's per-layer breakdown silently read zero; these tests catch that
in the unit suite instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.analysis import SweepJob, SweepRunner, clear_sweep_caches
from repro.service import service_override

LAYERS_PY = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"

JOBS = [
    SweepJob(benchmark="bv(4)", strategy="ColorDynamic"),
    SweepJob(benchmark="bv(4)", strategy="Baseline U"),
]


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves(layers):
    for owner, attribute, layer, _family in layers._targets():
        assert callable(getattr(owner, attribute, None)), f"{layer}: {owner}.{attribute}"


def _timed_pass(layers, store_dir):
    clock = layers.LayerClock()
    clear_sweep_caches()
    try:
        with service_override(
            cache_dir=str(store_dir), enabled=True, remote_cache="", remote_compile=""
        ), layers.installed(clock):
            outcomes = SweepRunner(max_workers=1).run(JOBS)
    finally:
        clear_sweep_caches()
    assert len(outcomes) == len(JOBS)
    return clock.calls


def test_fill_then_warm_pass_hit_the_wrapped_layers(layers, tmp_path):
    """Fill, first warm and report-warm passes each reach their layers."""
    cold = _timed_pass(layers, tmp_path)
    for layer in ("service.job_key", "store.get", "store.put", "codec.encode",
                  "estimate", "compile.colordynamic", "compile.baseline_u"):
        assert cold[layer] > 0, f"fill pass: {layer}"

    # The first warm pass loads the programs, scores them and stores their
    # reports (second access); it compiles nothing.
    warm = _timed_pass(layers, tmp_path)
    for layer in ("service.job_key", "store.get", "codec.decode", "estimate", "store.put"):
        assert warm[layer] > 0, f"warm pass: {layer}"
    assert warm["codec.encode"] == 0
    assert not [layer for layer in warm if layer.startswith("compile.") and warm[layer]]

    # The report-warm pass reads reports only: no circuit is built, no
    # program key derived, and no program decoded, scored, written or
    # compiled.
    hot = _timed_pass(layers, tmp_path)
    assert hot["store.get"] > 0, "report-warm pass: store.get"
    for layer in ("workloads.circuit", "service.job_key", "service.make_compiler",
                  "codec.decode", "codec.encode", "estimate", "store.put"):
        assert hot[layer] == 0, f"report-warm pass: {layer}"
    assert not [layer for layer in hot if layer.startswith("compile.") and hot[layer]]
