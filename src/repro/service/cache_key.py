"""Deterministic, content-addressed cache keys for compiled programs.

A cache key is the SHA-256 digest of a canonical JSON document combining

* the toolchain identity (``repro.__version__`` and the program codec
  version — bumping either silently invalidates every stored program),
* the compiler's :meth:`cache_signature` (strategy class, full device
  physics — topology, couplings, per-qubit transmon parameters — and every
  compiler knob: crosstalk distance, color budget, conflict threshold,
  decomposition, partition bounds, routing), and
* the circuit being compiled (register size, name and ordered gate list,
  rotation parameters included).

Canonicalisation relies on ``json.dumps(sort_keys=True)`` plus Python's
shortest-repr float formatting, which is deterministic across processes and
platforms, so two identical compilations always hash to the same key while
*any* perturbation of the device or the compiler options changes it.

The store holds a second kind of entry: the sweep *report* of one program
under one noise model, keyed by :func:`report_key` over the program's cache
key, the noise model's full field set and :data:`REPORT_FORMAT_VERSION`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict

from ..circuits import Circuit
from ..program import PROGRAM_CODEC_VERSION

__all__ = [
    "REPORT_FORMAT_VERSION",
    "cache_key",
    "canonical_json",
    "circuit_digest",
    "compiler_digest",
    "key_payload",
    "report_key",
]

#: Version of the stored sweep report (the ``StrategyOutcome`` scalars a
#: job does not carry).  Bump it whenever ``estimate_success`` output or
#: the stored field set changes: every report key moves, and the old
#: entries are never read again.
REPORT_FORMAT_VERSION = 1


def _toolchain_version() -> str:
    # Imported lazily: repro/__init__ may still be initializing when this
    # module is first imported.
    import repro

    return repro.__version__


def canonical_json(payload: object) -> str:
    """Serialize *payload* to the canonical JSON form used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def compiler_digest(compiler) -> str:
    """SHA-256 over a compiler's full :meth:`cache_signature`."""
    return _digest(compiler.cache_signature())


def circuit_digest(circuit: Circuit) -> str:
    """SHA-256 over a circuit's :meth:`~repro.circuits.Circuit.to_dict`."""
    return _digest(circuit.to_dict())


def key_payload(
    compiler,
    circuit: Circuit,
    *,
    compiler_sha: str = None,
    circuit_sha: str = None,
) -> Dict[str, object]:
    """The (sub-digested) identity document behind a cache key.

    The compiler and circuit contributions enter as their own SHA-256
    digests — a hash of hashes.  Callers that compile many grid points may
    pass memoized ``compiler_sha`` / ``circuit_sha`` values (one circuit is
    shared by all five strategies of a figure sweep, one compiler by every
    benchmark of a size) instead of re-serializing the full content per key.
    """
    return {
        "repro": _toolchain_version(),
        "codec": PROGRAM_CODEC_VERSION,
        "compiler": compiler_sha if compiler_sha is not None else compiler_digest(compiler),
        "circuit": circuit_sha if circuit_sha is not None else circuit_digest(circuit),
    }


def cache_key(
    compiler,
    circuit: Circuit,
    *,
    compiler_sha: str = None,
    circuit_sha: str = None,
) -> str:
    """Content-addressed key for compiling *circuit* with *compiler*.

    *compiler* is any strategy object exposing ``cache_signature()``
    (ColorDynamic and all Table I baselines do).
    """
    document = canonical_json(
        key_payload(compiler, circuit, compiler_sha=compiler_sha, circuit_sha=circuit_sha)
    )
    return hashlib.sha256(document.encode()).hexdigest()


def report_key(program_key: str, model) -> str:
    """Content-addressed key of the sweep report of a program under a noise model.

    *program_key* is the program's :func:`cache_key` (which already carries
    the toolchain and codec versions); *model* is a
    :class:`~repro.noise.NoiseModel`, entering with every one of its fields,
    so changing any field moves the key.
    """
    # A field-by-field dict serializes like dataclasses.asdict for the flat
    # NoiseModel at a third of the cost (json.dumps rejects a nested field).
    noise = {field.name: getattr(model, field.name) for field in dataclasses.fields(model)}
    return _digest(
        {
            "kind": "report",
            "report": REPORT_FORMAT_VERSION,
            "program": program_key,
            "noise": noise,
        }
    )
