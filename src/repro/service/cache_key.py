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

The store holds a second kind of entry: the sweep *report* of one compile
job scored under one noise model, keyed by :func:`job_report_key` over what
the job asks for -- every :class:`~repro.service.CompileJob` field, every
:class:`~repro.noise.NoiseModel` field, :data:`REPORT_FORMAT_VERSION` and
the :func:`toolchain_digest` of the code that would answer it -- so a report
hit resolves no circuit, device or compiler.  Any source edit moves every
report key; programs keep their content keys and still hit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from importlib.machinery import PathFinder
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from ..constants import PROGRAM_CODEC_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits import Circuit

__all__ = [
    "REPORT_FORMAT_VERSION",
    "cache_key",
    "canonical_json",
    "circuit_digest",
    "compiler_digest",
    "job_report_key",
    "key_payload",
    "source_digest",
    "toolchain_digest",
]

#: Version of the stored sweep report (the ``StrategyOutcome`` scalars a
#: job does not carry) and of its key.  Bump it whenever the stored field
#: set or the key's make-up changes: every report key moves, and the old
#: entries are never read again.  (An ``estimate_success`` change is a
#: source edit, which the toolchain digest already sees.)
REPORT_FORMAT_VERSION = 2

#: The repro package whose ``*.py`` files :func:`toolchain_digest` hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_TOOLCHAIN_DIGEST: Optional[str] = None


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


def source_digest(package_root: Path) -> str:
    """SHA-256 over every ``*.py`` file under *package_root* (relative path
    and bytes, in sorted path order), numpy's version and the interpreter's
    cache tag.

    numpy's version enters as the bytes of its ``version.py`` (version
    string and git revision), found on ``sys.path`` without importing
    numpy: a run served from stored reports never loads it.
    """
    files = [
        (path.relative_to(package_root).as_posix(), path)
        for path in sorted(package_root.rglob("*.py"))
    ]
    numpy_init = Path(PathFinder.find_spec("numpy").origin)
    files.append(("<numpy>", numpy_init.with_name("version.py")))
    digest = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    digest.update(f"<python>\0{sys.implementation.cache_tag}".encode())
    return digest.hexdigest()


def toolchain_digest() -> str:
    """:func:`source_digest` of the repro package this module belongs to.

    Computed on first use, at most once per process (hashing the package
    takes a few milliseconds), and never at import or service open.  A
    non-editable install hashes its installed files.
    """
    global _TOOLCHAIN_DIGEST
    if _TOOLCHAIN_DIGEST is None:
        _TOOLCHAIN_DIGEST = source_digest(_PACKAGE_ROOT)
    return _TOOLCHAIN_DIGEST


def _field_dict(instance) -> Dict[str, object]:
    # A field-by-field dict serializes like dataclasses.asdict for a flat
    # dataclass at a third of the cost (json.dumps rejects a nested field).
    return {field.name: getattr(instance, field.name) for field in dataclasses.fields(instance)}


def job_report_key(job, model) -> str:
    """Key of the sweep report of compile *job* scored under noise *model*.

    *job* is a :class:`~repro.service.CompileJob` and *model* a
    :class:`~repro.noise.NoiseModel`; each enters with every one of its
    fields, beside :data:`REPORT_FORMAT_VERSION` and
    :func:`toolchain_digest`.  The key names what the job asks for, not
    the program it resolves to, so deriving it builds no circuit, device
    or compiler.  The digest stands in for everything the spec does not
    say (device physics, compiler defaults, the estimator), which is why
    any source edit moves every report key.
    """
    return _digest(
        {
            "kind": "report",
            "report": REPORT_FORMAT_VERSION,
            "toolchain": toolchain_digest(),
            "job": _field_dict(job),
            "noise": _field_dict(model),
        }
    )
