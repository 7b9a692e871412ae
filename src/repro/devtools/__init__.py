"""Developer tooling that ships with the package (not used at runtime).

Currently this holds :mod:`repro.devtools.lint` — the project-specific
AST-based invariant checker behind ``python -m repro lint``.  Unlike a
general-purpose linter, its rules encode invariants that are otherwise only
enforced dynamically (and therefore only *after* a wrong artifact ships):

* RPL001 — every semantic compiler knob reaches ``cache_signature()``;
* RPL002 — codec dataclasses round-trip every field through
  ``to_dict``/``from_dict``;
* RPL003 — no nondeterminism in modules whose output reaches compiled
  programs or cache keys;
* RPL004 — every ``REPRO_*`` environment read names a variable declared in
  the :mod:`repro.envvars` registry;
* RPL005 — no network or compile calls while a service lock is held.

See ``docs/static-analysis.md`` for the full rule catalog and waiver
syntax.
"""

from .lint import RULES, Finding, lint_paths

__all__ = ["Finding", "RULES", "lint_paths"]
