"""The ``repro lint`` rule catalog and command-line options.

Kept apart from :mod:`repro.devtools.lint` so that building the CLI parser
(every ``python -m repro`` run) defines the lint flags without loading the
linter itself.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, Tuple

__all__ = ["FORMATS", "RULES", "add_arguments"]

#: Rule identifiers and one-line summaries (RPL000 is the meta-rule for
#: malformed waiver comments and unparseable files).
RULES: Dict[str, str] = {
    "RPL000": "malformed repro-lint waiver or unparseable file",
    "RPL001": "cache-signature completeness (__init__ knob missing from cache_signature)",
    "RPL002": "codec round-trip completeness (dataclass field missing from to_dict/from_dict)",
    "RPL003": "determinism in modules reachable from compile output or cache keys",
    "RPL004": "REPRO_* environment access outside the repro.envvars registry",
    "RPL005": "network/compile call while a service lock is held",
}

#: The ``--format`` choices, one per formatter in the linter.
FORMATS: Tuple[str, ...] = ("github", "json", "text")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to *parser* (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files/directories to lint (default: the repro package itself)",
    )
    parser.add_argument("--format", choices=FORMATS, default="text", dest="fmt")
    parser.add_argument(
        "--rule",
        action="append",
        choices=sorted(RULES),
        default=None,
        help="restrict to one or more rules (repeatable)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="suppress findings recorded in FILE (a previous --format json run)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="write current findings to FILE (json) and exit 0",
    )
