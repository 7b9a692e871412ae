"""The docs cannot rot: execute every fenced Python block, check every link.

Three layers of protection for README.md and ``docs/*.md``:

* every fenced ```python block is executed (small device sizes keep this
  cheap; the session-wide hermetic cache env keeps it off the developer's
  real store);
* every relative Markdown link resolves to a real file, and same-page
  anchors resolve to a real heading;
* the environment-variable table and precedence matrix embedded in
  ``docs/cache-operations.md`` are byte-identical to the rendered
  :mod:`repro.envvars` tables the CLI epilogs are built from — one shared
  source of truth — and its wire-protocol table lists exactly the
  (method, route, auth) rows of the cache server's route table.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
# Reports are generated data, not hand-written prose with examples; their
# links are still checked but their (nonexistent) code blocks are not run.
LINKED_FILES = DOC_FILES + sorted((ROOT / "docs" / "reports").glob("*.md"))

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*)$")


def _python_blocks(path: Path) -> List[Tuple[int, str]]:
    """(start line, source) of every fenced ```python block in *path*."""
    blocks: List[Tuple[int, str]] = []
    language = None
    buffer: List[str] = []
    start = 0
    for number, line in enumerate(path.read_text().splitlines(), 1):
        fence = _FENCE.match(line)
        if fence and language is None:
            language = fence.group(1) or "text"
            buffer = []
            start = number
        elif line.strip() == "```" and language is not None:
            if language == "python":
                blocks.append((start, "\n".join(buffer)))
            language = None
        elif language is not None:
            buffer.append(line)
    assert language is None, f"unclosed code fence in {path.name}"
    return blocks


def _github_slug(title: str) -> str:
    """GitHub's heading-anchor slug (enough of it for our docs)."""
    slug = re.sub(r"[`*_]", "", title.strip().lower())
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


SNIPPETS = [
    pytest.param(path, start, source, id=f"{path.name}:L{start}")
    for path in DOC_FILES
    for start, source in _python_blocks(path)
]


def test_docs_have_executable_snippets():
    """The guides keep at least one runnable example each (rot canary)."""
    documented = {path.name for path, _, _ in (p.values for p in SNIPPETS)}
    assert "README.md" in documented
    assert "architecture.md" in documented
    assert "cache-operations.md" in documented
    assert "extending.md" in documented


@pytest.mark.parametrize("path, start, source", SNIPPETS)
def test_docs_snippet_executes(path, start, source):
    namespace = {"__name__": f"docs_snippet_{path.stem}_L{start}"}
    exec(compile(source, f"{path.name}:L{start}", "exec"), namespace)


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_docs_links_resolve(path):
    text = path.read_text()
    headings = [
        _HEADING.match(line).group(2)
        for line in text.splitlines()
        if _HEADING.match(line)
    ]
    own_anchors = {_github_slug(h) for h in headings}
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if "/actions" in target:
            # GitHub-UI path (the CI badge); exists only on the forge.
            continue
        base, _, anchor = target.partition("#")
        if not base:
            assert anchor in own_anchors, f"{path.name}: dead anchor #{anchor}"
            continue
        resolved = (path.parent / base).resolve()
        assert resolved.exists(), f"{path.name}: dead link {target}"
        if anchor and resolved.suffix == ".md":
            linked_headings = {
                _github_slug(_HEADING.match(line).group(2))
                for line in resolved.read_text().splitlines()
                if _HEADING.match(line)
            }
            assert anchor in linked_headings, (
                f"{path.name}: dead anchor {target}"
            )


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_docs_headings_unique(path):
    """Duplicate headings would make anchors ambiguous."""
    headings = [
        _github_slug(_HEADING.match(line).group(2))
        for line in path.read_text().splitlines()
        if _HEADING.match(line)
    ]
    assert len(headings) == len(set(headings)), f"duplicate heading in {path.name}"


class TestEnvTableSync:
    """docs/cache-operations.md embeds the rendered repro.envvars tables."""

    def test_env_table_matches_shared_source(self):
        from repro.envvars import env_table_markdown

        page = (ROOT / "docs" / "cache-operations.md").read_text()
        assert env_table_markdown() in page, (
            "docs/cache-operations.md is out of sync with "
            "repro.envvars.env_table_markdown(); re-embed its output"
        )

    def test_precedence_matrix_matches_shared_source(self):
        from repro.envvars import precedence_markdown

        page = (ROOT / "docs" / "cache-operations.md").read_text()
        assert precedence_markdown() in page, (
            "docs/cache-operations.md is out of sync with "
            "repro.envvars.precedence_markdown(); re-embed its output"
        )

    def test_every_env_var_documented(self):
        from repro.envvars import ENV_VARS

        page = (ROOT / "docs" / "cache-operations.md").read_text()
        for variable in ENV_VARS:
            assert variable.name in page

    def test_cli_epilogs_render_from_the_table(self):
        from repro.cli import build_parser
        from repro.envvars import ENV_VARS

        epilog = build_parser().epilog
        for variable in ENV_VARS:
            assert variable.name in epilog


class TestWireTableSync:
    """docs/cache-operations.md's wire-protocol table is the server's route table."""

    def test_wire_table_matches_the_server_routes(self):
        from repro.program import PROGRAM_CODEC_VERSION
        from repro.service.server import _CacheRequestHandler, _parse_path

        page = (ROOT / "docs" / "cache-operations.md").read_text()
        section = page.split("## The wire protocol\n", 1)[1].split("\n#", 1)[0]
        documented = []
        for method, path, auth in re.findall(r"^\| `(\w+) (\S+)` \| (\S+) \|", section, re.M):
            assert auth in ("—", "bearer"), auth
            path = path.replace("<codec>", str(PROGRAM_CODEC_VERSION))
            route, _, _ = _parse_path(path.replace("<key>", "0" * 64))
            documented.append((method, route, auth == "bearer"))
        served = [
            (method, route, needs_token)
            for (method, route), (_, needs_token) in _CacheRequestHandler.ROUTES.items()
        ]
        assert sorted(documented) == sorted(served)
