"""The linter itself is tested fixture-first: known-bad snippets must fire
with exact rule IDs and file:line anchors, known-good twins must stay
silent, and the real ``src/`` tree must pass with zero findings (the same
gate CI runs)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
REGISTRY = FIXTURES / "envvars.py"


def findings_for(*names: str):
    return lint.lint_paths([FIXTURES / name for name in names] + [REGISTRY])


def anchors(findings):
    return [(f.rule, Path(f.path).name, f.line) for f in findings]


class TestRuleFixtures:
    """Each rule fires on its known-bad snippet, at the documented line."""

    def test_rpl001_flags_the_uncovered_knob(self):
        result = anchors(findings_for("rpl001_bad.py"))
        assert result == [("RPL001", "rpl001_bad.py", 9)]

    def test_rpl001_waiver_and_delegation_suppress(self):
        assert findings_for("rpl001_good.py") == []

    def test_rpl002_flags_dropped_field_and_missing_from_dict(self):
        result = anchors(findings_for("rpl002_bad.py"))
        assert result == [
            ("RPL002", "rpl002_bad.py", 11),  # weight absent from the codec
            ("RPL002", "rpl002_bad.py", 22),  # HalfCodec has no from_dict
        ]

    def test_rpl002_complete_codec_with_waiver_is_clean(self):
        assert findings_for("rpl002_good.py") == []

    def test_rpl003_flags_every_hazard(self):
        result = anchors(findings_for("rpl003_bad.py"))
        assert result == [
            ("RPL003", "rpl003_bad.py", 11),  # hash()
            ("RPL003", "rpl003_bad.py", 15),  # set iteration
            ("RPL003", "rpl003_bad.py", 19),  # list() over a set
            ("RPL003", "rpl003_bad.py", 23),  # unsorted os.listdir
            ("RPL003", "rpl003_bad.py", 28),  # time.time()
            ("RPL003", "rpl003_bad.py", 32),  # global random.random()
            ("RPL003", "rpl003_bad.py", 36),  # default_rng() unseeded
            ("RPL003", "rpl003_bad.py", 40),  # default_rng(seed=None param)
        ]

    def test_rpl003_deterministic_spellings_are_clean(self):
        assert findings_for("rpl003_good.py") == []

    def test_rpl003_wallclock_whitelisted_in_obs_scope(self):
        """repro/obs/ may read wall clocks — a scope, not per-line waivers."""
        assert findings_for("scopes/repro/obs/wallclock_ok.py") == []

    def test_rpl003_other_hazards_still_fire_in_obs_scope(self):
        result = anchors(findings_for("scopes/repro/obs/hash_bad.py"))
        assert result == [
            ("RPL003", "hash_bad.py", 5),  # hash()
            ("RPL003", "hash_bad.py", 9),  # set iteration
        ]

    def test_rpl003_wallclock_still_fires_on_the_compile_path(self):
        result = anchors(findings_for("scopes/repro/core/wallclock_bad.py"))
        assert result == [("RPL003", "wallclock_bad.py", 7)]

    def test_rpl004_flags_every_unregistered_access_shape(self):
        result = anchors(findings_for("rpl004_bad.py"))
        assert result == [
            ("RPL004", "rpl004_bad.py", 9),  # environ.get("...")
            ("RPL004", "rpl004_bad.py", 13),  # via module-level constant
            ("RPL004", "rpl004_bad.py", 17),  # os.getenv
            ("RPL004", "rpl004_bad.py", 21),  # environ[...]
            ("RPL004", "rpl004_bad.py", 25),  # "..." in os.environ
        ]

    def test_rpl004_registered_and_foreign_names_are_clean(self):
        assert findings_for("rpl004_good.py") == []

    def test_rpl005_flags_network_and_compile_under_lock(self):
        result = anchors(findings_for("rpl005_bad.py"))
        assert result == [
            ("RPL005", "rpl005_bad.py", 9),  # urlopen under the lock
            ("RPL005", "rpl005_bad.py", 11),  # compile under the lock
        ]

    def test_rpl005_work_hoisted_out_of_the_lock_is_clean(self):
        assert findings_for("rpl005_good.py") == []

    def test_rpl000_flags_malformed_waivers(self):
        result = anchors(findings_for("rpl000_bad.py"))
        assert [r for r, _, _ in result] == ["RPL000"] * 3
        assert [line for _, _, line in result] == [5, 9, 13]

    def test_messages_name_the_offender(self):
        (finding,) = findings_for("rpl001_bad.py")
        assert "'window'" in finding.message
        assert "Compiler" in finding.message


class TestEngine:
    def test_src_tree_is_clean(self):
        """The gate CI enforces: zero findings, zero baseline entries."""
        assert lint.lint_paths([SRC]) == []

    def test_rule_filter(self):
        findings = lint.lint_paths([FIXTURES], rules=["RPL005"])
        assert findings and all(f.rule == "RPL005" for f in findings)

    def test_findings_are_sorted_and_stable(self):
        once = lint.lint_paths([FIXTURES])
        twice = lint.lint_paths([FIXTURES])
        assert once == twice == sorted(once, key=lint.Finding.sort_key)

    def test_waivers_inside_strings_are_ignored(self, tmp_path):
        snippet = tmp_path / "docsy.py"
        snippet.write_text(
            'DOC = "waive with # repro-lint: nonsemantic(<reason>)"\n'
        )
        assert lint.lint_paths([snippet]) == []

    def test_syntax_error_reports_rpl000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        (finding,) = lint.lint_paths([broken])
        assert finding.rule == "RPL000"
        assert "syntax error" in finding.message


class TestCommandLine:
    """``python -m repro lint`` — formats, filters, baseline, exit codes."""

    def run_lint(self, *argv: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_clean_tree_exits_zero(self):
        result = self.run_lint(str(SRC))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_findings_exit_one_with_text_anchors(self):
        result = self.run_lint(str(FIXTURES / "rpl001_bad.py"))
        assert result.returncode == 1
        assert "rpl001_bad.py:9:9: RPL001" in result.stdout

    def test_json_format_is_machine_readable(self):
        result = self.run_lint("--format", "json", str(FIXTURES / "rpl005_bad.py"))
        payload = json.loads(result.stdout)
        assert payload["version"] == 1
        assert payload["count"] == 2
        assert {f["rule"] for f in payload["findings"]} == {"RPL005"}
        assert all(f["line"] > 0 for f in payload["findings"])

    def test_github_format_emits_error_annotations(self):
        result = self.run_lint("--format", "github", str(FIXTURES / "rpl005_bad.py"))
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("::error file=") for line in lines)
        assert "title=repro-lint RPL005" in lines[0]

    def test_baseline_round_trip_suppresses(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        write = self.run_lint(
            str(FIXTURES / "rpl002_bad.py"), "--write-baseline", str(baseline)
        )
        assert write.returncode == 0
        rerun = self.run_lint(
            str(FIXTURES / "rpl002_bad.py"), "--baseline", str(baseline)
        )
        assert rerun.returncode == 0, rerun.stdout

    def test_parser_flags_name_every_formatter_and_rule(self):
        from repro.devtools import options

        assert options.FORMATS == tuple(sorted(lint._FORMATS))
        assert lint.RULES is options.RULES

    def test_unreadable_baseline_exits_two(self, tmp_path):
        missing = tmp_path / "nope.json"
        result = self.run_lint(str(SRC), "--baseline", str(missing))
        assert result.returncode == 2


@pytest.mark.parametrize("rule", sorted(set(lint.RULES) - {"RPL000"}))
def test_every_rule_has_a_firing_fixture(rule):
    """Acceptance criterion: each of RPL001–RPL005 provably fires."""
    findings = lint.lint_paths([FIXTURES])
    assert any(f.rule == rule for f in findings), f"{rule} never fired"
