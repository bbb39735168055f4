"""The lint framework itself: file collection, suppressions, budgets,
scoping and exit codes (rule-specific behaviour lives in
test_rules.py)."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis.linter import (
    DEFAULT_SUPPRESSION_BUDGET,
    Finding,
    Linter,
    PARSE_ERROR_CODE,
    _parse_suppressions,
    main,
    merge_selected_codes,
    run,
)
from repro.analysis.rules.base import Rule, package_relpath


def _tree(tmp_path: Path, files: dict) -> Path:
    """Materialise ``{relpath: source}`` under a ``repro/`` package."""
    root = tmp_path / "repro"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


class TestPackageRelpath:
    def test_inside_repro(self, tmp_path):
        path = tmp_path / "src" / "repro" / "fvc" / "cache.py"
        assert package_relpath(path) == "repro/fvc/cache.py"

    def test_innermost_repro_wins(self, tmp_path):
        path = tmp_path / "repro" / "vendor" / "repro" / "x.py"
        assert package_relpath(path) == "repro/x.py"

    def test_outside_any_repro(self, tmp_path):
        assert package_relpath(tmp_path / "script.py") == "repro/script.py"


class TestSuppressionParsing:
    def test_trailing_comment_covers_own_line(self):
        allowed, comments = _parse_suppressions(
            "import random  # repro: allow[DET001] seeded elsewhere\n"
        )
        assert allowed == {1: {"DET001"}}
        assert comments[0][2] == [1]

    def test_standalone_comment_covers_next_line(self):
        allowed, _ = _parse_suppressions(
            "# repro: allow[DET001] the id is never persisted\nimport random\n"
        )
        assert allowed[1] == {"DET001"}
        assert allowed[2] == {"DET001"}

    def test_multiple_codes(self):
        allowed, _ = _parse_suppressions("x = 1  # repro: allow[DET001, API001]\n")
        assert allowed[1] == {"DET001", "API001"}

    def test_docstring_examples_do_not_count(self):
        allowed, comments = _parse_suppressions(
            '"""Example::\n\n    x  # repro: allow[DET001]\n"""\nx = 1\n'
        )
        assert allowed == {} and comments == []

    def test_unparsable_source_yields_nothing(self):
        allowed, comments = _parse_suppressions("'unterminated\n")
        assert allowed == {} and comments == []


class TestLinter:
    def test_clean_tree_exits_zero(self, tmp_path):
        root = _tree(tmp_path, {"ok.py": "VALUE = 1\n"})
        report = Linter().lint_paths([root])
        assert report.findings == []
        assert report.exit_code == 0
        assert report.files_checked == 1

    def test_finding_has_path_line_code(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": "import random\n"})
        report = Linter().lint_paths([root])
        [finding] = [f for f in report.findings if f.code == "DET001"]
        assert finding.line == 1
        assert finding.path.endswith("bad.py")
        assert report.exit_code == 1

    def test_render_format(self):
        finding = Finding("src/repro/x.py", 12, "DET001", "boom")
        assert finding.render() == "src/repro/x.py:12 DET001 boom"

    def test_suppression_removes_finding(self, tmp_path):
        root = _tree(
            tmp_path, {"bad.py": "import random  # repro: allow[DET001] why\n"}
        )
        report = Linter().lint_paths([root])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.exit_code == 0

    def test_suppression_is_code_specific(self, tmp_path):
        root = _tree(
            tmp_path, {"bad.py": "import random  # repro: allow[API001]\n"}
        )
        report = Linter().lint_paths([root])
        assert [f.code for f in report.findings] == ["DET001"]
        # The mismatched allow-comment is reported as unused.
        assert len(report.unused_suppressions) == 1

    def test_unused_suppression_reported(self, tmp_path):
        root = _tree(
            tmp_path, {"ok.py": "X = 1  # repro: allow[DET001] stale\n"}
        )
        report = Linter().lint_paths([root])
        assert len(report.unused_suppressions) == 1
        path, line, codes = report.unused_suppressions[0]
        assert line == 1 and "DET001" in codes

    def test_budget_exceeded_fails_even_when_all_suppressed(self, tmp_path):
        source = "import random  # repro: allow[DET001] reason\n"
        root = _tree(
            tmp_path, {f"mod{i}.py": source for i in range(3)}
        )
        report = Linter(budget=2).lint_paths([root])
        assert report.findings == []
        assert len(report.suppressed) == 3
        assert report.over_budget
        assert report.exit_code == 1

    def test_default_budget(self):
        assert Linter().budget == DEFAULT_SUPPRESSION_BUDGET == 5

    def test_select_narrows_rules(self, tmp_path):
        root = _tree(
            tmp_path,
            {"cache/bad.py": "import random\nfor x in {1, 2}:\n    pass\n"},
        )
        report = Linter(select=["DET002"]).lint_paths([root])
        assert {f.code for f in report.findings} == {"DET002"}

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        root = _tree(tmp_path, {"broken.py": "def f(:\n", "ok.py": "X = 1\n"})
        report = Linter().lint_paths([root])
        assert [f.code for f in report.findings] == [PARSE_ERROR_CODE]
        assert report.files_checked == 1

    def test_pycache_and_hidden_skipped(self, tmp_path):
        root = _tree(
            tmp_path,
            {
                "__pycache__/junk.py": "import random\n",
                ".hidden/x.py": "import random\n",
                "ok.py": "X = 1\n",
            },
        )
        report = Linter().lint_paths([root])
        assert report.findings == []
        assert report.files_checked == 1

    def test_scoping_uses_package_relative_paths(self, tmp_path):
        # DET002 is scoped to simulation dirs: the same source is
        # flagged under repro/cache/ but not under repro/experiments/.
        source = "for x in {1, 2}:\n    pass\n"
        root = _tree(
            tmp_path,
            {"cache/a.py": source, "experiments/a.py": source},
        )
        report = Linter(select=["DET002"]).lint_paths([root])
        assert len(report.findings) == 1
        assert "cache" in report.findings[0].path


class TestRunEntryPoint:
    def test_exit_codes_and_output(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": "import random\n"})
        out = io.StringIO()
        assert run(paths=[str(root)], out=out) == 1
        text = out.getvalue()
        assert "DET001" in text
        assert "1 finding(s)" in text

    def test_clean_run(self, tmp_path):
        root = _tree(tmp_path, {"ok.py": "X = 1\n"})
        out = io.StringIO()
        assert run(paths=[str(root)], out=out) == 0
        assert "0 finding(s)" in out.getvalue()

    def test_list_rules(self):
        out = io.StringIO()
        assert run(list_rules=True, out=out) == 0
        text = out.getvalue()
        for code in (
            "DET001", "DET002", "DET003", "API001", "STAT001", "FLT001",
        ):
            assert code in text

    def test_max_suppressions_flag(self, tmp_path):
        root = _tree(
            tmp_path, {"bad.py": "import random  # repro: allow[DET001] ok\n"}
        )
        out = io.StringIO()
        assert run(paths=[str(root)], max_suppressions=0, out=out) == 1
        assert "budget exceeded" in out.getvalue()


class TestRuleScoping:
    def test_include_exclude(self):
        class Scoped(Rule):
            code = "TST001"
            include = ("repro/fvc/",)
            exclude = ("repro/fvc/vendored/",)

        rule = Scoped()
        assert rule.applies_to("repro/fvc/cache.py")
        assert not rule.applies_to("repro/cache/direct.py")
        assert not rule.applies_to("repro/fvc/vendored/x.py")

    def test_every_registered_rule_has_code_and_title(self):
        from repro.analysis.rules import ALL_RULES

        codes = [rule.code for rule in ALL_RULES]
        assert len(codes) == len(set(codes)) == 15
        assert all(rule.title for rule in ALL_RULES)


class TestFormatsAndExitCodes:
    def test_json_format_emits_only_the_document(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": "import random\n"})
        out = io.StringIO()
        assert run(paths=[str(root)], out=out, output_format="json") == 1
        document = json.loads(out.getvalue())
        assert document["exit_code"] == 1
        assert document["findings"][0]["code"] == "DET001"

    def test_sarif_format_emits_only_the_document(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": "import random\n"})
        out = io.StringIO()
        assert run(paths=[str(root)], out=out, output_format="sarif") == 1
        document = json.loads(out.getvalue())
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "DET001"

    def test_unknown_format_is_an_internal_error(self):
        # An unknown format reaching run() raises, which main() maps
        # to exit code 2.
        assert main_with_bad_format() == 2

    def test_rules_flag_merges_with_select(self, tmp_path):
        root = _tree(
            tmp_path,
            {"bad.py": "import random\nimport time\ntime.time()\n"},
        )
        out = io.StringIO()
        # DET001 (random import) + DET002 (wall clock) both present;
        # selecting one code at a time must partition the findings.
        assert run(paths=[str(root)], select=["DET001"], out=out) == 1
        only_det001 = out.getvalue()
        assert "DET001" in only_det001 and "DET002" not in only_det001

    def test_merge_selected_codes(self):
        assert merge_selected_codes(None, None) is None
        assert merge_selected_codes("DET001", None) == ["DET001"]
        assert merge_selected_codes(None, "CONC001, CONC002") == [
            "CONC001",
            "CONC002",
        ]
        assert merge_selected_codes("DET001", "CONC001") == [
            "DET001",
            "CONC001",
        ]

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        # A stale code must fail loudly, never lint nothing and pass.
        root = _tree(tmp_path, {"ok.py": "X = 1\n"})
        assert main([str(root), "--select", "NOPE001"]) == 2
        err = capsys.readouterr().err
        assert "NOPE001" in err and "DET001" in err

    def test_unknown_rules_code_exits_two(self, tmp_path, capsys):
        root = _tree(tmp_path, {"ok.py": "X = 1\n"})
        assert main([str(root), "--rules", "DET001,NOPE002"]) == 2
        assert "NOPE002" in capsys.readouterr().err

    def test_cli_exit_codes_zero_one_two(self, tmp_path):
        clean = _tree(tmp_path / "clean", {"ok.py": "X = 1\n"})
        dirty = _tree(tmp_path / "dirty", {"bad.py": "import random\n"})
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1

    def test_internal_error_exits_two(self, tmp_path, monkeypatch, capsys):
        import repro.analysis.linter as linter_mod

        def boom(self, paths):
            raise RuntimeError("synthetic analyzer crash")

        monkeypatch.setattr(linter_mod.Linter, "lint_paths", boom)
        assert main([str(tmp_path)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_output_flag_writes_file_and_keeps_exit_code(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": "import random\n"})
        target = tmp_path / "report.json"
        out = io.StringIO()
        assert (
            run(
                paths=[str(root)],
                out=out,
                output_format="json",
                output_path=str(target),
            )
            == 1
        )
        assert out.getvalue() == ""
        assert json.loads(target.read_text())["exit_code"] == 1


def main_with_bad_format():
    try:
        run(paths=["."], output_format="yaml")
    except ValueError:
        return 2
    return 0
