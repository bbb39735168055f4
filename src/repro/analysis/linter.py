"""The simulator-invariant linter: rule runner, suppressions, CLI.

Usage (equivalent)::

    repro-fvc lint [paths...]
    python -m repro.analysis [paths...]

With no paths, lints ``src/`` when run from the repo root (falling back
to the current directory).  Output is one line per finding::

    src/repro/fvc/cache.py:17 DET001 random.random() draws unseeded ...

and the process exits non-zero when any finding survives suppression or
the suppression budget is exceeded.

Suppressions
------------
A finding is suppressed by a ``# repro: allow[CODE]`` comment either
trailing the offending line or alone on the line above it::

    value = uuid.uuid4().hex  # repro: allow[DET001] job ids are not results

Several codes may be listed (``allow[DET001, DET003]``).  Every
suppression must carry a justification in the same comment, and the
total across a lint run is budgeted (default
:data:`DEFAULT_SUPPRESSION_BUDGET`): exceeding the budget fails the run
even if each individual suppression is valid.  Unused suppressions are
reported as warnings so stale ones get cleaned up.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, TextIO, Tuple

from repro.analysis.rules import ALL_RULES, ProjectRule, Rule, SourceFile
from repro.analysis.rules.base import package_relpath
from repro.common.errors import ConfigurationError

#: How many ``# repro: allow[...]`` suppressions one lint run may use.
DEFAULT_SUPPRESSION_BUDGET = 5

#: Reported (as a finding) when a file does not parse at all.
PARSE_ERROR_CODE = "SYN001"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Z]{3,5}\d{3}(?:\s*,\s*[A-Z]{3,5}\d{3})*)\]"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, ordered for stable output."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line} {self.code} {self.message}"


@dataclass
class LintReport:
    """Everything one lint run observed."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: ``(path, line, codes)`` of allow-comments that matched nothing.
    unused_suppressions: List[Tuple[str, int, str]] = field(default_factory=list)
    files_checked: int = 0
    budget: int = DEFAULT_SUPPRESSION_BUDGET

    @property
    def over_budget(self) -> bool:
        return len(self.suppressed) > self.budget

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.over_budget else 0


def _parse_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], List[Tuple[int, Set[str], List[int]]]]:
    """Map line → allowed codes, plus the raw comments for usage audit.

    Only genuine comment tokens count (an allow-example quoted inside a
    docstring is not a suppression).  A trailing comment covers its own
    line; a comment-only line also covers the next line.
    """
    allowed: Dict[int, Set[str]] = {}
    comments: List[Tuple[int, Set[str], List[int]]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return allowed, comments
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        codes = {code.strip() for code in match.group(1).split(",")}
        covered = [lineno]
        if token.line.lstrip().startswith("#"):
            covered.append(lineno + 1)
        for line in covered:
            allowed.setdefault(line, set()).update(codes)
        comments.append((lineno, codes, covered))
    return allowed, comments


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    collected: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return collected


def _load(path: Path) -> Tuple[Optional[SourceFile], Optional[Finding]]:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return None, Finding(str(path), 1, PARSE_ERROR_CODE, f"cannot parse: {exc}")
    return SourceFile(path=path, relpath=package_relpath(path), source=source, tree=tree), None


class Linter:
    """Runs a rule set over a file set and applies suppressions.

    ``select`` narrows the rule set to the given codes; a code that
    names no rule raises :class:`ConfigurationError`, so a stale code
    can never pass by checking nothing.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        budget: int = DEFAULT_SUPPRESSION_BUDGET,
        select: Optional[Sequence[str]] = None,
    ) -> None:
        self.rules: List[Rule] = list(ALL_RULES if rules is None else rules)
        if select:
            wanted = {code.strip().upper() for code in select}
            known = sorted(rule.code for rule in self.rules)
            unknown = sorted(wanted - set(known))
            if unknown:
                raise ConfigurationError(
                    f"unknown rule code(s) {', '.join(unknown)} "
                    f"(known: {', '.join(known)})"
                )
            self.rules = [rule for rule in self.rules if rule.code in wanted]
        self.budget = budget

    def lint_paths(self, paths: Sequence[Path]) -> LintReport:
        """Lint files and/or directory trees."""
        report = LintReport(budget=self.budget)
        files: List[SourceFile] = []
        raw: List[Finding] = []
        for path in _collect_files(paths):
            source_file, parse_error = _load(path)
            if parse_error is not None:
                raw.append(parse_error)
                continue
            files.append(source_file)
        report.files_checked = len(files)

        for source_file in files:
            for rule in self.rules:
                if isinstance(rule, ProjectRule):
                    continue
                if not rule.applies_to(source_file.relpath):
                    continue
                for line, message in rule.check(source_file):
                    raw.append(
                        Finding(str(source_file.path), line, rule.code, message)
                    )
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                for found_in, line, message in rule.check_project(files):
                    raw.append(
                        Finding(str(found_in.path), line, rule.code, message)
                    )

        # Suppression pass, per file.
        by_path: Dict[str, Tuple[Dict[int, Set[str]], List]] = {}
        for source_file in files:
            by_path[str(source_file.path)] = _parse_suppressions(source_file.source)
        used_comment_lines: Dict[str, Set[int]] = {}
        for finding in sorted(raw):
            allowed, comments = by_path.get(finding.path, ({}, []))
            if finding.code in allowed.get(finding.line, set()):
                report.suppressed.append(finding)
                for comment_line, codes, covered in comments:
                    if finding.line in covered and finding.code in codes:
                        used_comment_lines.setdefault(finding.path, set()).add(
                            comment_line
                        )
            else:
                report.findings.append(finding)
        for path, (_allowed, comments) in sorted(by_path.items()):
            for comment_line, codes, _covered in comments:
                if comment_line not in used_comment_lines.get(path, set()):
                    report.unused_suppressions.append(
                        (path, comment_line, ", ".join(sorted(codes)))
                    )
        return report


def _render_text(report: LintReport, out: TextIO) -> None:
    for finding in sorted(report.findings):
        print(finding.render(), file=out)
    for path, line, codes in report.unused_suppressions:
        print(
            f"{path}:{line} warning: unused suppression [{codes}]", file=out
        )
    used = len(report.suppressed)
    print(
        f"checked {report.files_checked} file(s): "
        f"{len(report.findings)} finding(s), "
        f"{used} suppression(s) used (budget {report.budget})",
        file=out,
    )
    if report.over_budget:
        print(
            f"suppression budget exceeded: {used} > {report.budget} — "
            "fix findings instead of allowing them away",
            file=out,
        )


def _render_json(report: LintReport) -> str:
    document = {
        "files_checked": report.files_checked,
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "code": f.code,
                "message": f.message,
            }
            for f in sorted(report.findings)
        ],
        "suppressed": [
            {
                "path": f.path,
                "line": f.line,
                "code": f.code,
                "message": f.message,
            }
            for f in sorted(report.suppressed)
        ],
        "unused_suppressions": [
            {"path": path, "line": line, "codes": codes}
            for path, line, codes in report.unused_suppressions
        ],
        "suppression_budget": report.budget,
        "over_budget": report.over_budget,
        "exit_code": report.exit_code,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def run(
    paths: Optional[Sequence[str]] = None,
    select: Optional[Sequence[str]] = None,
    max_suppressions: Optional[int] = None,
    list_rules: bool = False,
    out: Optional[TextIO] = None,
    output_format: str = "text",
    output_path: Optional[str] = None,
) -> int:
    """Execute one lint run; returns the process exit code.

    Shared by ``repro-fvc lint`` and ``python -m repro.analysis``.
    ``output_format`` is ``text`` (human report), ``json`` (machine
    summary) or ``sarif`` (SARIF 2.1.0); the machine formats print only
    the document itself.  ``output_path`` writes the report to a file
    instead of ``out`` (exit code is unaffected).
    """
    out = out if out is not None else sys.stdout
    if output_format not in ("text", "json", "sarif"):
        raise ValueError(f"unknown lint output format: {output_format!r}")
    if list_rules:
        for rule in ALL_RULES:
            kind = "project" if isinstance(rule, ProjectRule) else "file"
            print(f"{rule.code}  [{kind}] {rule.title}", file=out)
            print(f"        scope: {rule.scope_description()}", file=out)
        return 0
    if not paths:
        default = Path("src")
        paths = [str(default if default.is_dir() else Path("."))]
    budget = (
        DEFAULT_SUPPRESSION_BUDGET if max_suppressions is None else max_suppressions
    )
    linter = Linter(budget=budget, select=select)
    report = linter.lint_paths([Path(p) for p in paths])

    if output_format == "sarif":
        from repro.analysis.sarif import render_sarif

        rendered = render_sarif(report, rules=linter.rules)
    elif output_format == "json":
        rendered = _render_json(report)
    else:
        rendered = None

    if rendered is not None:
        if output_path is not None:
            Path(output_path).write_text(rendered, encoding="utf-8")
        else:
            out.write(rendered)
    elif output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            _render_text(report, handle)
    else:
        _render_text(report, out)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Simulator-invariant linter (see docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/, else .)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="additional comma-separated rule codes (merged with --select)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--max-suppressions",
        type=int,
        default=None,
        metavar="N",
        help=f"suppression budget (default {DEFAULT_SUPPRESSION_BUDGET})",
    )
    return parser


def merge_selected_codes(
    select: Optional[str], rules: Optional[str]
) -> Optional[List[str]]:
    """Merge the ``--select`` and ``--rules`` code lists (either may be
    ``None``); returns ``None`` when neither was given (= run all)."""
    codes: List[str] = []
    for raw in (select, rules):
        if raw:
            codes.extend(c for c in (p.strip() for p in raw.split(",")) if c)
    return codes or None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    select = merge_selected_codes(args.select, args.rules)
    try:
        return run(
            paths=args.paths,
            select=select,
            max_suppressions=args.max_suppressions,
            list_rules=args.list_rules,
            output_format=args.output_format,
            output_path=args.output,
        )
    except ConfigurationError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        # Findings exit 1; an analyzer crash must be distinguishable
        # from "the tree has findings", so internal errors exit 2.
        print(f"lint: internal error: {exc}", file=sys.stderr)
        return 2
