"""FLT rules: fault-injection coverage of hardened IO paths.

The robustness layer (``docs/ROBUSTNESS.md``) guarantees that every
byte the simulator persists or reloads can be failed on demand: each
durable-store read/write threads a named injection site
(:func:`repro.faults.sites.fault_point`) so the chaos suite can prove
the corruption/crash handling around it.  That guarantee is structural
— it holds only while the hardened modules keep routing their IO
through the enveloped helpers.  FLT001 pins the structure down.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.rules.base import Rule, SourceFile, dotted_name


class FaultPointCoverage(Rule):
    """FLT001 — direct payload IO in hardened modules must co-occur
    with a fault point.

    In the integrity-checked stores (trace cache, result store — the
    latter also behind ``run --checkpoint``) and the envelope helpers
    themselves, any function that opens, reads or writes payload files
    directly must also consult :func:`repro.faults.sites.fault_point`
    (directly, or via ``read_enveloped``/``write_enveloped``, which do).
    Otherwise the IO is invisible to fault plans: the chaos suite can no
    longer provoke — and therefore no longer proves — the failure
    handling around it.  Route payload bytes through
    :mod:`repro.common.integrity`, or call ``fault_point`` beside the
    raw IO.
    """

    code = "FLT001"
    title = "payload IO without a fault point in hardened modules"
    #: The modules whose IO the chaos suite must be able to fail.
    include = (
        "repro/common/integrity.py",
        "repro/engine/trace_cache.py",
        "repro/service/result_store.py",
    )

    #: Calls that move payload bytes to or from disk.
    _IO_CALLS = (
        "open",
        "os.fdopen",
        "gzip.open",
        "tempfile.mkstemp",
        "mkstemp",
    )
    _IO_METHODS = ("read_bytes", "write_bytes", "read_text", "write_text")

    #: Calls that make the function visible to fault plans.
    _GUARDS = ("fault_point", "read_enveloped", "write_enveloped")

    def check(self, source_file: SourceFile) -> Iterator[Tuple[int, str]]:
        for node in ast.walk(source_file.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            io_lines = []
            guarded = False
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                dotted = dotted_name(call.func)
                if dotted is None:
                    continue
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in self._GUARDS:
                    guarded = True
                elif dotted in self._IO_CALLS or (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in self._IO_METHODS
                ):
                    io_lines.append((call.lineno, dotted))
            if guarded:
                continue
            for lineno, dotted in io_lines:
                yield lineno, (
                    f"{dotted}() moves payload bytes without a fault "
                    "point: route the IO through repro.common.integrity "
                    "(read_enveloped/write_enveloped) or call "
                    "fault_point(<site>) in this function so chaos "
                    "plans can fail it"
                )
