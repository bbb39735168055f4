"""Fill the benchmark's trace cache once, then verify every entry.

    python3 perfbench/fill.py MARKER

Synthesises the test and train trace of every workload into
``$REPRO_TRACE_CACHE_DIR`` (a no-op for entries already there), checks
the directory with :meth:`repro.engine.trace_cache.TraceCache.verify`
and writes the outcome to ``MARKER``.  Exits 1 when any entry fails
the check.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

INPUTS = ("test", "train")


def main(marker: str) -> int:
    from repro.engine.trace_cache import TraceCache
    from repro.workloads.registry import workload_names

    cache = TraceCache(Path(os.environ["REPRO_TRACE_CACHE_DIR"]))
    for input_name in INPUTS:
        for name in workload_names():
            cache.ensure(name, input_name)
    verified = cache.verify()
    entries = sorted(path.name for path, _, _, _ in cache.entries())
    if verified["quarantined"] or verified["ok"] != len(entries):
        print(f"trace cache failed verification: {verified}", file=sys.stderr)
        return 1
    Path(marker).write_text(
        json.dumps({"verify": verified, "entries": entries}, sort_keys=True),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
