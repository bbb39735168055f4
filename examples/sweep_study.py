#!/usr/bin/env python3
"""Declarative sweeps: one spec, three ways to run it.

A paper study is a grid — workloads x cache configurations, one arm
per curve.  ``repro.sweeps`` makes the grid a JSON document
(``sweep/v1``, see docs/SWEEPS.md) that expands deterministically into
simulation cells and aggregates into a report table:

1. run a catalogued study (``l1_size_study``) through the facade;
2. load the custom spec next to this script
   (``line_size_sweep.json``) and run it — the same file works with
   ``repro-fvc run examples/line_size_sweep.json`` and with
   ``POST /v1/sweeps``, byte-identically.

Run:  python examples/sweep_study.py
"""

import json
import pathlib

from repro import api


def main() -> None:
    # 1. The catalog: the cell grids of fig10/12/13/14 plus standalone
    #    studies, inspectable without running anything.
    print("catalogued sweeps:", ", ".join(api.list_sweeps()))
    shape = api.describe_sweep("l1_size_study", fast=True)
    print(
        f"l1_size_study (fast): {shape['points']} points over axes "
        f"{shape['axes']} with arms {shape['arms']}\n"
    )

    result = api.run_sweep("l1_size_study", fast=True)
    print(f"{result.name}: {result.points} points, "
          f"{result.distinct_cells} distinct cells")
    for row in result.rows:
        if row["workload"] == "m88ksim" and row["size_bytes"] == 16384:
            label = row["arm"]
            if row["arm"] == "fvc":
                label += f" top={row['top_values']}"
            print(f"  16KB {label:10s} "
                  f"miss rate {row['miss_rate_percent_mean']:6.3f}%")

    # 2. A custom spec from disk: line-size sensitivity with and
    #    without the FVC.  run_sweep accepts the parsed dict directly.
    spec = json.loads(
        (pathlib.Path(__file__).parent / "line_size_sweep.json").read_text()
    )
    study = api.run_sweep(spec)
    print(f"\n{study.name}: {study.points} points")
    print(study.to_csv(), end="")


if __name__ == "__main__":
    main()
