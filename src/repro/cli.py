"""Command-line interface.

::

    repro-fvc list                      # workloads and experiments
    repro-fvc run fig10 [--fast]        # run one experiment
    repro-fvc run fig10 --jobs 4        # fan simulation cells across cores
    repro-fvc run all [--fast] [--jobs N]  # run everything, paper order
    repro-fvc run fig13 --scale test --sanitize  # with runtime invariants
    repro-fvc run fig13 --checkpoint DIR  # resumable: per-cell store entries
    repro-fvc run fig13 --faults 'trace_cache.read:io_error@1'  # chaos
    repro-fvc lint [paths...]           # simulator-invariant linter
    repro-fvc cache info|clear|verify   # on-disk trace cache maintenance
    repro-fvc trace gen gcc --input ref -o gcc.trc[.gz]  # columnar trace file
    repro-fvc profile gcc [--input ref] # FVL summary of one workload
    repro-fvc report gcc                # full S2-style locality report
    repro-fvc classify gcc --size-kb 16 # 3C miss classification
    repro-fvc reuse gcc                 # reuse-distance analysis
    repro-fvc simulate gcc --size-kb 16 --line 32 --fvc 512 --top 7

Sweep mode (see docs/SWEEPS.md) — declarative parameter studies::

    repro-fvc sweep list                      # catalogued sweeps
    repro-fvc sweep run l1_size_study --fast  # run + aggregated table
    repro-fvc sweep run spec.json --json      # canonical sweep.result/1
    repro-fvc sweep expand fig13 --fast       # show every planned cell
    repro-fvc sweep report fig14 --format csv -o fig14.csv
    repro-fvc run spec.json --json            # 'run' accepts spec files
    repro-fvc submit spec.json --wait         # POST /v1/sweeps + await

Service mode (see docs/SERVICE.md)::

    repro-fvc serve --port 8031 --workers 4   # run the job server
    repro-fvc submit fig10 --fast --wait      # submit + await a job
    repro-fvc status job-00001-abcdef12       # poll one job
    repro-fvc fetch <result-key>              # stored result payload

Cluster mode (see docs/CLUSTER.md) — ``serve`` doubles as the
coordinator; thin workers attach over the same ``/v1`` protocol::

    repro-fvc serve --port 8031               # coordinator
    repro-fvc worker --coordinator http://127.0.0.1:8031
    repro-fvc worker --coordinator ... --batch 4 --name lab-02

(Equivalent: ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.cache.geometry import CacheGeometry
from repro.engine.trace_cache import default_trace_cache
from repro.experiments.registry import (
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.experiments.common import (
    baseline_stats,
    classify_replay,
    fvc_replay,
    reduction_percent,
)
from repro.profiling.report import build_report
from repro.trace.io import write_trace
from repro.trace.stats import compute_stats
from repro.workloads.registry import ALL_WORKLOADS, get_workload
from repro.workloads.store import shared_store


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads:")
    for workload in ALL_WORKLOADS:
        inputs = ", ".join(sorted(workload.inputs()))
        print(f"  {workload.name:10s} ({workload.spec_analog}) inputs: {inputs}")
    print("experiments:")
    for experiment_id in experiment_ids():
        experiment = get_experiment(experiment_id)
        print(f"  {experiment_id:22s} {experiment.title}")
    return 0


#: The variables ``run --sanitize/--faults/--trace-out`` export.
_RUN_FLAG_VARS = ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_OBS_TRACE")


def _cmd_run(args: argparse.Namespace) -> int:
    # The flags export their settings so pool workers inherit them for
    # this run; afterwards the caller's process gets its own settings
    # back, so an in-process caller's later runs are neither sanitized,
    # faulted nor traced by this one's flags.
    saved = {name: os.environ.get(name) for name in _RUN_FLAG_VARS}
    try:
        return _run(args)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if args.faults:
            from repro import faults

            faults.reset()
        if args.trace_out:
            from repro.obs import tracing

            tracing.reset()


def _run(args: argparse.Namespace) -> int:
    from repro.experiments.render import (
        dumps_canonical,
        experiment_payload,
        multi_bar_chart,
        to_csv,
    )

    if args.json and (args.csv or args.chart):
        print("--json excludes --csv/--chart", file=sys.stderr)
        return 2

    spec_file = _sweep_spec_source(args.experiment)
    if spec_file and (args.checkpoint or args.chart):
        # A sweep runs without per-cell checkpoints and has no chart.
        print("a sweep spec file takes no --checkpoint/--chart", file=sys.stderr)
        return 2

    fast = args.fast or args.scale == "test"
    if args.sanitize:
        from repro.analysis import sanitize

        # The flag travels through the environment so pool workers
        # inherit it; checks stay observational, so output bytes match
        # an unsanitized run exactly.
        sanitize.enable()
    if args.faults:
        from repro.faults import FaultPlan, FaultSpecError, install

        try:
            plan = FaultPlan.parse(args.faults)
        except FaultSpecError as exc:
            print(f"--faults: {exc}", file=sys.stderr)
            return 2
        # Installed here for this process, exported so pool workers
        # and service children resolve the same plan from their own
        # (per-process) counters.
        install(plan)
        os.environ["REPRO_FAULTS"] = args.faults

    if args.trace_out:
        from repro.obs import tracing

        # The path travels through the environment so pool workers
        # append spans to the same file; span output never touches
        # stdout, which stays byte-identical to an untraced run.
        os.environ[tracing.ENV_VAR] = args.trace_out
        tracing.reset()

    if spec_file:
        # A sweep/v1 spec file runs the declarative sweep path
        # (docs/SWEEPS.md); malformed documents fail with an error
        # naming the sweep/v1 contract.
        if args.json:
            fmt = "json"
        elif args.csv:
            fmt = "csv"
        else:
            fmt = "table"
        code = _run_sweep_to(args.experiment, fast, args.jobs, fmt, None)
        if code == 0:
            _close_run_flags(args)
        return code

    checkpoint = None
    if args.checkpoint:
        from repro.service.result_store import checkpoint_store

        # One store for the whole invocation, so a cell two experiments
        # share is computed once.
        checkpoint = checkpoint_store(args.checkpoint)

    collected = []

    def show(experiment_id, result, elapsed):
        if args.json:
            # Collected and printed canonically at the end: one
            # payload object for a single experiment (byte-identical
            # to the service's stored result), an array for several.
            collected.append(experiment_payload(result))
            return
        if args.csv:
            print(to_csv(result), end="")
        else:
            print(result.format_table())
            if args.chart:
                print()
                print(multi_bar_chart(result))
        print(f"[{experiment_id} finished in {elapsed:.1f}s]\n")

    def finish() -> int:
        if args.json:
            document = collected[0] if len(collected) == 1 else collected
            sys.stdout.write(dumps_canonical(document))
        _close_run_flags(args)
        return 0

    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    if args.jobs > 1 and len(ids) > 1 and checkpoint is None:
        # Whole experiments fan across the pool; results print in
        # registry order regardless of completion order.  (With
        # --checkpoint, experiments run one by one below, their cells
        # fanned out, so every cell goes through the one store.)
        from repro.engine.runner import run_experiments

        started = time.perf_counter()
        results = run_experiments(
            ids, jobs=args.jobs, fast=fast, store=shared_store
        )
        elapsed = time.perf_counter() - started
        for experiment_id, result in zip(ids, results):
            show(experiment_id, result, elapsed / len(ids))
        if not args.json:
            print(f"[{len(ids)} experiments, {args.jobs} jobs, {elapsed:.1f}s]")
        return finish()
    for experiment_id in ids:
        started = time.perf_counter()
        if checkpoint is not None:
            hits, stores = checkpoint.hits, checkpoint.stores
        result = run_experiment(
            experiment_id, shared_store, fast=fast, jobs=args.jobs,
            checkpoint=checkpoint,
        )
        show(experiment_id, result, time.perf_counter() - started)
        if checkpoint is not None:
            # Stderr, so stdout stays byte-identical with and without
            # checkpointing.
            print(
                f"[checkpoint] {experiment_id}: restored "
                f"{checkpoint.hits - hits}, saved "
                f"{checkpoint.stores - stores} cell result(s) under "
                f"{checkpoint.directory}",
                file=sys.stderr,
            )
    return finish()


def _close_run_flags(args: argparse.Namespace) -> None:
    """Report a finished run's --sanitize and --trace-out on stderr, so
    stdout stays byte-identical to a run without them."""
    if args.sanitize:
        # A violation anywhere (any worker, any cell) raises out of the
        # run; reaching this line means every check held.
        print("[sanitize] simulator invariants held", file=sys.stderr)
    if args.trace_out:
        from repro.obs import tracing

        tracer = tracing.active()
        if tracer is not None:
            tracer.flush()
            print(
                f"[obs] {tracer.spans_recorded} span(s) from this "
                f"process appended to {args.trace_out}",
                file=sys.stderr,
            )


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.linter import merge_selected_codes
    from repro.analysis.linter import run as lint_run
    from repro.common.errors import ConfigurationError

    try:
        return lint_run(
            paths=args.paths,
            select=merge_selected_codes(args.select, args.rules),
            max_suppressions=args.max_suppressions,
            list_rules=args.list_rules,
            output_format=args.output_format,
            output_path=args.output,
        )
    except ConfigurationError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        # 0 clean / 1 findings / 2 analyzer crash.
        print(f"lint: internal error: {exc}", file=sys.stderr)
        return 2


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = default_trace_cache()
    if cache is None:
        print("trace cache disabled (REPRO_TRACE_CACHE=off)")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached trace(s) from {cache.directory}")
        return 0
    if args.action in ("verify", "fsck"):
        report = cache.verify()
        print(
            f"trace cache {cache.directory}: {report['checked']} checked, "
            f"{report['ok']} ok, {report['quarantined']} quarantined, "
            f"{report['tmp_removed']} stale temp file(s) removed"
        )
        # Non-zero when corruption was found: the entries were
        # quarantined (*.corrupt) and will regenerate on next use, but
        # CI and operators should notice.
        return 1 if report["quarantined"] else 0
    entries = cache.entries()
    print(f"trace cache: {cache.directory}")
    print(f"entries: {len(entries)}")
    total = 0
    # Sizes are bytes, matching the observability contract
    # (result_store_size_bytes and friends) — never KB.
    for path, workload, input_name, count in entries:
        size = path.stat().st_size
        total += size
        print(f"  {workload:10s} {input_name:6s} {count:>10,} accesses "
              f"{size:>12,} bytes")
    if entries:
        print(f"total: {total:,} bytes in {len(entries)} entr(y/ies)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    trace = workload.generate_trace(args.input)
    write_trace(trace, args.output)
    print(f"wrote {len(trace)} accesses to {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    trace = shared_store.get(args.workload, args.input)
    print(compute_stats(trace).format())
    return 0


def _cmd_profile_run(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.obs.profiling import profile_run, write_collapsed

    try:
        profile = profile_run(
            args.experiment, fast=args.fast, store=shared_store
        )
    except ConfigurationError as exc:
        print(f"profile-run: {exc}", file=sys.stderr)
        return 2
    output = args.output or f"{args.experiment}.folded"
    write_collapsed(profile, output, weight=args.weight)
    print(
        f"{args.experiment}: {len(profile.cells)} cell(s), "
        f"{profile.total_references:,} references in "
        f"{profile.elapsed_seconds:.2f}s "
        f"({profile.throughput():,.0f} refs/s)"
    )
    print(f"collapsed stacks ({args.weight} weights) written to {output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    trace = shared_store.get(args.workload, args.input)
    report = build_report(
        workload,
        args.input,
        trace=trace,
        include_occurrence=not args.no_occurrence,
    )
    print(report.format())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    trace = shared_store.get(args.workload, args.input)
    geometry = CacheGeometry(args.size_kb * 1024, args.line, ways=args.ways)
    result = classify_replay(trace, geometry)
    print(
        f"{geometry.describe()} on {args.workload}/{args.input}: "
        f"miss rate {100 * result.miss_rate:.3f}%"
    )
    for kind in ("compulsory", "capacity", "conflict"):
        count = getattr(result, kind)
        print(f"  {kind:10s} {count:8d} ({100 * result.fraction(kind):5.1f}%)")
    return 0


def _cmd_reuse(args: argparse.Namespace) -> int:
    from repro.profiling.reuse import (
        fvc_catchable_fraction,
        reuse_distance_profile,
    )

    trace = shared_store.get(args.workload, args.input)
    profile = reuse_distance_profile(trace, line_bytes=args.line)
    print(
        f"{args.workload}/{args.input}: {profile.total_accesses:,} accesses, "
        f"{profile.cold_accesses:,} cold"
    )
    for lines in (128, 256, 512, 1024, 2048):
        size_kb = lines * args.line / 1024
        print(
            f"  fully-assoc LRU {size_kb:6.1f} KB: miss rate "
            f"{100 * profile.miss_rate_at_capacity(lines):6.3f}%"
        )
    dmc_lines = args.size_kb * 1024 // args.line
    band = fvc_catchable_fraction(profile, dmc_lines, args.fvc)
    print(
        f"  accesses in the FVC-reachable band [{dmc_lines}, "
        f"{dmc_lines + args.fvc}) lines: {100 * band:.2f}% "
        "(x frequent-word fraction = catchable misses)"
    )
    print(f"  95%-reuse working set: "
          f"{profile.working_set_lines() * args.line / 1024:.1f} KB")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = shared_store.get(args.workload, args.input)
    geometry = CacheGeometry(args.size_kb * 1024, args.line)
    base = baseline_stats(trace, geometry)
    fvc = extras = None
    if args.fvc:
        fvc, extras = fvc_replay(trace, geometry, args.fvc, args.top)
    if args.json:
        from repro.experiments.render import dumps_canonical

        payload = {
            "schema": "repro.simulate/1",
            "workload": args.workload,
            "input": args.input,
            "geometry": {
                "size_bytes": geometry.size_bytes,
                "line_bytes": geometry.line_bytes,
                "ways": geometry.ways,
            },
            "baseline": base.as_dict(),
            "fvc": None,
        }
        if fvc is not None:
            payload["fvc"] = {
                "entries": args.fvc,
                "top_values": args.top,
                "stats": fvc.as_dict(),
                "fvc_hits": extras["fvc_hits"],
                "reduction_percent": round(
                    reduction_percent(base, fvc), 3
                ),
            }
        sys.stdout.write(dumps_canonical(payload))
        return 0
    print(
        f"{geometry.describe()} baseline: "
        f"miss rate {100 * base.miss_rate:.3f}%, "
        f"traffic {base.traffic_words} words"
    )
    if fvc is not None:
        print(
            f"+ {args.fvc}-entry top-{args.top} FVC: "
            f"miss rate {100 * fvc.miss_rate:.3f}% "
            f"({reduction_percent(base, fvc):.1f}% reduction), "
            f"traffic {fvc.traffic_words} words, "
            f"FVC hits {extras['fvc_hits']}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.server import ServiceConfig, serve

    return serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            job_timeout=args.timeout if args.timeout > 0 else None,
            max_retries=args.retries,
            max_queue_depth=(
                args.max_queue_depth if args.max_queue_depth > 0 else None
            ),
            store_dir=Path(args.store_dir) if args.store_dir else None,
            store_capacity=args.capacity,
            quiet=not args.verbose,
            cluster_worker_ttl=args.worker_ttl,
            state_dir=Path(args.state_dir) if args.state_dir else None,
            state_quota_bytes=(
                args.state_quota_bytes if args.state_quota_bytes > 0 else None
            ),
        )
    )


def _cmd_journal(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.journal import Journal, recover

    directory = Path(args.state_dir)
    if not directory.is_dir():
        print(f"journal: no state directory at {directory}", file=sys.stderr)
        return 1
    journal = Journal(directory, fsync=False)
    if args.action in ("verify", "fsck"):
        report = journal.sweep()
        print(
            f"journal {directory}: {report['records_ok']} record(s) ok, "
            f"{report['torn_bytes']} torn byte(s), "
            f"{report['quarantined']} quarantined, "
            f"{report['tmp_removed']} stale temp file(s) removed, "
            f"snapshot {'ok' if report['snapshot_ok'] else 'quarantined'}"
        )
        # Same contract as `cache fsck`: corruption was contained
        # (*.corrupt files, tail truncated) but CI and operators
        # should notice.
        return 1 if report["quarantined"] else 0
    # info: replay read-only and summarise what a restart would restore.
    recovered = recover(journal)
    stats = journal.stats()
    print(f"journal: {directory}")
    print(
        f"records: seq high-water {stats['seq']}, "
        f"{stats['tail_records']} past the snapshot, "
        f"{stats['size_bytes']:,} bytes on disk"
    )
    states: dict = {}
    for job in recovered.jobs:
        states[job.state] = states.get(job.state, 0) + 1
    summary = ", ".join(
        f"{count} {state}" for state, count in sorted(states.items())
    )
    print(f"jobs: {len(recovered.jobs)} ({summary})" if recovered.jobs
          else "jobs: 0")
    print(
        f"scheduler: worker serial {recovered.worker_serial}, "
        f"lease serial {recovered.lease_serial}, "
        f"clock epoch {recovered.epoch:.3f}s"
    )
    if recovered.torn:
        print("warning: torn tail detected (run `journal fsck` to "
              "quarantine and truncate)")
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.cluster.worker import WorkerConfig, run_worker

    return run_worker(
        WorkerConfig(
            coordinator=args.coordinator,
            name=args.name,
            batch=args.batch,
            poll=args.poll,
            timeout=args.timeout,
            max_cells=args.max_cells if args.max_cells > 0 else None,
            once=args.once,
        )
    )


def _print_json(payload) -> None:
    from repro.experiments.render import dumps_canonical

    sys.stdout.write(dumps_canonical(payload))


def _sweep_spec_source(token: str) -> bool:
    """Whether a CLI experiment/sweep argument names a spec *file*.

    Catalogued ids never contain a path separator or a ``.json``
    suffix, so anything that does (or that exists on disk) is read as
    a ``sweep/v1`` document.
    """
    return (
        token.endswith(".json")
        or os.path.sep in token
        or os.path.isfile(token)
    )


def _resolve_cli_sweep(token: str, fast: bool):
    """A normalised sweep spec from a catalog name or a JSON file.

    Raises :class:`repro.common.errors.ConfigurationError` (message
    names ``sweep/v1``) for malformed files and unknown names.
    """
    from repro.sweeps.catalog import get_sweep
    from repro.sweeps.spec import load_sweep_file

    if _sweep_spec_source(token):
        return load_sweep_file(token)
    return get_sweep(token, fast=fast)


def _format_sweep_table(headers, rows) -> str:
    """The aggregated report as an aligned plain-text table."""
    cells = [[str(header) for header in headers]]
    for row in rows:
        cells.append(["" if row[h] is None else str(row[h]) for h in headers])
    widths = [
        max(len(line[column]) for line in cells)
        for column in range(len(headers))
    ]
    lines = []
    for index, line in enumerate(cells):
        lines.append(
            "  ".join(
                value.ljust(width) for value, width in zip(line, widths)
            ).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _emit_sweep(payload, fmt: str, output) -> int:
    """Write one assembled ``sweep.result/1`` payload as ``fmt``."""
    from repro.experiments.render import dumps_canonical
    from repro.sweeps.report import render_csv, render_html

    if fmt == "json":
        text = dumps_canonical(payload)
    elif fmt == "csv":
        text = render_csv(payload["headers"], payload["rows"])
    elif fmt == "html":
        title = payload["sweep"].get("title", payload["sweep"]["name"])
        text = render_html(title, payload["headers"], payload["rows"])
    else:
        text = _format_sweep_table(payload["headers"], payload["rows"]) + "\n"
    if output:
        from pathlib import Path

        Path(output).write_text(text, encoding="utf-8")
        print(f"[sweep] wrote {fmt} report to {output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _run_sweep_to(token, fast, jobs, fmt, output) -> int:
    """Resolve, execute and emit one sweep (shared by ``sweep run``,
    ``sweep report`` and ``run <spec.json>``)."""
    from repro.common.errors import ConfigurationError
    from repro.sweeps.runner import run_sweep

    try:
        spec = _resolve_cli_sweep(token, fast)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = run_sweep(spec, store=shared_store, jobs=jobs)
    return _emit_sweep(payload, fmt, output)


def _cmd_sweep_list(_args: argparse.Namespace) -> int:
    from repro.sweeps.catalog import get_sweep, sweep_names

    for name in sweep_names():
        spec = get_sweep(name)
        axes = ", ".join(
            f"{axis}[{len(values)}]" for axis, values in spec["axes"].items()
        )
        print(f"  {name:22s} {len(spec['arms'])} arm(s) x {axes}")
    return 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    if args.json:
        fmt = "json"
    elif args.csv:
        fmt = "csv"
    else:
        fmt = "table"
    return _run_sweep_to(args.sweep, args.fast, args.jobs, fmt, None)


def _cmd_sweep_expand(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.sweeps.expand import expand
    from repro.sweeps.runner import describe_sweep

    try:
        spec = _resolve_cli_sweep(args.sweep, args.fast)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    description = describe_sweep(spec)
    print(
        f"{description['name']}  sweep_id={description['sweep_id']}  "
        f"points={description['points']}  "
        f"distinct_cells={description['distinct_cells']}"
    )
    for point in expand(spec):
        coords = " ".join(
            f"{axis}={value}" for axis, value in point.coords.items()
        )
        cell = point.cell
        print(
            f"  #{point.index:<4d} {point.arm:12s} {coords}  -> "
            f"{cell.kind} {cell.workload}/{cell.input_name} "
            f"{cell.size_bytes}B/{cell.line_bytes}B/{cell.ways}w"
            + (
                f" fvc={cell.fvc_entries} top={cell.top_values}"
                if cell.kind == "fvc"
                else ""
            )
        )
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    return _run_sweep_to(
        args.sweep, args.fast, args.jobs, args.format, args.output
    )


def _submit_sweep(client, args: argparse.Namespace) -> int:
    """``submit <spec.json>``: POST the sweep and (with ``--wait``)
    print the assembled payload — byte-identical to a local
    ``sweep run --json`` of the same spec."""
    from repro.common.errors import ConfigurationError
    from repro.experiments.render import dumps_canonical
    from repro.service.client import JobFailed, ServiceError
    from repro.sweeps.spec import load_sweep_file

    try:
        spec = load_sweep_file(args.experiment)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        view = client.submit_sweep(spec)
        if not args.wait:
            _print_json(view)
            return 0
        view = client.wait_sweep(view["sweep_id"], timeout=args.timeout)
        sys.stdout.write(dumps_canonical(view["result"]))
        return 0
    except JobFailed as exc:
        _print_json(exc.job)
        return 1
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import JobFailed, ServiceClient, ServiceError
    from repro.service.resilience import CircuitBreaker, RetryPolicy

    # The CLI opts into client-side degradation: transient failures
    # (connection errors, 503 shedding) retry with seeded jittered
    # backoff, and a clearly-down service fails fast.
    client = ServiceClient(
        args.url,
        retry=RetryPolicy(retries=args.retries) if args.retries > 0 else None,
        breaker=CircuitBreaker(),
    )
    if _sweep_spec_source(args.experiment):
        return _submit_sweep(client, args)
    try:
        job = client.submit_experiment(args.experiment, fast=args.fast)
        if not args.wait:
            _print_json(job)
            return 0
        if job.get("state") != "done":
            job = client.wait(job["id"], timeout=args.timeout)
        # Print the stored payload byte-exactly, so `submit --wait`
        # output equals `run --json` output for the same experiment.
        sys.stdout.write(client.result_bytes(job["result_key"]).decode())
        return 0
    except JobFailed as exc:
        _print_json(exc.job)
        return 1
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        _print_json(ServiceClient(args.url).status(args.job_id))
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        payload = ServiceClient(args.url).result_bytes(args.key)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(payload.decode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-fvc",
        description="Frequent value locality / FVC reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser(
        "run",
        help="run one experiment (or 'all', or a sweep/v1 spec file)",
    )
    run.add_argument(
        "experiment",
        help="experiment id, e.g. fig10, 'all', or a sweep/v1 spec "
        "file (.json)",
    )
    run.add_argument(
        "--fast", action="store_true", help="reduced configuration (tests)"
    )
    run.add_argument(
        "--scale",
        choices=("test", "full"),
        default="full",
        help="configuration scale: 'test' is an alias for --fast, "
        "'full' the paper-scale sweep (default)",
    )
    run.add_argument(
        "--sanitize",
        action="store_true",
        help="enable runtime invariant checks (repro.analysis.sanitize) "
        "on every simulation cell; output bytes are unchanged",
    )
    run.add_argument(
        "--chart", action="store_true", help="append an ASCII bar chart"
    )
    run.add_argument(
        "--csv", action="store_true", help="emit CSV instead of the table"
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical JSON payload (the format the service "
        "result store persists) instead of the table",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes: fans simulation cells (single experiment) "
        "or whole experiments ('all') across cores; results are "
        "bit-identical to --jobs 1",
    )
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="keep each finished cell as a result-store entry in DIR "
        "(DIR/<key>.json, one store for every experiment of the run) "
        "and resume from them: an interrupted run re-executes only the "
        "missing cells, bit-identical to an uninterrupted run; DIR also "
        "works as 'serve --store-dir' (see docs/ROBUSTNESS.md)",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault-injection plan, e.g. "
        "'trace_cache.read:io_error@1;seed=7' (equivalent to "
        "REPRO_FAULTS=SPEC; grammar in docs/ROBUSTNESS.md)",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="append structured spans (canonical JSONL, one per span) "
        "to FILE: engine cells, trace-cache resolutions, checkpoint "
        "loads and saves (equivalent to REPRO_OBS_TRACE=FILE; stdout "
        "bytes are unchanged — see docs/OBSERVABILITY.md)",
    )
    run.set_defaults(func=_cmd_run)

    lint = sub.add_parser(
        "lint",
        help="run the simulator-invariant linter (see docs/ANALYSIS.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/, else .)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="additional comma-separated rule codes (merged with --select)",
    )
    lint.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    lint.add_argument(
        "--max-suppressions",
        type=int,
        default=None,
        metavar="N",
        help="suppression budget (default 5)",
    )
    lint.set_defaults(func=_cmd_lint)

    cache = sub.add_parser(
        "cache", help="inspect, clear, or integrity-check the on-disk "
        "trace cache"
    )
    cache.add_argument(
        "action",
        choices=("info", "clear", "verify", "fsck"),
        help="'verify' (alias 'fsck') checks every entry's sha256 "
        "envelope, quarantines corrupt ones as *.corrupt, and sweeps "
        "stale temp files; exits 1 when corruption was found",
    )
    cache.set_defaults(func=_cmd_cache)

    trace = sub.add_parser("trace", help="generate a trace file")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_gen = trace_sub.add_parser(
        "gen",
        help="generate and save a trace file "
        "(also: 'trace <workload> ...' without the 'gen')",
    )
    trace_gen.add_argument("workload")
    trace_gen.add_argument("--input", default="ref")
    trace_gen.add_argument(
        "-o",
        "--output",
        required=True,
        help="columnar trace file, whatever its suffix (gzip-compressed "
        "when it ends in .gz)",
    )
    trace_gen.set_defaults(func=_cmd_trace)

    profile = sub.add_parser("profile", help="frequent value summary")
    profile.add_argument("workload")
    profile.add_argument("--input", default="ref")
    profile.set_defaults(func=_cmd_profile)

    profile_run = sub.add_parser(
        "profile-run",
        help="profile one experiment cell by cell and emit a "
        "flamegraph-compatible collapsed-stack file "
        "(see docs/OBSERVABILITY.md)",
    )
    profile_run.add_argument(
        "experiment", help="a decomposable experiment id, e.g. fig13"
    )
    profile_run.add_argument(
        "--fast", action="store_true", help="reduced configuration (tests)"
    )
    profile_run.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="collapsed-stack output path (default <experiment>.folded)",
    )
    profile_run.add_argument(
        "--weight",
        choices=("refs", "micros"),
        default="refs",
        help="stack weights: deterministic trace-reference counts "
        "('refs', default) or measured microseconds ('micros')",
    )
    profile_run.set_defaults(func=_cmd_profile_run)

    report = sub.add_parser("report", help="full S2-style FVL report")
    report.add_argument("workload")
    report.add_argument("--input", default="ref")
    report.add_argument(
        "--no-occurrence",
        action="store_true",
        help="skip the live-memory occurrence study",
    )
    report.set_defaults(func=_cmd_report)

    classify = sub.add_parser("classify", help="3C miss classification")
    classify.add_argument("workload")
    classify.add_argument("--input", default="ref")
    classify.add_argument("--size-kb", type=int, default=16)
    classify.add_argument("--line", type=int, default=32)
    classify.add_argument("--ways", type=int, default=1)
    classify.set_defaults(func=_cmd_classify)

    reuse = sub.add_parser("reuse", help="reuse-distance analysis")
    reuse.add_argument("workload")
    reuse.add_argument("--input", default="ref")
    reuse.add_argument("--line", type=int, default=32)
    reuse.add_argument("--size-kb", type=int, default=16)
    reuse.add_argument("--fvc", type=int, default=512)
    reuse.set_defaults(func=_cmd_reuse)

    simulate = sub.add_parser("simulate", help="simulate one configuration")
    simulate.add_argument("workload")
    simulate.add_argument("--input", default="ref")
    simulate.add_argument("--size-kb", type=int, default=16)
    simulate.add_argument("--line", type=int, default=32)
    simulate.add_argument("--fvc", type=int, default=0, help="FVC entries")
    simulate.add_argument("--top", type=int, default=7, choices=(1, 3, 7))
    simulate.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON document instead of text",
    )
    simulate.set_defaults(func=_cmd_simulate)

    serve = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP JSON API, job queue, "
        "persistent result store); see docs/SERVICE.md",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8031)
    serve.add_argument(
        "--workers", type=int, default=2, metavar="K",
        help="local worker processes, and dispatcher threads running "
        "jobs on them (default 2)",
    )
    serve.add_argument(
        "--timeout", type=float, default=600.0,
        help="every task lease's deadline in seconds: a task still "
        "running then is killed or revoked and re-issued; 0 disables "
        "(default 600)",
    )
    serve.add_argument(
        "--retries", type=int, default=2,
        help="re-issues of a task whose attempt was lost to a crash, "
        "a timeout or a lost worker (default 2)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=256, metavar="N",
        help="pending-queue bound before submissions shed with 503 "
        "+ Retry-After; 0 disables the bound (default 256)",
    )
    serve.add_argument(
        "--store-dir", default=None,
        help="result-store directory (default "
        "$REPRO_RESULT_STORE_DIR or ~/.cache/repro-fvc/results)",
    )
    serve.add_argument(
        "--capacity", type=int, default=512,
        help="result-store entry capacity; at capacity, TinyLFU "
        "frequency admission decides what stays (default 512)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.add_argument(
        "--worker-ttl", type=float, default=10.0, metavar="S",
        help="cluster: seconds a silent remote worker stays registered; "
        "workers heartbeat at a third of this (default 10)",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="control-plane durability: write-ahead journal + snapshot "
        "directory; a restarted coordinator recovers every accepted "
        "job from it (default: no journal)",
    )
    serve.add_argument(
        "--state-quota-bytes", type=int, default=0, metavar="N",
        help="byte budget over journal + snapshot; at the budget new "
        "submissions shed with 503 + Retry-After; 0 = unbounded "
        "(default)",
    )
    serve.set_defaults(func=_cmd_serve)

    journal = sub.add_parser(
        "journal",
        help="inspect or fsck a serve --state-dir write-ahead journal; "
        "see docs/ROBUSTNESS.md",
    )
    journal.add_argument(
        "action", choices=("info", "verify", "fsck"),
        help="info: replay read-only and summarise recoverable state; "
        "verify/fsck: envelope-check every record, quarantine a "
        "torn/corrupt tail and a corrupt snapshot (exit 1 when "
        "anything was quarantined)",
    )
    journal.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="the serve --state-dir to inspect",
    )
    journal.set_defaults(func=_cmd_journal)

    worker = sub.add_parser(
        "worker",
        help="run a thin cluster worker attached to a coordinator "
        "(registers, heartbeats, leases simulation tasks over /v1); "
        "see docs/CLUSTER.md",
    )
    worker.add_argument(
        "--coordinator", required=True, metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8031",
    )
    worker.add_argument(
        "--name", default="worker",
        help="worker display name in GET /v1/workers (default 'worker')",
    )
    worker.add_argument(
        "--batch", type=int, default=2, metavar="N",
        help="task leases pulled per request (default 2)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="seconds the coordinator holds an empty lease request "
        "open, and the back-off after a failed one (default 0.5)",
    )
    worker.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="per-request HTTP timeout (default 30)",
    )
    worker.add_argument(
        "--max-cells", type=int, default=0, metavar="N",
        help="exit after N completed tasks; 0 = unbounded (default)",
    )
    worker.add_argument(
        "--once", action="store_true",
        help="exit once the coordinator drains (after completing at "
        "least one task); for tests and benchmarks",
    )
    worker.set_defaults(func=_cmd_worker)

    url_help = (
        "service URL (default $REPRO_SERVICE_URL or http://127.0.0.1:8031)"
    )
    submit = sub.add_parser(
        "submit",
        help="submit an experiment job (or a sweep/v1 spec file) to a "
        "running service",
    )
    submit.add_argument(
        "experiment",
        help="experiment id, e.g. fig10, or a sweep/v1 spec file (.json; "
        "posted to /v1/sweeps)",
    )
    submit.add_argument("--fast", action="store_true")
    submit.add_argument("--url", default=None, help=url_help)
    submit.add_argument(
        "--wait", action="store_true",
        help="block until done and print the result payload "
        "(byte-identical to `run --json`)",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="--wait poll limit in seconds (default 300)",
    )
    submit.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="client-side retries for transient failures (connection "
        "errors, 503 shedding) with jittered backoff; 0 disables "
        "(default 3)",
    )
    submit.set_defaults(func=_cmd_submit)

    sweep = sub.add_parser(
        "sweep",
        help="declarative sweep matrix: run, expand, report, list "
        "(sweep/v1; see docs/SWEEPS.md)",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_help = "catalogued sweep name (see 'sweep list') or spec file (JSON)"
    fast_help = (
        "use the catalogued sweep's reduced variant (spec files carry "
        "their own scale)"
    )
    jobs_help = (
        "worker processes for the distinct cells; payload bytes are "
        "identical for any value"
    )
    sweep_list = sweep_sub.add_parser(
        "list", help="list the catalogued sweeps"
    )
    sweep_list.set_defaults(func=_cmd_sweep_list)
    sweep_run = sweep_sub.add_parser(
        "run", help="run one sweep locally and print its report"
    )
    sweep_run.add_argument("sweep", help=sweep_help)
    sweep_run.add_argument("--fast", action="store_true", help=fast_help)
    sweep_run.add_argument(
        "--jobs", type=int, default=1, metavar="N", help=jobs_help
    )
    sweep_run.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical sweep.result/1 payload (byte-identical "
        "to what POST /v1/sweeps stores for the same spec)",
    )
    sweep_run.add_argument(
        "--csv", action="store_true", help="emit CSV instead of the table"
    )
    sweep_run.set_defaults(func=_cmd_sweep_run)
    sweep_expand = sweep_sub.add_parser(
        "expand",
        help="show a sweep's expansion (every point and its cell) "
        "without running anything",
    )
    sweep_expand.add_argument("sweep", help=sweep_help)
    sweep_expand.add_argument("--fast", action="store_true", help=fast_help)
    sweep_expand.set_defaults(func=_cmd_sweep_expand)
    sweep_report = sweep_sub.add_parser(
        "report",
        help="run one sweep and write its aggregated report",
    )
    sweep_report.add_argument("sweep", help=sweep_help)
    sweep_report.add_argument("--fast", action="store_true", help=fast_help)
    sweep_report.add_argument(
        "--jobs", type=int, default=1, metavar="N", help=jobs_help
    )
    sweep_report.add_argument(
        "--format",
        choices=("table", "csv", "html", "json"),
        default="csv",
        help="report format (default: csv)",
    )
    sweep_report.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    sweep_report.set_defaults(func=_cmd_sweep_report)

    status = sub.add_parser("status", help="show one service job")
    status.add_argument("job_id")
    status.add_argument("--url", default=None, help=url_help)
    status.set_defaults(func=_cmd_status)

    fetch = sub.add_parser(
        "fetch", help="fetch a stored result payload by key"
    )
    fetch.add_argument("key", help="result key (see job 'result_key')")
    fetch.add_argument("--url", default=None, help=url_help)
    fetch.set_defaults(func=_cmd_fetch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    # Back-compat: 'trace <workload> ...' predates the 'gen'
    # subcommand and keeps working as shorthand for 'trace gen <workload>'.
    if (
        len(argv) >= 2
        and argv[0] == "trace"
        and argv[1] not in ("gen", "-h", "--help")
    ):
        argv = [argv[0], "gen", *argv[1:]]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: the
        # conventional quiet exit, not a traceback.  Point stdout at
        # devnull so interpreter shutdown does not re-raise on flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
