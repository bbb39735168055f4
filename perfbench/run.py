"""The repository's benchmark: paper experiments and served cell jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --describe           # the BENCHMARK.json object

A run starts fresh interpreters (``passes.py``), one pass at a time,
until the next pass would end after ``--seconds``; traced runs
alternate untraced and traced passes so that the tracing overhead is
measured too.  Set-up is timed in every pass and, when fewer than
:data:`SETUP_SAMPLES` passes ran, in set-up-only passes.  Each time is
divided by the host's slowdown that its pass sampled over the interval
it timed (``speed.py``).  Every payload is checked against its
reference.  The last line of standard output is the result object;
the exit code is 1 when any operation failed and 2 when the
repository to measure is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import spec
from stats import median, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
TRACE_DIR = WORK / "traces"
FILL_MARKER = WORK / "traces.json"

#: Set-up samples each run takes, counting its passes.
SETUP_SAMPLES = 3
#: Seconds after which a run stops its pass and fails.
RUN_TIMEOUT_S = 170.0


class PassFailed(Exception):
    """A pass process crashed or left no record."""


def repository_present() -> bool:
    return (ROOT / "src" / "repro").is_dir() and (
        ROOT / "tests" / "experiments" / "golden"
    ).is_dir()


def pass_env(backend: str, traced: bool) -> Dict[str, str]:
    """A clean environment: no inherited ``REPRO_*`` switch (fault
    plans, sanitizer, observability, cache overrides) reaches a pass,
    and string hashing is fixed, so set and dict layouts repeat."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_BACKEND": backend,
        "REPRO_TRACE_CACHE_DIR": str(TRACE_DIR),
        "REPRO_RESULT_STORE_DIR": str(WORK / "unused-result-store"),
    })
    if traced:
        env["REPRO_OBS"] = "1"
    return env


def fill_trace_cache() -> None:
    """Synthesise and verify the benchmark's traces once per checkout."""
    if FILL_MARKER.exists():
        return
    WORK.mkdir(parents=True, exist_ok=True)
    completed = subprocess.run(
        [sys.executable, str(HERE / "fill.py"), str(FILL_MARKER)],
        env=pass_env("python", False),
        timeout=800,
    )
    if completed.returncode != 0:
        raise PassFailed("filling the trace cache failed")


def provenance(workload: str) -> Dict[str, object]:
    """Where the figures come from: code, backend, interpreter, host."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "backend": spec.WORKLOADS[workload][0],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def one_pass(
    workload: str,
    traced: bool,
    seed: int,
    directory: Path,
    setup_only: bool,
    deadline: float,
) -> Dict:
    """Run one pass in a fresh interpreter and return its record.

    The pass gets a process group of its own, so the server and job
    processes of a served pass end with it even when it is killed.
    """
    directory.mkdir(parents=True)
    out = directory / "record.json"
    command = [
        sys.executable, str(HERE / "passes.py"), workload,
        "--out", str(out), "--seed", str(seed),
    ]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    backend = spec.WORKLOADS[workload][0]
    spawned_at = time.monotonic()
    process = subprocess.Popen(
        command, env=pass_env(backend, traced), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        output = b""
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0 or not out.exists():
        tail = output.decode("utf-8", "replace")[-2000:]
        raise PassFailed(f"{workload} pass exited {process.returncode}:\n{tail}")
    record = json.loads(out.read_text(encoding="utf-8"))
    if "setup_s" not in record:
        record["setup_s"] = record["timed_at"] - spawned_at
    record["wall_s"] = time.monotonic() - spawned_at
    return record


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, scratch: Path
) -> Dict:
    """Passes until the next one would overrun ``seconds``; returns the
    pass records and any failure that stopped the run."""
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    passes: List[Dict] = []
    probes: List[Dict] = []
    walls: List[float] = []
    error: Optional[str] = None
    minimum = 2 if traced else 1
    try:
        while True:
            traced_pass = traced and len(passes) % 2 == 1
            record = one_pass(
                workload, traced_pass, seed,
                scratch / f"pass-{len(passes)}", False, deadline,
            )
            passes.append(record)
            walls.append(record["wall_s"])
            elapsed = time.monotonic() - started
            if len(passes) >= minimum and elapsed + median(walls) > seconds:
                break
        while len(passes) + len(probes) < SETUP_SAMPLES:
            probes.append(one_pass(
                workload, False, seed,
                scratch / f"setup-{len(probes)}", True, deadline,
            ))
    except PassFailed as exc:
        error = str(exc)
    return {"passes": passes, "probes": probes, "error": error}


def end_to_end(
    passes: List[Dict], probes: List[Dict], scaled: bool = True
) -> Dict[str, float]:
    """The end-to-end metrics over the run's untraced passes: medians,
    and the job percentiles over every job the passes completed.

    With ``scaled``, each time is divided by the host's slowdown over
    the interval it timed (:mod:`speed`): seconds at the reference
    speed.
    """

    def factor(p: Dict, key: str = "slowdown") -> float:
        return p[key] if scaled else 1.0

    plain = [p for p in passes if not p["traced"]]
    metrics = {
        "setup_s": median([
            p["setup_s"] / factor(p, "setup_slowdown") for p in passes + probes
        ]),
        "run_s": median([p["run_s"] / factor(p) for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }
    jobs = [t / factor(p) for p in plain for t in p["jobs"]]
    if jobs:
        metrics.update({
            "jobs_per_s": len(jobs) / sum(p["run_s"] / factor(p) for p in plain),
            "job_p50_s": median(jobs),
            "job_p90_s": tail_percentile(jobs)[1],
        })
    return metrics


def per_layer(passes: List[Dict]) -> Dict[str, float]:
    """The per-layer metrics: medians over the traced passes; a layer
    the workload never enters reads 0."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name in spec.PER_LAYER:
        values = [p["layers"].get(name, 0) for p in traced]
        metrics[name] = median(values) if values else 0
    if traced and plain:
        metrics["obs.trace_overhead"] = median(
            [p["run_s"] / p["slowdown"] for p in traced]
        ) / median([p["run_s"] / p["slowdown"] for p in plain])
    return metrics


def unit_of(name: str) -> str:
    if name in spec.END_TO_END:
        return spec.END_TO_END[name][0]
    return spec.PER_LAYER[name]


def report(workload: str, outcome: Dict, traced: bool) -> Dict:
    """Print the human-readable lines and build the result object."""
    passes, probes = outcome["passes"], outcome["probes"]
    attempted = sum(p["ops"] for p in passes) or 1
    failures = [f for p in passes for f in p["failures"]]
    if outcome["error"]:
        failures.append(outcome["error"])
    for failure in failures:
        print(f"FAIL {workload}: {failure}")
    failed = min(len(failures), attempted)
    metrics: Dict[str, float] = {}
    if not outcome["error"] and passes:
        metrics = per_layer(passes) if traced else end_to_end(passes, probes)
    jobs = [t for p in passes if not p["traced"] for t in p["jobs"]]
    if jobs:
        percentile, _ = tail_percentile(jobs)
        print(
            f"{workload}: {len(passes)} pass(es), {len(probes)} set-up "
            f"probe(s); job_p90_s is the p{percentile:g} of {len(jobs)} jobs"
        )
    if passes:
        slowdowns = [p["slowdown"] for p in passes]
        print(
            f"{workload}: host slowdown {median(slowdowns):.4f} (passes: "
            + ", ".join(f"{s:.3f}" for s in slowdowns) + ")"
        )
    if metrics and not traced:
        wall = end_to_end(passes, probes, scaled=False)
        print(f"{workload}: unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items()
        ))
    print(f"{workload}: fail_ratio {failed / attempted:.6f} fraction "
          f"({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{workload}: {name} {value:.6g} {unit_of(name)}")
    if traced and metrics and workload != spec.SERVED:
        print(
            f"{workload}: accounting: layer self times sum to "
            f"{sum(metrics[name] for name in spec.SELF_TIMES):.6f} s of "
            f"obs.traced_run_s {metrics['obs.traced_run_s']:.6f} s"
        )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    """One benchmark run of one workload; returns the result object."""
    scratch = WORK / "runs" / f"{workload}-{os.getpid()}-{time.time_ns()}"
    try:
        fill_trace_cache()
        outcome = run_workload(workload, seed, seconds, traced, scratch)
    except PassFailed as exc:
        outcome = {"passes": [], "probes": [], "error": str(exc)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = report(workload, outcome, traced)
    passes, probes = outcome["passes"], outcome["probes"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "provenance": provenance(workload),
        "result": result,
        "passes": [
            {key: p.get(key) for key in (
                "traced", "setup_s", "setup_slowdown", "run_s", "slowdown",
            )}
            for p in passes + probes
        ],
        "unscaled": (
            end_to_end(passes, probes, scaled=False)
            if result["correct"] and passes and not traced else {}
        ),
    }
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(traced)}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(spec.describe(), indent=2))
        return 0
    if not repository_present():
        print(f"no repository to measure at {ROOT}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    correct = True
    for workload in workloads:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        correct = correct and result["correct"]
        if args.workload:
            print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
