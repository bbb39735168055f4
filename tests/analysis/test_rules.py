"""Each lint rule against fixture trees that violate it, asserting the
exact code and line of every finding plus suppression behaviour."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.linter import Linter


def _lint(tmp_path: Path, files: dict, select=None):
    root = tmp_path / "repro"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return Linter(select=select).lint_paths([root])


def _codes_lines(report):
    return sorted((f.code, f.line) for f in report.findings)


class TestDet001Randomness:
    def test_import_and_calls(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "fvc/cache.py": """\
                import random

                def jitter():
                    return random.random()
                """
            },
            select=["DET001"],
        )
        assert _codes_lines(report) == [("DET001", 1), ("DET001", 4)]

    def test_os_urandom_and_uuid4(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "engine/ids.py": """\
                import os
                import uuid

                def fresh():
                    return os.urandom(8), uuid.uuid4()
                """
            },
            select=["DET001"],
        )
        assert _codes_lines(report) == [("DET001", 5), ("DET001", 5)]

    def test_from_import(self, tmp_path):
        report = _lint(
            tmp_path,
            {"trace/gen.py": "from random import randint\n"},
            select=["DET001"],
        )
        assert _codes_lines(report) == [("DET001", 1)]

    def test_rng_module_exempt(self, tmp_path):
        report = _lint(
            tmp_path,
            {"common/rng.py": "import random\n"},
            select=["DET001"],
        )
        assert report.findings == []

    def test_suppression(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "service/jobs.py": (
                    "import uuid\n"
                    "ID = uuid.uuid4().hex  # repro: allow[DET001] not a result\n"
                )
            },
            select=["DET001"],
        )
        # `import uuid` alone is fine (only uuid1/uuid4 calls draw
        # entropy); the call on line 2 is suppressed.
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].line == 2


class TestDet002UnorderedIteration:
    def test_for_over_set_literal(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "cache/scan.py": """\
                def scan():
                    for x in {1, 2, 3}:
                        yield x
                """
            },
            select=["DET002"],
        )
        assert _codes_lines(report) == [("DET002", 2)]

    def test_list_over_set_call(self, tmp_path):
        report = _lint(
            tmp_path,
            {"fvc/order.py": "def f(xs):\n    return list(set(xs))\n"},
            select=["DET002"],
        )
        assert _codes_lines(report) == [("DET002", 2)]

    def test_comprehension_over_set(self, tmp_path):
        report = _lint(
            tmp_path,
            {"engine/c.py": "def f(xs):\n    return [x for x in set(xs)]\n"},
            select=["DET002"],
        )
        assert _codes_lines(report) == [("DET002", 2)]

    def test_id_call(self, tmp_path):
        report = _lint(
            tmp_path,
            {"workloads/memo.py": "def key(obj):\n    return id(obj)\n"},
            select=["DET002"],
        )
        assert _codes_lines(report) == [("DET002", 2)]

    def test_sorted_set_is_fine(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "cache/ok.py": """\
                def f(xs):
                    for x in sorted(set(xs)):
                        yield x
                    return 3 in {1, 2, 3}
                """
            },
            select=["DET002"],
        )
        assert report.findings == []

    def test_out_of_scope_paths_unchecked(self, tmp_path):
        report = _lint(
            tmp_path,
            {"experiments/fig99.py": "for x in {1, 2}:\n    pass\n"},
            select=["DET002"],
        )
        assert report.findings == []


class TestDet003WallClock:
    def test_time_time_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {"engine/runner.py": "import time\nNOW = time.time()\n"},
            select=["DET003"],
        )
        assert _codes_lines(report) == [("DET003", 2)]

    def test_datetime_now_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "experiments/stamp.py": (
                    "import datetime\nT = datetime.datetime.now()\n"
                )
            },
            select=["DET003"],
        )
        assert _codes_lines(report) == [("DET003", 2)]

    def test_perf_counter_allowed(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "cli.py": (
                    "import time\n"
                    "T0 = time.perf_counter()\n"
                    "M = time.monotonic()\n"
                )
            },
            select=["DET003"],
        )
        assert report.findings == []

    def test_service_exempt(self, tmp_path):
        report = _lint(
            tmp_path,
            {"service/jobs.py": "import time\nNOW = time.time()\n"},
            select=["DET003"],
        )
        assert report.findings == []


class TestApi001CanonicalJson:
    def test_json_dumps_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "service/server.py": (
                    "import json\n"
                    "def body(payload):\n"
                    "    return json.dumps(payload).encode()\n"
                )
            },
            select=["API001"],
        )
        assert _codes_lines(report) == [("API001", 3)]

    def test_from_json_import_dumps_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {"service/x.py": "from json import dumps\n"},
            select=["API001"],
        )
        assert _codes_lines(report) == [("API001", 1)]

    def test_json_loads_is_fine(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "service/reader.py": (
                    "import json\n"
                    "def parse(raw):\n"
                    "    return json.loads(raw)\n"
                )
            },
            select=["API001"],
        )
        assert report.findings == []

    def test_outside_service_unchecked(self, tmp_path):
        report = _lint(
            tmp_path,
            {"experiments/render.py": "import json\nX = json.dumps({})\n"},
            select=["API001"],
        )
        assert report.findings == []


class TestStat001Counters:
    def test_undeclared_self_counter(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "cache/victim.py": """\
                class VictimCache:
                    def __init__(self):
                        self.hits = 0

                    def access(self):
                        self.hits += 1
                        self.probes += 1
                """
            },
            select=["STAT001"],
        )
        assert _codes_lines(report) == [("STAT001", 7)]
        assert "self.probes" in report.findings[0].message

    def test_unknown_stats_field(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "fvc/extra.py": """\
                class Sim:
                    def __init__(self, stats):
                        self.stats = stats

                    def touch(self):
                        self.stats.read_hits += 1
                        self.stats.bogus_counter += 1
                """
            },
            select=["STAT001"],
        )
        assert _codes_lines(report) == [("STAT001", 7)]
        assert "bogus_counter" in report.findings[0].message

    def test_slots_declaration_counts(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "cache/slotted.py": """\
                class Slotted:
                    __slots__ = ("fills",)

                    def access(self):
                        self.fills += 1
                """
            },
            select=["STAT001"],
        )
        assert report.findings == []

    def test_real_cachestats_fields_pass(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "cache/ok.py": """\
                class Sim:
                    def __init__(self, stats):
                        self.stats = stats
                        self.local = 0

                    def hit(self):
                        self.stats.read_hits += 1
                        self.stats.writeback_words += 4
                        self.local += 1
                """
            },
            select=["STAT001"],
        )
        assert report.findings == []


class TestFlt001FaultCoverage:
    def test_unguarded_open_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "engine/trace_cache.py": """\
                def load(path):
                    with open(path, "rb") as handle:
                        return handle.read()
                """
            },
            select=["FLT001"],
        )
        assert _codes_lines(report) == [("FLT001", 2)]
        assert "fault" in report.findings[0].message

    def test_unguarded_write_bytes_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "service/result_store.py": """\
                def save(path, payload):
                    path.write_bytes(payload)
                """
            },
            select=["FLT001"],
        )
        assert _codes_lines(report) == [("FLT001", 2)]

    def test_enveloped_helpers_count_as_guards(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "engine/trace_cache.py": """\
                from repro.common.integrity import read_enveloped

                def load(path):
                    return read_enveloped(path, site="trace_cache.read")
                """
            },
            select=["FLT001"],
        )
        assert report.findings == []

    def test_fault_point_beside_raw_io_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "service/result_store.py": """\
                from repro.faults.sites import fault_point

                def read_raw(path):
                    fault_point("result_store.read")
                    with open(path, "rb") as handle:
                        return handle.read()
                """
            },
            select=["FLT001"],
        )
        assert report.findings == []

    def test_unhardened_modules_out_of_scope(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "trace/io.py": """\
                def read(path):
                    with open(path, "rb") as handle:
                        return handle.read()
                """
            },
            select=["FLT001"],
        )
        assert report.findings == []


class TestRealTreeCalibration:
    """The rules' scopes against the actual source tree (kept here so a
    scope regression fails loudly with the rule that drifted)."""

    def test_stat001_knows_every_cachestats_slot(self):
        from repro.cache.stats import CacheStats

        # The rule reads __slots__ at lint time; this pins the contract
        # that every slot is reported by as_dict() (which also adds
        # derived aggregates like accesses/miss_rate on top).
        stats = CacheStats()
        assert set(CacheStats.__slots__) <= set(stats.as_dict())

    def test_registry_helper_matches_disk(self):
        # The registry's one coverage check: every Experiment subclass
        # with an id, in any module under repro/experiments/, is
        # registered, and the registry holds nothing else.
        import importlib
        import inspect
        import pkgutil

        from repro.experiments.base import Experiment
        from repro.experiments.registry import EXPERIMENTS

        src = Path(__file__).resolve().parents[2] / "src" / "repro" / "experiments"
        on_disk = set()
        for info in pkgutil.iter_modules([str(src)]):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if (
                    cls.__module__ == module.__name__
                    and issubclass(cls, Experiment)
                    and cls.experiment_id
                ):
                    on_disk.add((info.name, cls.__name__))
        registered = {
            (type(exp).__module__.rsplit(".", 1)[-1], type(exp).__name__)
            for exp in EXPERIMENTS.values()
        }
        assert on_disk == registered


class TestObs001MetricNames:
    def test_registered_literal_names_pass(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "engine/cells.py": """\
                def record(registry):
                    registry.counter("engine_cells_total").inc()
                    registry.histogram("engine_cell_seconds").observe(0.1)
                    registry.gauge("queue_depth").set(3)
                """
            },
            select=["OBS001"],
        )
        assert report.findings == []

    def test_unregistered_name_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "engine/cells.py": """\
                def record(registry):
                    registry.counter("engine_cellz_total").inc()
                """
            },
            select=["OBS001"],
        )
        assert _codes_lines(report) == [("OBS001", 2)]
        assert "METRIC_NAMES" in report.findings[0].message

    def test_non_snake_case_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "service/server.py": """\
                def record(registry):
                    registry.counter("Engine-Cells").inc()
                """
            },
            select=["OBS001"],
        )
        assert _codes_lines(report) == [("OBS001", 2)]
        assert "snake_case" in report.findings[0].message

    def test_non_literal_name_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "service/server.py": """\
                def record(registry, name):
                    registry.counter(name).inc()
                """
            },
            select=["OBS001"],
        )
        assert _codes_lines(report) == [("OBS001", 2)]
        assert "literal" in report.findings[0].message

    def test_obs_package_is_excluded(self, tmp_path):
        report = _lint(
            tmp_path,
            {
                "obs/metrics.py": """\
                def helper(registry, name):
                    return registry.counter(name)
                """
            },
            select=["OBS001"],
        )
        assert report.findings == []

    def test_catalog_names_are_well_formed(self):
        from repro.obs.names import METRIC_NAMES, is_metric_name

        assert METRIC_NAMES
        assert all(is_metric_name(name) for name in METRIC_NAMES)
