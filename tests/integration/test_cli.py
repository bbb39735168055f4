"""Tests for the command-line interface."""

import json
import os

import pytest

from repro import faults
from repro.analysis import sanitize
from repro.common.errors import FaultInjected
from repro.cli import main
from repro.obs import tracing


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out
        assert "fig10" in out

    def test_profile(self, capsys):
        assert main(["profile", "go", "--input", "test"]) == 0
        out = capsys.readouterr().out
        assert "top accessed values" in out

    def test_simulate_baseline_only(self, capsys):
        assert main(
            ["simulate", "go", "--input", "test", "--size-kb", "8"]
        ) == 0
        assert "baseline" in capsys.readouterr().out

    def test_simulate_with_fvc(self, capsys):
        assert main(
            [
                "simulate", "go", "--input", "test",
                "--size-kb", "8", "--fvc", "128", "--top", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert "FVC hits" in out

    def test_run_experiment_fast(self, capsys):
        assert main(["run", "fig9", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_trace_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "go.trc"
        assert main(["trace", "go", "--input", "test", "-o", str(path)]) == 0
        assert path.exists()
        from repro.trace.io import read_trace

        assert len(read_trace(path)) > 1000

    def test_trace_gen_writes_columnar_whatever_the_suffix(self, tmp_path):
        for name in ("go.trc", "go.trcb", "go.bin"):
            path = tmp_path / name
            argv = ["trace", "gen", "go", "--input", "test", "-o", str(path)]
            assert main(argv) == 0
            assert path.read_bytes()[:4] == b"FVTC"

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "gen", "go", "-o", "x.trc", "--compact"],
            ["trace", "gen", "go", "-o", "x.trc", "--columnar"],
            ["trace", "convert", "a.trc", "b.trcb"],
        ],
    )
    def test_retired_trace_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)

    def test_report(self, capsys):
        assert main(
            ["report", "go", "--input", "test", "--no-occurrence"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "access coverage" in out

    def test_classify(self, capsys):
        assert main(
            ["classify", "go", "--input", "test", "--size-kb", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "compulsory" in out
        assert "conflict" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestJsonOutput:
    def test_run_json_is_canonical_payload(self, capsys):
        assert main(["run", "fig9", "--fast", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["schema"] == "repro.experiment/1"
        assert payload["experiment_id"] == "fig9"
        assert payload["rows"]
        # Canonical form: sorted keys, 2-space indent, trailing newline.
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_run_json_excludes_csv_and_chart(self, capsys):
        assert main(["run", "fig9", "--fast", "--json", "--csv"]) == 2
        assert main(["run", "fig9", "--fast", "--json", "--chart"]) == 2

    def test_simulate_json(self, capsys):
        assert main(
            [
                "simulate", "go", "--input", "test",
                "--size-kb", "8", "--fvc", "128", "--top", "3", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.simulate/1"
        assert payload["geometry"]["size_bytes"] == 8 * 1024
        assert payload["baseline"]["misses"] > 0
        assert payload["fvc"]["entries"] == 128
        assert payload["fvc"]["fvc_hits"] > 0

    def test_simulate_json_without_fvc(self, capsys):
        assert main(
            ["simulate", "go", "--input", "test", "--size-kb", "8", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fvc"] is None


class TestSweepVerbs:
    def test_sweep_list_prints_the_catalogued_grids(self, capsys):
        assert main(["sweep", "list"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert names == ["fig10", "fig12", "fig13", "fig14", "l1_size_study"]

    @pytest.mark.parametrize("verb", ("run", "expand", "report"))
    def test_experiment_without_grid_points_at_run(self, verb, capsys):
        assert main(["sweep", verb, "fig9", "--fast"]) == 2
        assert "repro-fvc run fig9" in capsys.readouterr().err


@pytest.fixture
def spec_file(tmp_path, monkeypatch):
    """A two-cell sweep/v1 spec file.  The variables ``run`` exports for
    its flags get their current values back after the test."""
    for name in (sanitize.ENV_VAR, tracing.ENV_VAR, "REPRO_FAULTS"):
        monkeypatch.setenv(name, os.environ.get(name, ""))
    path = tmp_path / "tiny.json"
    cell = {"size_bytes": 4096, "line_bytes": 32}
    path.write_text(
        json.dumps(
            {
                "schema": "sweep/v1",
                "name": "tiny",
                "axes": {"workload": ["go"], "input": ["test"]},
                "arms": [
                    {"name": "base", "kind": "baseline", "cell": cell},
                    {
                        "name": "fvc",
                        "kind": "fvc",
                        "cell": dict(cell, fvc_entries=128, top_values=7),
                    },
                ],
                "report": {
                    "fields": ["miss_rate_percent"],
                    "aggregates": ["mean"],
                },
            }
        )
    )
    yield str(path)
    tracing.reset()
    faults.reset()


class TestRunSpecFile:
    """``run <spec.json>`` applies the flags that travel through the
    environment and rejects the ones a sweep has no use for."""

    def test_trace_out_writes_spans(self, spec_file, tmp_path, capsys):
        assert main(["run", spec_file]) == 0
        plain = capsys.readouterr().out
        spans = tmp_path / "spans.jsonl"
        assert main(["run", spec_file, "--trace-out", str(spans)]) == 0
        assert capsys.readouterr().out == plain
        assert spans.read_text(encoding="utf-8").splitlines()

    def test_sanitize_reports_invariants_held(self, spec_file, capsys):
        assert main(["run", spec_file]) == 0
        plain = capsys.readouterr().out
        assert main(["run", spec_file, "--sanitize"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "[sanitize] simulator invariants held" in captured.err

    def test_malformed_fault_plan_rejected(self, spec_file, capsys):
        assert main(["run", spec_file, "--faults", "nonsense"]) == 2
        assert "--faults:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", (["--checkpoint", "ckpt"], ["--chart"]), ids=("checkpoint", "chart")
    )
    def test_checkpoint_and_chart_rejected(self, spec_file, flags, capsys):
        assert main(["run", spec_file, *flags]) == 2
        assert "--checkpoint/--chart" in capsys.readouterr().err


class TestRunFlagScope:
    """``run``'s --sanitize, --faults and --trace-out last for that run:
    an in-process caller gets its variables, sanitizer, fault plan and
    tracer back afterwards, whether the run succeeds or fails."""

    NAMES = (sanitize.ENV_VAR, tracing.ENV_VAR, "REPRO_FAULTS")

    @pytest.fixture
    def unflagged(self, spec_file, monkeypatch):
        for name in self.NAMES:
            monkeypatch.delenv(name, raising=False)
        tracing.reset()
        faults.reset()
        return spec_file

    def _flagged(self, spec_file, plan, spans):
        return [
            "run", spec_file, "--sanitize", "--faults", plan,
            "--trace-out", str(spans),
        ]

    def _assert_unflagged(self):
        assert [name for name in self.NAMES if name in os.environ] == []
        assert not sanitize.enabled()
        assert faults.active() is None
        assert tracing.active() is None

    def test_flags_end_with_the_run(self, unflagged, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        # A plan whose only clause never fires on a two-cell sweep.
        plan = "engine.cell:raise@1000000"
        assert main(self._flagged(unflagged, plan, spans)) == 0
        self._assert_unflagged()
        recorded = spans.read_text(encoding="utf-8").splitlines()
        assert recorded
        assert main(["run", unflagged]) == 0
        assert spans.read_text(encoding="utf-8").splitlines() == recorded

    def test_flags_end_with_a_failed_run(self, unflagged, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        with pytest.raises(FaultInjected):
            main(self._flagged(unflagged, "engine.cell:raise@1", spans))
        self._assert_unflagged()


class TestServiceVerbs:
    """The serve/submit/status/fetch verbs against an in-process
    service."""

    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        from repro.service.server import ReproService, ServiceConfig

        service = ReproService(
            ServiceConfig(
                port=0,
                workers=1,
                store_dir=tmp_path_factory.mktemp("cli-results"),
            )
        ).start()
        yield service
        service.stop(drain=False)

    def test_submit_wait_equals_run_json(self, service, capsys):
        assert main(["run", "fig9", "--fast", "--json"]) == 0
        local = capsys.readouterr().out
        assert main(
            ["submit", "fig9", "--fast", "--wait", "--url", service.url]
        ) == 0
        assert capsys.readouterr().out == local

    def test_submit_then_status_and_fetch(self, service, capsys):
        assert main(["submit", "fig9", "--fast", "--url", service.url]) == 0
        job = json.loads(capsys.readouterr().out)
        assert main(["status", job["id"], "--url", service.url]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["id"] == job["id"]
        # The previous test completed this spec; fetch its payload.
        assert main(
            ["fetch", job["result_key"], "--url", service.url]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "fig9"

    def test_unreachable_service_fails_cleanly(self, capsys):
        assert main(
            ["status", "job-x", "--url", "http://127.0.0.1:1"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_mentions_service_verbs(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for verb in ("serve", "submit", "status", "fetch"):
            assert verb in out
