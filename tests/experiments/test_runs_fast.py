"""The paper's shape claims, checked on every experiment at test scale.

The sixteen fig*/table* results are read from their golden payloads,
which test_golden_payloads.py pins byte-for-byte to a live fast run, so
they are not run a second time here.  The twelve ablation/extension
experiments have no golden and run once, in fast mode.

Test inputs are small, so a claim that holds only on the reference
inputs is checked here in the form it takes at test scale; EXPERIMENTS.md
records each such claim with its numbers at both scales.  The full-scale
tables come from ``repro-fvc run all`` and are archived under
``benchmarks/results/``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.common import FVL_NAMES
from repro.experiments.registry import EXPERIMENTS

pytestmark = pytest.mark.slow

GOLDEN_DIR = Path(__file__).parent / "golden"
CONTROLS = ("compress", "ijpeg")


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _golden_result(experiment_id):
    payload = json.loads(
        (GOLDEN_DIR / f"{experiment_id}.json").read_text(encoding="utf-8")
    )
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        headers=payload["headers"],
        rows=payload["rows"],
        notes=payload["notes"],
    )


@pytest.fixture(scope="module")
def results(store):
    """Every experiment's fast result: golden payloads for fig*/table*,
    one shared-store run for the rest."""
    return {
        experiment_id: (
            _golden_result(experiment_id)
            if experiment_id.startswith(("fig", "table"))
            else experiment.run(store, fast=True)
        )
        for experiment_id, experiment in EXPERIMENTS.items()
    }


class TestAllRun:
    def test_every_experiment_produces_rows(self, results):
        for experiment_id, result in results.items():
            assert result.rows, experiment_id
            assert result.headers, experiment_id
            for row in result.rows:
                assert set(row) == set(result.headers), experiment_id

    def test_tables_render(self, results):
        for result in results.values():
            assert result.experiment_id in result.format_table()


class TestShapes:
    def test_fig1_fvl_benchmarks_high_coverage(self, results):
        result = results["fig1"]
        for name in ("go", "m88ksim", "gcc", "perl", "vortex"):
            row = result.row_for("benchmark", name)
            assert row["acc_top10_%"] > 25

    def test_fig1_controls_low_coverage(self, results):
        # The six FVL benchmarks dominate the two controls.
        coverage = {
            row["benchmark"]: row["acc_top10_%"] for row in results["fig1"].rows
        }
        assert min(coverage[name] for name in FVL_NAMES) > max(
            coverage[name] for name in CONTROLS
        )

    def test_fig1_ten_values_fill_half_the_locations(self, results):
        # The paper says 6 of 8; the analogs give 5, because li's top ten
        # fill 33.3% of live locations (EXPERIMENTS.md).
        occupancy = {
            row["benchmark"]: row["occ_top10_%"] for row in results["fig1"].rows
        }
        assert len(occupancy) == 8
        assert sum(share > 50 for share in occupancy.values()) >= 5
        assert all(occupancy[name] < 50 for name in CONTROLS)

    def test_fig2_fp_has_fvl(self, results):
        for row in results["fig2"].rows:
            assert row["occ_top10_%"] > 25

    def test_fig3_bands_nested(self, results):
        rows = results["fig3"].rows
        assert len(rows) >= 10
        for row in rows:
            assert row["acc_top1"] <= row["acc_top3"] <= row["acc_top10"]
            assert row["locs_top1"] <= row["locs_top10"] <= row["live_locs"]

    def test_fig4_substantial_attribution(self, results):
        shares = [row["miss_top10_accessed_%"] for row in results["fig4"].rows]
        assert sum(shares) / len(shares) > 40

    def test_fig5_uniformish(self, results):
        densities = [row["freq_per_line"] for row in results["fig5"].rows]
        assert densities, "expected at least one block"
        assert max(densities) <= 8.0

    def test_table1_has_ten_ranks(self, results):
        assert len(results["table1"].rows) == 10

    def test_table2_overlap_format(self, results):
        rows = results["table2"].rows
        assert len(rows) == 6
        for row in rows:
            assert row["test_top7"].endswith("/7")
            assert row["train_top10"].endswith("/10")

    def test_table2_test_input_keeps_the_train_top_values(self, results):
        # The frequent value set carries across inputs: the test input
        # keeps at least 4 of the train top-7 and 7 of the top-10 for
        # every FVL program (goldens: 4-7 and 7-10; EXPERIMENTS.md).
        rows = {row["benchmark"]: row for row in results["table2"].rows}
        assert set(rows) == set(FVL_NAMES)
        for row in rows.values():
            assert int(row["test_top7"].split("/")[0]) >= 4
            assert int(row["test_top10"].split("/")[0]) >= 7

    def test_table3_fractions_in_range(self, results):
        for row in results["table3"].rows:
            for key in ("order_top1_%", "order_top7_%", "in_top10_top3_%"):
                assert 0.0 <= row[key] <= 100.0
            assert row["in_top10_top1_%"] <= 60.0

    def test_table3_frequent_values_are_found_early(self, results):
        # The top value is in the running top-10 from the first
        # checkpoint on (<= 1%; goldens 0-1.0%), the whole top-7 by 80%
        # of execution (goldens 16-78%; EXPERIMENTS.md).
        rows = results["table3"].rows
        assert {row["benchmark"] for row in rows} == set(FVL_NAMES)
        for row in rows:
            assert row["in_top10_top1_%"] <= 1.0
            assert row["in_top10_top7_%"] <= 80.0

    def test_table4_controls_lowest(self, results):
        rows = {row["benchmark"]: row["constant_%"] for row in
                results["table4"].rows}
        # compress < 10 holds only at full scale (EXPERIMENTS.md); here
        # both controls sit below li, the lowest of the FVL six.
        assert rows["ijpeg"] < 10
        assert rows["m88ksim"] > 60 and rows["perl"] > 60
        assert rows["li"] == min(rows[name] for name in FVL_NAMES)
        assert max(rows[name] for name in CONTROLS) < rows["li"]

    def test_fig9_twelve_admissible(self, results):
        note = results["fig9"].notes[0]
        assert note.startswith("12 of 15")

    def test_fig10_m88ksim_saturates_early(self, results):
        result = results["fig10"]
        assert result.row_for("benchmark", "m88ksim")["red_64e_%"] > 25
        # m88ksim and perl saturate with the smallest FVC ...
        for name in ("m88ksim", "perl"):
            row = result.row_for("benchmark", name)
            assert row["red_64e_%"] > row["red_4096e_%"] - 25
        # ... while go/gcc/vortex grow steadily with size.
        for name in ("go", "gcc", "vortex"):
            row = result.row_for("benchmark", name)
            assert row["red_4096e_%"] > row["red_64e_%"] + 10

    def test_fig11_content_positive(self, results):
        contents = [row["frequent_content_%"] for row in results["fig11"].rows]
        assert all(0 <= content <= 100 for content in contents)
        assert _mean(contents) > 40

    def test_fig12_more_values_never_much_worse(self, results):
        rows = results["fig12"].rows
        for row in rows:
            assert row["red_top7_%"] >= row["red_top1_%"] - 12
        # Each step to more values helps on average, and the reductions
        # span a wide range.
        assert _mean(row["red_top3_%"] - row["red_top1_%"] for row in rows) > 0
        assert _mean(row["red_top7_%"] - row["red_top3_%"] for row in rows) > 0
        assert max(row["red_top7_%"] for row in rows) > 50
        assert min(row["red_top7_%"] for row in rows) < 25

    def test_fig13_m88ksim_fvc_beats_doubling(self, results):
        top7 = [row for row in results["fig13"].rows if row["top_k"] == 7]
        assert any(
            row["fvc_wins"] == "yes"
            for row in top7
            if row["benchmark"] == "m88ksim"
        )
        wins = sum(1 for row in top7 if row["fvc_wins"] == "yes")
        assert wins >= len(top7) * 0.7

    def test_fig14_conflict_benchmarks_collapse(self, results):
        result = results["fig14"]
        for name in ("m88ksim", "li", "perl"):
            row = result.row_for("benchmark", name)
            assert row["2w_red_%"] < row["1w_red_%"] * 0.6
        # The capacity-bound trio keeps its gain.  The fast grid has no
        # 4-way column; the full-scale 4w_red_% > 5 is in EXPERIMENTS.md.
        for name in ("go", "gcc", "vortex"):
            assert result.row_for("benchmark", name)["2w_red_%"] > 5

    def test_fig15_both_structures_help(self, results):
        rows = results["fig15"].rows
        for row in rows:
            assert row["vc4_red_%"] > -5
            assert row["fvc512_red_%"] > -5

        def mean_of(column):
            return _mean(row[column] for row in rows)

        # Equal storage: the VC wins.  Equal access time: the FVC is at
        # least competitive.  Both help a small DMC substantially.
        assert mean_of("vc16_red_%") > mean_of("fvc128_red_%")
        assert mean_of("fvc512_red_%") > mean_of("vc4_red_%") - 5
        assert mean_of("fvc512_red_%") > 10 and mean_of("vc4_red_%") > 10

    def test_ablation_waf_reports_both_arms(self, results):
        for row in results["ablation-waf"].rows:
            assert "default_red_%" in row and "flipped_red_%" in row

    def test_ablation_dynamic_overlaps(self, results):
        for row in results["ablation-dynamic"].rows:
            numerator = int(row["values_overlap"].split("/")[0])
            assert 0 <= numerator <= 7

    def test_ext_compression_helps_compressible_lines(self, results):
        for row in results["ext-compression"].rows:
            if row["compressible_%"] > 60:
                assert row["compression_red_%"] > 0

    def test_ext_cross_input_keeps_the_gain(self, results):
        retained = [
            row["retained_%"]
            for row in results["ext-cross-input"].rows
            if row["self_profiled_red_%"] > 5
        ]
        assert retained and _mean(retained) > 30

    def test_ext_energy_fvc_saves(self, results):
        assert _mean(row["fvc_saving_%"] for row in results["ext-energy"].rows) > 0

    def test_ext_fvc_assoc_never_much_worse(self, results):
        for row in results["ext-fvc-assoc"].rows:
            assert row["red_2way_%"] > row["red_direct_%"] - 10

    def test_ext_hierarchy_saves_l2_traffic(self, results):
        saved = [
            row["l2_read_traffic_saved_%"]
            for row in results["ext-hierarchy"].rows
        ]
        assert _mean(saved) > 5

    def test_ext_hybrid_matches_its_better_part(self, results):
        margins = [
            row["hybrid_red_%"] - max(row["fvc_only_red_%"], row["vc_only_red_%"])
            for row in results["ext-hybrid"].rows
        ]
        assert _mean(margins) > -10
        assert max(margins) > -2

    def test_ext_performance_fvc_never_slows_access(self, results):
        rows = results["ext-performance"].rows
        assert _mean(row["fvc_speedup_%"] for row in rows) > 0
        for row in rows:
            assert row["fvc_amat_ns"] <= row["base_amat_ns"] + 0.01

    def test_ext_writethrough_costs_traffic(self, results):
        factors = [row["traffic_factor_x"] for row in results["ext-writethrough"].rows]
        assert _mean(factors) > 1.0
        assert max(factors) > 1.4
