"""The ``sweep/v1`` grammar: validation, canonicalisation, identity."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.sweeps.spec import (
    SweepSpecError,
    load_sweep_file,
    normalise_sweep,
    sweep_id,
    sweep_result_key,
)


def minimal_spec(**overrides):
    spec = {
        "schema": "sweep/v1",
        "name": "study",
        "axes": {"workload": ["go", "gcc"], "input": ["test"]},
        "arms": [
            {
                "name": "base",
                "kind": "baseline",
                "cell": {"size_bytes": 16384, "line_bytes": 32},
            }
        ],
        "report": {"fields": ["miss_rate_percent"], "aggregates": ["mean"]},
    }
    spec.update(overrides)
    return spec


def rejects(spec, match):
    with pytest.raises(SweepSpecError, match=match) as err:
        normalise_sweep(spec)
    # Every validation error names the contract the caller violated.
    assert "sweep/v1" in str(err.value)
    return err.value


class TestValidation:
    def test_minimal_spec_normalises(self):
        spec = normalise_sweep(minimal_spec())
        assert spec["schema"] == "sweep/v1"
        assert spec["report"]["aggregates"] == ["mean"]

    def test_error_is_a_configuration_error(self):
        assert issubclass(SweepSpecError, ConfigurationError)

    def test_not_a_dict(self):
        rejects([], "JSON object")

    def test_wrong_schema(self):
        rejects(minimal_spec(schema="sweep/v2"), "schema must be")

    def test_unknown_top_level_key(self):
        rejects(minimal_spec(extra=1), "unknown top-level keys")

    def test_bad_name(self):
        rejects(minimal_spec(name=""), "name must be")
        rejects(minimal_spec(name="no spaces"), "name must be")

    def test_empty_axis(self):
        rejects(
            minimal_spec(axes={"workload": []}), "non-empty list of values"
        )

    def test_mixed_axis_values(self):
        rejects(
            minimal_spec(axes={"workload": ["go", {"a": 1}]}),
            "mixes scalar and object",
        )

    def test_object_axis_component_mismatch(self):
        rejects(
            minimal_spec(
                axes={"pair": [{"a": 1, "b": 2}, {"a": 1}]},
            ),
            "share one component set",
        )

    def test_empty_arms(self):
        rejects(minimal_spec(arms=[]), "non-empty list")

    def test_unknown_arm_kind(self):
        # "experiment" is no arm kind: fig/table studies without a cell
        # grid are experiments, not sweeps.
        for kind in ("mystery", "experiment"):
            rejects(
                minimal_spec(arms=[{"name": "x", "kind": kind}]),
                "kind must be one of",
            )

    def test_experiment_arm_keys_rejected(self):
        for key, value in (("experiment_id", "fig9"), ("fast", True)):
            rejects(
                minimal_spec(
                    arms=[{"name": "base", "kind": "baseline", key: value}]
                ),
                "unknown keys",
            )

    def test_duplicate_arm_names(self):
        arm = {"name": "base", "kind": "baseline", "cell": {}}
        rejects(minimal_spec(arms=[arm, dict(arm)]), "unique")

    def test_unknown_cell_field(self):
        rejects(
            minimal_spec(
                arms=[
                    {
                        "name": "base",
                        "kind": "baseline",
                        "cell": {"associativity": 2},
                    }
                ]
            ),
            "unknown cell field",
        )

    def test_reference_to_unknown_axis(self):
        rejects(
            minimal_spec(
                arms=[
                    {
                        "name": "base",
                        "kind": "baseline",
                        "cell": {"size_bytes": "$nope"},
                    }
                ]
            ),
            "unknown axis",
        )

    def test_scalar_axis_component_reference(self):
        rejects(
            minimal_spec(
                arms=[
                    {
                        "name": "base",
                        "kind": "baseline",
                        "cell": {"size_bytes": "$workload.small"},
                    }
                ]
            ),
            "scalar axis",
        )

    def test_object_axis_needs_component(self):
        rejects(
            minimal_spec(
                axes={"workload": ["go"], "geo": [{"size_bytes": 1024}]},
                arms=[
                    {
                        "name": "base",
                        "kind": "baseline",
                        "cell": {
                            "size_bytes": "$geo",
                            "input_name": "test",
                        },
                    }
                ],
            ),
            "must pick a component",
        )

    def test_unknown_report_field_on_cell_sweep(self):
        rejects(
            minimal_spec(
                report={"fields": ["warp_factor"], "aggregates": ["mean"]}
            ),
            "unknown report fields",
        )

    def test_unknown_aggregate(self):
        rejects(
            minimal_spec(
                report={
                    "fields": ["miss_rate_percent"],
                    "aggregates": ["mode"],
                }
            ),
            "aggregates",
        )

    def test_cell_sweep_needs_an_axis(self):
        rejects(minimal_spec(axes={}), "at least one axis")


class TestIdentity:
    def test_normalisation_is_idempotent(self):
        once = normalise_sweep(minimal_spec())
        assert normalise_sweep(once) == once

    def test_sweep_id_independent_of_key_order(self):
        forward = minimal_spec()
        backward = {key: forward[key] for key in reversed(list(forward))}
        backward["axes"] = {
            key: forward["axes"][key]
            for key in reversed(list(forward["axes"]))
        }
        assert sweep_id(normalise_sweep(forward)) == sweep_id(
            normalise_sweep(backward)
        )

    def test_axis_value_order_is_semantic(self):
        one = normalise_sweep(minimal_spec())
        other = normalise_sweep(
            minimal_spec(axes={"workload": ["gcc", "go"], "input": ["test"]})
        )
        assert sweep_id(one) != sweep_id(other)

    def test_result_key_differs_from_sweep_id(self):
        spec = normalise_sweep(minimal_spec())
        assert sweep_result_key(spec) != sweep_id(spec)
        assert len(sweep_result_key(spec)) == 24
        assert len(sweep_id(spec)) == 24


class TestLoadFile:
    def test_round_trip(self, tmp_path):
        import json

        path = tmp_path / "study.json"
        path.write_text(json.dumps(minimal_spec()), encoding="utf-8")
        assert load_sweep_file(path) == normalise_sweep(minimal_spec())

    def test_missing_file_names_contract(self, tmp_path):
        with pytest.raises(SweepSpecError, match="sweep/v1"):
            load_sweep_file(tmp_path / "absent.json")

    def test_invalid_json_names_contract(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SweepSpecError, match="not valid JSON"):
            load_sweep_file(path)
