"""Tests for the workload trace model, generators, and file format."""

from __future__ import annotations

import json
import pickle
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.scenarios import TraceArrival
from repro.workloads import (
    TRACE_FORMAT,
    TRACE_KINDS,
    TRACE_VERSION,
    TraceEvent,
    WorkloadTrace,
    available_workloads,
    build_workload,
    load_trace,
    merge_traces,
    save_trace,
    task_timeline,
    validate_trace,
)
from repro.workloads.generators import (
    adversarial_trace,
    diurnal_trace,
    flash_crowd_trace,
    mmpp_trace,
)


class TestTraceEvent:
    def test_arrival_deltas(self):
        event = TraceEvent(round_index=3, kind="arrival", targets=(0, 1, 1))
        assert event.task_delta == 3
        assert event.task_events == 3

    def test_departure_deltas(self):
        event = TraceEvent(round_index=0, kind="departure", count=5)
        assert event.task_delta == -5
        assert event.task_events == 5

    def test_relocation_is_conserving(self):
        event = TraceEvent(
            round_index=2, kind="relocation", node=1, fraction=0.5
        )
        assert event.task_delta == 0
        assert event.task_events == 0

    def test_targets_are_a_read_only_int64_array(self):
        event = TraceEvent(round_index=0, kind="arrival", targets=[2, 0])
        assert event.targets.dtype == np.int64
        assert not event.targets.flags.writeable
        np.testing.assert_array_equal(event.targets, [2, 0])
        assert TraceEvent(round_index=0, kind="departure").targets.shape == (0,)

    def test_equality_and_hash_compare_targets(self):
        event = TraceEvent(round_index=1, kind="arrival", targets=(2, 0, 2))
        same = TraceEvent(round_index=1, kind="arrival", targets=np.array([2, 0, 2]))
        assert event == same and hash(event) == hash(same)
        assert event != TraceEvent(round_index=1, kind="arrival", targets=(2, 0, 1))
        assert event != TraceEvent(round_index=2, kind="arrival", targets=(2, 0, 2))
        assert len({event, same}) == 1

    def test_pickle_and_deepcopy_keep_targets_read_only(self):
        event = TraceEvent(round_index=1, kind="arrival", targets=(2, 0, 2))
        for copy in (pickle.loads(pickle.dumps(event)), deepcopy(event)):
            assert copy == event
            assert not copy.targets.flags.writeable

    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            TraceEvent(round_index=-1, kind="arrival", targets=(0,))
        with pytest.raises(ValidationError):
            TraceEvent(round_index=0, kind="tsunami")
        with pytest.raises(ValidationError):
            TraceEvent(round_index=0, kind="relocation", node=0, fraction=1.5)
        with pytest.raises(ValidationError):
            TraceEvent(round_index=0, kind="arrival", targets=(0,), weight=0.0)


class TestValidation:
    def test_target_out_of_range_rejected(self):
        trace = WorkloadTrace(
            num_nodes=4,
            horizon=10,
            seed=1,
            initial_tasks=0,
            events=(
                TraceEvent(round_index=0, kind="arrival", targets=(4,)),
            ),
        )
        with pytest.raises(ValidationError):
            validate_trace(trace)

    def test_unsorted_events_rejected(self):
        trace = WorkloadTrace(
            num_nodes=4,
            horizon=10,
            seed=1,
            initial_tasks=0,
            events=(
                TraceEvent(round_index=5, kind="arrival", targets=(0,)),
                TraceEvent(round_index=2, kind="arrival", targets=(1,)),
            ),
        )
        with pytest.raises(ValidationError):
            validate_trace(trace)

    def test_departure_unsafe_rejected(self):
        trace = WorkloadTrace(
            num_nodes=4,
            horizon=10,
            seed=1,
            initial_tasks=2,
            events=(
                TraceEvent(round_index=1, kind="departure", count=3),
            ),
        )
        with pytest.raises(ValidationError, match="departure-safe"):
            validate_trace(trace)

    def test_event_beyond_horizon_rejected(self):
        trace = WorkloadTrace(
            num_nodes=4,
            horizon=10,
            seed=1,
            initial_tasks=0,
            events=(
                TraceEvent(round_index=10, kind="arrival", targets=(0,)),
            ),
        )
        with pytest.raises(ValidationError):
            validate_trace(trace)


class TestTimeline:
    def test_timeline_tracks_running_total(self):
        trace = WorkloadTrace(
            num_nodes=3,
            horizon=5,
            seed=0,
            initial_tasks=10,
            events=(
                TraceEvent(round_index=1, kind="arrival", targets=(0, 1)),
                TraceEvent(round_index=3, kind="departure", count=4),
                TraceEvent(
                    round_index=4, kind="relocation", node=0, fraction=0.5
                ),
            ),
        )
        timeline = task_timeline(trace)
        np.testing.assert_array_equal(timeline, [10, 10, 12, 12, 8, 8])
        assert trace.final_tasks == 8


class TestGenerators:
    @pytest.mark.parametrize(
        "name", ["mmpp", "diurnal", "flash-crowd", "adversarial", "mmpp-flash"]
    )
    def test_build_workload_deterministic(self, name):
        kwargs = dict(num_nodes=8, horizon=40, seed=7, initial_tasks=30)
        first = build_workload(name, **kwargs)
        second = build_workload(name, **kwargs)
        assert first == second
        assert first.num_nodes == 8
        assert first.horizon == 40
        validate_trace(first)
        # Determinism is seed-sensitive.
        assert build_workload(name, num_nodes=8, horizon=40, seed=8,
                              initial_tasks=30) != first

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValidationError, match="unknown workload"):
            build_workload("tsunami", num_nodes=4, horizon=10, seed=1)

    def test_unknown_override_rejected_with_the_generator_keywords(self):
        # mmpp-flash takes the keywords of both of its generators.
        taken = (
            r"\['crowds', 'decay', 'echoes', 'fraction', 'rate_high', "
            r"'rate_low', 'switch_probability', 'weight'\]"
        )
        with pytest.raises(
            ValidationError, match=rf"does not take \['bogus'\]; it takes {taken}"
        ):
            build_workload("mmpp-flash", num_nodes=4, horizon=10, seed=1, bogus=1)
        trace = build_workload(
            "mmpp-flash", num_nodes=4, horizon=10, seed=1, crowds=1, rate_low=2.0
        )
        validate_trace(trace)

    def test_catalog_is_sorted_and_complete(self):
        names = available_workloads()
        assert names == sorted(names)
        assert {"mmpp", "diurnal", "flash-crowd", "adversarial"} <= set(names)

    def test_generated_targets_are_read_only_int64(self):
        trace = mmpp_trace(6, 30, 3, initial_tasks=20)
        arrivals = [e for e in trace.events if e.kind == "arrival"]
        assert arrivals
        for event in arrivals:
            assert event.targets.dtype == np.int64
            assert not event.targets.flags.writeable

    def test_mmpp_produces_arrivals_and_departures(self):
        trace = mmpp_trace(6, 60, 3, initial_tasks=20)
        kinds = {event.kind for event in trace.events}
        assert "arrival" in kinds
        assert "departure" in kinds
        validate_trace(trace)

    def test_flash_crowd_emits_relocations(self):
        trace = flash_crowd_trace(6, 50, 3, initial_tasks=40, crowds=2)
        assert any(e.kind == "relocation" for e in trace.events)
        validate_trace(trace)

    def test_adversarial_counts_and_matched_departures(self):
        trace = adversarial_trace(
            6, 20, 3, count=4, period=2, initial_tasks=12
        )
        adversarial = [e for e in trace.events if e.kind == "adversarial"]
        assert all(e.count == 4 for e in adversarial)
        # Matched departures keep the timeline bounded.
        assert task_timeline(trace).max() <= 12 + 4
        validate_trace(trace)

    def test_diurnal_rate_modulation(self):
        trace = diurnal_trace(
            6, 96, 5, base_rate=12.0, amplitude=0.9, period=48
        )
        validate_trace(trace)
        assert trace.num_events > 0


class TestMerge:
    def test_merge_preserves_safety_and_order(self):
        first = mmpp_trace(6, 30, 1, initial_tasks=20)
        second = flash_crowd_trace(6, 40, 2, initial_tasks=30)
        merged = merge_traces(first, second)
        assert merged.initial_tasks == 50
        assert merged.horizon == 40
        rounds = [event.round_index for event in merged.events]
        assert rounds == sorted(rounds)
        validate_trace(merged)

    def test_merge_rejects_node_mismatch(self):
        with pytest.raises(ValidationError):
            merge_traces(
                mmpp_trace(6, 10, 1, initial_tasks=50),
                mmpp_trace(8, 10, 1, initial_tasks=50),
            )


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        trace = build_workload(
            "mmpp-flash", num_nodes=10, horizon=50, seed=9, initial_tasks=40
        )
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_header_fields(self, tmp_path):
        trace = mmpp_trace(5, 20, 4, initial_tasks=15)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION
        assert header["num_nodes"] == 5
        assert header["num_events"] == trace.num_events

    def test_wrong_format_rejected(self, tmp_path):
        trace = mmpp_trace(5, 20, 4, initial_tasks=15)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["format"] = "not-a-trace"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValidationError):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        trace = mmpp_trace(5, 20, 4, initial_tasks=15)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = TRACE_VERSION + 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValidationError):
            load_trace(path)

    def test_truncated_file_rejected(self, tmp_path):
        trace = mmpp_trace(5, 20, 4, initial_tasks=15)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValidationError):
            load_trace(path)


def _write_trace(path, *events: dict, **header) -> None:
    head = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_nodes": 4,
        "horizon": 10,
        "seed": 0,
        "initial_tasks": 5,
        **header,
    }
    path.write_text("".join(json.dumps(line) + "\n" for line in (head, *events)))


class TestMalformedFields:
    @pytest.mark.parametrize(
        "event, header",
        [
            ({"round": 1, "kind": "departure", "count": "abc"}, {}),
            ({"round": 1, "kind": "arrival", "targets": [0], "weight": None}, {}),
            ({"round": 1, "kind": "arrival", "targets": 5}, {}),
            ({"round": 1, "kind": "arrival", "targets": ["x"]}, {}),
            ({"round": 1, "kind": "relocation", "node": 0, "fraction": "x"}, {}),
            ({"round": 2.7, "kind": "departure", "count": 1}, {}),
            ({"round": 1, "kind": "departure", "count": 1.9}, {}),
            ({"round": 1, "kind": "departure", "count": -1}, {}),
            ({"round": 1, "kind": ["departure"]}, {}),
            ({"round": 1, "kind": "departure", "count": 1}, {"num_events": "x"}),
            ({"round": 1, "kind": "departure", "count": 1}, {"horizon": 10.5}),
            ({"round": 1, "kind": "arrival", "targets": [-1, 2]}, {}),
            ({"round": 1, "kind": "arrival", "targets": [True, 1]}, {}),
            ({"round": 1, "kind": "arrival", "targets": [1.5]}, {}),
            ({"round": 1, "kind": "arrival", "targets": [None]}, {}),
            ({"round": 1, "kind": "arrival", "targets": [[1], 2]}, {}),
            ({"round": 1, "kind": "arrival", "targets": [2**63]}, {}),
            ({"round": 1, "kind": "arrival", "targets": [1e300]}, {}),
        ],
        ids=[
            "count-abc",
            "weight-null",
            "targets-int",
            "targets-str",
            "fraction-str",
            "round-float",
            "count-float",
            "count-negative",
            "kind-list",
            "num-events-str",
            "horizon-float",
            "targets-negative",
            "targets-bool",
            "targets-fraction",
            "targets-null",
            "targets-nested",
            "targets-beyond-int64",
            "targets-huge-float",
        ],
    )
    def test_refused_with_validation_error(self, tmp_path, event, header):
        path = tmp_path / "bad.jsonl"
        _write_trace(path, event, **header)
        with pytest.raises(ValidationError, match="trace"):
            load_trace(path)

    @pytest.mark.parametrize(
        "event",
        [
            {"round": 1, "kind": "arrival", "targets": [-1, 2]},
            {"round": 1, "kind": "arrival", "targets": [4]},
            {"round": 10, "kind": "departure", "count": 1},
            {"round": 1, "kind": "departure", "count": 6},
        ],
        ids=["parse", "range", "horizon", "departure-safety"],
    )
    def test_record_faults_name_the_line(self, tmp_path, event):
        path = tmp_path / "bad.jsonl"
        _write_trace(path, {"round": 0, "kind": "departure", "count": 0}, event)
        with pytest.raises(ValidationError, match="^trace line 2: "):
            load_trace(path)

    @pytest.mark.parametrize(
        "targets", [(True, 1), ("a",), (-1,), (1.5,)], ids=["bool", "str", "neg", "frac"]
    )
    def test_python_api_refuses_malformed_targets(self, targets):
        with pytest.raises(ValidationError, match="targets must"):
            TraceEvent(round_index=0, kind="arrival", targets=targets)
        with pytest.raises(ValidationError, match="targets must"):
            TraceArrival(targets=targets)

    def test_integral_float_targets_load_as_ints(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        _write_trace(path, {"round": 1, "kind": "arrival", "targets": [3.0, 0]})
        (event,) = load_trace(path).events
        assert event.targets.dtype == np.int64
        np.testing.assert_array_equal(event.targets, [3, 0])

    def test_integral_floats_load_as_ints(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        _write_trace(path, {"round": 2.0, "kind": "departure", "count": 1.0})
        (event,) = load_trace(path).events
        assert (event.round_index, event.count) == (2, 1)
        assert isinstance(event.round_index, int) and isinstance(event.count, int)


# Arbitrary JSON values: ints far beyond int64 (and beyond the float
# range), every float including nan and the infinities, bools, strings,
# null, and nested or mixed lists and objects.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.floats(),
    st.text(max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)


def _mostly(valid):
    """``valid`` three draws in four, any JSON value otherwise."""
    return st.sampled_from((valid, valid, valid, _JSON_VALUES)).flatmap(lambda s: s)


_TARGETS = _mostly(st.lists(_mostly(st.integers(-1, 4) | st.integers(-1, 4).map(float))))
_SCALARS = {
    "round": st.integers(0, 9),
    "count": st.integers(0, 5),
    "node": st.integers(0, 3),
    "fraction": st.floats(0.0, 1.0),
    "weight": st.floats(0.0, 1.0),
}


@st.composite
def _records(draw):
    record = {"kind": draw(st.sampled_from(TRACE_KINDS + ("arrival",) * 3))}
    record["round"] = draw(_mostly(_SCALARS["round"]))
    if draw(st.booleans()):
        record["targets"] = draw(_TARGETS)
    for key in ("count", "node", "fraction", "weight"):
        if draw(st.booleans()):
            record[key] = draw(_mostly(_SCALARS[key]))
    return record


class TestReaderFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(record=_records())
    def test_record_loads_exactly_or_is_refused_by_line(self, tmp_path, record):
        path = tmp_path / "fuzz.jsonl"
        _write_trace(path, record)
        try:
            trace = load_trace(path)
        except ValidationError as error:
            assert str(error).startswith("trace line 1: "), error
            return
        (event,) = trace.events
        if record["kind"] == "arrival" and "targets" in record:
            assert event.targets.dtype == np.int64
            assert event.targets.tolist() == [int(t) for t in record["targets"]]
            assert all(0 <= target < trace.num_nodes for target in event.targets)
