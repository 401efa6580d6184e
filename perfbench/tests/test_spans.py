"""Self-time arithmetic on hand-built span trees, and metric-name hygiene."""

import itertools

import pytest

from spans import METRIC_NAME, Span, SpanRecorder, covered_length, layer_times, self_times


def tree():
    """flow [0,10] -> tdgen [1,4], semilet [3,6] (overlapping), tdsim [7,9] -> tdsim [7.5,8.5]."""
    return [
        Span(0, "flow.target_fault", "flow", 0.0, 10.0, None, 1),
        Span(1, "tdgen.generate", "tdgen", 1.0, 4.0, 0, 1),
        Span(2, "semilet.propagate", "semilet", 3.0, 6.0, 0, 1),
        Span(3, "tdsim.sequence", "tdsim", 7.0, 9.0, 0, 1),
        Span(4, "tdsim.simulate", "tdsim", 7.5, 8.5, 3, 1),
    ]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (7, 9)], 0, 10) == pytest.approx(7.0)
    assert covered_length([(-5, 2), (8, 15)], 0, 10) == pytest.approx(4.0)
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(2, 3), (2, 3)], 0, 10) == pytest.approx(1.0)


def test_self_time_is_duration_minus_children_union():
    selfs = self_times(tree())
    assert selfs[0] == pytest.approx(10.0 - 7.0)  # children cover [1,6] and [7,9]
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)  # 2 s minus its 1 s child
    assert selfs[4] == pytest.approx(1.0)


def test_self_times_add_up_to_the_root_duration_without_overlap():
    spans = [s for s in tree() if s.span_id != 2]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_layer_busy_counts_outermost_spans_only():
    times = layer_times(tree())
    assert times["tdsim"]["busy_s"] == pytest.approx(2.0)  # not 2 + 1
    assert times["tdsim"]["self_s"] == pytest.approx(2.0)
    assert times["flow"]["busy_s"] == pytest.approx(10.0)
    assert times["flow"]["self_s"] == pytest.approx(3.0)


def test_recorder_nests_and_starts_traces():
    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    root = recorder.open("pass", "bench")
    fault = recorder.open("flow.target_fault", "flow", new_trace=True)
    inner = recorder.open("tdgen.generate", "tdgen")
    recorder.close(inner)
    recorder.close(fault)
    recorder.close(root)
    spans = {s.name: s for s in recorder.spans}
    assert spans["tdgen.generate"].parent == spans["flow.target_fault"].span_id
    assert spans["tdgen.generate"].trace == spans["flow.target_fault"].trace
    assert spans["flow.target_fault"].trace != spans["pass"].trace
    assert [s.duration for s in recorder.spans] == [5.0, 3.0, 1.0]


def test_paused_recorder_records_nothing():
    recorder = SpanRecorder()
    recorder.enabled = False
    recorder.close(recorder.open("tdgen.generate", "tdgen"))
    assert recorder.spans == []


def test_every_declared_metric_name_is_well_formed(benchmark_json):
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name) and len(name) <= 64, name


def test_layer_summary_emits_every_declared_per_layer_metric(benchmark_json):
    import layers
    from run import pooled_layers

    produced = pooled_layers([{"spans": [s.to_json() for s in tree()], "unit_s": 10.0}])
    produced.update({"trace.overhead_s": 0, "trace.wall_s": 0, "trace.untraced_wall_s": 0})
    declared = {m["name"] for m in benchmark_json["per_layer"]}
    assert declared == set(produced)
    assert all(METRIC_NAME.match(name) for name in produced)
    assert set(layers.LAYERS) == {name.split(".")[0] for name in declared} - {"trace"}


def test_printed_units_match_the_declaration(benchmark_json):
    import layers
    from run import E2E_UNITS

    assert E2E_UNITS == {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    for metric in benchmark_json["per_layer"]:
        assert layers.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_workload_names_agree(benchmark_json):
    from run import WORKLOAD_NAMES
    from workloads import WORKLOADS

    declared = [w["name"] for w in benchmark_json["workloads"]]
    assert list(WORKLOAD_NAMES) == list(WORKLOADS) == declared
