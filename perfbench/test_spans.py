"""Self-tests of the benchmark's helpers: ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import pytest

from spans import (Tracer, check_metric_name, covered_length,
                   tail_statistic)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_tail_is_eleventh_slowest():
    values = list(range(1, 101))  # 100 samples, 1..100
    value, percentile, count = tail_statistic(values)
    assert value == 90            # 91..100 are the ten beyond it
    assert percentile == 90.0
    assert count == 100


def test_tail_ignores_input_order_and_ties():
    values = [5.0] * 12 + [1.0] * 3
    assert tail_statistic(values[::-1])[0] == 5.0


def test_tail_needs_eleven_samples():
    assert tail_statistic(range(11))[0] == 0
    with pytest.raises(ValueError):
        tail_statistic(range(10))


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 4), (8, 12)], 0, 10) == 5
    assert covered_length([], 0, 10) == 0
    assert covered_length([(5, 6), (1, 2)], 0, 10) == 2


def _span(tracer, name, start, end, parent=None):
    tracer.spans.append([name, start, end, parent, None])
    return len(tracer.spans) - 1


def test_self_time_subtracts_child_coverage():
    tracer = Tracer()
    top = _span(tracer, "outer", 0.0, 10.0)
    _span(tracer, "inner", 1.0, 3.0, top)
    _span(tracer, "inner", 2.0, 4.0, top)   # overlaps the first child
    nested = _span(tracer, "inner", 6.0, 8.0, top)
    _span(tracer, "leaf", 6.5, 7.0, nested)  # grandchild: not subtracted
    assert tracer.self_time("outer") == pytest.approx(10.0 - 3.0 - 2.0)
    assert tracer.self_time("inner") == pytest.approx(2.0 + 2.0 + 1.5)
    assert tracer.busy("inner") == pytest.approx(6.0)
    assert tracer.calls("inner") == 3


def test_recorded_spans_nest_by_call_order():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        traced = tracer.wrap(lambda x: x + 1, "wrapped")
        assert traced(1) == 2
    names = {s[0]: s for s in tracer.spans}
    assert names["outer"][3] is None
    assert names["inner"][3] == names["wrapped"][3] == 0
    assert 0.0 <= tracer.self_time("outer") <= tracer.busy("outer")


@pytest.mark.parametrize("name", ["setup_s", "estimators.final_s",
                                  "trace.overhead_ratio", "9lives", "a-b"])
def test_metric_name_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é",
                                  "x" * 65])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_names_are_valid_and_unique():
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
