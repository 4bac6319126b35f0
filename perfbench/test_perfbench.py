"""Tests of the span recorder, self-time accounting, trace export and metric names."""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from perfbench import calibration, report
from perfbench.run import WORKLOAD_NAMES
from perfbench.spans import (
    METRIC_NAME,
    Recorder,
    Span,
    check_metric_names,
    chrome_trace,
    latency_tail,
    link_by_containment,
    self_times,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(name, start, end, sid, parent=None, tid=1, ident=None):
    return Span(name=name, start=start, end=end, sid=sid, parent=parent, tid=tid, ident=ident)


def test_nested_spans_link_parent_and_inherit_ident():
    recorder = Recorder()
    with recorder.span("bench.rep", "scn-a") as outer:
        with recorder.span("solvers.solve") as inner:
            time.sleep(0.001)
    assert inner.parent == outer.sid
    assert inner.ident == "scn-a"
    assert outer.start <= inner.start <= inner.end <= outer.end
    # Spans are appended as they finish: innermost first.
    assert [span.name for span in recorder.spans] == ["solvers.solve", "bench.rep"]


def test_self_time_of_nested_spans():
    spans = [
        _span("bench.rep", 0.0, 10.0, 1),
        _span("api.engine.execute", 1.0, 9.0, 2, parent=1),
        _span("solvers.solve", 2.0, 5.0, 3, parent=2),
    ]
    own = self_times(spans)
    assert own[(0, 1)] == pytest.approx(2.0)
    assert own[(0, 2)] == pytest.approx(5.0)
    assert own[(0, 3)] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_of_adjacent_spans():
    spans = [
        _span("bench.rep", 0.0, 6.0, 1),
        _span("store.serialize.encode", 1.0, 3.0, 2, parent=1),
        _span("store.write", 3.0, 5.0, 3, parent=1),
    ]
    own = self_times(spans)
    assert own[(0, 1)] == pytest.approx(2.0)
    assert own[(0, 2)] == pytest.approx(2.0)
    assert own[(0, 3)] == pytest.approx(2.0)


def test_overlapping_children_count_once():
    spans = [
        _span("service.client.upload", 0.0, 10.0, 1),
        _span("service.server.ingest", 2.0, 6.0, 2, parent=1, tid=2),
        _span("service.server.ingest", 4.0, 8.0, 3, parent=1, tid=3),
    ]
    assert self_times(spans)[(0, 1)] == pytest.approx(4.0)


def test_recorder_keeps_one_stack_per_thread():
    recorder = Recorder()
    seen = {}

    def handler():
        with recorder.span("service.server.lease") as span:
            seen["span"] = span

    with recorder.span("service.client.lease", "req-1"):
        thread = threading.Thread(target=handler)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen["span"].parent is None


def test_server_spans_link_to_the_containing_client_span():
    spans = [
        _span("bench.rep", 0.0, 10.0, 1, tid=1),
        _span("service.client.lease", 1.0, 2.0, 2, parent=1, tid=1, ident="req-1"),
        _span("service.client.upload", 3.0, 6.0, 3, parent=1, tid=1, ident="req-2"),
        _span("service.server.lease", 1.2, 1.8, 4, tid=7),
        _span("service.server.ingest", 3.5, 5.5, 5, tid=8),
        _span("store.write", 4.0, 5.0, 6, parent=5, tid=8),
    ]
    assert link_by_containment(spans, tid=1) == 2
    by_sid = {span.sid: span for span in spans}
    assert by_sid[4].parent == 2 and by_sid[4].ident == "req-1"
    assert by_sid[5].parent == 3 and by_sid[5].ident == "req-2"
    assert by_sid[6].ident == "req-2"
    own = self_times(spans)
    assert own[(0, 3)] == pytest.approx(1.0)  # transport: client minus handler
    assert sum(own.values()) == pytest.approx(10.0)


def test_chrome_trace_export():
    spans = [_span("bench.rep", 1.0, 1.5, 1, ident="q-1")]
    spans[0].attrs["rows"] = 3
    trace = json.loads(json.dumps(chrome_trace(spans)))
    (event,) = trace["traceEvents"]
    assert event["ph"] == "X"
    assert event["cat"] == "bench"
    assert event["ts"] == pytest.approx(1.0e6)
    assert event["dur"] == pytest.approx(0.5e6)
    assert event["args"] == {"id": "q-1", "sid": 1, "parent": None, "rows": 3}


def test_latency_tail_needs_ten_samples_beyond():
    assert latency_tail([float(value) for value in range(1, 101)]) == (50.0, 90.0, 90.0)
    assert latency_tail([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 0.0, 3.0)
    assert latency_tail([]) == (0.0, 0.0, 0.0)


def test_every_metric_name_is_well_formed():
    names = [name for name, *_ in report.END_TO_END] + [name for name, *_ in report.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64, name
    check_metric_names(names)
    with pytest.raises(ValueError, match="bad name"):
        check_metric_names(["ok.name", "bad name"])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [
        (metric["name"], metric["unit"], metric["better"], metric["bound"])
        for metric in spec["end_to_end"]
    ] == list(report.END_TO_END)
    assert [
        (metric["name"], metric["unit"], metric["better"]) for metric in spec["per_layer"]
    ] == list(report.PER_LAYER)


def test_pacer_keeps_probe_time_apart_and_measures_speed(monkeypatch):
    clock = iter([0.0, 0.5, 1.0, 1.5])
    monkeypatch.setattr(calibration.time, "perf_counter", lambda: next(clock))
    pacer = calibration.Pacer(items=1000)
    pacer.between()
    pacer.between()
    assert (pacer.slices, pacer.seconds) == (2, 1.0)
    assert pacer.speed == pytest.approx(2000.0)
    null = calibration.NullPacer()
    null.between()
    assert (null.slices, null.seconds, null.speed) == (0, 0.0, None)


def test_reference_seconds_rescale_by_the_bracketing_probes(monkeypatch):
    items = calibration.SETUP_PROBE_ITEMS
    # Two slices of 0.01 s each: probe speed = items / 0.01 per second.
    clock = iter([0.0, 0.01, 5.0, 5.01])
    monkeypatch.setattr(calibration.time, "perf_counter", lambda: next(clock))
    raw, rescaled = calibration.reference_seconds(lambda: 2.0)
    assert raw == 2.0
    assert rescaled == pytest.approx(2.0 * (items / 0.01) / calibration.REFERENCE_SPEED)
