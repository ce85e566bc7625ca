"""Exporter tests: summarize, phase totals and the Chrome trace-event
format (the ``repro trace`` CLI's engine).

The Chrome export contract is structural: a Perfetto/chrome://tracing
loadable JSON object with ``traceEvents`` — ``"M"`` process-name
metadata, ``"X"`` complete events with microsecond ``ts``/``dur``, and
one final ``"i"`` instant event carrying the metrics snapshot.
"""

import json
from fractions import Fraction

import repro
from repro.obs import (
    Tracer,
    chrome_trace,
    load_trace,
    phase_totals,
    set_tracer,
    summarize_trace,
    trace_scope,
    write_chrome_trace,
)
from repro.workloads import generate
from tests.markers import needs_milp


def _sample_trace(tmp_path):
    with trace_scope(tmp_path / "t.trace.jsonl") as tracer:
        with tracer.span("solve", instance="demo"):
            with tracer.span("eptas.classify"):
                pass
        tracer.count("kernel.placements", 9)
        tracer.gauge("service.queue_depth", 2)
        tracer.latency("service.request_ms", 12.5)
    return load_trace(tmp_path / "t.trace.jsonl")


def _validate_chrome_schema(doc):
    """Structural validation of trace-event JSON (the CI schema check)."""
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    phases = {"M", "X", "i"}
    pids = set()
    for event in events:
        assert event["ph"] in phases
        assert isinstance(event["pid"], int)
        pids.add(event["pid"])
        if event["ph"] == "M":
            assert event["name"] == "process_name"
            assert "name" in event["args"]
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert isinstance(event["name"], str)
        if event["ph"] == "i":
            assert event["s"] == "g"
    # Every pid used by an event has a process_name metadata entry.
    named = {e["pid"] for e in events if e["ph"] == "M"}
    assert pids <= named


class TestSummarize:
    def test_sections_present(self, tmp_path):
        trace = _sample_trace(tmp_path)
        text = summarize_trace(trace)
        assert "solve" in text
        assert "kernel.placements" in text
        assert "service.queue_depth" in text
        assert "service.request_ms" in text

    def test_empty_trace(self):
        text = summarize_trace(
            {"events": [], "counters": {}, "gauges": {}, "latency_ms": {}}
        )
        assert "(no spans)" in text

    def test_phase_totals_prefix_filter(self, tmp_path):
        trace = _sample_trace(tmp_path)
        totals = phase_totals(trace["events"], prefix="eptas.")
        assert set(totals) == {"eptas.classify"}
        assert totals["eptas.classify"]["count"] == 1


class TestChromeExport:
    def test_schema(self, tmp_path):
        trace = _sample_trace(tmp_path)
        _validate_chrome_schema(chrome_trace(trace))

    def test_write_is_valid_json(self, tmp_path):
        trace = _sample_trace(tmp_path)
        out = tmp_path / "chrome.json"
        write_chrome_trace(trace, out)
        _validate_chrome_schema(json.loads(out.read_text()))

    def test_eptas_solve_shows_per_guess_ip_spans(self, tmp_path):
        # The acceptance criterion: a Chrome export of an EPTAS solve
        # contains the window-IP spans (the final compression solve
        # always emits one, whatever the search certified).
        inst = generate("small_jobs", 2, 8, 0)
        path = tmp_path / "eptas.trace.jsonl"
        with trace_scope(path):
            repro.solve(
                inst,
                algorithm="eptas",
                epsilon=Fraction(1, 2),
                mode="augmentation",
            )
        doc = chrome_trace(load_trace(path))
        _validate_chrome_schema(doc)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert "eptas.ip_solve" in names
        assert "eptas.certify" in names
        assert "eptas.classify" in names
        assert "eptas.solve" in names

    @needs_milp
    def test_ip_solve_span_opens_into_assembly_and_milp(self):
        inst = generate("small_jobs", 2, 8, 0)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            repro.solve(
                inst, algorithm="eptas", epsilon=Fraction(1, 2),
                ip_backend="milp",
            )
        finally:
            set_tracer(previous)
        spans = {e["name"]: e for e in tracer.events}
        solve = spans["eptas.ip_solve"]
        assert solve["args"]["final_resolve"] is True
        assemble, call = spans["eptas.ip_assemble"], spans["eptas.ip_milp"]
        for child in (assemble, call):
            assert child["depth"] == solve["depth"] + 1
            assert child["args"]["nvar"] > 0
            assert child["args"]["rows"] > 0
            assert child["args"]["nnz"] > 0
        assert call["args"]["compress"] is True
        assert call["args"]["mip_node_count"] >= 0
        assert call["args"]["mip_gap"] >= 0

    def test_shard_processes_get_own_pids(self):
        events = [
            {"name": "a", "ts": 0.0, "dur": 1.0, "depth": 0,
             "proc": "main", "shard": None},
            {"name": "b", "ts": 0.5, "dur": 0.2, "depth": 0,
             "proc": "shard-1", "shard": 1},
        ]
        doc = chrome_trace(
            {"events": events, "counters": {}, "gauges": {},
             "latency_ms": {}}
        )
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert xs["a"]["pid"] != xs["b"]["pid"]
        assert xs["a"]["pid"] == 1  # "main" is always process 1


class TestTracedSolveCounters:
    def test_solve_promotes_kernel_counters(self):
        inst = generate("uniform", 4, 12, 0)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            result = repro.solve(inst, algorithm="class_greedy")
        finally:
            set_tracer(previous)
        shim = result.stats.get("kernel", result.stats.get("dispatch"))
        assert shim is not None
        for key, value in shim.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            assert tracer.counters[f"kernel.{key}"] == value
