"""The tracer: nested perf-counter spans plus counters/gauges/latency.

One module-level *active tracer* (:func:`get_tracer`) serves the whole
process.  It is either :data:`NULL_TRACER` — the disabled singleton
whose every method is a no-op and whose ``span()`` hands back one
shared, reusable null context manager — or a real :class:`Tracer`.
Instrumentation sites therefore never branch on "is tracing on":
they call ``get_tracer().span(...)`` / ``.count(...)`` unconditionally
and the disabled path costs a global lookup and a no-op ``with``.

Timing uses ``time.perf_counter`` exclusively (monotonic, allowed by
lint REP002); span timestamps are seconds relative to the tracer's
creation, so traces carry no wall-clock epoch and two runs of the same
workload are comparable.

Sharded sweep workers run in forked child processes.  Each worker
installs its own *streaming* tracer whose finished spans are appended
(and flushed, mirroring the crash-safe part-file discipline of
:mod:`repro.runner.backends.sharded`) to a per-shard sidecar JSONL
file; the coordinator merges every sidecar back into the parent trace
with :func:`merge_sidecar` once the sweep's deterministic merge is
done.  A worker killed mid-cell loses at most the span in flight.

Trace JSONL format (one object per line)::

    {"type": "meta",    "v": 1, "proc": "main", "shard": null}
    {"type": "span",    "name": "eptas.ip_solve", "ts": 0.0012,
     "dur": 0.0304, "depth": 2, "proc": "main", "shard": null,
     "args": {"T": "35/2"}}
    {"type": "metrics", "proc": "main", "counters": {...},
     "gauges": {...}, "latency_ms": {...}}

Everything here is **volatile telemetry**: it must never be written
into ``RunRecord.canonical_dict`` / ``canonical_stream`` (lint REP002
rejects ``repro.obs`` references inside those constructors).
"""

from __future__ import annotations

import atexit
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Union

__all__ = [
    "TRACE_ENV",
    "NullTracer",
    "NULL_TRACER",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "tracing_enabled",
    "trace_scope",
    "worker_trace_scope",
    "sidecar_path",
    "merge_sidecar",
    "percentiles",
]

#: Environment switch: ``1``/``true`` traces in memory; any other
#: non-empty value is a path the trace is dumped to at process exit.
TRACE_ENV = "REPRO_TRACE"

#: In-memory span cap: a real tracer left on for a whole test suite
#: must stay bounded.  Past the cap new spans are dropped (and counted
#: in the ``obs.dropped_spans`` counter); counters keep accumulating.
MAX_EVENTS = 200_000

#: Per-name latency sample cap (reservoir of the most recent samples).
MAX_LATENCY_SAMPLES = 4096


class _NullSpan:
    """The shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every method is a no-op.

    A process-wide singleton (:data:`NULL_TRACER`); instrumentation
    left compiled in costs one global lookup plus a no-op ``with`` per
    span.  The ≤2% overhead budget is kept by construction — O(1)
    tracer touches per solve (a deterministic test asserts this) — and
    measured by the bench ``obs`` suite.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: Union[int, float]) -> None:
        pass

    def latency(self, name: str, ms: float) -> None:
        pass

    def add_counters(self, prefix: str, counters: Mapping[str, Any]) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}


NULL_TRACER = NullTracer()


class _SpanHandle:
    """Context manager recording one span on exit (exceptions pass
    through; the span still closes, flagged ``"error": true``)."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_SpanHandle":
        self._depth = self._tracer._depth
        self._tracer._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        end = time.perf_counter()
        self._tracer._depth -= 1
        if exc_type is not None:
            self._args = dict(self._args)
            self._args["error"] = True
        self._tracer._record_span(
            self._name, self._start, end - self._start, self._depth, self._args
        )
        return False

    def set(self, **args: Any) -> None:
        """Attach attributes known only once the span's work is done
        (e.g. a solver's node count); recorded when the span closes."""
        self._args = {**self._args, **args}


class Tracer:
    """An enabled tracer: collects spans, counters, gauges, latencies.

    ``stream`` (an open text file) switches the tracer into sidecar
    mode: finished spans are appended and flushed line-by-line instead
    of buffered, so a crashed worker's trace survives up to its last
    completed span.
    """

    enabled = True

    def __init__(
        self,
        *,
        process: str = "main",
        shard: Optional[int] = None,
        stream: Optional[Any] = None,
        max_events: int = MAX_EVENTS,
    ):
        self.process = process
        self.shard = shard
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, Union[int, float]] = {}
        self.gauges: Dict[str, Union[int, float]] = {}
        self.latencies: Dict[str, List[float]] = {}
        self._depth = 0
        self._max_events = max_events
        self._stream = stream
        self._t0 = time.perf_counter()
        if stream is not None:
            self._write_line({"type": "meta", "v": 1, "proc": process,
                              "shard": shard})

    # -- span recording -------------------------------------------------

    def span(self, name: str, **args: Any) -> _SpanHandle:
        """Open a nested span; use as ``with tracer.span("x", k=v):``."""
        return _SpanHandle(self, name, args)

    def _record_span(
        self,
        name: str,
        start: float,
        dur: float,
        depth: int,
        args: Dict[str, Any],
    ) -> None:
        event: Dict[str, Any] = {
            "type": "span",
            "name": name,
            "ts": round(start - self._t0, 9),
            "dur": round(dur, 9),
            "depth": depth,
            "proc": self.process,
            "shard": self.shard,
        }
        if args:
            # default=str: span args may carry Fractions (makespan
            # guesses) or tuples — stringify rather than refuse.
            event["args"] = {k: v for k, v in sorted(args.items())}
        if self._stream is not None:
            self._write_line(event)
        elif len(self.events) < self._max_events:
            self.events.append(event)
        else:
            self.count("obs.dropped_spans")

    # -- metrics ---------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Increment a monotonically accumulating counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: Union[int, float]) -> None:
        """Record the latest value of a point-in-time quantity."""
        self.gauges[name] = value

    def latency(self, name: str, ms: float) -> None:
        """Record one latency sample (milliseconds) for percentiles."""
        samples = self.latencies.setdefault(name, [])
        if len(samples) >= MAX_LATENCY_SAMPLES:
            del samples[0]
        samples.append(ms)

    def add_counters(self, prefix: str, counters: Mapping[str, Any]) -> None:
        """Fold a subsystem's counter dict (e.g. a kernel's
        ``state.counters()`` or a backend's ``stats``) into the tracer
        under ``prefix.``, skipping non-numeric values."""
        for key in sorted(counters):
            value = counters[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.count(f"{prefix}.{key}", value)

    # -- snapshots & persistence ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe metrics snapshot: counters, gauges, and latency
        percentiles (deterministically ordered)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "latency_ms": {
                k: percentiles(self.latencies[k])
                for k in sorted(self.latencies)
            },
        }

    def _write_line(self, obj: Dict[str, Any]) -> None:
        self._stream.write(json.dumps(obj, sort_keys=True, default=str) + "\n")
        self._stream.flush()

    def finish_stream(self) -> None:
        """Sidecar mode: append the final metrics line and flush."""
        if self._stream is None:
            return
        self._write_line({"type": "metrics", "proc": self.process,
                          "shard": self.shard, **self.snapshot()})

    def dump(self, path: Union[str, Path]) -> None:
        """Write the whole trace as JSONL (meta, spans, metrics)."""
        path = Path(path)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            lines: List[Dict[str, Any]] = [
                {"type": "meta", "v": 1, "proc": self.process,
                 "shard": self.shard}
            ]
            lines.extend(self.events)
            lines.append({"type": "metrics", "proc": self.process,
                          "shard": self.shard, **self.snapshot()})
            for obj in lines:
                handle.write(json.dumps(obj, sort_keys=True, default=str) + "\n")


def percentiles(samples: Iterable[float]) -> Dict[str, float]:
    """Nearest-rank percentiles of a latency sample set (ms)."""
    ordered = sorted(samples)
    if not ordered:
        return {"count": 0}
    n = len(ordered)

    def rank(p: float) -> float:
        idx = min(n - 1, max(0, int(p * n + 0.5) - 1))
        return round(ordered[idx], 3)

    return {
        "count": n,
        "p50": rank(0.50),
        "p90": rank(0.90),
        "p99": rank(0.99),
        "max": round(ordered[-1], 3),
    }


# -- the process-wide active tracer -------------------------------------


def _tracer_from_env() -> Union[Tracer, NullTracer]:
    value = os.environ.get(TRACE_ENV, "").strip()
    if value.lower() in ("", "0", "false", "no", "off"):
        return NULL_TRACER
    tracer = Tracer()
    if value.lower() not in ("1", "true", "yes", "on"):
        # A path: dump the accumulated trace when the process exits.
        # Forked sweep workers bypass atexit (multiprocessing exits via
        # os._exit), so only the coordinator writes this file.
        atexit.register(tracer.dump, value)
    return tracer


_active: Union[Tracer, NullTracer] = _tracer_from_env()


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-wide active tracer (the null singleton when off)."""
    return _active


def set_tracer(tracer: Union[Tracer, NullTracer]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` as the active tracer; returns the previous
    one so callers can restore it."""
    global _active
    previous = _active
    _active = tracer
    return previous


def tracing_enabled() -> bool:
    return _active.enabled


class trace_scope:
    """Context manager installing a fresh :class:`Tracer` for a block,
    optionally dumping it to ``path`` on exit::

        with trace_scope(args.trace) as tracer:
            run_plan(...)

    ``path=None`` still traces (in memory) so callers can inspect the
    tracer object; pass-through of the previously active tracer is
    restored on exit even on error.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None, **kwargs: Any):
        self.path = path
        self.tracer = Tracer(**kwargs)
        self._previous: Optional[Union[Tracer, NullTracer]] = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        set_tracer(self._previous)
        if self.path is not None:
            self.tracer.dump(self.path)
        return False


class worker_trace_scope:
    """Sharded-worker sidecar scope.

    If the (fork-inherited) active tracer is enabled, installs a
    streaming tracer appending to ``path``; otherwise a no-op that
    keeps the null tracer active.  Used by ``_shard_worker``.
    """

    def __init__(self, path: Union[str, Path], *, shard: int):
        self.path = Path(path)
        self.shard = shard
        self._handle: Optional[Any] = None
        self._tracer: Union[Tracer, NullTracer] = NULL_TRACER
        self._previous: Optional[Union[Tracer, NullTracer]] = None

    def __enter__(self) -> Union[Tracer, NullTracer]:
        if not get_tracer().enabled:
            return NULL_TRACER
        self._handle = open(self.path, "a")
        self._tracer = Tracer(
            process=f"shard-{self.shard}", shard=self.shard,
            stream=self._handle,
        )
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        if self._handle is None:
            return False
        try:
            self._tracer.finish_stream()
        finally:
            if self._previous is not None:
                set_tracer(self._previous)
            self._handle.close()
        return False


def sidecar_path(part_dir: Union[str, Path], shard: int) -> Path:
    """The per-shard trace sidecar, a sibling of ``shard-NNN.part.jsonl``."""
    return Path(part_dir) / f"shard-{shard:03d}.trace.jsonl"


def _iter_trace_lines(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    # Deliberately local (not repro.runner.records.iter_jsonl): obs sits
    # below the runner in the import graph.  Same torn-tail tolerance —
    # a worker killed mid-write leaves one partial line.
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def merge_sidecar(tracer: Union[Tracer, NullTracer],
                  path: Union[str, Path]) -> int:
    """Fold a worker sidecar trace into ``tracer``: span events are
    adopted verbatim (they carry their own ``proc``/``shard`` tags and
    per-process timeline), metrics lines merge into the coordinator's
    counters.  Returns the number of spans adopted; no-op when the
    sidecar does not exist or the tracer is disabled."""
    if not tracer.enabled or not Path(path).exists():
        return 0
    adopted = 0
    for event in _iter_trace_lines(path):
        kind = event.get("type")
        if kind == "span":
            if len(tracer.events) < tracer._max_events:
                tracer.events.append(event)
                adopted += 1
            else:
                tracer.count("obs.dropped_spans")
        elif kind == "metrics":
            for name, value in sorted(
                (event.get("counters") or {}).items()
            ):
                if isinstance(value, (int, float)):
                    tracer.count(name, value)
            for name, value in sorted((event.get("gauges") or {}).items()):
                if isinstance(value, (int, float)):
                    tracer.gauge(name, value)
    return adopted
