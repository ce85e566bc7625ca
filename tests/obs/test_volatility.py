"""The volatility contract, end to end: telemetry never changes what
the system *computes* or *records*.

Two sweeps of one plan — tracing off and tracing on — must produce
byte-identical canonical record streams, on the serial backend and on
the sharded backend (where enabled tracing additionally streams
per-shard sidecar files that get merged and cleaned up).
"""

import pytest

from repro.obs import NULL_TRACER, get_tracer, set_tracer, trace_scope
from repro.runner import (
    InstanceRepository,
    WorkPlan,
    canonical_stream,
    read_records,
    run_plan,
)


def _plan():
    repo = InstanceRepository.from_families(
        ["uniform"], [3], [8], [0, 1, 2]
    )
    plan = WorkPlan.from_product(
        repo, ["three_halves", "merge_lpt"], defer_payloads=True
    )
    return repo, plan


def _sweep(out, backend=None, **kwargs):
    repo, plan = _plan()
    result = run_plan(
        plan, out, repository=repo, backend=backend, **kwargs
    )
    return canonical_stream(result.records)


class TestCanonicalByteEquality:
    def test_serial_sweep_identical_with_and_without_tracing(
        self, tmp_path
    ):
        previous = set_tracer(NULL_TRACER)
        try:
            untraced = _sweep(tmp_path / "untraced.jsonl")
        finally:
            set_tracer(previous)
        with trace_scope(tmp_path / "run.trace.jsonl") as tracer:
            traced = _sweep(tmp_path / "traced.jsonl")
            assert tracer.events, "tracing was on but recorded nothing"
        assert traced == untraced

    def test_sharded_sweep_identical_and_sidecars_cleaned_up(
        self, tmp_path
    ):
        previous = set_tracer(NULL_TRACER)
        try:
            untraced = _sweep(
                tmp_path / "untraced.jsonl", backend="sharded", shards=2
            )
        finally:
            set_tracer(previous)
        with trace_scope(tmp_path / "shard.trace.jsonl") as tracer:
            traced = _sweep(
                tmp_path / "traced.jsonl", backend="sharded", shards=2
            )
            # Worker spans were merged back from the shard sidecars,
            # including the worker-side repository fetches.
            procs = {e["proc"] for e in tracer.events}
            assert any(proc.startswith("shard-") for proc in procs)
            assert "sweep.fetch" in [e["name"] for e in tracer.events]
        assert traced == untraced
        # Sidecar trace files are gone after the merge.
        assert not list(tmp_path.glob("**/shard-*.trace.jsonl"))

    def test_result_files_canonicalize_identically(self, tmp_path):
        # The on-disk record files differ only in volatile fields
        # (wall_time and friends); their canonical projections are
        # byte-for-byte equal.
        previous = set_tracer(NULL_TRACER)
        try:
            _sweep(tmp_path / "a.jsonl")
        finally:
            set_tracer(previous)
        with trace_scope(tmp_path / "b.trace.jsonl"):
            _sweep(tmp_path / "b.jsonl")
        a = canonical_stream(read_records(tmp_path / "a.jsonl"))
        b = canonical_stream(read_records(tmp_path / "b.jsonl"))
        assert a.encode() == b.encode()


class TestTracedSweepTelemetry:
    def test_cell_spans_and_resume_counter(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        with trace_scope(tmp_path / "one.trace.jsonl") as tracer:
            _sweep(out)
            names = [e["name"] for e in tracer.events]
            assert "sweep.run_plan" in names
            assert "sweep.cell" in names
            assert "sweep.solve" in names
            assert "sweep.emit" in names
            assert tracer.counters.get("sweep.resume_cache_hits", 0) == 0
        # Resuming the same sweep: every cell is a cache hit.
        with trace_scope(tmp_path / "two.trace.jsonl") as tracer:
            _sweep(out)
            assert tracer.counters["sweep.resume_cache_hits"] == 6
            assert "sweep.cell" not in [e["name"] for e in tracer.events]

    def test_kernel_counters_promoted_per_cell(self, tmp_path):
        with trace_scope(tmp_path / "k.trace.jsonl") as tracer:
            _sweep(tmp_path / "sweep.jsonl")
            kernel_keys = [
                key for key in tracer.counters if key.startswith("kernel.")
            ]
            assert kernel_keys, "no kernel counters promoted by the cells"


    def test_eptas_counters_folded_once(self, tmp_path):
        """A traced sweep cell reports the EPTAS search counters exactly
        once: the solver folds them in, the cell must not add them
        again."""
        from repro.ptas import schedule_eptas

        repo = InstanceRepository.from_families(["uniform"], [2], [5], [0])
        plan = WorkPlan.from_product(repo, ["eptas"])
        (ref,) = repo
        expected = schedule_eptas(ref.instance).stats["incremental"]
        assert expected["guesses"] > 0
        with trace_scope(tmp_path / "e.trace.jsonl") as tracer:
            run_plan(plan, tmp_path / "e.jsonl", repository=repo)
            assert tracer.counters["eptas.guesses"] == expected["guesses"]
            assert tracer.counters["eptas.final_resolves"] == 1


def test_active_tracer_restored_even_when_sweep_raises(tmp_path):
    before = get_tracer()
    with pytest.raises(FileNotFoundError):
        with trace_scope(tmp_path / "x.trace.jsonl"):
            InstanceRepository.from_directory(tmp_path / "missing-dir")
    assert get_tracer() is before
