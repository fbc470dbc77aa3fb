"""BatchRunner: equivalence with serial loops, streaming, isolation.

The batched engine's contract is exact: over any query set it must return
byte-identical MEM sets to a serial ``session.find_mems`` loop — ordered
or as-completed, any worker count, both backends — while bounding
in-flight work and isolating per-query failures.
"""

from __future__ import annotations

import io
import threading

import numpy as np
import pytest

from repro.core.batch import (
    BatchError,
    BatchResult,
    BatchRunner,
    find_mems_batch,
)
from repro.core.params import GpuMemParams
from repro.core.session import MemSession
from repro.errors import InvalidParameterError, InvalidSequenceError
from repro.obs import Tracer
from repro.sequence.fasta import iter_fasta, read_fasta
from repro.sequence.synthetic import markov_dna


@pytest.fixture(scope="module")
def reference():
    return markov_dna(20_000, seed=7)


def _queries(reference, n, size=300, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        at = int(rng.integers(0, reference.size - size))
        read = reference[at : at + size].copy()
        flips = rng.integers(0, read.size, max(1, read.size // 50))
        read[flips] = (read[flips] + rng.integers(1, 4, flips.size)) % 4
        out.append(read)
    return out


class TestEquivalence:
    @pytest.mark.parametrize("ordered", [True, False])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_serial_loop_vectorized(self, reference, ordered, workers):
        queries = _queries(reference, 64)
        session = MemSession(reference, min_length=30)
        serial = [session.find_mems(q).as_tuples() for q in queries]
        runner = BatchRunner(
            MemSession(reference, min_length=30), workers=workers
        )
        results = sorted(
            runner.run(queries, ordered=ordered), key=lambda r: r.index
        )
        assert all(r.ok for r in results)
        assert [r.value.as_tuples() for r in results] == serial

    def test_matches_serial_loop_simulated(self, reference):
        queries = _queries(reference[:2_000], 8, size=120)
        params = GpuMemParams(
            min_length=20, seed_length=8, backend="simulated"
        )
        session = MemSession(reference[:2_000], params)
        serial = [session.find_mems(q).as_tuples() for q in queries]
        runner = BatchRunner(MemSession(reference[:2_000], params), workers=3)
        results = list(runner.run(queries))
        assert [r.value.as_tuples() for r in results] == serial

    def test_ordered_vs_as_completed_same_results(self, reference):
        queries = _queries(reference, 16, seed=3)
        runner = BatchRunner(reference, min_length=30, workers=4)
        ordered = [r.value.as_tuples() for r in runner.run(queries)]
        completed = sorted(
            runner.run(queries, ordered=False), key=lambda r: r.index
        )
        assert [r.value.as_tuples() for r in completed] == ordered

    def test_indexes_follow_submission_order(self, reference):
        queries = _queries(reference, 10)
        runner = BatchRunner(reference, min_length=30, workers=2)
        assert [r.index for r in runner.run(queries)] == list(range(10))

    def test_convenience_wrapper(self, reference):
        queries = _queries(reference, 4)
        results = find_mems_batch(reference, queries, 30, workers=2)
        session = MemSession(reference, min_length=30)
        assert [r.value.as_tuples() for r in results] == [
            session.find_mems(q).as_tuples() for q in queries
        ]


class TestEdgeCases:
    def test_empty_query_stream(self, reference):
        runner = BatchRunner(reference, min_length=30)
        assert list(runner.run([])) == []

    def test_single_record(self, reference):
        queries = _queries(reference, 1)
        runner = BatchRunner(reference, min_length=30, workers=4)
        [result] = list(runner.run(queries))
        assert result.index == 0 and result.ok
        assert result.value.as_tuples() == MemSession(
            reference, min_length=30
        ).find_mems(queries[0]).as_tuples()

    def test_record_longer_than_reference(self, reference):
        short_ref = reference[:500]
        long_query = np.concatenate([short_ref, short_ref, short_ref])
        runner = BatchRunner(short_ref, min_length=30, workers=2)
        [result] = list(runner.run([long_query]))
        assert result.ok
        serial = MemSession(short_ref, min_length=30).find_mems(long_query)
        assert result.value.as_tuples() == serial.as_tuples()
        assert len(result.value) > 0

    def test_mixed_case_and_n_bases_via_fasta(self, reference):
        text = ">lower\nacgtacgtacgtacgtacgtacgtacgtacgt\n>mixed\nAcGtNNacgTACGTnnACGTACGTacgtACGT\n"
        records = read_fasta(io.BytesIO(text.encode()), invalid="random")
        runner = BatchRunner(reference, min_length=8, seed_length=8, workers=2)
        results = list(runner.run(records))
        assert [r.label for r in results] == ["lower", "mixed"]
        assert all(r.ok for r in results)

    def test_empty_sequence_record(self, reference):
        records = read_fasta(io.BytesIO(b">empty\n"))
        runner = BatchRunner(reference, min_length=30)
        [result] = list(runner.run(records))
        assert result.ok and len(result.value) == 0

    def test_empty_fasta_file_raises_in_producer(self, reference):
        runner = BatchRunner(reference, min_length=30)
        with pytest.raises(InvalidSequenceError):
            list(runner.run(iter_fasta(io.BytesIO(b""))))


class TestErrorIsolation:
    def test_poisoned_record_mid_stream(self, reference):
        queries = _queries(reference, 6)
        poisoned = queries[:3] + ["NOT*DNA"] + queries[3:]
        runner = BatchRunner(reference, min_length=30, workers=3)
        results = list(runner.run(poisoned))
        assert len(results) == 7
        bad = results[3]
        assert isinstance(bad, BatchError) and not bad.ok
        assert isinstance(bad.error, Exception)
        with pytest.raises(type(bad.error)):
            bad.reraise()
        good = [r for r in results if r.ok]
        session = MemSession(reference, min_length=30)
        assert [r.value.as_tuples() for r in good] == [
            session.find_mems(q).as_tuples() for q in queries
        ]

    def test_errors_raise_mode(self, reference):
        runner = BatchRunner(
            reference, min_length=30, workers=2, errors="raise"
        )
        with pytest.raises(Exception):
            list(runner.run(["BAD!"]))

    def test_map_is_fail_fast(self, reference):
        runner = BatchRunner(reference, min_length=30, workers=2)

        def boom(query):
            raise RuntimeError("poisoned")

        with pytest.raises(RuntimeError, match="poisoned"):
            runner.map(boom, _queries(reference, 2))


class TestBackpressure:
    def test_in_flight_never_exceeds_bound(self, reference):
        max_in_flight = 3
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}
        release = threading.Event()

        def fn(query):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            release.wait(timeout=0.05)
            with lock:
                state["now"] -= 1
            return query

        runner = BatchRunner(
            reference, min_length=30, workers=8, max_in_flight=max_in_flight
        )
        results = list(runner.run(list(range(20)), fn=fn, ordered=False))
        assert len(results) == 20
        assert state["peak"] <= max_in_flight

    def test_streaming_input_pulled_lazily(self, reference):
        pulled = {"n": 0}

        def producer():
            for i in range(100):
                pulled["n"] += 1
                yield i

        runner = BatchRunner(
            reference, min_length=30, workers=1, max_in_flight=2
        )
        stream = runner.run(producer(), fn=lambda q: q)
        first = next(stream)
        assert first.value == 0
        # With a window of 2, the producer may be at most a few items
        # ahead of consumption — never materialized.
        assert pulled["n"] <= 4
        rest = list(stream)
        assert len(rest) == 99 and pulled["n"] == 100

    def test_invalid_knobs_rejected(self, reference):
        with pytest.raises(InvalidParameterError):
            BatchRunner(reference, min_length=30, workers=0)
        with pytest.raises(InvalidParameterError):
            BatchRunner(reference, min_length=30, max_in_flight=0)
        with pytest.raises(InvalidParameterError):
            BatchRunner(reference, min_length=30, errors="ignore")
        with pytest.raises(InvalidParameterError):
            BatchRunner(
                MemSession(reference, min_length=30), min_length=30
            )


class TestLabelsAndObservability:
    def test_fasta_records_carry_labels(self, reference):
        text = ">first\nACGTACGTACGTACGT\n>second\nTTTTACGTACGTAAAA\n"
        records = read_fasta(io.BytesIO(text.encode()))
        runner = BatchRunner(reference, min_length=8, seed_length=8, workers=2)
        results = list(runner.run(records))
        assert [r.label for r in results] == ["first", "second"]

    def test_label_value_pairs(self, reference):
        queries = _queries(reference, 2)
        runner = BatchRunner(reference, min_length=30)
        results = list(
            runner.run([("a", queries[0]), ("b", queries[1])])
        )
        assert [r.label for r in results] == ["a", "b"]

    def test_batch_spans_and_metrics(self, reference):
        tracer = Tracer()
        queries = _queries(reference, 5)
        runner = BatchRunner(
            reference, min_length=30, workers=2, tracer=tracer
        )
        results = list(runner.run(queries))
        assert all(isinstance(r, BatchResult) for r in results)
        assert len(tracer.find("batch.run")) == 1
        spans = tracer.find("batch.query")
        assert len(spans) == 5
        assert sorted(s.attrs["index"] for s in spans) == list(range(5))
        run_span = tracer.find("batch.run")[0]
        assert run_span.attrs["n_queries"] == 5
        assert run_span.attrs["n_errors"] == 0
        formatted = tracer.metrics.format()
        assert "batch.queued" in formatted
        assert "batch.query_seconds" in formatted
        assert "batch.queries{outcome=ok}" in formatted

    def test_per_query_seconds_recorded(self, reference):
        runner = BatchRunner(reference, min_length=30)
        [result] = list(runner.run(_queries(reference, 1)))
        assert result.seconds > 0.0


class TestProcessTier:
    """tier="process": whole queries shipped to the shared worker pool."""

    def test_matches_serial_loop(self, reference):
        queries = _queries(reference, 8)
        session = MemSession(reference, min_length=30)
        serial = [session.find_mems(q).as_tuples() for q in queries]
        runner = BatchRunner(
            reference, min_length=30, tier="process", workers=2
        )
        results = list(runner.run(queries, ordered=True))
        assert [r.index for r in results] == list(range(len(queries)))
        assert all(r.ok for r in results)
        assert [r.value.as_tuples() for r in results] == serial
        assert runner._in_flight == 0

    def test_as_completed_same_results(self, reference):
        queries = _queries(reference, 6, seed=3)
        runner = BatchRunner(
            reference, min_length=30, tier="process", workers=2
        )
        ordered = [
            r.value.as_tuples() for r in runner.run(queries, ordered=True)
        ]
        unordered = sorted(
            runner.run(queries, ordered=False), key=lambda r: r.index
        )
        assert [r.value.as_tuples() for r in unordered] == ordered
        assert runner._in_flight == 0

    def test_worker_stats_travel_back(self, reference):
        runner = BatchRunner(
            reference, min_length=30, tier="process", workers=2
        )
        (result,) = runner.run(_queries(reference, 1))
        # the batch tier pre-warms worker sessions
        assert result.value.stats.index_cache_misses == 0
        assert result.seconds >= 0.0

    def test_poisoned_record_isolated(self, reference):
        queries = _queries(reference, 3)
        stream = queries[:2] + ["ACGT!!"] + queries[2:]
        runner = BatchRunner(
            reference, min_length=30, tier="process", workers=2
        )
        results = list(runner.run(stream, ordered=True))
        assert [r.ok for r in results] == [True, True, False, True]
        assert isinstance(results[2], BatchError)
        assert runner._in_flight == 0

    def test_custom_fn_rejected(self, reference):
        runner = BatchRunner(
            reference, min_length=30, tier="process", workers=2
        )
        with pytest.raises(InvalidParameterError, match="process tier"):
            runner.run([], fn=lambda q: q)
        with pytest.raises(InvalidParameterError, match="process tier"):
            runner.map(lambda q: q, [])

    def test_invalid_tier_rejected(self, reference):
        with pytest.raises(InvalidParameterError, match="tier"):
            BatchRunner(reference, min_length=30, tier="gpu")

    def test_worker_obs_merged_into_parent(self, reference):
        import os

        tracer = Tracer()
        queries = _queries(reference, 4, seed=5)
        runner = BatchRunner(
            reference, min_length=30, tier="process", workers=2, tracer=tracer
        )
        results = list(runner.run(queries))
        assert all(r.ok for r in results)
        metrics = tracer.metrics.to_dict()
        # one payload per task, carrying the worker-side cache counters
        assert metrics["proc.obs.payloads"]["value"] == len(queries)
        assert metrics["session.cache.queries"]["value"] == len(queries)
        # worker spans joined the parent trace under their own pids
        pids = {ev["pid"] for ev in tracer.foreign_events}
        assert pids and os.getpid() not in pids
