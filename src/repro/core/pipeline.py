"""The staged GPUMEM extraction pipeline (paper Figure 1, made explicit).

The dataflow — per-row seed index → per-tile match → host merge — used to
be re-implemented as near-identical inline loops in the matcher, the
index-only timer, and the multi-device path. This module is the single
implementation, decomposed into four stage objects composed by a
:class:`Pipeline`:

- :class:`PrepStage` — query-side preparation (k-mer codes);
- :class:`RowIndexStage` — the per-row partial seed index, optionally
  served from a cache (see :class:`repro.core.session.MemSession`);
- :class:`TileMatchStage` — candidate generation + maximal extension +
  in/out-tile split for every tile of a row;
- :class:`HostMergeStage` — the global out-tile merge (§III-C2).

Rows are independent work units. They run one after another, or on a
thread pool of ``params.workers`` threads (the NumPy kernels release the
GIL); :mod:`repro.core.multi_device` hands in its own banded row mapper.
Process parallelism lives one level up, over whole queries
(:mod:`repro.core.procpool`). All per-run bookkeeping lives in the typed
:class:`PipelineStats`.

The pipeline returns raw triplets: a MEM may appear more than once (several
seeds inside one in-tile MEM, several chains re-extending to one crossing
MEM). :class:`repro.types.MatchSet` is the one place that deduplicates and
sorts them.

Observability: pass ``tracer=`` (a :class:`repro.obs.Tracer`) to record
``stage:prep`` / ``stage:row_index`` / ``stage:tile_match`` /
``stage:host_merge`` spans plus per-stage counters into
``tracer.metrics`` (see ``docs/observability.md``). Without a tracer the
instrumentation degrades to shared no-op objects.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from repro.core.host_merge import host_merge
from repro.core.params import GpuMemParams
from repro.core.tiling import TilePlan
from repro.core.vectorized import stage_tile
from repro.index.kmer_index import KmerSeedIndex, build_kmer_index
from repro.obs.tracer import Tracer, get_tracer
from repro.sequence.alphabet import encode
from repro.sequence.packed import PackedSequence, kmer_codes
from repro.types import concat_triplets


def as_codes(seq) -> np.ndarray:
    """Coerce a string / PackedSequence / array into uint8 code form."""
    if isinstance(seq, PackedSequence):
        return seq.codes()
    return encode(seq)


@dataclass
class PipelineStats:
    """Typed per-run statistics of one pipeline execution.

    Field names match the historical dict keys, and ``stats["index_time"]``
    reads a field or, failing that, an :attr:`extra` entry: keys with no
    typed field (``sim_*`` of the simulated backend, band details of the
    multi-device path, variant tags, …). Writers set attributes or
    :attr:`extra` entries directly. :meth:`to_dict` / :meth:`from_dict` are
    the flat wire form worker processes send back to the parent.

    ``n_in_tile``, ``n_out_tile_fragments`` and ``n_crossing_mems`` count
    triplets before the :class:`~repro.types.MatchSet` dedup; the MEM count
    of a run is ``len(result)``.
    """

    backend: str = "vectorized"
    #: Row threads the run used (``GpuMemParams.workers``).
    workers: int = 1
    n_rows: int = 0
    n_cols: int = 0
    n_tiles: int = 0
    n_candidates: int = 0
    n_in_tile: int = 0
    n_out_tile_fragments: int = 0
    n_crossing_mems: int = 0
    prep_time: float = 0.0
    index_time: float = 0.0
    match_time: float = 0.0
    host_merge_time: float = 0.0
    #: Wall seconds of the run; :meth:`MemSession.find_mems` adds the
    #: seconds of the ``MatchSet`` dedup that ends it.
    total_time: float = 0.0
    max_index_bytes: int = 0
    max_index_locs: int = 0
    index_cache_hits: int = 0
    index_cache_misses: int = 0
    #: Cumulative row-index cache effectiveness of the serving
    #: :class:`~repro.core.session.MemSession` (across its whole lifetime,
    #: unlike the per-run ``index_cache_*`` pair above).
    session_cache_hits: int = 0
    session_cache_misses: int = 0
    params: str = ""
    extra: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        if key in _STATS_FIELDS:
            return getattr(self, key)
        return self.extra[key]

    def to_dict(self) -> dict:
        """Flatten into a plain dict (typed fields + extras)."""
        out = {name: getattr(self, name) for name in _STATS_FIELDS}
        out.update(self.extra)
        return out

    @classmethod
    def from_dict(cls, mapping: dict) -> "PipelineStats":
        """Inverse of :meth:`to_dict`; unknown keys land in :attr:`extra`."""
        return cls(
            **{key: value for key, value in mapping.items() if key in _STATS_FIELDS},
            extra={key: value for key, value in mapping.items() if key not in _STATS_FIELDS},
        )


#: The typed fields of :class:`PipelineStats`, in declaration order.
_STATS_FIELDS = tuple(f.name for f in fields(PipelineStats) if f.name != "extra")


@dataclass
class RowResult:
    """Everything one tile row produced, plus its measured cost."""

    row: int
    in_tile: np.ndarray
    out_tile: np.ndarray
    n_candidates: int = 0
    index_seconds: float = 0.0
    match_seconds: float = 0.0
    index_bytes: int = 0
    index_locs: int = 0
    cache_hit: bool = False

    @property
    def n_in_tile(self) -> int:
        return int(self.in_tile.size)

    @property
    def n_out_tile(self) -> int:
        return int(self.out_tile.size)


class PrepStage:
    """Query-side preparation: rolling k-mer codes of the whole query."""

    def __init__(self, seed_length: int):
        self.seed_length = int(seed_length)

    def run(self, query: np.ndarray) -> np.ndarray:
        if query.size < self.seed_length:
            return np.empty(0, dtype=np.int64)
        return kmer_codes(query, self.seed_length)


class RowIndexStage:
    """Build (or fetch from a cache) one tile row's partial seed index.

    The cache is any object with ``get(row) -> KmerSeedIndex | None`` and
    ``put(row, index)`` — in practice a :class:`MemSession`. Row indexes
    depend only on the reference and the params, never on the query, which
    is exactly what makes them reusable across a many-query workload.
    """

    def __init__(self, params: GpuMemParams):
        self.params = params

    def run(
        self,
        reference: np.ndarray,
        plan: TilePlan,
        row: int,
        cache=None,
    ) -> tuple[KmerSeedIndex, float, bool]:
        def build() -> tuple[KmerSeedIndex, float]:
            r0, r1 = plan.row_range(row)
            t0 = time.perf_counter()
            index = build_kmer_index(
                reference,
                seed_length=self.params.seed_length,
                step=self.params.step,
                region_start=r0,
                region_end=r1,
            )
            return index, time.perf_counter() - t0

        if cache is None:
            index, seconds = build()
            return index, seconds, False
        # Prefer the single-flight protocol (MemSession.get_or_build): under
        # row threads / BatchRunner, concurrent misses on one row
        # must produce exactly one build. Plain get/put caches remain
        # supported for simple (serial) callers.
        get_or_build = getattr(cache, "get_or_build", None)
        if get_or_build is not None:
            return get_or_build(row, build)
        cached = cache.get(row)
        if cached is not None:
            return cached, 0.0, True
        index, seconds = build()
        cache.put(row, index)
        return index, seconds, False


class TileMatchStage:
    """Candidates → extension → in/out split for every tile of one row.

    With a real tracer attached, the stage also feeds the Algorithm-2
    load-balance counters: every query seed position is one thread slot,
    zero-hit slots are the idle threads ``T_idle``, and — when
    ``params.load_balancing`` is on — idle slots of a tile that has at
    least one active seed count as redistributed (the host-side view of
    the paper's proactive balancing, aggregated per tile).
    """

    def __init__(self, params: GpuMemParams, *, tracer: Tracer | None = None):
        self.params = params
        self.tracer = get_tracer(tracer)

    def run(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        query_kmers: np.ndarray,
        plan: TilePlan,
        row: int,
        index: KmerSeedIndex,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        in_parts: list[np.ndarray] = []
        out_parts: list[np.ndarray] = []
        n_candidates = 0
        metrics = self.tracer.metrics
        slots = active = idle = redistributed = 0
        for tile in plan.tiles_in_row(row):
            result = stage_tile(
                reference, query, query_kmers, tile, index, self.params.min_length
            )
            n_candidates += result.n_candidates
            if result.in_tile.size:
                in_parts.append(result.in_tile)
            if result.out_tile.size:
                out_parts.append(result.out_tile)
            if metrics.enabled:
                n_slots = int(result.hit_counts.size)
                n_active = int(result.n_query_seeds_with_hits)
                slots += n_slots
                active += n_active
                idle += n_slots - n_active
                if self.params.load_balancing and n_active:
                    redistributed += n_slots - n_active
        if metrics.enabled:
            metrics.counter("load_balance.seed_slots").inc(slots)
            metrics.counter("load_balance.active_seeds").inc(active)
            metrics.counter("load_balance.idle_threads").inc(idle)
            metrics.counter("load_balance.redistributed_threads").inc(redistributed)
        return concat_triplets(in_parts), concat_triplets(out_parts), n_candidates


class HostMergeStage:
    """Global merge of boundary-touching fragments (§III-C2)."""

    def __init__(self, params: GpuMemParams):
        self.params = params

    def run(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        row_results: list[RowResult],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        t0 = time.perf_counter()
        out_tile = concat_triplets([r.out_tile for r in row_results])
        crossing = host_merge(reference, query, out_tile, self.params.min_length)
        mems = concat_triplets([r.in_tile for r in row_results] + [crossing])
        seconds = time.perf_counter() - t0
        return mems, crossing, out_tile, seconds


class Pipeline:
    """Stage composition + row loop = one extraction engine.

    ``run`` is the single implementation of the Figure-1 dataflow; the
    matcher, the session, and the multi-device wrapper all call into it
    with different caches (or, for multi-device, a banded ``map_rows``)
    rather than re-growing their own loops.
    """

    def __init__(
        self,
        params: GpuMemParams,
        *,
        map_rows: Callable[[Callable, Sequence[int]], list] | None = None,
        prep: PrepStage | None = None,
        row_index: RowIndexStage | None = None,
        tile_match: TileMatchStage | None = None,
        merge: HostMergeStage | None = None,
        tracer: Tracer | None = None,
    ):
        self.params = params
        self.tracer = get_tracer(tracer)
        #: ``(fn, rows) -> [fn(row) for row in rows]``, results in row order.
        self.map_rows = map_rows or self._map_rows
        self.prep = prep or PrepStage(params.seed_length)
        self.row_index = row_index or RowIndexStage(params)
        # The tile stage carries the pipeline's tracer so load-balance
        # counters land in the same run.
        self.tile_match = tile_match or TileMatchStage(params, tracer=self.tracer)
        self.tile_match.tracer = self.tracer
        self.merge = merge or HostMergeStage(params)

    def _map_rows(self, fn: Callable, rows: Sequence[int]) -> list:
        """Rows in order, or on a ``params.workers``-thread pool."""
        rows = list(rows)
        workers = min(self.params.workers, len(rows))
        if workers <= 1:
            return [fn(row) for row in rows]
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="gpumem-rows"
        ) as pool:
            return list(pool.map(fn, rows))

    def plan_for(self, n_reference: int, n_query: int) -> TilePlan:
        """The tile grid for one problem at this pipeline's tile size."""
        return TilePlan(
            n_reference=n_reference,
            n_query=n_query,
            tile_size=self.params.tile_size,
        )

    def process_row(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        query_kmers: np.ndarray,
        plan: TilePlan,
        row: int,
        cache=None,
    ) -> RowResult:
        """One independent work unit: index + match all tiles of ``row``."""
        tracer = self.tracer
        with tracer.span("stage:row_index", cat="pipeline", row=row) as sp:
            index, index_seconds, cache_hit = self.row_index.run(
                reference, plan, row, cache=cache
            )
            sp.set(cache_hit=cache_hit, index_locs=index.n_locs)
        t0 = time.perf_counter()
        with tracer.span("stage:tile_match", cat="pipeline", row=row) as sp:
            in_tile, out_tile, n_candidates = self.tile_match.run(
                reference, query, query_kmers, plan, row, index
            )
            sp.set(n_candidates=n_candidates, n_in_tile=int(in_tile.size))
        return RowResult(
            row=row,
            in_tile=in_tile,
            out_tile=out_tile,
            n_candidates=n_candidates,
            index_seconds=index_seconds,
            match_seconds=time.perf_counter() - t0,
            index_bytes=index.nbytes_packed,
            index_locs=index.n_locs,
            cache_hit=cache_hit,
        )

    def run(
        self,
        reference: np.ndarray,
        query: np.ndarray,
        *,
        index_cache=None,
        query_kmers: np.ndarray | None = None,
    ) -> tuple[np.ndarray, PipelineStats]:
        """Extract all MEMs; returns ``(triplets, stats)``.

        ``index_cache`` (a :class:`MemSession`-like object) short-circuits
        the row-index stage; ``query_kmers`` short-circuits the prep stage
        when the caller already holds the rolling codes.
        """
        run_t0 = time.perf_counter()
        tracer = self.tracer
        plan = self.plan_for(reference.size, query.size)
        with tracer.span(
            "pipeline.run", cat="pipeline",
            backend=self.params.backend, workers=self.params.workers,
            n_rows=plan.n_rows, n_reference=int(reference.size),
            n_query=int(query.size),
        ) as run_span:
            t0 = time.perf_counter()
            with tracer.span("stage:prep", cat="pipeline") as sp:
                if query_kmers is None:
                    query_kmers = self.prep.run(query)
                sp.set(n_kmers=int(query_kmers.size))
            prep_time = time.perf_counter() - t0

            def row_fn(row: int) -> RowResult:
                return self.process_row(
                    reference, query, query_kmers, plan, row,
                    cache=index_cache,
                )

            row_results = self.map_rows(row_fn, range(plan.n_rows))

            with tracer.span("stage:host_merge", cat="pipeline") as sp:
                mems, crossing, out_tile, merge_seconds = self.merge.run(
                    reference, query, row_results
                )
                sp.set(
                    n_out_tile_fragments=int(out_tile.size),
                    n_crossing_mems=int(crossing.size),
                )
            run_span.set(n_mems=int(mems.size))

        stats = PipelineStats(
            backend=self.params.backend,
            workers=self.params.workers,
            n_rows=plan.n_rows,
            n_cols=plan.n_cols,
            n_tiles=plan.n_tiles,
            n_candidates=sum(r.n_candidates for r in row_results),
            n_in_tile=sum(r.n_in_tile for r in row_results),
            n_out_tile_fragments=int(out_tile.size),
            n_crossing_mems=int(crossing.size),
            prep_time=prep_time,
            index_time=sum(r.index_seconds for r in row_results),
            match_time=sum(r.match_seconds for r in row_results),
            host_merge_time=merge_seconds,
            total_time=time.perf_counter() - run_t0,
            max_index_bytes=max((r.index_bytes for r in row_results), default=0),
            max_index_locs=max((r.index_locs for r in row_results), default=0),
            index_cache_hits=sum(1 for r in row_results if r.cache_hit),
            index_cache_misses=sum(1 for r in row_results if not r.cache_hit),
            params=self.params.describe(),
        )
        self._record_metrics(stats, n_mems=int(mems.size))
        return mems, stats

    def _record_metrics(self, stats: PipelineStats, *, n_mems: int) -> None:
        """Fold one run's stats into the tracer's metrics registry."""
        metrics = self.tracer.metrics
        if not metrics.enabled:
            return
        backend = self.params.backend
        metrics.counter("pipeline.runs", backend=backend).inc()
        metrics.counter("pipeline.mems", backend=backend).inc(n_mems)
        metrics.counter("stage.candidates", stage="tile_match").inc(
            stats.n_candidates
        )
        metrics.counter("stage.mems", stage="tile_match").inc(stats.n_in_tile)
        metrics.counter("stage.fragments", stage="host_merge").inc(
            stats.n_out_tile_fragments
        )
        metrics.counter("stage.mems", stage="host_merge").inc(
            stats.n_crossing_mems
        )
        metrics.counter("index.cache.hits").inc(stats.index_cache_hits)
        metrics.counter("index.cache.misses").inc(stats.index_cache_misses)
        for stage, seconds in (
            ("prep", stats.prep_time),
            ("row_index", stats.index_time),
            ("tile_match", stats.match_time),
            ("host_merge", stats.host_merge_time),
        ):
            metrics.histogram("stage.seconds", stage=stage).observe(seconds)
        metrics.histogram("pipeline.total_seconds").observe(stats.total_time)

    def build_row_indexes(self, reference: np.ndarray, cache=None) -> float:
        """Run only the row-index stage for every row; returns build seconds.

        This is the paper's Table III quantity (index construction without
        matching) and the session's warm-up path.
        """
        plan = self.plan_for(reference.size, self.params.tile_size)
        tracer = self.tracer

        def row_fn(row: int) -> float:
            with tracer.span("stage:row_index", cat="pipeline", row=row) as sp:
                _, seconds, cache_hit = self.row_index.run(
                    reference, plan, row, cache=cache
                )
                sp.set(cache_hit=cache_hit)
            return seconds

        with tracer.span(
            "pipeline.build_row_indexes", cat="pipeline", n_rows=plan.n_rows
        ):
            return float(sum(self.map_rows(row_fn, range(plan.n_rows))))
