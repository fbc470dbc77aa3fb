"""The program's layers as the benchmark sees them, and how they are traced.

Each layer is named after the module that implements it. ``wrap_specs``
lists the public names the tracer replaces; ``SPAN_METRIC`` assigns each
span's self time to one per-layer time metric; ``LAYERS`` records, for the
compare tool and the README, which work counters belong to which times and
which end-to-end metric each layer should move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import WrapSpec, self_times

#: Root span names: one benchmark operation, or one set-up. An operation's
#: own self time is the unattributed part of its traced wall.
ROOT_SPANS = ("op", "setup")

#: Span name -> the per-layer time metric its self time is added to.
SPAN_METRIC = {
    "fasta.read": "fasta.parse_s",
    "prep": "prep.s",
    "index.build": "index.build_s",
    "index.fetch": "index.fetch_s",
    "session.init": "session.self_s",
    "session.find_mems": "session.self_s",
    "session.warm": "session.self_s",
    "matcher.find_mems": "session.self_s",
    "pipeline.run": "pipeline.self_s",
    "pipeline.process_row": "pipeline.self_s",
    "pipeline.build_rows": "pipeline.self_s",
    "tile.stage": "pipeline.self_s",
    "tile.stage_tile": "pipeline.self_s",
    "tile.candidates": "tile.lookup_s",
    "tile.extend": "tile.extend_s",
    "tile.classify": "tile.classify_s",
    "merge.stage": "merge.s",
    "merge.extend": "merge.extend_s",
    "normalize": "normalize.s",
    "output": "output.s",
    "serve.process": "serve.dispatch_s",
}


@dataclass(frozen=True)
class Layer:
    """One layer: its time metrics, work counters, and the end-to-end
    metric it should move, on which workload."""

    name: str
    times: tuple[str, ...]
    counters: tuple[str, ...]
    moves: str


LAYERS = (
    Layer("fasta", ("fasta.parse_s",),
          ("fasta.bases",), "lat_p50_ms on table4_cli"),
    Layer("prep", ("prep.s",),
          ("prep.kmers",), "small everywhere"),
    Layer("index", ("index.build_s", "index.fetch_s"),
          ("index.rows_built", "index.locs", "index.cache_hit_ratio"),
          "setup_s on reads_session and serve_process (worker-side builds "
          "are not seen from the parent); no change on table4_cli"),
    Layer("tile.lookup", ("tile.lookup_s",), ("tile.candidates", "tile.active_seed_ratio"),
          "lat_p50_ms on table4_cli"),
    Layer("tile.extend", ("tile.extend_s",),
          ("tile.extend_calls", "tile.extended_bases", "tile.extend_copy_bytes"),
          "qps and lat_* on reads_session most, then lat_p50_ms on "
          "table4_cli, then lat_tail_ms on serve_process"),
    Layer("tile.classify", ("tile.classify_s",), ("tile.in_tile_mems", "tile.out_tile_fragments"),
          "lat_p50_ms on table4_cli"),
    Layer("pipeline", ("pipeline.self_s",),
          ("trace.ops", "pipeline.rows"),
          "qps and lat_* on reads_session (per-call overhead)"),
    Layer("session", ("session.self_s",), ("trace.ops",),
          "qps and lat_* on reads_session (per-call overhead)"),
    Layer("merge", ("merge.s", "merge.extend_s"),
          ("merge.fragments", "merge.crossing_mems"),
          "small on all three workloads; shows dedup-once changes"),
    Layer("normalize", ("normalize.s",),
          ("normalize.triplets_in", "normalize.mems_out"),
          "lat_p50_ms on table4_cli and lat_* on serve_process"),
    Layer("output", ("output.s",), ("output.bytes",),
          "lat_p50_ms on table4_cli only"),
    Layer("serve", ("serve.dispatch_s", "serve.queue_ipc_ms_p50", "serve.queue_ipc_ms_p95",
           "serve.worker_pipeline_ms_p50", "serve.rebuild_ms_p50"),
          ("serve.requests", "serve.ipc_bytes"),
          "lat_* and qps on serve_process"),
)

#: Every per-layer metric printed with ``--trace 1``, with its unit.
PER_LAYER_UNITS = {
    "fasta.parse_s": "s", "fasta.bases": "count",
    "prep.s": "s", "prep.kmers": "count",
    "index.build_s": "s", "index.fetch_s": "s", "index.rows_built": "count",
    "index.locs": "count", "index.cache_hit_ratio": "ratio",
    "tile.lookup_s": "s", "tile.candidates": "count",
    "tile.active_seed_ratio": "ratio",
    "tile.extend_s": "s", "tile.extend_calls": "count",
    "tile.extended_bases": "count", "tile.extend_copy_bytes": "B",
    "tile.classify_s": "s", "tile.in_tile_mems": "count",
    "tile.out_tile_fragments": "count", "tile.mems_per_candidate": "ratio",
    "pipeline.self_s": "s", "pipeline.rows": "count", "session.self_s": "s",
    "merge.s": "s", "merge.extend_s": "s", "merge.fragments": "count",
    "merge.crossing_mems": "count",
    "normalize.s": "s", "normalize.triplets_in": "count",
    "normalize.mems_out": "count",
    "output.s": "s", "output.bytes": "B",
    "serve.dispatch_s": "s", "serve.queue_ipc_ms_p50": "ms",
    "serve.queue_ipc_ms_p95": "ms", "serve.worker_pipeline_ms_p50": "ms",
    "serve.rebuild_ms_p50": "ms", "serve.requests": "count",
    "serve.ipc_bytes": "B",
    "client.late_ms_p95": "ms",
    "trace.coverage": "ratio", "trace.overhead_frac": "ratio",
    "trace.ops": "count",
}


def _count(**fields):
    """An ``on_return`` hook adding ``fn(args, kwargs, result)`` per counter."""

    def hook(tracer, args, kwargs, result):
        for name, fn in fields.items():
            tracer.count(name.replace("__", "."), fn(args, kwargs, result))

    return hook


def _extend_hook(copies_per_operand: int, chunk: int):
    """Counters for one extension call.

    ``tile.extend_copy_bytes`` is *computed* from argument sizes: each call
    pads whole-sequence copies of both operands (``common_suffix_len``
    reverses them first, one more copy each); it is not measured traffic.
    """

    def hook(tracer, args, kwargs, result):
        a, b = args[0], args[1]
        tracer.count("tile.extend_calls")
        tracer.count("tile.extended_bases", int(result.sum()))
        tracer.count(
            "tile.extend_copy_bytes",
            copies_per_operand * (int(a.size) + int(b.size)) + 2 * chunk,
        )

    return hook


def wrap_specs() -> list[WrapSpec]:
    """The names the tracer replaces, at the module their caller reads."""
    import repro.cli as cli
    import repro.core.host_merge as host_merge
    import repro.core.matcher as matcher
    import repro.core.pipeline as pipeline
    import repro.core.serve as serve
    import repro.core.session as session
    import repro.core.vectorized as vectorized
    import repro.sequence.fasta as fasta
    import repro.types as types
    from repro.index.compare import CHUNK

    return [
        WrapSpec(fasta, "read_fasta", "fasta.read", _count(
            fasta__bases=lambda a, k, r: sum(int(rec.codes.size) for rec in r))),
        WrapSpec(cli, "cmd_match", "output"),
        WrapSpec(matcher.GpuMem, "find_mems", "matcher.find_mems"),
        WrapSpec(session.MemSession, "__init__", "session.init"),
        WrapSpec(session.MemSession, "find_mems", "session.find_mems"),
        WrapSpec(session.MemSession, "warm", "session.warm"),
        WrapSpec(pipeline.Pipeline, "run", "pipeline.run"),
        WrapSpec(pipeline.Pipeline, "process_row", "pipeline.process_row",
                 _count(pipeline__rows=lambda a, k, r: 1)),
        WrapSpec(pipeline.Pipeline, "build_row_indexes", "pipeline.build_rows"),
        WrapSpec(pipeline.PrepStage, "run", "prep", _count(
            prep__kmers=lambda a, k, r: int(r.size))),
        WrapSpec(pipeline.RowIndexStage, "run", "index.fetch", _count(
            index__fetches=lambda a, k, r: 1,
            index__hits=lambda a, k, r: int(bool(r[2])))),
        WrapSpec(pipeline, "build_kmer_index", "index.build", _count(
            index__rows_built=lambda a, k, r: 1,
            index__locs=lambda a, k, r: int(r.n_locs))),
        WrapSpec(pipeline.TileMatchStage, "run", "tile.stage"),
        WrapSpec(pipeline, "stage_tile", "tile.stage_tile"),
        WrapSpec(vectorized, "tile_candidates", "tile.candidates", _count(
            tile__candidates=lambda a, k, r: int(r[0].size),
            tile__seed_slots=lambda a, k, r: int(r[2].size),
            tile__active_seeds=lambda a, k, r: int((r[2] > 0).sum()))),
        WrapSpec(vectorized, "extend_and_classify", "tile.classify", _count(
            tile__in_tile_mems=lambda a, k, r: int(r.in_tile.size),
            tile__out_tile_fragments=lambda a, k, r: int(r.out_tile.size))),
        WrapSpec(vectorized, "common_prefix_len", "tile.extend",
                 _extend_hook(1, CHUNK)),
        WrapSpec(vectorized, "common_suffix_len", "tile.extend",
                 _extend_hook(2, CHUNK)),
        WrapSpec(pipeline.HostMergeStage, "run", "merge.stage", _count(
            merge__crossing_mems=lambda a, k, r: int(r[1].size),
            merge__fragments=lambda a, k, r: int(r[2].size))),
        WrapSpec(host_merge, "common_prefix_len", "merge.extend"),
        WrapSpec(host_merge, "common_suffix_len", "merge.extend"),
        WrapSpec(types.MatchSet, "__init__", "normalize", _count(
            normalize__triplets_in=lambda a, k, r: int(a[1].size),
            normalize__mems_out=lambda a, k, r: len(a[0]))),
        WrapSpec(serve.MemServer, "_run_process", "serve.process", _count(
            serve__requests=lambda a, k, r: 1,
            # computed: query bytes out + triplet bytes back
            serve__ipc_bytes=lambda a, k, r: int(a[1].query.nbytes)
            + int(r.array.nbytes)),
            rid_from_args=lambda a, k: ("srv", a[1].index)),
    ]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def summarize(tracer, *, untraced_seconds: float, extra: dict,
              rid_map: dict | None = None) -> dict:
    """Per-layer metrics of one traced pass.

    Layer times and counters cover the whole pass, set-up included.
    ``trace.coverage`` is the self time of the spans that belong to an
    operation (same request id; ``rid_map`` maps server-side ids to client
    ones) over the operations' traced wall; ``trace.overhead_frac`` compares
    that wall with ``untraced_seconds``, the same operations untraced.
    ``extra`` carries the metrics the workload measures itself.
    """
    rid_map = rid_map or {}
    spans = list(tracer.spans)
    own = self_times(spans)
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    op_rids = {span.rid for span in spans if span.name == "op"}
    ops_wall = sum(span.duration for span in spans if span.name == "op")
    attributed = 0.0
    for span in spans:
        if span.name in ROOT_SPANS:
            continue
        out[SPAN_METRIC[span.name]] += own[span.id]
        if rid_map.get(span.rid, span.rid) in op_rids:
            attributed += own[span.id]
    counters = tracer.counter_totals()
    for name, value in counters.items():
        if name in out:
            out[name] = value
    out["index.cache_hit_ratio"] = _ratio(
        counters.get("index.hits", 0), counters.get("index.fetches", 0))
    out["tile.active_seed_ratio"] = _ratio(
        counters.get("tile.active_seeds", 0), counters.get("tile.seed_slots", 0))
    out["tile.mems_per_candidate"] = _ratio(
        counters.get("tile.in_tile_mems", 0), counters.get("tile.candidates", 0))
    out["trace.coverage"] = _ratio(attributed, ops_wall)
    out["trace.overhead_frac"] = _ratio(ops_wall, untraced_seconds) - 1.0
    out["trace.ops"] = len(op_rids)
    out.update(extra)
    return out
