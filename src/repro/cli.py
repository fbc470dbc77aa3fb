"""Command-line interface: ``gpumem`` (or ``python -m repro``).

Subcommands mirror how the paper's tools are driven:

- ``gpumem match ref.fa query.fa -l 50``      — extract MEMs (MUMmer-style
  ``r q length`` lines, 1-based like the classic tools).
- ``gpumem match ... --batch``                — stream the query records
  through the batched engine (``--batch-workers`` concurrent queries over
  one warm session; see docs/architecture.md "Batched extraction").
- ``gpumem map ref.fa reads.fa``              — MEM-seeded read mapping of
  a (streamed) read set, batched the same way.
- ``gpumem serve ref.fa [requests.jsonl]``    — long-lived JSONL server over
  one warm reference (``--tier process`` for multi-core; bursts above
  ``--admission-limit`` shed with a structured error, EOF drains).
- ``gpumem stats s.jsonl [--follow]``         — render (or tail) the live
  telemetry heartbeats a ``serve --stats-jsonl s.jsonl`` run appends.
- ``gpumem match ... --trace out.json``       — record a Chrome-trace of the
  run (``--metrics`` dumps counters; see docs/observability.md).
- ``gpumem index ref.fa -l 50``               — time/report the index build.
- ``gpumem trace out.json``                   — validate/inspect a recorded
  trace (span tree, hottest spans, metrics).
- ``gpumem profile ref.fa query.fa -l 20``    — simulated-backend run with
  the per-kernel device profile rollup.
- ``gpumem dataset chr1m out.fa``             — write a Table II analogue.
- ``gpumem bench --only table3``              — regenerate evaluation assets.
- ``gpumem analyze --all src/repro``          — static SIMT + lock lint (CI gate).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _read_single_fasta(path: str, invalid: str) -> np.ndarray:
    from repro.sequence.fasta import read_fasta

    records = read_fasta(path, invalid=invalid)
    if len(records) > 1:
        print(
            f"note: {path} has {len(records)} records; concatenating",
            file=sys.stderr,
        )
    return np.concatenate([r.codes for r in records])


def _add_match_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("reference", help="reference FASTA file")
    p.add_argument("-l", "--min-length", type=int, default=50,
                   help="minimum MEM length L (default 50)")
    p.add_argument("-s", "--seed-length", type=int, default=10,
                   help="indexing seed length ℓs (default 10)")
    p.add_argument("--step", type=int, default=None,
                   help="indexing step Δs (default: the Eq. 1 maximum)")
    p.add_argument("--invalid", choices=("error", "skip", "random"),
                   default="random", help="non-ACGT letter policy")
    p.add_argument("--executor",
                   choices=("serial", "threads", "banded", "process"),
                   default="serial",
                   help="row executor of the staged pipeline (default serial)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="thread count (--executor threads), band count "
                        "(--executor banded) or process count "
                        "(--executor process); default per executor")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record a Chrome-trace JSON of the run "
                        "(chrome://tracing / Perfetto; inspect with "
                        "'gpumem trace PATH')")
    p.add_argument("--metrics", action="store_true",
                   help="print the run's metrics registry to stderr")
    p.add_argument("--index-store", metavar="DIR", default=None,
                   help="persistent index store: cache row indexes under DIR "
                        "so later runs (and worker processes) warm-start "
                        "from disk instead of rebuilding "
                        "(same as REPRO_INDEX_STORE=DIR)")


def _activate_index_store(args):
    """Install ``--index-store`` as the process-wide store default.

    Setting :data:`~repro.index.store.STORE_ENV_VAR` (rather than threading
    a handle through every variant signature) makes every downstream
    consumer — sessions built deep inside ``find_rare_mems``, spawned
    procpool workers, the batch tier — resolve the same store. Returns the
    parent-process handle (for stats), or ``None`` when the flag is unset.
    """
    path = getattr(args, "index_store", None)
    if not path:
        return None
    import os

    from repro.index.store import STORE_ENV_VAR, store_at

    os.environ[STORE_ENV_VAR] = path
    return store_at(path)


def _print_store_stats(store) -> None:
    if store is None:
        return
    s = store.stats()
    print(
        f"# index store {s['cache_dir']}: "
        f"{s['hot_hits']} hot / {s['warm_hits']} warm hits, "
        f"{s['builds']} builds, {s['bytes_mmapped']} bytes mmapped, "
        f"{s['n_bundles']} bundles on disk",
        file=sys.stderr,
    )


def _make_cli_tracer(args):
    """A real tracer when observability flags are set, else None."""
    if getattr(args, "trace", None) or getattr(args, "metrics", False):
        from repro.obs import Tracer

        return Tracer()
    return None


def _emit_observability(args, tracer) -> None:
    """Write/print what --trace/--metrics asked for after a traced run."""
    if tracer is None:
        return
    if args.trace:
        tracer.write_chrome_trace(args.trace, command=" ".join(sys.argv))
        print(f"# trace: {len(tracer.spans)} spans -> {args.trace}",
              file=sys.stderr)
    if args.metrics:
        print(tracer.metrics.format(), end="", file=sys.stderr)


def cmd_match(args) -> int:
    from repro.core.matcher import GpuMem
    from repro.core.params import GpuMemParams
    from repro.core.variants import find_mems_both_strands, find_rare_mems

    from repro.sequence.fasta import read_fasta

    reference = _read_single_fasta(args.reference, args.invalid)
    seed_length = min(args.seed_length, args.min_length)
    tracer = _make_cli_tracer(args)
    store = _activate_index_store(args)
    common = dict(
        seed_length=seed_length, step=args.step, backend=args.backend,
        executor=args.executor, workers=args.workers,
    )

    if args.per_record or args.batch:
        from repro.core.params import GpuMemParams as _Params
        from repro.core.session import MemSession
        from repro.sequence.fasta import iter_fasta

        # One session for all records: the reference's row indexes are
        # built on the first record and reused for every later one.
        session = MemSession(
            reference, _Params(min_length=args.min_length, **common),
            tracer=tracer,
        )
        total = n_records = n_errors = 0
        records = iter_fasta(args.query, invalid=args.invalid)
        if args.batch:
            # Batched engine: records stream straight from the parser into
            # the runner (bounded in-flight, never materialized); output
            # stays in record order, one bad record cannot kill the batch.
            from repro.core.batch import BatchRunner

            runner = BatchRunner(
                session, workers=args.batch_workers,
                max_in_flight=args.max_in_flight,
            )
            results = runner.run(records)
        else:
            from repro.core.batch import BatchResult

            def _serial(records=records):
                for index, rec in enumerate(records):
                    yield BatchResult(
                        index=index, label=rec.header,
                        value=session.find_mems(rec.codes), seconds=0.0,
                    )
            results = _serial()
        for result in results:
            n_records += 1
            print(f"> {result.label}")
            if not result.ok:
                n_errors += 1
                print(f"# error in record {result.label!r}: {result.error}",
                      file=sys.stderr)
                continue
            for r, q, length in result.value:
                print(f"{r + 1}\t{q + 1}\t{length}")
            total += len(result.value)
        if args.verbose:
            info = session.cache_info()
            print(f"# records: {n_records}  matches: {total}  "
                  f"errors: {n_errors}  "
                  f"index rows cached: {info['n_cached']}  "
                  f"cache hits: {info['hits']}", file=sys.stderr)
            _print_store_stats(store)
        _emit_observability(args, tracer)
        return 1 if n_errors else 0

    query = _read_single_fasta(args.query, args.invalid)

    if args.unique or args.rare is not None:
        max_occ = 1 if args.unique else args.rare
        result = find_rare_mems(
            reference, query, args.min_length,
            max_ref_occurrences=max_occ, tracer=tracer, **common,
        )
        stats = result.stats
        rows = [("+", r, q, l) for r, q, l in result]
    elif args.both_strands:
        stranded = find_mems_both_strands(
            reference, query, args.min_length, tracer=tracer, **common
        )
        stats = stranded.forward.stats
        rows = [("+", r, q, l) for r, q, l in stranded.forward]
        rows += [("-", r, q, l) for r, q, l in
                 stranded.reverse_in_forward_coords()]
    else:
        params = GpuMemParams(min_length=args.min_length, **common)
        matcher = GpuMem(params, tracer=tracer)
        result = matcher.find_mems(reference, query)
        stats = matcher.stats
        rows = [("+", r, q, l) for r, q, l in result]

    if args.paf:
        from repro.sequence.formats import PafRecord, write_paf

        records = [
            PafRecord(
                query_name="query", query_len=int(query.size),
                query_start=q, query_end=q + length, strand=strand,
                target_name="reference", target_len=int(reference.size),
                target_start=r, target_end=r + length,
                n_match=length, alignment_len=length, mapq=255,
                tags=("tp:A:P", f"cg:Z:{length}M"),
            )
            for strand, r, q, length in rows
        ]
        print(write_paf(records), end="")
    else:
        for strand, r, q, length in rows:
            prefix = f"{strand}\t" if args.both_strands else ""
            print(f"{prefix}{r + 1}\t{q + 1}\t{length}")
    if args.verbose:
        for key in ("index_time", "match_time", "host_merge_time", "total_time",
                    "sim_total_seconds"):
            if key in stats:
                print(f"# {key}: {stats[key]:.4f}s", file=sys.stderr)
        print(f"# matches: {len(rows)}", file=sys.stderr)
        _print_store_stats(store)
    _emit_observability(args, tracer)
    return 0


def cmd_map(args) -> int:
    from repro.core.batch import BatchRunner
    from repro.core.mapping import ReadMapper
    from repro.sequence.fasta import iter_fasta

    reference = _read_single_fasta(args.reference, args.invalid)
    tracer = _make_cli_tracer(args)
    mapper = ReadMapper(
        reference,
        min_seed=args.min_seed,
        tolerance=args.tolerance,
        tracer=tracer,
        seed_length=min(args.seed_length, args.min_seed),
        step=args.step,
        executor=args.executor,
        workers=args.workers,
    )
    runner = BatchRunner(
        mapper.session, workers=args.batch_workers,
        max_in_flight=args.max_in_flight,
    )
    print("#read\tlocus\tmapq\tsupport\tsecond_support\tn_seeds")
    n_reads = n_mapped = n_errors = 0
    reads = iter_fasta(args.reads, invalid=args.invalid)
    for result in runner.run(reads, fn=mapper.map_read):
        n_reads += 1
        if not result.ok:
            n_errors += 1
            print(f"{result.label}\t*\t0\t0\t0\t0")
            print(f"# error in read {result.label!r}: {result.error}",
                  file=sys.stderr)
            continue
        m = result.value
        locus = m.locus + 1 if m.mapped else "*"
        n_mapped += int(m.mapped)
        print(f"{result.label}\t{locus}\t{m.mapq}\t{m.support}"
              f"\t{m.second_support}\t{m.n_seeds}")
    if args.verbose:
        info = mapper.session.cache_info()
        print(f"# reads: {n_reads}  mapped: {n_mapped}  errors: {n_errors}  "
              f"index rows cached: {info['n_cached']}", file=sys.stderr)
    _emit_observability(args, tracer)
    return 1 if n_errors else 0


def cmd_serve(args) -> int:
    import json
    from collections import deque

    from repro.core.serve import MemServer
    from repro.errors import ServerOverloadedError

    reference = _read_single_fasta(args.reference, args.invalid)
    tracer = _make_cli_tracer(args)

    def emit(obj) -> None:
        print(json.dumps(obj), flush=True)

    # Submission-order output: completed futures are flushed from the head
    # of the window opportunistically after each submit and exhaustively at
    # EOF (the drain), so one slow request never reorders the stream.
    pending: deque = deque()

    def flush_ready(block: bool = False) -> None:
        while pending and (block or pending[0][1].done()):
            rid, future = pending.popleft()
            res = future.result()
            if res.ok:
                line = {
                    "id": rid, "ok": True, "n_mems": len(res.value),
                    "seconds": round(res.seconds, 6),
                }
                if not args.count_only:
                    line["mems"] = [
                        [int(r) + 1, int(q) + 1, int(length)]
                        for r, q, length in res.value
                    ]
            else:
                line = {"id": rid, "ok": False,
                        "error": str(res.error) or repr(res.error)}
            emit(line)

    n_shed = 0
    stream = sys.stdin if args.requests in (None, "-") else open(args.requests)
    try:
        with MemServer(
            reference,
            tier=args.tier,
            workers=args.workers,
            max_in_flight=args.max_in_flight,
            admission_limit=args.admission_limit,
            telemetry_path=args.stats_jsonl,
            telemetry_interval=args.stats_interval,
            tracer=tracer,
            min_length=args.min_length,
            seed_length=min(args.seed_length, args.min_length),
            step=args.step,
        ) as server:
            for n, raw in enumerate(stream):
                raw = raw.strip()
                if not raw:
                    continue
                if raw.startswith("{"):
                    try:
                        req = json.loads(raw)
                    except ValueError as exc:
                        emit({"id": None, "ok": False,
                              "error": f"bad request line: {exc}"})
                        continue
                    rid = req.get("id", n)
                    query = req.get("query")
                    if query is None:
                        emit({"id": rid, "ok": False,
                              "error": "missing 'query' field"})
                        continue
                else:
                    rid, query = n, raw
                try:
                    future = server.submit(query, label=str(rid))
                except ServerOverloadedError as exc:
                    n_shed += 1
                    emit({"id": rid, "ok": False, "shed": True,
                          "error": "server overloaded",
                          "queue_depth": exc.queue_depth,
                          "admission_limit": exc.admission_limit})
                    continue
                pending.append((rid, future))
                flush_ready()
            flush_ready(block=True)  # EOF: wait for every admitted request
            final = server.close()   # graceful drain (idempotent)
    finally:
        if stream is not sys.stdin:
            stream.close()
    if args.verbose:
        print(f"# served: {final['completed']}  errors: {final['errors']}  "
              f"shed: {n_shed}  cancelled: {final['cancelled']}  "
              f"drain: {final['drain_seconds']:.3f}s  tier: {final['tier']}",
              file=sys.stderr)
    _emit_observability(args, tracer)
    return 0


def _format_stats_snapshot(snap: dict) -> str:
    """One telemetry snapshot as a compact human-readable block."""
    import datetime

    lines = []
    ts = snap.get("ts")
    when = (
        datetime.datetime.fromtimestamp(ts).strftime("%H:%M:%S")
        if isinstance(ts, (int, float)) else "?"
    )
    lines.append(
        f"[{when}] tier={snap.get('tier', '?')}  "
        f"queue={snap.get('queue_depth', '?')}/{snap.get('admission_limit', '?')}  "
        f"in_flight={snap.get('in_flight', '?')}/{snap.get('max_in_flight', '?')}"
    )
    lines.append(
        f"  submitted={snap.get('submitted', 0)}  "
        f"completed={snap.get('completed', 0)}  "
        f"errors={snap.get('errors', 0)}  shed={snap.get('shed', 0)}  "
        f"cancelled={snap.get('cancelled', 0)}"
    )
    latency = snap.get("latency")
    if latency:
        def ms(key):
            value = latency.get(key)
            return f"{value * 1e3:.2f}ms" if value is not None else "-"

        lines.append(
            f"  latency: n={latency.get('count', 0)}  mean={ms('mean')}  "
            f"p50={ms('p50')}  p95={ms('p95')}  p99={ms('p99')}"
        )
    return "\n".join(lines)


def cmd_stats(args) -> int:
    import json
    import time as _time

    def render(raw_line: str) -> None:
        raw_line = raw_line.strip()
        if not raw_line:
            return
        if args.raw:
            print(raw_line, flush=True)
            return
        try:
            snap = json.loads(raw_line)
        except ValueError:
            print(f"# unparseable line: {raw_line[:80]}", file=sys.stderr)
            return
        print(_format_stats_snapshot(snap), flush=True)

    try:
        fh = open(args.stats_file, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot open {args.stats_file}: {exc}", file=sys.stderr)
        return 2
    with fh:
        lines = fh.readlines()
        if not args.follow:
            if not lines:
                print(f"{args.stats_file}: no snapshots yet", file=sys.stderr)
                return 1
            render(lines[-1])
            return 0
        # Follow mode: render everything so far, then tail for new lines.
        for line in lines:
            render(line)
        try:
            while True:
                line = fh.readline()
                if line:
                    render(line)
                else:
                    _time.sleep(0.2)
        except KeyboardInterrupt:
            return 0


def cmd_index(args) -> int:
    import time

    from repro.core.matcher import GpuMem
    from repro.core.params import GpuMemParams

    reference = _read_single_fasta(args.reference, args.invalid)
    tracer = _make_cli_tracer(args)
    store = _activate_index_store(args)
    params = GpuMemParams(
        min_length=args.min_length,
        seed_length=min(args.seed_length, args.min_length),
        step=args.step,
        executor=args.executor,
        workers=args.workers,
    )
    seconds = GpuMem(params, tracer=tracer).index_only(reference)
    print(f"index build: {seconds:.4f}s  ({params.describe()})")
    _print_store_stats(store)
    if args.save:
        from repro.index.kmer_index import build_kmer_index
        from repro.index.serialize import save_kmer_index

        t0 = time.perf_counter()
        index = build_kmer_index(
            reference, seed_length=params.seed_length, step=params.step
        )
        save_kmer_index(index, args.save)
        print(
            f"saved full-reference index ({index.n_locs:,} locations) to "
            f"{args.save} in {time.perf_counter() - t0:.3f}s"
        )
    _emit_observability(args, tracer)
    return 0


def cmd_trace(args) -> int:
    from repro.obs.export import (
        format_event_tree,
        load_chrome_trace,
        top_spans,
        validate_chrome_trace,
    )

    try:
        doc = load_chrome_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(doc)
    events = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    print(f"{args.trace_file}: {len(events)} spans", end="")
    meta = doc.get("metadata", {})
    if meta.get("command"):
        print(f"  (recorded by: {meta['command']})", end="")
    print()
    if problems:
        print(f"\n{len(problems)} schema problem(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("schema: OK (valid Chrome trace, spans properly nested)")

    if args.tree:
        print()
        print(format_event_tree(doc), end="")
    else:
        print("\nhottest spans (by total wall time):")
        for name, count, total_ms in top_spans(doc, n=args.top):
            print(f"  {name:<28}{count:>6}×{total_ms:>12.3f} ms")

    metrics = doc.get("metrics") or {}
    if metrics:
        print(f"\nmetrics: {len(metrics)} series recorded "
              "(see the 'metrics' block of the JSON)")
        for series in sorted(metrics)[: args.top]:
            entry = metrics[series]
            if entry.get("type") == "histogram":
                print(f"  {series}: count={entry['count']} sum={entry['sum']:.6g}")
            else:
                print(f"  {series}: {entry.get('value')}")
    return 0


def cmd_profile(args) -> int:
    from repro.core.params import GpuMemParams
    from repro.core.simulated import simulated_find_mems
    from repro.gpu.kernel import Device
    from repro.gpu.profiler import profile_device

    reference = _read_single_fasta(args.reference, args.invalid)
    query = _read_single_fasta(args.query, args.invalid)
    tracer = _make_cli_tracer(args)
    params = GpuMemParams(
        min_length=args.min_length,
        seed_length=min(args.seed_length, args.min_length),
        step=args.step,
        backend="simulated",
    )
    dev = Device()
    mems, stats = simulated_find_mems(
        reference, query, params, device=dev, tracer=tracer
    )
    print(profile_device(dev).format(), end="")
    print(f"\nmatches: {int(mems.size)}  "
          f"sim total: {stats['sim_total_seconds']:.6f}s  "
          f"kernel launches: {stats['kernel_launches']}")
    _emit_observability(args, tracer)
    return 0


def cmd_dataset(args) -> int:
    from repro.sequence.datasets import DATASETS, load_dataset
    from repro.sequence.fasta import write_fasta

    if args.name not in DATASETS:
        print(f"unknown dataset {args.name!r}; known: {sorted(DATASETS)}",
              file=sys.stderr)
        return 2
    codes = load_dataset(args.name)
    spec = DATASETS[args.name]
    write_fasta(args.output, [(f"{args.name} {spec.description}", codes)])
    print(f"wrote {args.output}: {codes.size:,} bases")
    return 0


def cmd_bench(args) -> int:
    import subprocess
    from pathlib import Path

    run_all = Path(__file__).resolve().parents[2] / "benchmarks" / "run_all.py"
    if not run_all.exists():
        print("benchmarks/run_all.py not found (installed without the repo?)",
              file=sys.stderr)
        return 2
    cmd = [sys.executable, str(run_all)]
    if args.only:
        cmd += ["--only", *args.only]
    if args.div:
        cmd += ["--div", str(args.div)]
    return subprocess.call(cmd)


def cmd_analyze(args) -> int:
    import os

    from repro.analysis import findings_to_json, format_findings, lint_paths
    from repro.analysis._framework import TAGS
    from repro.errors import AnalysisInputError

    paths = args.paths
    if not paths:
        # default: the installed package itself (works outside a checkout)
        import repro

        paths = [os.path.dirname(repro.__file__)]
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    # --device (default) = KL SIMT rules; --host = CL lock rules;
    # --resource = RL lifecycle rules; --all = every family in one report.
    families = {"device": ("simt",), "host": ("conc",), "resource": ("res",),
                "all": TAGS}[args.side]
    try:
        findings = lint_paths(paths, families, select=select, ignore=ignore)
    except AnalysisInputError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.format == "json":
        print(findings_to_json(findings))
    else:
        print(format_findings(findings))
    return 1 if findings else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpumem", description="GPUMEM reproduction: maximal exact match extraction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("match", help="extract MEMs between reference and query")
    _add_match_args(p)
    p.add_argument("query", help="query FASTA file")
    p.add_argument("--backend", choices=("vectorized", "simulated"),
                   default="vectorized")
    p.add_argument("--unique", action="store_true",
                   help="report MUMs (matches unique in both sequences)")
    p.add_argument("--rare", type=int, default=None, metavar="K",
                   help="report rare matches (at most K occurrences per side)")
    p.add_argument("-b", "--both-strands", action="store_true",
                   help="also match the reverse-complement strand")
    p.add_argument("--per-record", action="store_true",
                   help="match each query FASTA record separately "
                        "(MUMmer-style multi-record output)")
    p.add_argument("--batch", action="store_true",
                   help="per-record mode on the batched engine: stream "
                        "records through a BatchRunner (--batch-workers "
                        "concurrent queries, one warm session, per-record "
                        "error isolation)")
    p.add_argument("--batch-workers", type=int, default=None, metavar="N",
                   help="concurrent queries of --batch (default: CPU count, "
                        "capped at 8)")
    p.add_argument("--max-in-flight", type=int, default=None, metavar="N",
                   help="backpressure bound of --batch: at most N records "
                        "submitted but unfinished (default 2x workers)")
    p.add_argument("--paf", action="store_true",
                   help="emit PAF records instead of MUMmer-style triplets")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser(
        "map",
        help="MEM-seeded read mapping: stream a read set through the "
             "batched engine against one warm reference session",
    )
    p.add_argument("reference", help="reference FASTA file")
    p.add_argument("reads", help="reads FASTA file (streamed, any size)")
    p.add_argument("-l", "--min-seed", type=int, default=20,
                   help="minimum MEM seed length (default 20)")
    p.add_argument("-s", "--seed-length", type=int, default=10,
                   help="indexing seed length ℓs (default 10)")
    p.add_argument("--step", type=int, default=None,
                   help="indexing step Δs (default: the Eq. 1 maximum)")
    p.add_argument("--tolerance", type=int, default=200,
                   help="diagonal bucket width / max cumulative indel "
                        "(default 200)")
    p.add_argument("--invalid", choices=("error", "skip", "random"),
                   default="random", help="non-ACGT letter policy")
    p.add_argument("--executor",
                   choices=("serial", "threads", "banded", "process"),
                   default="serial",
                   help="row executor inside each query (default serial)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="row-executor width (threads/bands per query)")
    p.add_argument("--batch-workers", type=int, default=None, metavar="N",
                   help="concurrent reads (default: CPU count, capped at 8)")
    p.add_argument("--max-in-flight", type=int, default=None, metavar="N",
                   help="backpressure bound (default 2x batch workers)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record a Chrome-trace JSON of the run")
    p.add_argument("--metrics", action="store_true",
                   help="print the run's metrics registry to stderr")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser(
        "serve",
        help="long-lived MEM server: JSONL requests in (stdin or file), "
             "JSONL results out; admission control sheds bursts with a "
             "structured error and EOF drains gracefully",
    )
    p.add_argument("reference", help="reference FASTA file")
    p.add_argument("requests", nargs="?", default=None,
                   help="JSONL request file (default: stdin). Each line is "
                        "either {\"id\": ..., \"query\": \"ACGT...\"} or a "
                        "bare sequence string")
    p.add_argument("-l", "--min-length", type=int, default=20,
                   help="minimum MEM length L (default 20)")
    p.add_argument("-s", "--seed-length", type=int, default=10,
                   help="indexing seed length ℓs (default 10)")
    p.add_argument("--step", type=int, default=None,
                   help="indexing step Δs (default: the Eq. 1 maximum)")
    p.add_argument("--invalid", choices=("error", "skip", "random"),
                   default="random",
                   help="non-ACGT letter policy for the reference")
    p.add_argument("--tier", choices=("thread", "process"), default="thread",
                   help="execution substrate: in-process thread pool or the "
                        "shared worker-process pool (default thread)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="concurrent request executions (default: CPU count, "
                        "capped at 8)")
    p.add_argument("--max-in-flight", type=int, default=None, metavar="N",
                   help="executing-request bound (default: workers)")
    p.add_argument("--admission-limit", type=int, default=None, metavar="N",
                   help="queued-but-not-executing bound; submissions beyond "
                        "it are shed (default 2x max-in-flight)")
    p.add_argument("--count-only", action="store_true",
                   help="emit only MEM counts per request, not the triplets")
    p.add_argument("--stats-jsonl", metavar="PATH", default=None,
                   help="append a telemetry snapshot (queue depth, in-flight, "
                        "latency p50/p95/p99) to PATH as JSONL every "
                        "--stats-interval seconds; watch with 'gpumem stats "
                        "PATH --follow'")
    p.add_argument("--stats-interval", type=float, default=1.0, metavar="SEC",
                   help="telemetry heartbeat period (default 1.0s)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record a Chrome-trace JSON of the serving run")
    p.add_argument("--metrics", action="store_true",
                   help="print the run's metrics registry to stderr")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "stats",
        help="render the latest telemetry snapshot of a serve run "
             "(written by 'gpumem serve --stats-jsonl'); --follow tails "
             "the stream live",
    )
    p.add_argument("stats_file", help="JSONL telemetry file being written "
                                      "by 'gpumem serve --stats-jsonl'")
    p.add_argument("--follow", action="store_true",
                   help="keep reading: render each new snapshot as it lands "
                        "(Ctrl-C to stop)")
    p.add_argument("--raw", action="store_true",
                   help="print the JSON lines verbatim instead of rendering")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("index", help="build (and time) the GPUMEM index only")
    _add_match_args(p)
    p.add_argument("--save", metavar="PATH", default=None,
                   help="also save the full-reference locs/ptrs index (.npz)")
    p.add_argument("--store", metavar="DIR", dest="index_store",
                   help="alias for --index-store: persist the built row "
                        "indexes under DIR so 'gpumem match --index-store "
                        "DIR' warm-starts from them")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser(
        "trace",
        help="validate and inspect a Chrome-trace JSON recorded by --trace",
    )
    p.add_argument("trace_file", help="trace JSON written by 'gpumem match --trace'")
    p.add_argument("--tree", action="store_true",
                   help="print the full nested span tree")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="how many hottest spans / metric series to list")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run the simulated backend and print the per-kernel device profile",
    )
    p.add_argument("reference", help="reference FASTA file")
    p.add_argument("query", help="query FASTA file")
    p.add_argument("-l", "--min-length", type=int, default=20,
                   help="minimum MEM length L (default 20)")
    p.add_argument("-s", "--seed-length", type=int, default=8,
                   help="indexing seed length ℓs (default 8)")
    p.add_argument("--step", type=int, default=None,
                   help="indexing step Δs (default: the Eq. 1 maximum)")
    p.add_argument("--invalid", choices=("error", "skip", "random"),
                   default="random", help="non-ACGT letter policy")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="also record a Chrome-trace JSON of the profiled run")
    p.add_argument("--metrics", action="store_true",
                   help="print the run's metrics registry to stderr")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("dataset", help="write a synthetic Table II dataset as FASTA")
    p.add_argument("name")
    p.add_argument("output")
    p.set_defaults(fn=cmd_dataset)

    p = sub.add_parser("bench", help="regenerate evaluation tables/figures")
    p.add_argument("--only", nargs="*", default=None)
    p.add_argument("--div", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "analyze",
        help="static analysis — device (SIMT: barrier divergence, "
             "shared-memory races, KL1xx-KL2xx), host (lock discipline, "
             "deadlock shapes, CL1xx), and/or resource lifecycles "
             "(shm/mmap/lock/temp leaks, spawn safety, RL1xx) — exit 1 "
             "on any finding, 2 on a missing or unparsable file",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files or directories to lint "
                        "(default: the installed repro package)")
    side = p.add_mutually_exclusive_group()
    side.add_argument("--device", dest="side", action="store_const",
                      const="device",
                      help="device-side SIMT rules only (KL1xx/KL2xx; default)")
    side.add_argument("--host", dest="side", action="store_const", const="host",
                      help="host-side lock-discipline rules only (CL1xx)")
    side.add_argument("--resource", dest="side", action="store_const",
                      const="resource",
                      help="resource-lifecycle / spawn-safety rules only (RL1xx)")
    side.add_argument("--all", dest="side", action="store_const", const="all",
                      help="every rule family (device + host + resource)")
    p.set_defaults(side="device")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--select", metavar="RULES", default=None,
                   help="comma-separated rule ids to report (e.g. KL101,CL102)")
    p.add_argument("--ignore", metavar="RULES", default=None,
                   help="comma-separated rule ids to suppress")
    p.set_defaults(fn=cmd_analyze)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
