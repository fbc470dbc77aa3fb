"""The benchmark's three workloads.

Each workload has two modes. ``measure`` (tracing off) cuts the timed phase
into ``BLOCKS`` blocks and sets the program up afresh before each, so both
the set-up times and the block statistics sample the whole run: a burst of
host noise moves one block, not the median over blocks. Afterwards it
checks every output against the oracle and measures peak memory in a
separate, untimed pass. ``trace`` runs a fixed list of operations twice,
untraced and traced, so the per-layer work counters of a seed repeat
exactly, and runs the first operation once more under a second tracer to
assert that they do.

- ``table4_cli``: the paper's own path. ``gpumem match ref.fa qry.fa -l 30``
  on the Table IV chr1m/chr2h row at 1/10 of the 1:100 scale, in-process,
  stdout to a file. Closed loop, one client. Heavy output and extension on
  repeats; the index is 3 rows.
- ``reads_session``: 1 kb reads against a warm ``MemSession`` over the
  14-row chrI analogue. Closed loop, one client. ~35 MEMs per read, so
  per-call overhead dominates.
- ``serve_process``: the same reads through ``MemServer(tier="process",
  workers=2)``: a closed loop with a window of 4 requests in flight for
  ``qps``, then an open loop at a fixed 12 requests/s for latency, timed
  from each request's due time. Isolates IPC, queueing and the parent-side
  ``MatchSet`` rebuild.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import inputs
import layers
from tracer import OutsideInTracer

#: Closed-loop share of the timed phase of ``serve_process``; the open loop
#: takes the rest.
SERVE_CLOSED_SHARE = 0.3
SERVE_RATE = 12.0
SERVE_WINDOW = 4
SERVE_WORKERS = 2
#: Generous admission bound: a shed request is a failure, and the fixed-rate
#: open loop should never be shed on a healthy server.
SERVE_ADMISSION = 64
#: Timed phases are cut into this many blocks, each after its own set-up;
#: set-up time, throughput and tail latency are medians over blocks.
BLOCKS = 5
#: The tail of a block: its 90th percentile, which leaves >= 10 samples
#: beyond it in every block of the read workloads but the open loop's
#: (about 5 there, 25 over the run).
TAIL_PERCENTILE = 90
MIN_BLOCK_CLI_RUNS = 2
PEAK_OPS = 20
TRACE_OPS = {"full": 200, "tiny": 12}
#: Modules a ``gpumem match`` run imports (the CLI's own set-up).
CLI_MODULES = "repro.cli, repro.core.matcher, repro.sequence.fasta"
#: ``gpumem`` with the given arguments; prints its peak RSS (kB) to stderr.
PEAK_CHILD = (
    "import sys\n"
    "from repro import cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print([ln for ln in fh if ln.startswith('VmHWM:')][0].split()[1],\n"
    "          file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


@dataclass
class Context:
    seed: int
    seconds: float
    scale_name: str
    workdir: str
    oracle: inputs.Oracle
    notes: list = field(default_factory=list)

    @property
    def scale(self) -> inputs.Scale:
        return inputs.SCALES[self.scale_name]


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool


def ms(seconds: float) -> float:
    return 1000.0 * seconds


def p95(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 95))


def tail(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), TAIL_PERCENTILE))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def peak_heap_mb(fn) -> float:
    """Peak traced heap (MB) while ``fn`` runs; tracemalloc sees NumPy."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def counters_match(first: OutsideInTracer, rid_a, second: OutsideInTracer,
                   rid_b) -> bool:
    """Determinism: one operation's work counters, run twice, agree."""
    return first.counter_totals(rid_a) == second.counter_totals(rid_b)


# -- table4_cli ------------------------------------------------------------------

class Table4Cli:
    """``gpumem match`` on the Table IV row, run in-process."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.variant = ctx.seed % inputs.TABLE4_VARIANTS
        self.argv, self.expect, ok = self._prepare(self.variant)
        # Peak memory depends on where a rotation cuts the repeats (225-256
        # MB over the variants), so it is always taken on the unrotated row.
        self.peak_argv, self.peak_expect, peak_ok = (
            (self.argv, self.expect, True) if self.variant == 0
            else self._prepare(0))
        self.inputs_ok = ok and peak_ok
        self._n_out = 0
        # Import the CLI path now: timed runs exclude it, setup_s measures it.
        import repro.cli  # noqa: F401
        import repro.core.matcher  # noqa: F401

    def _prepare(self, variant: int) -> tuple[list[str], dict, bool]:
        """Write one variant's FASTA pair; its CLI arguments, its oracle
        entry, and whether the inputs are the ones the oracle saw."""
        ref, qry = inputs.table4_pair(self.ctx.scale, variant)
        expect = self.ctx.oracle.table4(variant)
        ok = (inputs.sha1_of(ref) == expect["reference_sha1"]
              and inputs.sha1_of(qry) == expect["query_sha1"])
        ref_path = os.path.join(self.ctx.workdir, f"ref{variant}.fa")
        qry_path = os.path.join(self.ctx.workdir, f"qry{variant}.fa")
        inputs.write_fasta(ref_path, "chr1m", ref)
        inputs.write_fasta(qry_path, "chr2h", qry)
        return (["match", ref_path, qry_path, "-l", str(inputs.TABLE4_ROW[2])],
                expect, ok)

    def _out_path(self) -> str:
        self._n_out += 1
        return os.path.join(self.ctx.workdir, f"out{self._n_out}.txt")

    def op(self, out_path: str) -> tuple[float, bool]:
        """One CLI run; returns (seconds, exited 0)."""
        from repro import cli

        t0 = time.perf_counter()
        try:
            with open(out_path, "w") as fh, contextlib.redirect_stdout(fh):
                rc = cli.main(self.argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed run
            self.ctx.notes.append(f"cli raised {exc!r}")
            rc = -1
        return time.perf_counter() - t0, rc == 0

    def verify(self, out_path: str, expect: dict | None = None) -> bool:
        expect = self.expect if expect is None else expect
        ok = inputs.cli_output_digest(out_path) == expect["digest"]
        os.remove(out_path)
        return ok

    @staticmethod
    def _env() -> dict:
        return dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(inputs.HERE), "src"))

    def import_seconds(self) -> float:
        """A fresh interpreter importing the CLI path: what every
        ``gpumem`` invocation pays before it reads its first byte."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {CLI_MODULES}"],
                       env=self._env(), check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def process_peak_mb(self, out_path: str) -> tuple[float, bool]:
        """Peak RSS (MB) of one ``gpumem match`` run as its own process, the
        way a user runs it. (Under tracemalloc this run is ~8x slower.)

        The child reports its own ``VmHWM``: ``ru_maxrss`` would also carry
        the high-water mark of the memory it was forked from, that is, of
        this process."""
        with open(out_path, "w") as fh:
            proc = subprocess.run(
                [sys.executable, "-c", PEAK_CHILD, *self.peak_argv], env=self._env(),
                stdout=fh, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return 0.0, False
        return int(proc.stderr.split()[-1]) * 1024 / 1e6, True

    def measure(self) -> Outcome:
        setups, blocks, runs, outs = [], [], [], []
        budget = self.ctx.seconds / BLOCKS
        for _ in range(BLOCKS):
            setups.append(self.import_seconds())
            block = []
            t_start = time.perf_counter()
            # Start a run only while it is expected to end within the block.
            while len(block) < MIN_BLOCK_CLI_RUNS or (
                    time.perf_counter() - t_start + median(block) <= budget):
                out = self._out_path()
                seconds, ok = self.op(out)
                block.append(seconds)
                runs.append(ok)
                outs.append(out)
            blocks.append((block, time.perf_counter() - t_start))
        failed = sum(not ok for ok in runs)
        failed += sum(not self.verify(out) for ok, out in zip(runs, outs) if ok)
        out = self._out_path()
        peak, ok = self.process_peak_mb(out)
        failed += not (ok and self.verify(out, self.peak_expect))
        seconds = [s for block, _ in blocks for s in block]
        self.ctx.notes.append(
            f"table4_cli variant={self.variant} mems={self.expect['n_mems']} "
            f"runs={len(runs)} in {BLOCKS} blocks "
            f"seconds={[round(s, 3) for s in seconds[:12]]} "
            f"(lat_tail_ms is the median over blocks of the slowest run)")
        return Outcome(
            metrics={
                "setup_s": median(setups),
                "lat_p50_ms": ms(median(seconds)),
                "lat_tail_ms": ms(median([max(block) for block, _ in blocks])),
                "qps": median([len(block) / sec for block, sec in blocks]),
                "peak_mem_mb": peak,
            },
            attempted=len(runs) + 1, failed=failed,
            correct=self.inputs_ok and failed == 0,
        )

    def _traced_op(self) -> tuple[OutsideInTracer, bool]:
        tracer = OutsideInTracer()
        out = self._out_path()
        with tracer.installed(layers.wrap_specs()):
            with tracer.request(0):
                _, ok = self.op(out)
        tracer.count("output.bytes", os.path.getsize(out), rid=0)
        return tracer, ok and self.verify(out)

    def trace(self) -> Outcome:
        out = self._out_path()
        untraced, ok0 = self.op(out)
        ok0 = ok0 and self.verify(out)
        tracer, ok1 = self._traced_op()
        again, ok2 = self._traced_op()
        repeatable = counters_match(tracer, 0, again, 0)
        failed = 3 - (ok0 + ok1 + ok2)
        metrics = layers.summarize(
            tracer, untraced_seconds=untraced,
            extra={"client.late_ms_p95": 0.0})
        self.ctx.notes.append(f"table4_cli counters repeat: {repeatable}")
        self.tracer = tracer
        return Outcome(metrics, attempted=3, failed=failed,
                       correct=self.inputs_ok and repeatable and failed == 0)

    def close(self) -> None:
        pass


# -- reads ---------------------------------------------------------------------

class _Reads:
    """Shared input handling of the two read workloads."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.reference = inputs.chri_reference(ctx.scale)
        self.pool = inputs.read_pool(self.reference, ctx.scale)
        self.expect = ctx.oracle.reads()
        self.inputs_ok = (
            inputs.sha1_of(self.reference) == self.expect["reference_sha1"]
            and inputs.sha1_of(np.concatenate(self.pool)) == self.expect["pool_sha1"])
        self.params = inputs.reads_params()
        self.order = inputs.read_order(ctx.seed, len(self.pool), 50_000)
        self._next = 0

    def next_index(self) -> int:
        idx = int(self.order[self._next % self.order.size])
        self._next += 1
        return idx

    def correct(self, idx: int, triplets) -> bool:
        return inputs.mem_digest(triplets) == self.expect["digests"][idx]


class ReadsSession(_Reads):
    """Closed loop of reads against a warm in-process ``MemSession``."""

    def setup(self):
        from repro.core.session import MemSession

        session = MemSession(self.reference, self.params)
        session.warm()
        return session

    def timed_setup(self):
        t0 = time.perf_counter()
        session = self.setup()
        return time.perf_counter() - t0, session

    def measure(self) -> Outcome:
        setups, results, blocks = [], [], []
        for _ in range(BLOCKS):
            session = None  # free the previous session's indexes first
            seconds, session = self.timed_setup()
            setups.append(seconds)
            lat = []
            t_start = time.perf_counter()
            while time.perf_counter() - t_start < self.ctx.seconds / BLOCKS:
                idx = self.next_index()
                t0 = time.perf_counter()
                mems = session.find_mems(self.pool[idx])
                lat.append(time.perf_counter() - t0)
                results.append((idx, mems.array))
            blocks.append((lat, time.perf_counter() - t_start))
        session = None
        all_lat = [x for lat, _ in blocks for x in lat]
        peak_failed = []

        def peak_pass():
            peak_session = self.setup()
            for _ in range(PEAK_OPS):
                idx = self.next_index()
                arr = peak_session.find_mems(self.pool[idx]).array
                peak_failed.append(not self.correct(idx, arr))

        peak = peak_heap_mb(peak_pass)
        failed = sum(not self.correct(idx, arr) for idx, arr in results)
        failed += sum(peak_failed)
        self.ctx.notes.append(
            f"reads_session samples={len(all_lat)} in {BLOCKS} blocks, "
            f"setups={len(setups)}")
        return Outcome(
            metrics={
                "setup_s": median(setups),
                "lat_p50_ms": ms(median([median(lat) for lat, _ in blocks])),
                "lat_tail_ms": ms(median([tail(lat) for lat, _ in blocks])),
                "qps": median([len(lat) / sec for lat, sec in blocks]),
                "peak_mem_mb": peak,
            },
            attempted=len(results) + PEAK_OPS, failed=failed,
            correct=self.inputs_ok and failed == 0,
        )

    def trace(self) -> Outcome:
        n = TRACE_OPS[self.ctx.scale_name]
        idxs = [self.next_index() for _ in range(n)]
        session = self.setup()
        untraced = 0.0
        results = []
        for idx in idxs:
            t0 = time.perf_counter()
            results.append((idx, session.find_mems(self.pool[idx]).array))
            untraced += time.perf_counter() - t0
        tracer = OutsideInTracer()
        with tracer.installed(layers.wrap_specs()):
            with tracer.request("setup", "setup"):
                session = self.setup()
            for rid, idx in enumerate(idxs):
                with tracer.request(rid):
                    results.append((idx, session.find_mems(self.pool[idx]).array))
        again = OutsideInTracer()
        with again.installed(layers.wrap_specs()):
            with again.request(0):
                results.append((idxs[0], session.find_mems(self.pool[idxs[0]]).array))
        repeatable = counters_match(tracer, 0, again, 0)
        failed = sum(not self.correct(idx, arr) for idx, arr in results)
        metrics = layers.summarize(tracer, untraced_seconds=untraced,
                                   extra={"client.late_ms_p95": 0.0})
        self.ctx.notes.append(f"reads_session traced ops={n} counters repeat: {repeatable}")
        self.tracer = tracer
        return Outcome(metrics, attempted=len(results), failed=failed,
                       correct=self.inputs_ok and repeatable and failed == 0)

    def close(self) -> None:
        pass


@dataclass
class _Request:
    idx: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    result: object = None
    error: BaseException | None = None
    future: object = None
    bad: bool | None = None
    finished: threading.Event = field(default_factory=threading.Event)


def _stamp(req: _Request, future) -> None:
    # Runs on the server thread that completes the request. A waiter on the
    # future itself may wake before callbacks run, so completion is
    # signalled through ``finished`` only after both fields are set.
    req.done = time.perf_counter()
    req.result = future.result()
    req.finished.set()


class ServeProcess(_Reads):
    """Reads through the process-tier ``MemServer``: closed, then open loop."""

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.server = None
        self._pool = None

    def start(self) -> float:
        """Server construction plus worker warm-up; returns seconds."""
        from repro.core import procpool
        from repro.core.serve import MemServer

        t0 = time.perf_counter()
        self.server = MemServer(
            self.reference, self.params, tier="process",
            workers=SERVE_WORKERS, admission_limit=SERVE_ADMISSION)
        # Two rounds of one request per worker: the first spawns and warms
        # both workers, the second makes sure neither is still cold.
        for _ in range(2):
            futures = [self.server.submit(self.pool[i]) for i in range(SERVE_WORKERS)]
            if not all(f.result().ok for f in futures):
                raise RuntimeError("serve_process warm-up request failed")
        seconds = time.perf_counter() - t0
        self._pool = procpool.get_pool(SERVE_WORKERS)
        return seconds

    def stop(self) -> None:
        """Drain and close the server; end the workers and wait for them."""
        from repro.core import procpool

        if self.server is not None:
            self.server.close()
            self.server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        procpool.shutdown()

    def _submit(self, req: _Request) -> None:
        req.sent = time.perf_counter()
        try:
            req.future = self.server.submit(self.pool[req.idx])
        except Exception as exc:  # noqa: BLE001 - a shed request is a failure
            req.error, req.done = exc, req.sent
            req.finished.set()
        else:
            req.future.add_done_callback(functools.partial(_stamp, req))

    @staticmethod
    def _wait(reqs) -> None:
        for req in reqs:
            if not req.finished.wait(timeout=120):
                raise TimeoutError(f"request for read {req.idx} never completed")

    def closed_loop(self, seconds: float = float("inf"), n: int | None = None,
                    drop: bool = False) -> tuple[list[_Request], float]:
        """Keep SERVE_WINDOW requests in flight for ``seconds`` (or until
        ``n`` requests were sent). With ``drop``, each result is checked
        and released as it completes."""
        reqs: list[_Request] = []
        inflight: collections.deque = collections.deque()
        t_start = time.perf_counter()
        while True:
            while (len(inflight) < SERVE_WINDOW
                   and (n is None or len(reqs) < n)
                   and time.perf_counter() - t_start < seconds):
                req = _Request(self.next_index(), time.perf_counter())
                self._submit(req)
                reqs.append(req)
                inflight.append(req)
            if not inflight:
                break
            req = inflight.popleft()
            self._wait([req])
            if drop:
                req.bad, req.result = self._bad(req), None
        return reqs, time.perf_counter() - t_start

    def open_loop(self, n: int) -> list[_Request]:
        """``n`` requests due every 1/SERVE_RATE seconds, sent on schedule."""
        reqs = []
        t0 = time.perf_counter() + 0.01
        for k in range(n):
            req = _Request(self.next_index(), t0 + k / SERVE_RATE)
            delay = req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._submit(req)
            reqs.append(req)
        self._wait(reqs)
        return reqs

    def _bad(self, req: _Request) -> bool:
        """Shed, errored, cancelled, or a MEM set the oracle disagrees with."""
        if req.bad is not None:
            return req.bad
        res = req.result
        if req.error is not None or res is None or not res.ok:
            return True
        return not self.correct(req.idx, res.value.array)

    def _failed(self, reqs) -> int:
        return sum(self._bad(req) for req in reqs)

    def measure(self) -> Outcome:
        setups, closed, qps = [], [], []
        for i in range(BLOCKS):
            if i:
                self.stop()
            setups.append(self.start())
            reqs, seconds = self.closed_loop(
                SERVE_CLOSED_SHARE * self.ctx.seconds / BLOCKS)
            closed += reqs
            qps.append(len(reqs) / seconds)
        n_open = int(SERVE_RATE * (1 - SERVE_CLOSED_SHARE) * self.ctx.seconds)
        opened = self.open_loop(n_open)
        self.stop()
        holder = {}

        def peak_pass():
            self.start()
            holder["reqs"] = self.closed_loop(n=PEAK_OPS, drop=True)[0]

        peak = peak_heap_mb(peak_pass)
        peak_reqs = holder["reqs"]
        self.stop()
        lat = [req.done - req.due for req in opened if req.error is None]
        chunk = -(-len(lat) // BLOCKS)
        lat_blocks = [lat[i:i + chunk] for i in range(0, len(lat), chunk)]
        checked = closed + opened + peak_reqs
        failed = self._failed(checked)
        self.ctx.notes.append(
            f"serve_process closed={len(closed)} (window {SERVE_WINDOW}) "
            f"open={len(opened)} at {SERVE_RATE:g}/s setups={len(setups)}")
        return Outcome(
            metrics={
                "setup_s": median(setups),
                "lat_p50_ms": ms(median([median(b) for b in lat_blocks])),
                "lat_tail_ms": ms(median([tail(b) for b in lat_blocks])),
                "qps": median(qps),
                "peak_mem_mb": peak,
            },
            attempted=len(checked), failed=failed,
            correct=self.inputs_ok and failed == 0,
        )

    def trace(self) -> Outcome:
        n = TRACE_OPS[self.ctx.scale_name]
        first = self._next
        self.start()
        plain = self.open_loop(n)
        untraced = sum(req.done - req.due for req in plain)
        self.stop()
        self._next = first
        tracer = OutsideInTracer()
        with tracer.installed(layers.wrap_specs()):
            with tracer.request("setup", "setup"):
                self.start()
            traced = self.open_loop(n)
        for rid, req in enumerate(traced):
            tracer.record("op", req.due, req.done, rid)
        again = OutsideInTracer()
        with again.installed(layers.wrap_specs()):
            self._next = first
            repeat = self.open_loop(1)
        self.stop()
        srv_first = ("srv", traced[0].result.index) if traced[0].result else None
        srv_again = ("srv", repeat[0].result.index) if repeat[0].result else None
        repeatable = srv_first is not None and counters_match(
            tracer, srv_first, again, srv_again)
        rid_map = {("srv", req.result.index): rid
                   for rid, req in enumerate(traced) if req.result is not None}
        metrics = layers.summarize(tracer, untraced_seconds=untraced,
                                   extra=self._split(tracer, traced),
                                   rid_map=rid_map)
        checked = plain + traced + repeat
        failed = self._failed(checked)
        self.ctx.notes.append(f"serve_process traced ops={n} counters repeat: {repeatable}")
        self.tracer = tracer
        return Outcome(metrics, attempted=len(checked), failed=failed,
                       correct=self.inputs_ok and repeatable and failed == 0)

    @staticmethod
    def _split(tracer: OutsideInTracer, reqs) -> dict:
        """Split each ``ServeResult.seconds`` into the worker's pipeline
        time, the parent-side MatchSet rebuild, and the rest (queueing and
        IPC)."""
        rebuild = collections.defaultdict(float)
        for span in tracer.spans:
            if span.name == "normalize" and isinstance(span.rid, tuple):
                rebuild[span.rid[1]] += span.duration
        queue_ipc, worker, rebuilt = [], [], []
        for req in reqs:
            res = req.result
            if res is None or not res.ok:
                continue
            w = float(res.value.stats["total_time"])
            b = rebuild.get(res.index, 0.0)
            worker.append(w)
            rebuilt.append(b)
            queue_ipc.append(res.seconds - w - b)
        late = [req.sent - req.due for req in reqs]
        return {
            "serve.queue_ipc_ms_p50": ms(median(queue_ipc)),
            "serve.queue_ipc_ms_p95": ms(p95(queue_ipc)) if queue_ipc else 0.0,
            "serve.worker_pipeline_ms_p50": ms(median(worker)),
            "serve.rebuild_ms_p50": ms(median(rebuilt)),
            "client.late_ms_p95": ms(p95(late)) if late else 0.0,
        }

    def close(self) -> None:
        self.stop()


WORKLOADS = {
    "table4_cli": Table4Cli,
    "reads_session": ReadsSession,
    "serve_process": ServeProcess,
}
