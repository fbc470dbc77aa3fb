"""Cross-path equivalence: every execution path = one MEM set.

The staged pipeline promises that *how* the independent tile rows run —
one after another (the seed behaviour), on row threads, banded across
model devices, on the simulated SIMT backend, against a warm session cache
or the persistent index store, whole queries shipped to worker processes,
or the ``gpumem match`` command line — never changes *what* is extracted.
This suite pins that promise on random and adversarial inputs, always
cross-checked byte for byte against the independent ``brute_force_mems``
oracle. No path's output is deduplicated here: a path that skipped the one
dedup point (:class:`repro.types.MatchSet`) would show.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (
    BatchRunner,
    GpuMem,
    GpuMemParams,
    MemServer,
    MemSession,
    PipelineStats,
    brute_force_mems,
    clear_session_cache,
    get_session,
)
from repro.core.multi_device import find_mems_multi_device
from repro.index.store import IndexStore
from repro.sequence.fasta import write_fasta
from repro.types import make_triplets, mems_equal

from tests.conftest import dna_pair

#: Small geometry so even tiny inputs exercise many rows/tiles/boundaries.
SMALL = dict(seed_length=3, threads_per_block=4, blocks_per_tile=2)
L = 5
#: Process-tier pool width; shared with the other process-tier suites via
#: the process-wide pool registry, so the spawn cost is paid once.
PROC_WORKERS = 2


def _params(**overrides) -> GpuMemParams:
    kwargs = dict(min_length=L, **SMALL)
    kwargs.update(overrides)
    return GpuMemParams(**kwargs)


def _all_paths(
    reference: np.ndarray, query: np.ndarray, *, processes: bool = False
) -> dict[str, np.ndarray]:
    """Triplets from every supported execution path, the CLI included.

    ``processes`` adds the query-level process tiers (``BatchRunner`` and
    ``MemServer``); they pay a spawn, so only the fixed adversarial cases
    ask for them.
    """
    out: dict[str, np.ndarray] = {}
    for workers in (1, 3):
        out[f"workers={workers}"] = (
            GpuMem(_params(workers=workers)).find_mems(reference, query).array
        )
    out["simulated"] = (
        GpuMem(_params(backend="simulated")).find_mems(reference, query).array
    )
    session = MemSession(reference, _params())
    out["session-cold"] = session.find_mems(query).array
    out["session-warm"] = session.find_mems(query).array  # 100% cache hits
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_store, warm_store = IndexStore(cache_dir), IndexStore(cache_dir)
        out["store-cold"] = (
            MemSession(reference, _params(), store=cold_store)
            .find_mems(query).array
        )
        # A fresh store handle on the same dir: rows load from disk.
        out["store-warm"] = (
            MemSession(reference, _params(), store=warm_store)
            .find_mems(query).array
        )
        assert warm_store.stats()["builds"] == 0
        cold_store.clear_hot()
        warm_store.clear_hot()
    mems, _ = find_mems_multi_device(reference, query, _params(), n_devices=3)
    out["multi-device"] = mems.array
    out.update(_cli_paths(reference, query))
    if processes:
        runner = BatchRunner(
            reference, _params(), tier="process", workers=PROC_WORKERS
        )
        (result,) = runner.run([query])
        assert result.ok, result.error
        out["batch-process"] = result.value.array
        with MemServer(
            reference, _params(), tier="process", workers=PROC_WORKERS
        ) as server:
            served = server.request(query, timeout=120)
        assert served.ok, served.error
        out["serve-process"] = served.value.array
    return out


def _cli_paths(reference: np.ndarray, query: np.ndarray) -> dict[str, np.ndarray]:
    """``gpumem match`` plain, ``--per-record`` and ``--batch``.

    Each run writes to a file, which is parsed back into triplets (shifted
    to 0-based) in the order the command printed them. The command line has
    no tiling options, so these paths run the default tile geometry.
    """
    out: dict[str, np.ndarray] = {}
    with tempfile.TemporaryDirectory() as tmp:
        ref_fa, qry_fa, out_txt = (
            os.path.join(tmp, name) for name in ("ref.fa", "qry.fa", "out.txt")
        )
        write_fasta(ref_fa, [("ref", reference)])
        write_fasta(qry_fa, [("qry", query)])
        args = ["match", ref_fa, qry_fa, "-l", str(L), "-s", str(SMALL["seed_length"])]
        for name, flags in (
            ("cli", []), ("cli-per-record", ["--per-record"]), ("cli-batch", ["--batch"]),
        ):
            with open(out_txt, "w") as fh, contextlib.redirect_stdout(fh):
                assert main(args + flags) == 0
            with open(out_txt) as fh:
                rows = [
                    [int(x) for x in line.split("\t")]
                    for line in fh if not line.startswith(">")
                ]
            cols = np.array(rows, dtype=np.int64).reshape(-1, 3)
            out[name] = make_triplets(cols[:, 0] - 1, cols[:, 1] - 1, cols[:, 2])
    return out


def _assert_all_equal(reference, query, paths: dict[str, np.ndarray]) -> None:
    oracle = brute_force_mems(reference, query, L)
    for name, arr in paths.items():
        assert arr.tobytes() == oracle.tobytes(), (
            f"{name} diverged: {arr.size} vs oracle {oracle.size} MEMs"
        )


class TestPathEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(dna_pair(max_size=120))
    def test_random_pairs(self, pair):
        R, Q = pair
        _assert_all_equal(R, Q, _all_paths(R, Q))

    def test_empty_query(self):
        R = (np.arange(64) % 4).astype(np.uint8)
        Q = np.empty(0, dtype=np.uint8)
        _assert_all_equal(R, Q, _all_paths(R, Q, processes=True))

    def test_empty_reference(self):
        R = np.empty(0, dtype=np.uint8)
        Q = (np.arange(40) % 4).astype(np.uint8)
        _assert_all_equal(R, Q, _all_paths(R, Q, processes=True))

    def test_single_letter_highly_repetitive(self):
        # One letter everywhere: maximal candidate density, every extension
        # runs into a tile border, the host merge does all the work.
        R = np.zeros(90, dtype=np.uint8)
        Q = np.zeros(70, dtype=np.uint8)
        paths = _all_paths(R, Q, processes=True)
        _assert_all_equal(R, Q, paths)
        # one boundary-delimited MEM per diagonal of length >= L
        n_diagonals = sum(
            1 for d in range(-(Q.size - 1), R.size)
            if min(R.size - max(d, 0), Q.size - max(-d, 0)) >= L
        )
        assert all(arr.size == n_diagonals for arr in paths.values())

    def test_periodic_repeats(self):
        R = np.tile(np.array([0, 1, 2, 0, 1], dtype=np.uint8), 30)
        Q = np.tile(np.array([0, 1, 2, 0, 1], dtype=np.uint8), 20)
        _assert_all_equal(R, Q, _all_paths(R, Q, processes=True))

    def test_query_shorter_than_seed(self):
        R = (np.arange(50) % 4).astype(np.uint8)
        Q = np.array([0, 1], dtype=np.uint8)  # shorter than seed_length
        _assert_all_equal(R, Q, _all_paths(R, Q, processes=True))

    def test_mem_exactly_on_tile_row_boundaries(self):
        # A planted MEM that starts on a tile-row boundary (r = k·ℓtile)
        # and ends exactly on the next one (r + len = (k+1)·ℓtile), at a
        # tile-column boundary of the query too.
        tile = _params().tile_size
        rng = np.random.default_rng(11)
        R = rng.integers(0, 4, 5 * tile).astype(np.uint8)
        r, q = 2 * tile, tile
        Q = rng.integers(0, 4, 4 * tile).astype(np.uint8)
        Q[q:q + tile] = R[r:r + tile]
        # flanks mismatch, so the planted match is maximal on both sides
        Q[q - 1] = (R[r - 1] + 1) % 4
        Q[q + tile] = (R[r + tile] + 1) % 4
        oracle = {tuple(m) for m in brute_force_mems(R, Q, L).tolist()}
        assert (r, q, tile) in oracle
        _assert_all_equal(R, Q, _all_paths(R, Q, processes=True))

    @settings(max_examples=10, deadline=None)
    @given(dna_pair(max_size=100), st.integers(1, 5))
    def test_any_worker_count(self, pair, workers):
        R, Q = pair
        serial = GpuMem(_params()).find_mems(R, Q).array
        threaded = GpuMem(_params(workers=workers)).find_mems(R, Q).array
        banded, _ = find_mems_multi_device(R, Q, _params(), n_devices=workers)
        assert mems_equal(threaded, serial)
        assert mems_equal(banded.array, serial)


class TestSessionCaching:
    def test_warm_session_hits_cache(self):
        rng = np.random.default_rng(7)
        R = rng.integers(0, 4, 600).astype(np.uint8)
        session = MemSession(R, _params())
        build_seconds = session.warm()
        assert build_seconds >= 0.0
        info = session.cache_info()
        assert info["n_cached"] == session.n_rows > 1

        Q = np.concatenate([R[50:200], rng.integers(0, 4, 80).astype(np.uint8)])
        result = session.find_mems(Q)
        assert mems_equal(result.array, brute_force_mems(R, Q, L))
        # warm run: the row-index stage must never rebuild
        assert result.stats.index_cache_hits == session.n_rows
        assert result.stats.index_cache_misses == 0
        assert result.stats.index_time == 0.0

    def test_batch_matches_individual(self, rng):
        R = rng.integers(0, 3, 400).astype(np.uint8)
        queries = [rng.integers(0, 3, 120).astype(np.uint8) for _ in range(4)]
        session = MemSession(R, _params())
        batch = session.find_mems_batch(queries)
        for q, got in zip(queries, batch, strict=True):
            assert mems_equal(got.array, brute_force_mems(R, q, L))

    def test_warm_is_idempotent_and_cheap(self):
        R = (np.arange(500) % 4).astype(np.uint8)
        session = MemSession(R, _params())
        session.warm()
        n_built = session.cache_info()["n_cached"]
        session.warm()  # second warm builds nothing new
        assert session.cache_info()["n_cached"] == n_built

    def test_drop_indexes_stays_correct(self):
        R = (np.arange(300) % 3).astype(np.uint8)
        Q = R[40:200].copy()
        session = MemSession(R, _params())
        first = session.find_mems(Q)
        session.drop_indexes()
        assert session.cache_info()["n_cached"] == 0
        again = session.find_mems(Q)
        assert mems_equal(first.array, again.array)

    def test_get_session_is_shared_and_keyed(self):
        clear_session_cache()
        R1 = (np.arange(200) % 4).astype(np.uint8)
        R2 = (np.arange(200) % 3).astype(np.uint8)
        a = get_session(R1, _params())
        b = get_session(R1, _params())
        c = get_session(R2, _params())
        d = get_session(R1, _params(min_length=6))
        assert a is b
        assert a is not c
        assert a is not d
        clear_session_cache()


class TestPipelineStatsContract:
    def test_matcher_stats_defined_before_first_call(self):
        g = GpuMem(_params())
        assert isinstance(g.stats, PipelineStats)
        # stats["key"] reads work on the zeroed stats too
        assert g.stats["n_tiles"] == 0
        assert g.stats["total_time"] == 0.0
        assert g.stats["index_time"] == 0.0

    def test_matchset_exposes_same_stats_object(self):
        R = (np.arange(200) % 4).astype(np.uint8)
        g = GpuMem(_params())
        result = g.find_mems(R, R[20:150])
        assert result.stats is g.stats
        assert result.stats["n_rows"] == result.stats.n_rows >= 1

    def test_mapping_protocol_roundtrip(self):
        """What stays of the mapping shim: ``stats[key]`` reads (fields,
        then extras) and the flat ``to_dict`` / ``from_dict`` wire form."""
        stats = PipelineStats(n_tiles=7, n_candidates=3, extra={"custom": "x"})
        assert stats["n_tiles"] == 7
        assert stats["custom"] == "x"
        with pytest.raises(KeyError):
            _ = stats["missing"]
        as_dict = stats.to_dict()
        assert as_dict["n_tiles"] == 7
        assert as_dict["custom"] == "x"
        assert "extra" not in as_dict
        back = PipelineStats.from_dict(as_dict)
        assert back == stats
        assert back.extra == {"custom": "x"}
        for gone in ("__setitem__", "__contains__", "__iter__", "__len__",
                     "keys", "items", "get", "update"):
            assert not hasattr(PipelineStats, gone), gone

    def test_executor_recorded(self):
        """How the rows ran (the row-thread count) lands in the stats."""
        R = (np.arange(120) % 4).astype(np.uint8)
        g = GpuMem(_params(workers=2))
        g.find_mems(R, R[10:90])
        assert g.stats.workers == 2
        assert g.stats["workers"] == 2
        assert "workers=2" in g.stats.params
