"""Benchmark inputs and the oracle that checks the program's outputs.

Inputs are made from the workload seed and nothing else:

- ``table4_cli`` uses the paper's Table IV chr1m/chr2h pair (the repo's
  1:100 synthetic analogue) cut to 1/10, rotated by one of
  ``TABLE4_VARIANTS`` seed-chosen offsets. A rotation keeps the sequence
  content, so every seed does the same work up to the MEMs that cross the
  cut, while the MEM coordinates differ.
- ``reads_session`` and ``serve_process`` draw, in a seed-chosen order,
  from a fixed pool of 1 kb reads sampled from the low-repeat chrI analogue
  with 1% substitutions.

The oracle is the independent full-suffix-array finder
``repro.baselines.MummerFinder``. Its digests for the full-scale inputs are
computed once (``run.py --regen-oracle``) and kept in ``oracle/full.json``,
together with digests of the inputs themselves, so a run also proves its
inputs are byte-identical to the ones the oracle saw. The tiny scale used by
the tests computes its oracle on the fly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle", "full.json")

#: The Table IV row: reference, query, L, seed length ℓs.
TABLE4_ROW = ("chr1m", "chr2h", 30, 10)
TABLE4_VARIANTS = 8
#: Reads workloads: L = 30 and ℓs = 10 against chrI give 14 tile rows.
READS_MIN_LENGTH = 30
READS_SEED_LENGTH = 10
READS_POOL_SEED = 20140519
SUBSTITUTION_RATE = 0.01


@dataclass(frozen=True)
class Scale:
    """Input sizes: ``full`` is the benchmark, ``tiny`` the smoke tests."""

    table4_div: int
    chri_bases: int | None
    pool_size: int
    read_length: int


SCALES = {
    "full": Scale(table4_div=10, chri_bases=None, pool_size=2048, read_length=1000),
    "tiny": Scale(table4_div=100, chri_bases=40_000, pool_size=24, read_length=300),
}


def sha1_of(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def _canonical_digest(rows: np.ndarray) -> str:
    """sha1 of ``(r, q, length)`` rows, sorted and deduplicated."""
    rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 3)
    rows = rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))]
    if rows.shape[0] > 1:
        keep = np.ones(rows.shape[0], dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        rows = rows[keep]
    return hashlib.sha1(rows.tobytes()).hexdigest()


def mem_digest(triplets: np.ndarray) -> str:
    """Order- and duplicate-insensitive digest of a MEM triplet array."""
    t = np.asarray(triplets)
    return _canonical_digest(np.stack([t["r"], t["q"], t["length"]], axis=1))


def cli_output_digest(path: str) -> str:
    """:func:`mem_digest` of ``gpumem match`` output (1-based ``r q length``
    lines)."""
    with open(path, "rb") as fh:
        rows = np.fromstring(fh.read(), dtype=np.int64, sep=" ").reshape(-1, 3)
    return _canonical_digest(rows - np.array([1, 1, 0], dtype=np.int64))


# -- table4_cli ------------------------------------------------------------------

def table4_offsets(variant: int, n_ref: int, n_qry: int) -> tuple[int, int]:
    """Rotation offsets of one variant; variant 0 is the unrotated row."""
    if variant == 0:
        return 0, 0
    rng = np.random.default_rng(1000 + variant)
    return int(rng.integers(1, n_ref)), int(rng.integers(1, n_qry))


def table4_pair(scale: Scale, variant: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference and query code arrays of one ``table4_cli`` variant."""
    from repro.sequence.datasets import ExperimentConfig, load_experiment

    ref_name, qry_name, min_length, seed_length = TABLE4_ROW
    ref, qry = load_experiment(
        ExperimentConfig(ref_name, qry_name, min_length, seed_length))
    ref = ref[: ref.size // scale.table4_div]
    qry = qry[: qry.size // scale.table4_div]
    off_r, off_q = table4_offsets(variant, ref.size, qry.size)
    return np.roll(ref, -off_r), np.roll(qry, -off_q)


def write_fasta(path: str, header: str, codes: np.ndarray) -> None:
    from repro.sequence.alphabet import decode

    text = decode(codes)
    with open(path, "w") as fh:
        fh.write(f">{header}\n")
        for i in range(0, len(text), 80):
            fh.write(text[i:i + 80])
            fh.write("\n")


# -- reads workloads -------------------------------------------------------------

def chri_reference(scale: Scale) -> np.ndarray:
    from repro.sequence.datasets import load_dataset

    ref = load_dataset("chrI")
    return ref if scale.chri_bases is None else ref[: scale.chri_bases].copy()


def read_pool(reference: np.ndarray, scale: Scale) -> list[np.ndarray]:
    """The fixed pool of reads: uniform start, 1% substitutions."""
    rng = np.random.default_rng(READS_POOL_SEED)
    n = scale.read_length
    reads = []
    for _ in range(scale.pool_size):
        start = int(rng.integers(0, reference.size - n + 1))
        read = reference[start:start + n].copy()
        hit = rng.random(n) < SUBSTITUTION_RATE
        read[hit] = (read[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
        reads.append(read.astype(np.uint8))
    return reads


def read_order(seed: int, pool_size: int, n: int) -> np.ndarray:
    """The seed's sequence of pool indices (a shuffled, repeated pool)."""
    rng = np.random.default_rng(seed)
    reps = -(-n // pool_size)
    return np.concatenate([rng.permutation(pool_size) for _ in range(reps)])[:n]


def reads_params():
    from repro.core.params import GpuMemParams

    return GpuMemParams(min_length=READS_MIN_LENGTH, seed_length=READS_SEED_LENGTH)


# -- oracle ----------------------------------------------------------------------

def _mummer(reference: np.ndarray):
    from repro.baselines import MummerFinder

    finder = MummerFinder()
    finder.build_index(reference)
    return finder


def compute_table4_oracle(scale: Scale, variant: int) -> dict:
    ref, qry = table4_pair(scale, variant)
    mems = _mummer(ref).find_mems(qry, TABLE4_ROW[2]).mems.array
    return {
        "reference_sha1": sha1_of(ref), "query_sha1": sha1_of(qry),
        "n_mems": int(mems.size), "digest": mem_digest(mems),
    }


def compute_reads_oracle(scale: Scale) -> dict:
    ref = chri_reference(scale)
    pool = read_pool(ref, scale)
    finder = _mummer(ref)
    digests, counts = [], []
    for read in pool:
        mems = finder.find_mems(read, READS_MIN_LENGTH).mems.array
        digests.append(mem_digest(mems))
        counts.append(int(mems.size))
    return {
        "reference_sha1": sha1_of(ref),
        "pool_sha1": sha1_of(np.concatenate(pool)),
        "digests": digests, "n_mems": counts,
    }


class Oracle:
    """Expected digests: stored for ``full``, computed on demand for others."""

    def __init__(self, scale_name: str):
        self.scale = SCALES[scale_name]
        self._stored = None
        if scale_name == "full":
            with open(ORACLE_PATH) as fh:
                self._stored = json.load(fh)
        self._cache: dict = {}

    def table4(self, variant: int) -> dict:
        if self._stored is not None:
            return self._stored["table4_cli"]["variants"][variant]
        if variant not in self._cache:
            self._cache[variant] = compute_table4_oracle(self.scale, variant)
        return self._cache[variant]

    def reads(self) -> dict:
        if self._stored is not None:
            return self._stored["reads"]
        if "reads" not in self._cache:
            self._cache["reads"] = compute_reads_oracle(self.scale)
        return self._cache["reads"]


def regenerate_oracle(log) -> None:
    """Recompute ``oracle/full.json`` with MummerFinder (a few minutes)."""
    scale = SCALES["full"]
    variants = []
    for variant in range(TABLE4_VARIANTS):
        variants.append(compute_table4_oracle(scale, variant))
        log(f"table4_cli variant {variant}: {variants[-1]['n_mems']} MEMs")
    reads = compute_reads_oracle(scale)
    log(f"reads: {len(reads['digests'])} reads, "
        f"{sum(reads['n_mems'])} MEMs in total")
    doc = {
        "oracle": "repro.baselines.MummerFinder (full suffix array)",
        "table4_cli": {"row": list(TABLE4_ROW), "div": scale.table4_div,
                       "variants": variants},
        "reads": {"min_length": READS_MIN_LENGTH,
                  "read_length": scale.read_length, **reads},
    }
    os.makedirs(os.path.dirname(ORACLE_PATH), exist_ok=True)
    tmp = ORACLE_PATH + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, ORACLE_PATH)
