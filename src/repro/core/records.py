"""Multi-record matching: FASTA files with many sequences.

Real chromosome/assembly FASTA files hold many records. MEM semantics are
per-pair — a match must not cross a record boundary — so the correct
treatment is the cartesian product of (reference record, query record)
runs with coordinates local to each record. This module provides that
driver with a shared matcher (parameters validated once) and aggregate
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.matcher import GpuMem
from repro.core.pipeline import as_codes
from repro.errors import InvalidParameterError
from repro.types import MatchSet


@dataclass(frozen=True)
class RecordMatch:
    """MEMs of one (reference record, query record) pair."""

    reference_name: str
    query_name: str
    mems: MatchSet

    def __len__(self) -> int:
        return len(self.mems)


def _normalize(records) -> list[tuple[str, np.ndarray]]:
    out = []
    for i, rec in enumerate(records):
        if hasattr(rec, "header") and hasattr(rec, "codes"):  # FastaRecord
            out.append((rec.header, np.asarray(rec.codes, dtype=np.uint8)))
        elif isinstance(rec, tuple) and len(rec) == 2:
            out.append((str(rec[0]), as_codes(rec[1])))
        else:
            out.append((f"seq{i}", as_codes(rec)))
    return out


def find_mems_records(
    reference_records,
    query_records,
    min_length: int,
    **matcher_kwargs,
) -> list[RecordMatch]:
    """All-vs-all MEMs between reference records and query records.

    Records may be :class:`~repro.sequence.fasta.FastaRecord` objects,
    ``(name, sequence)`` tuples, or bare sequences (auto-named ``seqN``).
    Returns one :class:`RecordMatch` per pair, in input order; matches never
    span record boundaries by construction.
    """
    refs = _normalize(reference_records)
    qrys = _normalize(query_records)
    if not refs or not qrys:
        raise InvalidParameterError("need at least one record on each side")
    matcher = GpuMem(min_length=min_length, **matcher_kwargs)
    out: list[RecordMatch] = []
    for ref_name, ref_codes in refs:
        for qry_name, qry_codes in qrys:
            mems = matcher.find_mems(ref_codes, qry_codes)
            out.append(
                RecordMatch(reference_name=ref_name, query_name=qry_name, mems=mems)
            )
    return out


def total_matches(matches: Sequence[RecordMatch]) -> int:
    return sum(len(m) for m in matches)


def best_pairing(matches: Sequence[RecordMatch]) -> dict[str, RecordMatch]:
    """For each query record, the reference record with the most anchored
    bases — the record-level assignment step of whole-assembly comparison."""
    best: dict[str, RecordMatch] = {}
    for m in matches:
        cur = best.get(m.query_name)
        if cur is None or (
            m.mems.total_matched_bases() > cur.mems.total_matched_bases()
        ):
            best[m.query_name] = m
    return best
