"""Match-type variants: MUMs, rare matches, and both-strand extraction.

The paper's §V names these as future work ("variants of the maximal exact
match extraction problem such as unique and rare exact match extraction");
they are also the historical context (§I–II): MUMmer's original *maximal
unique match* requires the matched substring to occur exactly once in each
sequence [Delcher et al. 1999], and *rare* matches relax uniqueness to at
most ``k`` occurrences [Ohlebusch & Kurtz 2008].

All variants are post-filters over the (already verified-correct) MEM set:
a MEM's substring occurrence counts in ``R`` and ``Q`` are obtained with the
output-proportional suffix-array walk
:meth:`repro.index.matching.SuffixArraySearcher.count_occurrences`.

Strand handling follows the convention of the CPU tools' ``-b`` mode: the
reverse strand is matched by querying the reverse complement, and reported
triplets keep reverse-strand coordinates plus a helper to map them back to
forward-strand positions.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.pipeline import as_codes
from repro.core.session import MemSession
from repro.errors import InvalidParameterError
from repro.index.matching import SuffixArraySearcher
from repro.sequence.alphabet import reverse_complement
from repro.types import MatchSet, make_triplets


def occurrence_counts(
    mems: MatchSet, reference: np.ndarray, query: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Occurrences of each MEM's substring in ``R`` and in ``Q``."""
    arr = mems.array
    ref_searcher = SuffixArraySearcher(reference)
    qry_searcher = SuffixArraySearcher(query)
    in_ref = ref_searcher.count_occurrences(arr["r"], arr["length"])
    in_qry = qry_searcher.count_occurrences(arr["q"], arr["length"])
    return in_ref, in_qry


def find_rare_mems(
    reference,
    query,
    min_length: int,
    *,
    max_ref_occurrences: int = 1,
    max_query_occurrences: int | None = None,
    **kwargs,
) -> MatchSet:
    """MEMs whose substring occurs at most ``k`` times in each sequence.

    ``max_ref_occurrences = max_query_occurrences = 1`` gives MUMs; larger
    bounds give Ohlebusch & Kurtz's rare matches. Counting is exact (full
    suffix arrays of both sequences), so this costs one extra index build
    per side on top of the MEM extraction.
    """
    if max_ref_occurrences < 1:
        raise InvalidParameterError(
            f"max_ref_occurrences must be >= 1, got {max_ref_occurrences}"
        )
    if max_query_occurrences is None:
        max_query_occurrences = max_ref_occurrences
    if max_query_occurrences < 1:
        raise InvalidParameterError(
            f"max_query_occurrences must be >= 1, got {max_query_occurrences}"
        )
    reference = as_codes(reference)
    query = as_codes(query)
    session = MemSession(reference, min_length=min_length, **kwargs)
    mems = session.find_mems(query)
    stats = replace(mems.stats, extra={
        **mems.stats.extra,
        "variant": f"rare(max_ref={max_ref_occurrences}, max_query={max_query_occurrences})",
        "n_mems_prefilter": len(mems),
    })
    if len(mems) == 0:
        return MatchSet(mems.array, stats=stats)
    in_ref, in_qry = occurrence_counts(mems, reference, query)
    keep = (in_ref <= max_ref_occurrences) & (in_qry <= max_query_occurrences)
    return MatchSet(mems.array[keep], stats=stats)


def find_mums(reference, query, min_length: int, **kwargs) -> MatchSet:
    """Maximal unique matches: MEMs occurring exactly once in both sequences.

    This is MUMmer's original match type [Delcher et al. 1999]; the paper's
    §I notes MEMs are preferred exactly when MUMs are too few, and this
    function quantifies that (compare ``len(find_mums(...))`` with
    ``stats["n_mems_prefilter"]``).
    """
    out = find_rare_mems(
        reference, query, min_length,
        max_ref_occurrences=1, max_query_occurrences=1, **kwargs,
    )
    out.stats.extra["variant"] = "mum"
    return out


class StrandedMems:
    """Both-strand extraction result.

    ``forward`` holds plain forward-strand MEMs. ``reverse`` holds MEMs of
    ``R`` versus ``reverse_complement(Q)`` in *reverse-strand coordinates*;
    :meth:`reverse_in_forward_coords` maps each to
    ``(r, q_forward_start, length)`` where ``q_forward_start`` is the
    leftmost forward-strand position covered by the match.
    """

    def __init__(self, forward: MatchSet, reverse: MatchSet, n_query: int):
        self.forward = forward
        self.reverse = reverse
        self.n_query = int(n_query)

    def reverse_in_forward_coords(self) -> np.ndarray:
        """Reverse-strand matches as ``(r, forward-strand q start, length)``
        triplets, in the order of :attr:`reverse`."""
        rev = self.reverse.array
        return make_triplets(rev["r"], self.n_query - rev["q"] - rev["length"], rev["length"])

    def total(self) -> int:
        """Matches across both strands."""
        return len(self.forward) + len(self.reverse)

    def __repr__(self) -> str:
        return f"StrandedMems(+{len(self.forward)}, -{len(self.reverse)})"


def find_mems_both_strands(reference, query, min_length: int, **kwargs) -> StrandedMems:
    """MEMs on both strands (the CPU tools' ``-b``/``-c`` behaviour).

    Both strands share one :class:`MemSession`: the reference's row indexes
    are built for the forward pass and reused verbatim for the
    reverse-complement pass (the index depends only on the reference).
    """
    query = as_codes(query)
    session = MemSession(reference, min_length=min_length, **kwargs)
    fwd = session.find_mems(query)
    rev = session.find_mems(reverse_complement(query))
    return StrandedMems(forward=fwd, reverse=rev, n_query=query.size)
