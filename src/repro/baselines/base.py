"""Common interface of the baseline MEM finders."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import GpuMemError
from repro.sequence.alphabet import encode
from repro.sequence.packed import PackedSequence
from repro.types import MatchSet


@dataclass
class BuildResult:
    """Index construction outcome: wall-clock seconds and footprint."""

    seconds: float
    index_bytes: int


@dataclass
class MatchResult:
    """Extraction outcome: the MEM set and the extraction-only seconds."""

    mems: MatchSet
    seconds: float


def as_codes(seq) -> np.ndarray:
    if isinstance(seq, PackedSequence):
        return seq.codes()
    return encode(seq)


class MEMFinder:
    """Build-once / query-many MEM finder interface.

    Subclasses implement :meth:`_build` and :meth:`_find`; this base class
    provides timing, input normalization, and the common two-phase protocol
    mirroring how the paper benchmarks the tools (Table III: build; Table
    IV: extraction with a prebuilt index). ``_find`` returns raw triplets;
    the :class:`MatchSet` wrapper deduplicates and sorts them, inside the
    timed extraction.
    """

    #: Human-readable tool name (paper column header).
    name: str = "?"

    def __init__(self):
        self._reference: np.ndarray | None = None

    # -- public protocol ------------------------------------------------------
    def build_index(self, reference) -> BuildResult:
        reference = as_codes(reference)
        t0 = time.perf_counter()
        self._build(reference)
        seconds = time.perf_counter() - t0
        self._reference = reference
        return BuildResult(seconds=seconds, index_bytes=self.index_bytes())

    def find_mems(self, query, min_length: int) -> MatchResult:
        if self._reference is None:
            raise GpuMemError(f"{self.name}: build_index must be called first")
        query = as_codes(query)
        t0 = time.perf_counter()
        mems = MatchSet(self._find(query, int(min_length)))
        seconds = time.perf_counter() - t0
        return MatchResult(mems=mems, seconds=seconds)

    # -- subclass surface -------------------------------------------------------
    def _build(self, reference: np.ndarray) -> None:
        raise NotImplementedError

    def _find(self, query: np.ndarray, min_length: int) -> np.ndarray:
        raise NotImplementedError

    def index_bytes(self) -> int:
        """Approximate index footprint in bytes."""
        raise NotImplementedError
