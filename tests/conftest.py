"""Shared test fixtures and hypothesis strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

# One plugin provides the runtime-analyzer fixtures (docs/analysis.md):
# `sanitized_device` / `simt_sanitizer` run kernel launches under the SIMT
# race detector, `lock_tracker` runs host code under the lock-order
# tracker and `resource_tracker` under the shm/mmap/file-lock leak audit.
# REPRO_LOCK_TRACKER=1 / REPRO_RESOURCE_TRACKER=1 (CI's tests-locktracker
# and tests-resource legs) put every test of a run under those trackers.
pytest_plugins = ["repro.analysis.pytest_plugin"]

# NumPy batch sizes make per-example wall time noisy; correctness, not
# latency, is what these properties check.
hyp_settings.register_profile("repro", deadline=None)
hyp_settings.load_profile("repro")


def dna(min_size: int = 0, max_size: int = 120, alphabet: int = 4):
    """Hypothesis strategy for DNA code arrays.

    Small alphabets (2-3 letters) make matches — and therefore edge cases —
    far denser, so most property tests draw from them.
    """
    return st.lists(
        st.integers(0, alphabet - 1), min_size=min_size, max_size=max_size
    ).map(lambda xs: np.array(xs, dtype=np.uint8))


@st.composite
def dna_pair(draw, max_size: int = 100, alphabet: int = 3):
    """A (reference, query) pair, sometimes with planted shared content."""
    ref = draw(dna(min_size=1, max_size=max_size, alphabet=alphabet))
    qry = draw(dna(min_size=1, max_size=max_size, alphabet=alphabet))
    if draw(st.booleans()) and ref.size >= 4:
        # splice a reference segment into the query to guarantee matches
        lo = draw(st.integers(0, ref.size - 2))
        hi = draw(st.integers(lo + 1, ref.size))
        at = draw(st.integers(0, qry.size))
        qry = np.concatenate([qry[:at], ref[lo:hi], qry[at:]]).astype(np.uint8)
    return ref, qry


def naive_mems(reference: np.ndarray, query: np.ndarray, min_length: int):
    """Second, loop-based oracle (independent of repro.core.reference)."""
    out = set()
    nr, nq = len(reference), len(query)
    for r in range(nr):
        for q in range(nq):
            if reference[r] != query[q]:
                continue
            if r > 0 and q > 0 and reference[r - 1] == query[q - 1]:
                continue  # not left-maximal
            length = 0
            while (
                r + length < nr
                and q + length < nq
                and reference[r + length] == query[q + length]
            ):
                length += 1
            if length >= min_length:
                out.add((r, q, length))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def homologous_pair():
    """A realistic mid-size pair with repeats and homology (session cached)."""
    from repro.sequence.synthetic import markov_dna, plant_homology, plant_repeats

    ref = plant_repeats(
        markov_dna(20_000, seed=91),
        seed=92,
        n_families=3,
        family_length=(40, 120),
        copies_per_family=(15, 60),
        copy_divergence=0.02,
    )
    qry = plant_homology(ref, 15_000, seed=93, coverage=0.5, divergence=0.02)
    return ref, qry
