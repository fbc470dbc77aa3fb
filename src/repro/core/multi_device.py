"""Multi-device MEM extraction (the distributed extension, cf. paper ref [1]).

The paper cites Abouelhoda & Seif's MPI-distributed MEM computation and
ends by proposing newer/multiple GPUs. GPUMEM's tiling makes the extension
natural: tile *rows* are independent given the (read-only) sequences, so
``D`` devices each take a contiguous band of rows; only the out-tile lists
must be merged globally — exactly the host merge that already exists.

This module is a thin wrapper: it hands the shared
:class:`repro.core.pipeline.Pipeline` a row mapper that runs one band at a
time and times it, so the multi-device path can never drift from the
single-device one.

Correctness needs no new argument: each device runs the standard pipeline
on its rows; MEMs crossing a band boundary surface as boundary-touching
fragments on both devices and are re-extended by the shared host merge
(DESIGN.md §5 note 2 covers the missing-fragment case too).

The timing model is the deterministic ideal-parallel one used throughout
(DESIGN.md §2): per-device work is timed sequentially and the parallel
extraction time is the slowest device plus the merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.params import GpuMemParams
from repro.core.pipeline import Pipeline, as_codes
from repro.errors import InvalidParameterError
from repro.obs.tracer import Tracer, get_tracer
from repro.types import MatchSet

__all__ = ["DeviceShare", "partition_rows", "find_mems_multi_device"]


def partition_rows(n_rows: int, n_devices: int) -> list[list[int]]:
    """Contiguous near-equal bands of tile rows, one per device."""
    if n_devices < 1:
        raise InvalidParameterError(f"n_devices must be >= 1, got {n_devices}")
    bounds = np.linspace(0, n_rows, n_devices + 1).astype(int)
    return [list(range(bounds[d], bounds[d + 1])) for d in range(n_devices)]


@dataclass
class DeviceShare:
    """One device's (band's) slice of the work and its measured cost."""

    device_id: int
    rows: list[int]
    seconds: float = 0.0
    n_in_tile: int = 0
    n_out_tile: int = 0


def find_mems_multi_device(
    reference,
    query,
    params: GpuMemParams,
    *,
    n_devices: int = 2,
    tracer: Tracer | None = None,
) -> tuple[MatchSet, dict]:
    """Row-banded multi-device extraction.

    Returns ``(mems, stats)`` where stats include per-device seconds and
    the modeled parallel time (``max`` over devices + host merge).
    ``tracer`` records one ``executor:band`` span per modeled device on top
    of the standard pipeline spans.
    """
    reference = as_codes(reference)
    query = as_codes(query)
    tracer = get_tracer(tracer)
    shares: list[DeviceShare] = []

    def map_bands(fn, rows):
        rows = list(rows)
        out = []
        for device_id, band in enumerate(partition_rows(len(rows), n_devices)):
            share = DeviceShare(device_id, [rows[i] for i in band])
            with tracer.span(
                "executor:band", cat="executor",
                device_id=device_id, n_rows=len(band),
            ) as sp:
                t0 = time.perf_counter()
                for row in share.rows:
                    result = fn(row)
                    out.append(result)
                    share.n_in_tile += result.n_in_tile
                    share.n_out_tile += result.n_out_tile
                share.seconds = time.perf_counter() - t0
                sp.set(seconds=share.seconds, n_in_tile=share.n_in_tile)
            shares.append(share)
        return out

    pipeline = Pipeline(params, map_rows=map_bands, tracer=tracer)
    triplets, pstats = pipeline.run(reference, query)

    device_seconds = [share.seconds for share in shares]
    merge_seconds = pstats.host_merge_time
    band_stats = {
        "n_devices": n_devices,
        "rows_per_device": [len(share.rows) for share in shares],
        "device_seconds": device_seconds,
        "merge_seconds": merge_seconds,
        "parallel_seconds": max(device_seconds, default=0.0) + merge_seconds,
        "serial_seconds": sum(device_seconds) + merge_seconds,
        "n_cross_band_fragments": pstats.n_out_tile_fragments,
    }
    if tracer.metrics.enabled:
        for share in shares:
            tracer.metrics.histogram(
                "executor.band_seconds", device=str(share.device_id)
            ).observe(share.seconds)
    pstats.extra.update(band_stats, max_device_seconds=max(device_seconds, default=0.0))
    return MatchSet(triplets, stats=pstats), {"n_rows": pstats.n_rows, **band_stats}
