"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from tracer import OutsideInTracer, Span, WrapSpec, self_times  # noqa: E402

WORKLOADS = ("table4_cli", "reads_session", "serve_process")


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- wrappers --------------------------------------------------------------------

def _originals(specs):
    return [(s.owner, s.attr, vars(s.owner).get(s.attr, None)) for s in specs]


def test_wrappers_installed_and_restored():
    import repro.core.vectorized as vectorized
    import repro.index.compare as cmp
    from repro.types import MatchSet, make_triplets

    specs = layers.wrap_specs()
    before = _originals(specs)
    tracer = OutsideInTracer()
    with tracer.installed(specs):
        assert vectorized.common_prefix_len is not cmp.common_prefix_len
        with tracer.request(0):
            MatchSet(make_triplets([1], [2], [30]))
    assert _originals(specs) == before
    assert vectorized.common_prefix_len is cmp.common_prefix_len
    assert [s.name for s in tracer.spans] == ["normalize", "op"]
    assert tracer.counter_totals(0) == {
        "normalize.triplets_in": 1, "normalize.mems_out": 1}
    # After restore nothing records any more: no leakage.
    MatchSet(make_triplets([1], [2], [30]))
    assert len(tracer.spans) == 2


def test_restore_after_exception_and_on_failed_install():
    import repro.types as types

    original = vars(types.MatchSet)["__init__"]
    tracer = OutsideInTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(layers.wrap_specs()):
            raise RuntimeError("boom")
    assert vars(types.MatchSet)["__init__"] is original
    bad = layers.wrap_specs()[:3] + [WrapSpec(types, "no_such_name", "x")]
    with pytest.raises(AttributeError):
        tracer.install(bad)
    assert vars(types.MatchSet)["__init__"] is original
    import repro.cli as cli
    assert cli.cmd_match.__name__ == "cmd_match"
    assert not hasattr(cli.cmd_match, "__wrapped__")


def test_every_span_name_maps_to_a_per_layer_metric():
    names = {s.span for s in layers.wrap_specs()}
    assert names <= set(layers.SPAN_METRIC)
    assert set(layers.SPAN_METRIC.values()) <= set(layers.PER_LAYER_UNITS)
    assert [m["name"] for m in spec()["per_layer"]] == list(layers.PER_LAYER_UNITS)


# -- self-time arithmetic ---------------------------------------------------------

def _span(i, name, start, end, parent, rid=0):
    return Span(i, name, start, end, parent, rid, 1)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span(0, "op", 0.0, 10.0, None),
        _span(1, "output", 1.0, 9.0, 0),
        _span(2, "tile.extend", 2.0, 5.0, 1),
        _span(3, "normalize", 5.0, 6.0, 1),
        _span(4, "tile.candidates", 3.0, 4.0, 2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 4.0, 2: 2.0, 3: 1.0, 4: 1.0})
    tracer = OutsideInTracer()
    tracer.spans.extend(spans)
    out = layers.summarize(tracer, untraced_seconds=8.0, extra={})
    assert out["output.s"] == pytest.approx(4.0)
    assert out["tile.extend_s"] == pytest.approx(2.0)
    assert out["tile.lookup_s"] == pytest.approx(1.0)
    assert out["trace.coverage"] == pytest.approx(0.8)  # 8 of the op's 10 s
    assert out["trace.overhead_frac"] == pytest.approx(0.25)
    assert out["trace.ops"] == 1


def test_server_side_spans_count_toward_their_client_request():
    tracer = OutsideInTracer()
    tracer.record("op", 0.0, 4.0, 7)
    tracer.spans.append(_span(99, "serve.process", 1.0, 3.0, None, ("srv", 0)))
    out = layers.summarize(tracer, untraced_seconds=4.0, extra={},
                           rid_map={("srv", 0): 7})
    assert out["serve.dispatch_s"] == pytest.approx(2.0)
    assert out["trace.coverage"] == pytest.approx(0.5)


# -- determinism ------------------------------------------------------------------

def test_same_seed_gives_byte_identical_inputs():
    tiny = inputs.SCALES["tiny"]
    a_ref, a_qry = inputs.table4_pair(tiny, 3)
    b_ref, b_qry = inputs.table4_pair(tiny, 3)
    assert a_ref.tobytes() == b_ref.tobytes() and a_qry.tobytes() == b_qry.tobytes()
    assert inputs.table4_pair(tiny, 4)[0].tobytes() != a_ref.tobytes()
    ref = inputs.chri_reference(tiny)
    pool_a, pool_b = inputs.read_pool(ref, tiny), inputs.read_pool(ref, tiny)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(pool_a, pool_b))
    assert np.array_equal(inputs.read_order(5, 24, 100), inputs.read_order(5, 24, 100))
    assert not np.array_equal(inputs.read_order(5, 24, 100), inputs.read_order(6, 24, 100))


def test_stored_oracle_matches_the_full_scale_inputs():
    oracle = inputs.Oracle("full")
    ref, qry = inputs.table4_pair(inputs.SCALES["full"], 2)
    assert inputs.sha1_of(ref) == oracle.table4(2)["reference_sha1"]
    assert inputs.sha1_of(qry) == oracle.table4(2)["query_sha1"]
    assert len(oracle.reads()["digests"]) == inputs.SCALES["full"].pool_size


def test_digest_ignores_order_and_duplicates(tmp_path):
    from repro.types import make_triplets

    t = make_triplets([5, 1, 5], [2, 9, 2], [40, 31, 40])
    assert inputs.mem_digest(t) == inputs.mem_digest(t[[1, 0]])
    out = tmp_path / "out.txt"
    out.write_text("2\t10\t31\n6\t3\t40\n")
    assert inputs.cli_output_digest(str(out)) == inputs.mem_digest(t)


def test_work_counters_repeat_across_runs():
    counts = [name for name, unit in layers.PER_LAYER_UNITS.items()
              if unit in ("count", "B") and name != "serve.ipc_bytes"]
    runs = [last_json(run_bench("--workload", "reads_session", "--seed", "4",
                                "--seconds", "1", "--trace", "1", "--scale", "tiny"))
            for _ in range(2)]
    assert all(r["correct"] for r in runs)
    first, second = ({n: r["metrics"][n]["value"] for n in counts} for r in runs)
    assert first == second
    assert first["tile.candidates"] > 0


# -- smoke runs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", "0", "--scale", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    result = last_json(run_bench("--workload", "serve_process", "--seed", "2",
                                 "--seconds", "1", "--trace", "1", "--scale", "tiny"))
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in spec()["per_layer"]]
    assert result["metrics"]["serve.requests"]["value"] > 0


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_run_leaves_no_child_process():
    """Pool workers and the shared-memory resource tracker all end and are
    waited for before ``main`` returns."""
    code = (
        "import os, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import run\n"
        "rc = run.main(['--workload', 'serve_process', '--seed', '1',"
        " '--seconds', '1', '--trace', '0', '--scale', 'tiny'])\n"
        "me = str(os.getpid())\n"
        "kids = []\n"
        "for pid in filter(str.isdigit, os.listdir('/proc')):\n"
        "    try:\n"
        "        with open(f'/proc/{pid}/stat') as fh:\n"
        "            fields = fh.read().rsplit(')', 1)[1].split()\n"
        "    except OSError:\n"
        "        continue\n"
        "    if fields[1] == me:\n"
        "        kids.append(pid)\n"
        "print('children', rc, len(kids))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "children 0 0"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "reads_session", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


# -- compare mode -----------------------------------------------------------------

def _record(workload, seed, trace, metrics):
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "x"}
                                   for k, v in metrics.items()}}}


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9, 10], [10.2, 10.1, 10, 10.3],
                           0.25, "lower") == "within bound"
    assert compare.verdict([10, 10.1, 9.9, 10], [14, 14.1, 13.9, 14],
                           0.25, "lower").startswith("WORSE")
    assert compare.verdict([10, 20, 5, 12], [11, 22, 6, 13],
                           0.25, "lower").startswith("unresolved")
    assert compare.verdict([10, 10.1], [20, 21], 0.25, "higher").startswith("better")


def test_compare_diffs_layer_times_only_where_work_matches():
    base = [_record("w", s, 1, {"tile.lookup_s": 1.0, "tile.candidates": 100,
                                "tile.active_seed_ratio": 0.4})
            for s in (1, 2)]
    new = [_record("w", 1, 1, {"tile.lookup_s": 0.5, "tile.candidates": 100,
                               "tile.active_seed_ratio": 0.4}),
           _record("w", 2, 1, {"tile.lookup_s": 0.1, "tile.candidates": 999,
                               "tile.active_seed_ratio": 0.4})]
    text = "\n".join(compare.per_layer(base, new))
    assert "tile.lookup_s" in text and "-50.0%" in text and "(1 same work)" in text
    assert "tile.lookup: should move" in text and "work changed on 1 seed(s)" in text
