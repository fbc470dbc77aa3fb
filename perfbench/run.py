"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload reads_session --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the outside-in tracer and prints the per-layer metrics
(spans are written to ``.perfbench-out/``). Every output is checked against
the MummerFinder oracle; failures count in ``failed``. ``--record PATH``
also appends the result to a JSONL file for ``perfbench/compare.py``.
``--regen-oracle`` recomputes ``perfbench/oracle/full.json`` and exits.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _metric_specs(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def _reap_children() -> None:
    """End every process this run started and wait for each.

    Pool workers are ``multiprocessing`` children. Shared-memory use also
    starts the ``multiprocessing`` resource tracker, a plain fork/exec
    child that would otherwise outlive this process until it notices the
    closed pipe; stopping it here closes that pipe and waits for it.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def run(args) -> dict:
    import inputs
    import workloads

    specs = _metric_specs(bool(args.trace))
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, scale_name=args.scale,
        workdir=workdir, oracle=inputs.Oracle(args.scale))
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](ctx)
        outcome = workload.trace() if args.trace else workload.measure()
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            workload.tracer.write(os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        if workload is not None:
            workload.close()
        _reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    for note in ctx.notes:
        print(f"# {note}")
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in specs
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("table4_cli", "reads_session", "serve_process"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke tests")
    parser.add_argument("--record", metavar="PATH",
                        help="append the result to this JSONL file")
    parser.add_argument("--regen-oracle", action="store_true",
                        help="recompute the stored oracle digests and exit")
    args = parser.parse_args(argv)
    try:
        if args.regen_oracle:
            import inputs

            inputs.regenerate_oracle(lambda msg: print(f"# {msg}", flush=True))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except Exception:  # noqa: BLE001 - report and exit nonzero, no result line
        traceback.print_exc()
        return 1
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds,
                "scale": args.scale, "result": result,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
