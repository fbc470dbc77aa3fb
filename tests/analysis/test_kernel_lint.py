"""Static SIMT lint: planted bugs are caught, shipped kernels are clean."""

from __future__ import annotations

import json
import os

import repro
from repro.analysis import (
    RULES,
    findings_to_json,
    format_findings,
    lint_file,
    lint_paths,
    lint_source,
)

from tests.analysis import planted_kernels

PLANTED = planted_kernels.__file__
PKG = os.path.dirname(repro.__file__)
SIMT = ("simt",)


def lint(src):
    return lint_source(src, families=SIMT)


def rules_by_kernel(findings):
    out = {}
    for f in findings:
        out.setdefault(f.scope, set()).add(f.rule)
    return out


class TestPlantedBugs:
    def test_all_three_required_classes_flagged(self):
        """The acceptance-criteria trio: race, divergence, missing dtype."""
        rules = {f.rule for f in lint_file(PLANTED, SIMT)}
        assert "KL102" in rules  # shared-memory race
        assert "KL101" in rules  # barrier divergence
        assert "KL201" in rules  # missing dtype

    def test_findings_name_the_offending_kernel(self):
        by_kernel = rules_by_kernel(lint_file(PLANTED, SIMT))
        assert "KL102" in by_kernel["racy_shared_write"]
        assert "KL101" in by_kernel["divergent_barrier"]
        assert "KL101" in by_kernel["divergent_trip_count"]
        assert "KL103" in by_kernel["unaccounted_loop"]

    def test_module_scope_rules_fire_outside_kernels(self):
        findings = lint_file(PLANTED, SIMT)
        assert any(f.rule == "KL201" and f.scope is None for f in findings)
        assert any(f.rule == "KL202" and f.scope is None for f in findings)

    def test_findings_carry_location(self):
        for f in lint_file(PLANTED, SIMT):
            assert f.path == PLANTED
            assert f.line > 0
            assert f.severity == RULES[f.rule][0]


class TestShippedKernelsClean:
    def test_gpu_primitives_clean(self):
        assert lint_file(os.path.join(PKG, "gpu", "primitives.py"), SIMT) == []

    def test_index_build_kernels_clean(self):
        assert lint_file(os.path.join(PKG, "core", "seed_index.py"), SIMT) == []

    def test_block_stage_kernel_clean(self):
        assert lint_file(os.path.join(PKG, "core", "block_stage.py"), SIMT) == []

    def test_whole_package_clean(self):
        """Mirror of the CI gate: zero findings across the shipped tree."""
        findings = lint_paths([PKG], SIMT)
        assert findings == [], format_findings(findings)


class TestTaintModel:
    def test_per_thread_address_not_flagged(self):
        src = (
            "def k(ctx, out):\n"
            "    out[ctx.tid] = 1\n"
            "    ctx.work(1)\n"
            "    yield\n"
        )
        assert [f.rule for f in lint(src)] == []

    def test_derived_thread_index_not_flagged(self):
        src = (
            "def k(ctx, out):\n"
            "    j = ctx.tid * 2 + 1\n"
            "    out[j] = 1\n"
            "    yield\n"
        )
        assert all(f.rule != "KL102" for f in lint(src))

    def test_atomic_result_is_thread_varying(self):
        src = (
            "def k(ctx, slots, out):\n"
            "    slot = ctx.atomic_add(slots, 0, 1)\n"
            "    out[slot] = 7\n"
            "    yield\n"
        )
        assert all(f.rule != "KL102" for f in lint(src))

    def test_uniform_address_flagged(self):
        src = (
            "def k(ctx, out):\n"
            "    out[0] = ctx.tid\n"
            "    yield\n"
        )
        assert [f.rule for f in lint(src)] == ["KL102"]

    def test_tid_predicated_store_not_flagged(self):
        src = (
            "def k(ctx, out):\n"
            "    if ctx.tid == 0:\n"
            "        out[0] = 1\n"
            "    yield\n"
        )
        assert [f.rule for f in lint(src)] == []

    def test_yield_in_uniform_loop_not_flagged(self):
        src = (
            "def k(ctx, n):\n"
            "    for _ in range(n):\n"
            "        yield\n"
        )
        assert [f.rule for f in lint(src)] == []

    def test_yield_under_tainted_while_flagged(self):
        src = (
            "def k(ctx):\n"
            "    d = ctx.tid\n"
            "    while d > 0:\n"
            "        yield\n"
            "        d -= 1\n"
        )
        assert "KL101" in {f.rule for f in lint(src)}


class TestMechanics:
    def test_registered_kernel_without_ctx_name(self):
        src = (
            "__simt_kernels__ = ('odd_name',)\n"
            "def odd_name(thread, out):\n"
            "    out[0] = 1\n"
            "    yield\n"
        )
        assert "KL102" in {f.rule for f in lint(src)}

    def test_non_kernel_generators_ignored(self):
        src = (
            "def gen(items):\n"
            "    for i in items:\n"
            "        yield i\n"
        )
        assert lint(src) == []

    def test_select_and_ignore(self):
        only = lint_paths([PLANTED], SIMT, select=["KL201"])
        assert {f.rule for f in only} == {"KL201"}
        none = lint_paths([PLANTED], SIMT, ignore=list(RULES))
        assert none == []

    def test_json_output_round_trips(self):
        findings = lint_file(PLANTED, SIMT)
        data = json.loads(findings_to_json(findings))
        assert len(data) == len(findings)
        assert {d["rule"] for d in data} == {f.rule for f in findings}

    def test_format_summary_line(self):
        text = format_findings(lint_file(PLANTED, SIMT))
        assert "error(s)" in text and "warning(s)" in text

    def test_dtype_positional_argument_accepted(self):
        import numpy as np  # noqa: F401  (source under test references np)

        src = "import numpy as np\nx = np.empty(0, np.int64)\n"
        assert lint(src) == []
