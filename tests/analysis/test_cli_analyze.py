"""``gpumem analyze``: exit codes, formats, rule filters."""

from __future__ import annotations

import json
import os

import repro
from repro.cli import main

from tests.analysis import planted_host, planted_kernels, planted_resources

PLANTED = planted_kernels.__file__
PLANTED_HOST = planted_host.__file__
PLANTED_RESOURCES = planted_resources.__file__
PRIMITIVES = os.path.join(os.path.dirname(repro.__file__), "gpu", "primitives.py")


def test_planted_bugs_fail_the_gate(capsys):
    assert main(["analyze", PLANTED]) == 1
    out = capsys.readouterr().out
    for rule in ("KL101", "KL102", "KL201"):
        assert rule in out


def test_clean_kernels_pass_the_gate(capsys):
    assert main(["analyze", PRIMITIVES]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_shipped_package_passes_the_gate(capsys):
    """What CI runs (against the installed tree) must stay green."""
    assert main(["analyze", os.path.dirname(repro.__file__)]) == 0


def test_json_format(capsys):
    assert main(["analyze", "--format", "json", PLANTED]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data and {"rule", "path", "line", "message"} <= set(data[0])


def test_select_filter(capsys):
    assert main(["analyze", "--select", "KL201", PLANTED]) == 1
    out = capsys.readouterr().out
    assert "KL201" in out and "KL102" not in out


def test_ignore_all_rules_passes(capsys):
    rules = ",".join(("KL101", "KL102", "KL103", "KL201", "KL202"))
    assert main(["analyze", "--ignore", rules, PLANTED]) == 0


def test_host_leg_flags_planted_host_bugs(capsys):
    assert main(["analyze", "--host", PLANTED_HOST]) == 1
    out = capsys.readouterr().out
    for rule in ("CL101", "CL102", "CL103", "CL104"):
        assert rule in out


def test_host_leg_ignores_device_rules_and_vice_versa(capsys):
    # The planted kernels contain no lock code; the planted host code
    # contains no kernels — each leg only sees its own rule family.
    assert main(["analyze", "--host", PLANTED]) == 0
    capsys.readouterr()
    assert main(["analyze", "--device", PLANTED_HOST]) == 0


def test_resource_leg_flags_planted_resource_bugs(capsys):
    assert main(["analyze", "--resource", PLANTED_RESOURCES]) == 1
    out = capsys.readouterr().out
    for rule in ("RL101", "RL102", "RL103", "RL104", "RL105"):
        assert rule in out


def test_resource_leg_ignores_other_families(capsys):
    assert main(["analyze", "--resource", PLANTED]) == 0
    capsys.readouterr()
    assert main(["analyze", "--device", PLANTED_RESOURCES]) == 0
    capsys.readouterr()
    assert main(["analyze", "--host", PLANTED_RESOURCES]) == 0


def test_all_merges_every_rule_family(capsys):
    assert main(["analyze", "--all", "--format", "json",
                 PLANTED, PLANTED_HOST, PLANTED_RESOURCES]) == 1
    data = json.loads(capsys.readouterr().out)
    rules = {entry["rule"] for entry in data}
    assert any(r.startswith("KL") for r in rules)
    assert any(r.startswith("CL") for r in rules)
    assert any(r.startswith("RL") for r in rules)
    # one schema for every family
    assert {tuple(sorted(entry)) for entry in data} == {
        ("col", "line", "message", "path", "rule", "scope", "severity")
    }


def test_select_spans_rule_families(capsys):
    assert main(["analyze", "--all", "--select", "KL101,CL102",
                 PLANTED, PLANTED_HOST]) == 1
    out = capsys.readouterr().out
    assert "KL101" in out and "CL102" in out
    assert "KL201" not in out and "CL103" not in out


def test_shipped_package_passes_the_full_gate(capsys):
    """What CI's merged-report step runs must stay green."""
    assert main(["analyze", "--all", os.path.dirname(repro.__file__)]) == 0


def test_missing_path_is_an_input_error(capsys, tmp_path):
    missing = str(tmp_path / "nope")
    assert main(["analyze", "--host", missing]) == 2
    assert capsys.readouterr().err.startswith(f"{missing}: ")


def test_unparsable_file_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(:\n")
    assert main(["analyze", "--all", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"{bad}: syntax error at line 1")
