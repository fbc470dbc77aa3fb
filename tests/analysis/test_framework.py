"""The shared analyzer framework: suppression, rule filters, env activation."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis import lock_tracker as lt
from repro.analysis import resource_tracker as rt

from tests.analysis import planted_host, planted_kernels, planted_resources

#: tag -> (source with one finding on its last code line, that finding's
#: rule, another rule of the family, planted fixture)
FAMILIES = {
    "simt": (
        "import numpy as np\n"
        "x = np.zeros(4)  COMMENT\n",
        "KL201", "KL102", planted_kernels.__file__,
    ),
    "conc": (
        "_cache = {}\n"
        "def bad(key, value):\n"
        "    _cache[key] = value  COMMENT\n",
        "CL104", "CL101", planted_host.__file__,
    ),
    "res": (
        "from multiprocessing import shared_memory\n"
        "def bad(n):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=n)  COMMENT\n"
        "    return n\n",
        "RL101", "RL104", planted_resources.__file__,
    ),
}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
@pytest.mark.parametrize(
    "comment, suppressed",
    [
        ("", False),
        ("# {tag}: ignore - justified", True),
        ("# {tag}: ignore[{rule}]", True),
        ("# {tag}: ignore[{other}, {rule}]", True),
        ("# {tag}: ignore[{other}]", False),
        ("# {tag}: ignore[{rule}", False),
        ("# {foreign}: ignore", False),
    ],
    ids=["none", "bare", "code", "codes", "other-code", "unclosed", "other-tag"],
)
def test_suppression(tag, comment, suppressed):
    source, rule, other, _ = FAMILIES[tag]
    foreign = next(t for t in FAMILIES if t != tag)
    text = comment.format(tag=tag, rule=rule, other=other, foreign=foreign)
    findings = lint_source(source.replace("COMMENT", text), families=[tag])
    assert [f.rule for f in findings] == ([] if suppressed else [rule])


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_select_and_ignore(tag):
    planted = FAMILIES[tag][3]
    everything = lint_paths([planted], [tag])
    rule = everything[0].rule
    only = lint_paths([planted], [tag], select=[rule])
    without = lint_paths([planted], [tag], ignore=[rule])
    assert only and {f.rule for f in only} == {rule}
    assert rule not in {f.rule for f in without}
    assert len(only) + len(without) == len(everything)
    assert lint_paths([planted], [tag], ignore=[f.rule for f in everything]) == []


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown analyzer families"):
        lint_source("x = 1\n", families=["nope"])


ENV_FAMILIES = pytest.mark.parametrize("family", [lt, rt], ids=["lock", "resource"])


def _fresh_env_slot(family, monkeypatch, value):
    monkeypatch.setattr(family.SLOT, "_tracker", None)
    monkeypatch.setattr(family.SLOT, "_env_checked", False)
    monkeypatch.setenv(family.SLOT.env_var, value)
    built = []
    factory = family.SLOT._factory

    def counting_factory():
        built.append(factory())
        return built[-1]

    monkeypatch.setattr(family.SLOT, "_factory", counting_factory)
    return built


@ENV_FAMILIES
def test_env_switch_builds_one_tracker(family, monkeypatch):
    built = _fresh_env_slot(family, monkeypatch, "1")
    seen = []
    threads = [
        threading.Thread(target=lambda: seen.append(family.active_tracker()))
        for _ in range(8)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1
        assert built[0].mode == "raise"
        assert seen == built * 8
        assert family.active_tracker() is built[0]
    finally:
        for tracker in built:
            getattr(tracker, "remove_blocking_probes", lambda: None)()


@ENV_FAMILIES
@pytest.mark.parametrize("value", ["", "0", "off"], ids=["empty", "zero", "off"])
def test_env_switch_off_builds_nothing(family, monkeypatch, value):
    built = _fresh_env_slot(family, monkeypatch, value)
    assert family.active_tracker() is None
    assert family.active_tracker() is None
    assert built == []
