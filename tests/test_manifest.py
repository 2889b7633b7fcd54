"""Every argv of the output manifest (``manifest.py``) prints what it pins."""

import json

import pytest
from manifest import NON_QUASISMOOTH, PATH, STAGES, argvs, compute, slow_argvs

from wfano.membership import quasismooth_general, rejection
from wfano.singular import terminal_general
from wfano.wspace import weight_system, wps_well_formed


def test_manifest(default_catalog):
    records, _ = default_catalog
    stored = json.loads(PATH.read_text(encoding="utf-8"))
    fast = argvs([r.septuple for r in records])
    assert sorted(" ".join(argv) for argv in fast + slow_argvs()) == sorted(stored)
    current = compute(fast)
    assert [argv for argv in current if current[argv] != stored[argv]] == []


@pytest.mark.slow
def test_manifest_slow():
    stored = json.loads(PATH.read_text(encoding="utf-8"))
    current = compute(slow_argvs())
    assert [argv for argv in current if current[argv] != stored[argv]] == []


def test_non_quasismooth_cases_cover_each_stratum_size():
    sizes = set()
    for s in NON_QUASISMOOTH:
        ok, failing = quasismooth_general(weight_system(*s))
        assert not ok
        sizes |= {len(stratum) for stratum, _ in failing}
    assert sizes == {1, 2, 3, 4, 5}


def test_stage_cases_fail_each_late_stage_in_order():
    assert [rejection(s[:5], s[5]) for s in STAGES] == [
        "well-formedness", "hypersurface well-formedness", "quasismoothness", None]
    assert rejection(STAGES[3][:5], STAGES[3][5], terminal_general) == "terminality"
    assert wps_well_formed(weight_system(*STAGES[1]))
