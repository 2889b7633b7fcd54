"""Every argv of the output manifest (``manifest.py``) prints what it pins."""

import json

import pytest
from manifest import NON_QUASISMOOTH, PATH, REPORT, STAGES, argvs, compute, slow_argvs

from wfano.cli import CATALOG_ENV, main
from wfano.membership import quasismooth_general, rejection
from wfano.singular import terminal_general
from wfano.wspace import weight_system, wps_well_formed


def test_manifest(default_catalog, monkeypatch):
    monkeypatch.delenv(CATALOG_ENV, raising=False)
    records, _ = default_catalog
    stored = json.loads(PATH.read_text(encoding="utf-8"))
    fast = argvs([r.septuple for r in records])
    assert sorted(" ".join(argv) for argv in fast + slow_argvs()) == sorted(stored)
    current = compute(fast)
    assert [argv for argv in current if current[argv] != stored[argv]] == []


def test_report_pins_agree_across_jobs():
    stored = json.loads(PATH.read_text(encoding="utf-8"))
    for f in ("json", "markdown"):
        one, two = (stored[" ".join(["report", *options, "--format", f])] for options in REPORT)
        assert one == two, f


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


@pytest.mark.parametrize("s, stage, terminal", [
    (STAGES[0], "well-formedness", "well-formedness"),
    (STAGES[1], "hypersurface well-formedness", "hypersurface well-formedness"),
    (STAGES[2], "quasismoothness", "terminality"),  # fails both; terminality is tested first
    (STAGES[3], None, "terminality"),
])
def test_stage_cases_keep_their_error_texts(s, stage, terminal, tmp_path, capsys):
    # verdict tells a rejected family from a non-terminal one by the chain without
    # terminality; a catalog record names the stage of the chain with it
    assert (rejection(s[:5], s[5]), rejection(s[:5], s[5], terminal_general)) == (stage, terminal)
    ws = weight_system(*s)
    assert main(["verdict", "--septuple", ",".join(map(str, s))]) == 1
    out, err = capsys.readouterr()
    assert (out, json.loads(err)) == ("", {"error": f"{ws} is not {'an accepted family' if stage else 'terminal'}"})
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"schemaVersion": 1, "records": [{"septuple": list(ws.septuple), "paperNumber": None}]}))
    assert main(["report", "--catalog", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, json.loads(err)) == ("", {"error": f"load_catalog: {ws.septuple} fails {terminal}"})
