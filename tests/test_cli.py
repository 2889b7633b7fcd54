import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wfano import catalog
from wfano.cli import CATALOG_ENV, MAX_SEARCH_WEIGHT, _integers, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_monomials_json(capsys):
    code, out, _ = run_cli(
        capsys, "monomials", "--weights", "1,2,3,3,4", "--degree", "12"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 65
    assert "w^3" in payload["monomials"]


def run_module(*argv):
    """``python -m wfano`` in a subprocess, with this checkout's ``src`` on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "wfano", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_python_m_wfano_runs_the_cli():
    payload = run_module("monomials", "--weights", "1,1,1,1,1", "--degree", "2")
    assert payload["count"] == len(payload["monomials"]) == 15


def test_monomials_walks_only_feasible_remainders():
    # odd degree on even weights: the walk prunes at the root (it used to
    # visit 2.7e9 exponent prefixes); a regression fails at the timeout
    payload = run_module("monomials", "--weights", "2,2,2,2,2", "--degree", "1001")
    assert (payload["count"], payload["monomials"]) == (0, [])


def test_monomials_markdown(capsys):
    code, out, _ = run_cli(
        capsys, "monomials", "--weights", "1,1,1,1,1", "--degree", "2", "--format", "markdown"
    )
    assert code == 0
    assert out.startswith("# monomials")


def test_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "check", "--septuple", "1,2,3,3,4,12")
    assert code == 0
    payload = json.loads(out)
    assert payload["quasismoothGeneral"] is True
    assert payload["linearCone"] is False


def test_check_prints_the_failing_stratum(capsys):
    code, out, _ = run_cli(capsys, "check", "--septuple", "1,2,3,3,4,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["quasismoothGeneral"] is False
    assert payload["failingStrata"] == [
        {
            "stratum": "{z,t}",
            "reason": "no pure degree-8 monomial and only 1 of the required 2 outside variables admit one",
        }
    ]


def test_classify_small_window(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--max-weight", "3", "--max-degree", "12", "--index", "1"
    )
    assert code == 0
    payload = json.loads(out)
    septs = {tuple(int(v) for v in r["septuple"]) for r in payload["records"]}
    assert (1, 1, 1, 1, 1, 4, 1) in septs
    assert (1, 1, 1, 2, 2, 6, 1) in septs


def test_classify_deterministic(capsys):
    argv = ("classify", "--max-weight", "3", "--max-degree", "10")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_basket_subcommand(capsys):
    code, out, _ = run_cli(capsys, "basket", "--septuple", "1,1,2,3,3,9")
    assert code == 0
    payload = json.loads(out)
    assert payload["terminal"] is True
    assert sorted(payload["basket"]) == ["1 x 1/2(1,1,1)", "3 x 1/3(1,1,2)"]


def test_basket_prints_the_non_isolated_strata(capsys):
    code, out, _ = run_cli(capsys, "basket", "--septuple", "1,1,1,2,2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["terminal"] is False
    assert (payload["basket"], payload["points"]) == ([], [])
    assert payload["nonIsolated"] == [
        "{t}: vertex type 1/2(1, 1, 0) has a non-coprime weight",
        "{w}: vertex type 1/2(1, 1, 0) has a non-coprime weight",
        "{t,w}: edge with weight gcd 2 lies inside X",
    ]
    # three edges of weight gcd 2 meet X in points whose type has a weight 0
    code, out, _ = run_cli(capsys, "basket", "--septuple", "1,1,2,2,2,6")
    assert code == 0
    assert json.loads(out)["nonIsolated"] == [
        "{z,t,w}: X meets the gcd-2 stratum in a curve of singular points",
        "{z,t}: edge type 1/2(1, 1, 0) has a non-coprime weight",
        "{z,w}: edge type 1/2(1, 1, 0) has a non-coprime weight",
        "{t,w}: edge type 1/2(1, 1, 0) has a non-coprime weight",
    ]


def test_normalize_subcommand(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--family", "39", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["matchesReference"] is True
    assert payload["supportSize"] == 52


def test_normalize_deterministic_per_seed(capsys):
    _, out1, _ = run_cli(capsys, "normalize", "--family", "39", "--seed", "0")
    _, out2, _ = run_cli(capsys, "normalize", "--family", "39", "--seed", "0")
    _, out3, _ = run_cli(capsys, "normalize", "--family", "39", "--seed", "5")
    assert out1 == out2
    assert json.loads(out3)["matchesReference"] is True


def test_autgroup_full_support(capsys):
    code, out, _ = run_cli(capsys, "autgroup", "--septuple", "1,1,1,1,1,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"]["inducedTrivial"] is True
    assert payload["hasInvolution"] is False


def test_autgroup_common_factor_has_no_involution(capsys):
    # (-1, ..., -1) is i^2 in the torus of P(2, 2, 2, 2, 2), so it acts trivially
    code, out, _ = run_cli(capsys, "autgroup", "--septuple", "2,2,2,2,2,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["hasInvolution"] is False
    assert payload["witnessSigns"] is None


def test_autgroup_certificate(capsys):
    code, out, _ = run_cli(capsys, "autgroup", "--family", "84", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["trivial"] is True


def test_stabilizer_subcommand(capsys):
    code, out, _ = run_cli(capsys, "stabilizer", "--points", "0,1,inf")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    code, out, _ = run_cli(capsys, "stabilizer", "--points", "0,1,-1,inf")
    assert json.loads(out)["order"] == 8


def test_verdict_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--septuple", "1,7,8,9,12,36")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [3]
    assert payload["generalOnly"] is True
    code, out, _ = run_cli(capsys, "verdict", "--septuple", "1,1,2,3,3,9")
    assert json.loads(out)["values"] == [2]


def test_output_file(tmp_path, capsys):
    path = tmp_path / "mono.json"
    code, out, _ = run_cli(
        capsys, "monomials", "--weights", "1,1,1,1,1", "--degree", "2", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["count"] == 15


def test_search_cap_refuses_before_any_search(capsys, monkeypatch):
    monkeypatch.delenv("WFANO_CATALOG", raising=False)
    monkeypatch.setattr(catalog, "classify", lambda *a, **k: pytest.fail("searched a box past the cap"))
    for command in ("classify", "report"):
        code, _, err = run_cli(capsys, command, "--max-weight", str(MAX_SEARCH_WEIGHT + 1))
        assert code == 1
        assert "more than the limit of 200" in json.loads(err)["error"]


def test_report_small(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "report", "--max-weight", "2", "--max-degree", "8", "--format", "markdown"
    )
    assert code == 0
    assert "# classification report" in out
    assert "| septuple |" in out


def test_report_from_saved_catalog(tmp_path, capsys, monkeypatch):
    from wfano.catalog import SearchBounds, classify, save_catalog

    records = classify(SearchBounds(max_weight=2, max_degree=8))
    path = tmp_path / "cat.json"
    save_catalog(records, str(path))
    monkeypatch.setenv("WFANO_CATALOG", str(path))
    code, out, _ = run_cli(capsys, "report", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == len(records)


BAD_CATALOGS = {
    "list.json": "[1, 2]",
    "norecords.json": '{"schemaVersion": 1}',
    "short.json": '{"schemaVersion": 1, "records": [{"septuple": ["1", "1", "1"]}]}',
    "label.json": '{"schemaVersion": 1, "records": [{"septuple": ["1", "1", "1", "1", "1", "4", "1"],'
    ' "paperNumber": "x"}]}',
    "nonmember.json": '{"schemaVersion": 1, "records": [{"septuple": ["1", "1", "1", "1", "4", "7", "1"],'
    ' "paperNumber": null}]}',
    "version.json": '{"schemaVersion": 2, "records": []}',
    "text.json": "not json",
    "float.json": '{"schemaVersion": 1, "records": [{"septuple": [1.9, 1, 1, 1, true, "4", "1"], "paperNumber": 1}]}',
    "string.json": '{"schemaVersion": 1, "records": [{"septuple": "1111141", "paperNumber": 1}]}',
    "repeated.json": '{"schemaVersion": 1, "records": [{"septuple": ["1", "1", "1", "1", "1", "4", "1"],'
    ' "paperNumber": 1}, {"septuple": ["1", "1", "1", "1", "1", "4", "1"], "paperNumber": 1}]}',
    "unordered.json": '{"schemaVersion": 1, "records": [{"septuple": ["1", "1", "1", "1", "3", "6", "1"],'
    ' "paperNumber": 3}, {"septuple": ["1", "1", "1", "1", "1", "4", "1"], "paperNumber": 1}]}',
}


def bad(id, *argv, code=1, error=""):
    return pytest.param(list(argv), code, error, id=id)


#: every subcommand with inputs it must reject: exit 1 with a JSON error, or
#: exit 2 with a usage message for argparse errors; never a traceback
BAD_INPUTS = [
    bad("monomials-bad-weight", "monomials", "--weights", "1,1,x,1,1", "--degree", "4", code=2),
    bad("monomials-two-weights", "monomials", "--weights", "1,1", "--degree", "4",
        error="expected 6 or 7 integers"),
    bad("monomials-out-missing-dir", "monomials", "--weights", "1,1,1,1,1", "--degree", "4",
        "--out", "{tmp}/missing/x.json", error="No such file or directory"),
    bad("monomials-no-degree", "monomials", "--weights", "1,1,1,1,1", code=2),
    bad("monomials-six-weights", "monomials", "--weights", "1,1,1,1,1,1", "--degree", "4",
        error="--weights takes 5 weights, got 6"),
    bad("monomials-empty-out", "monomials", "--weights", "1,1,1,1,1", "--degree", "4", "--out", "",
        error="No such file or directory: ''"),
    bad("monomials-zero-degree", "monomials", "--weights", "1,1,1,1,1", "--degree", "0",
        error="degree must be positive"),
    bad("monomials-over-cap", "monomials", "--weights", "1,1,1,1,1", "--degree", "200",
        error="has 70058751 monomials of degree 200, more than the limit of 50000"),
    bad("check-short", "check", "--septuple", "1,2,3", error="expected 6 or 7 integers"),
    bad("check-non-integer", "check", "--septuple", "1,1,1,1,1,2.5", code=2),
    bad("check-zero-weight", "check", "--septuple", "0,1,1,1,1,4", error="weights must be positive"),
    bad("check-wrong-index", "check", "--septuple", "1,1,1,1,1,4,5", error="inconsistent septuple"),
    bad("check-negative-index", "check", "--septuple", "1,1,1,1,1,9",
        error="fails the Fano index stage: index -4 < 1"),
    bad("check-huge-degree", "check", "--septuple", "1,1,1,1,100000000,100000001",
        error="count_monomials: degree 100000001 needs 100000002 bits"),
    bad("check-huge-pair-series", "check", "--septuple", "2,3,5,3000000,5000000,8000000",
        error="count_monomials: degree 8000000 needs 184000023 bits"),
    bad("check-huge-live-weight", "check", "--septuple", "1,1,1,1,10000000,10000001",
        error="count_monomials: degree 10000001 needs 240000048 bits"),
    bad("classify-zero-weight", "classify", "--max-weight", "0", error="bounds must be positive"),
    bad("classify-negative-degree", "classify", "--max-degree", "-3", error="bounds must be positive"),
    bad("classify-unknown-flag", "classify", "--no-such-flag", code=2),
    bad("classify-non-integer", "classify", "--max-weight", "x", code=2),
    bad("classify-zero-jobs", "classify", "--jobs", "0", code=2),
    bad("classify-zero-index", "classify", "--max-weight", "5", "--index", "0",
        error="--index must be a Fano index, at least 1, got 0"),
    bad("classify-negative-index", "classify", "--max-weight", "5", "--index", "-1",
        error="--index must be a Fano index, at least 1, got -1"),
    bad("classify-over-cap", "classify", "--max-weight", "1000000", "--max-degree", "1000000",
        error="--max-weight 1000000 is more than the limit of 200"),
    bad("basket-bad-family", "basket", "--septuple", "1,1,1,1,4,7",
        error="fails the membership predicates"),
    bad("basket-short", "basket", "--septuple", "1,1,1,1,1", error="expected 6 or 7 integers"),
    bad("basket-negative-index", "basket", "--septuple", "1,1,1,1,1,9",
        error="fails the Fano index stage: index -4 < 1"),
    bad("basket-huge-degree", "basket", "--septuple", "1,1,1,1,100000000,100000001",
        error="count_monomials: degree 100000001 needs 100000002 bits"),
    bad("basket-huge-triple-series", "basket", "--septuple", "2,3,5,3000000,5000000,8000000",
        error="count_monomials: degree 8000000 needs 360000045 bits"),
    bad("normalize-unknown-family", "normalize", "--family", "2", error="unknown family number 2"),
    bad("normalize-non-integer", "normalize", "--family", "x", code=2),
    bad("normalize-no-plan", "normalize", "--family", "9", error="no built-in plan for family 9"),
    bad("normalize-negative-seed", "normalize", "--family", "19", "--seed", "-3",
        error="--seed must be non-negative, got -3"),
    bad("autgroup-unknown-family", "autgroup", "--family", "2", error="unknown family number 2"),
    bad("autgroup-family-zero", "autgroup", "--family", "0", error="unknown family number 0"),
    bad("autgroup-no-plan", "autgroup", "--family", "9", error="no built-in plan for family 9"),
    bad("autgroup-negative-seed", "autgroup", "--family", "28", "--seed", "-5",
        error="--seed must be non-negative, got -5"),
    bad("autgroup-no-input", "autgroup", error="need --septuple"),
    bad("autgroup-zero-degree", "autgroup", "--weights", "1,1,1,1,1", "--degree", "0",
        error="degree must be positive"),
    bad("autgroup-family-and-septuple", "autgroup", "--family", "19", "--septuple", "1,1,1,1,1,4",
        error="--family takes no --septuple, --weights or --degree"),
    bad("autgroup-family-and-weights", "autgroup", "--family", "19", "--weights", "1,1,1,1,1",
        error="--family takes no --septuple, --weights or --degree"),
    bad("autgroup-family-and-degree", "autgroup", "--family", "19", "--degree", "4",
        error="--family takes no --septuple, --weights or --degree"),
    bad("autgroup-septuple-and-weights", "autgroup", "--septuple", "1,1,1,1,1,4", "--weights", "1,1,1,1,2",
        error="--septuple takes no --weights or --degree"),
    bad("autgroup-septuple-and-degree", "autgroup", "--septuple", "1,1,1,1,1,4", "--degree", "5",
        error="--septuple takes no --weights or --degree"),
    bad("autgroup-six-weights", "autgroup", "--weights", "1,1,1,1,1,1", "--degree", "4",
        error="--weights takes 5 weights, got 6"),
    bad("autgroup-non-integer", "autgroup", "--weights", "1,1,1,1,1.5", "--degree", "4", code=2),
    bad("autgroup-zero-index", "autgroup", "--septuple", "2,2,2,2,2,10",
        error="fails the Fano index stage: index 0 < 1"),
    bad("autgroup-weights-zero-index", "autgroup", "--weights", "1,1,1,1,1", "--degree", "5",
        error="fails the Fano index stage: index 0 < 1"),
    bad("autgroup-over-cap", "autgroup", "--septuple", "1,1,1,1,66,69",
        error="has 59660 monomials of degree 69, more than the limit of 50000"),
    bad("stabilizer-two-points", "stabilizer", "--points", "0,1", error="fewer than 3 points"),
    bad("stabilizer-zero-denominator", "stabilizer", "--points", "1/0", error="zero denominator"),
    bad("stabilizer-not-a-number", "stabilizer", "--points", "abc", error="Invalid literal"),
    bad("stabilizer-repeated", "stabilizer", "--points", "0,1,1,inf", error="must be distinct"),
    bad("stabilizer-over-cap", "stabilizer", "--points", ",".join(map(str, range(33))),
        error="33 points, more than the limit of 32"),
    bad("stabilizer-huge-exponent", "stabilizer", "--points", "0,1,1e1000000,2",
        error="point '1e1000000' has more than 100 digits"),
    bad("stabilizer-long-exponent", "stabilizer", "--points", "0,1,1e100000,2",
        error="point '1e100000' has more than 100 digits"),
    bad("stabilizer-long-literal", "stabilizer", "--points", "0,1," + "7" * 101,
        error="has more than 100 digits"),
    bad("verdict-rejected-family", "verdict", "--septuple", "1,1,1,1,3,4", error="is not terminal"),
    bad("verdict-wrong-index", "verdict", "--septuple", "1,1,1,1,1,4,2", error="inconsistent septuple"),
    bad("verdict-zero-index", "verdict", "--septuple", "1,1,1,1,1,5",
        error="fails the Fano index stage: index 0 < 1"),
    bad("verdict-no-septuple", "verdict", code=2),
    bad("verdict-non-member", "verdict", "--septuple", "1,1,1,1,4,7", error="is not an accepted family"),
    bad("verdict-huge-degree", "verdict", "--septuple", "1,1,1,1,100000000,100000001",
        error="count_monomials: degree 100000001 needs 100000002 bits"),
    bad("verdict-huge-triple-series", "verdict", "--septuple", "2,3,5,3000000,5000000,8000000",
        error="count_monomials: degree 8000000 needs 360000045 bits"),
    bad("report-zero-weight", "report", "--max-weight", "0", error="bounds must be positive"),
    bad("report-over-cap", "report", "--max-weight", "201", error="--max-weight 201 is more than the limit of 200"),
    bad("report-catalog-list", "report", "--catalog", "{tmp}/list.json", error="JSON object"),
    bad("report-catalog-no-records", "report", "--catalog", "{tmp}/norecords.json",
        error="'records' must be a list"),
    bad("report-catalog-short-septuple", "report", "--catalog", "{tmp}/short.json",
        error="septuple of 7 integers"),
    bad("report-catalog-float", "report", "--catalog", "{tmp}/float.json", error="septuple of 7 integers"),
    bad("report-catalog-string", "report", "--catalog", "{tmp}/string.json", error="septuple of 7 integers"),
    bad("report-catalog-wrong-label", "report", "--catalog", "{tmp}/label.json",
        error="paperNumber 'x'"),
    bad("report-catalog-non-member", "report", "--catalog", "{tmp}/nonmember.json", error="fails"),
    bad("report-catalog-repeated", "report", "--catalog", "{tmp}/repeated.json",
        error="(1, 1, 1, 1, 1, 4, 1) repeats a record or breaks classify's order"),
    bad("report-catalog-unordered", "report", "--catalog", "{tmp}/unordered.json",
        error="(1, 1, 1, 1, 1, 4, 1) repeats a record or breaks classify's order"),
    bad("report-catalog-version", "report", "--catalog", "{tmp}/version.json",
        error="unsupported schemaVersion"),
    bad("report-catalog-not-json", "report", "--catalog", "{tmp}/text.json", error="Expecting value"),
    bad("report-catalog-empty", "report", "--catalog", "", error="No such file or directory: ''"),
    bad("report-catalog-missing", "report", "--catalog", "{tmp}/missing.json",
        error="No such file or directory"),
]


@pytest.mark.parametrize("argv, code, error", BAD_INPUTS)
def test_bad_input(argv, code, error, tmp_path, capsys):
    for name, text in BAD_CATALOGS.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        return
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (1, "")
    assert error in json.loads(err)["error"]


def test_one_parser_per_process(capsys):
    # main parses every argv with one tree, and an argv leaves nothing in it
    # for the next: after a --format markdown run, json is still the default
    parser = build_parser()
    assert run_cli(capsys, "check", "--septuple", "1,1,1,1,1,4,1", "--format", "markdown")[0] == 0
    assert build_parser() is parser
    assert parser.parse_args(["check", "--septuple", "1,1,1,1,1,4,1"]).format == "json"


def test_bad_input_covers_every_subcommand():
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    assert {p.values[0][0] for p in BAD_INPUTS} == commands


#: the values of the generated sweep (ROADMAP item 9), by the option's
#: argparse type; a --septuple gets ",8" appended as its degree
SWEEP_VALUES = {
    int: ["0", "-1", str(2**63), "x"],
    _integers: ["1,1,1", "1,1,1,1,1,1", "0,1,1,1,1", "-1,1,1,1,1", "2,2,2,2,2", "1,1,x,1,1"],
    "points": ["0,1,1,inf", "1/0", "nan", "1e400", "7" * 101],
    "path": ["{tmp}/missing/x", "", "{tmp}"],
    "choice": ["xml"],
}

#: accepted invocations that each option's values go into: the first one
#: that has the option, else the first; --max-weight 5 keeps searches cheap
SWEEP_BASES = {
    "monomials": [["--weights", "1,1,1,1,1", "--degree", "4"]],
    "check": [["--septuple", "1,1,1,1,1,4"]],
    "classify": [["--max-weight", "5"]],
    "basket": [["--septuple", "1,1,1,1,1,4"]],
    "normalize": [["--family", "19"]],
    "autgroup": [["--family", "19"], ["--septuple", "1,1,1,1,1,4"], ["--weights", "1,1,1,1,1", "--degree", "4"]],
    "stabilizer": [["--points", "0,1,inf"]],
    "verdict": [["--septuple", "1,1,1,1,1,4"]],
    "report": [["--max-weight", "5"]],
}

#: the sweep's cases that are valid input, each with its reason; every other
#: case must be refused
SWEEP_ACCEPTED = {
    "monomials--weights=2,2,2,2,2": "the monomials of any five weights",
    "check--septuple=2,2,2,2,2,8": "check prints the failed stages of any septuple",
    "autgroup--septuple=2,2,2,2,2,8": "a common factor acts trivially, and the group says so",
    "autgroup--weights=2,2,2,2,2": "the same septuple given by weights",
    "classify--index=9223372036854775808": "an index past every family selects no record",
    "classify--max-degree=9223372036854775808": "--max-weight bounds the box",
    "report--max-degree=9223372036854775808": "--max-weight bounds the box",
    "classify--jobs=9223372036854775808": "the pool is capped at the CPU count",
    "normalize--seed=0": "the default seed",
    "normalize--seed=9223372036854775808": "every non-negative seed draws a member",
    "autgroup--seed=0": "the default seed",
    "autgroup--seed=9223372036854775808": "every non-negative seed draws a member",
}


def sweep_options():
    """(subcommand, argparse action) for every option of every subcommand."""
    for command, sub in build_parser()._subparsers._group_actions[0].choices.items():
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                yield command, action


def sweep_values(command, action):
    if action.choices:
        kind = "choice"
    elif action.type is None:
        kind = "points" if action.dest == "points" else "path"
    else:
        kind = action.type
    values = SWEEP_VALUES.get(kind, [])
    if action.dest == "septuple":
        values = [v + ",8" for v in values]
    if action.dest == "jobs" and command != "classify":
        values = [v for v in values if v in ("0", "-1", "x")]  # refused before any pool starts
    return values


def sweep_cases():
    for command, action in sweep_options():
        option = action.option_strings[0]
        base = next((b for b in SWEEP_BASES[command] if option in b), SWEEP_BASES[command][0])
        for value in sweep_values(command, action):
            argv = list(base)
            if option in argv:
                argv[argv.index(option) + 1] = value
            else:
                argv += [option, value]
            shown = value if len(value) <= 20 else value[:8] + "..."
            yield pytest.param([command, *argv], id=f"{command}{option}={shown}")


SWEEP = list(sweep_cases())


def test_sweep_covers_every_option():
    unswept = [(command, action.option_strings[0]) for command, action in sweep_options()
               if not sweep_values(command, action)]
    assert not unswept, f"no sweep values for these options' types: {unswept}"
    assert SWEEP_ACCEPTED.keys() <= {p.id for p in SWEEP}
    assert len(SWEEP) == 131


@pytest.mark.parametrize("argv", SWEEP)
def test_bad_input_sweep(argv, request, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(CATALOG_ENV, raising=False)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse; any other exception fails the test with its traceback
        code = exc.code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert elapsed < 2, f"{elapsed:.2f} s"
    if request.node.callspec.id in SWEEP_ACCEPTED:
        assert code == 0, err
    elif code == 2:
        assert "usage:" in err
    else:
        assert (code, out) == (1, "")
        assert "error" in json.loads(err)
