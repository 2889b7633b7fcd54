import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wfano.cli import build_parser, main


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


def test_monomials_walks_only_feasible_remainders():
    # odd degree on even weights: the walk prunes at the root (it used to
    # visit 2.7e9 exponent prefixes); a regression fails at the timeout
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["monomials", "--weights", "2,2,2,2,2", "--degree", "1001"]
    result = subprocess.run(
        [sys.executable, "-m", "wfano", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
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


def test_report_small(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "report", "--max-weight", "2", "--max-degree", "8", "--format", "markdown"
    )
    assert code == 0
    assert "# classification report" in out
    assert "| septuple |" in out


def test_report_from_saved_catalog(tmp_path, capsys, monkeypatch):
    from wfano.catalog import SearchBounds, classify, save_catalog

    records = classify(SearchBounds(max_weight=2, max_degree=8, index_range=(1, 15)))
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
    bad("classify-zero-weight", "classify", "--max-weight", "0", error="bounds must be positive"),
    bad("classify-negative-degree", "classify", "--max-degree", "-3", error="bounds must be positive"),
    bad("classify-unknown-flag", "classify", "--no-such-flag", code=2),
    bad("classify-non-integer", "classify", "--max-weight", "x", code=2),
    bad("classify-zero-jobs", "classify", "--jobs", "0", code=2),
    bad("basket-bad-family", "basket", "--septuple", "1,1,1,1,4,7",
        error="fails the membership predicates"),
    bad("basket-short", "basket", "--septuple", "1,1,1,1,1", error="expected 6 or 7 integers"),
    bad("basket-negative-index", "basket", "--septuple", "1,1,1,1,1,9",
        error="fails the Fano index stage: index -4 < 1"),
    bad("normalize-unknown-family", "normalize", "--family", "2", error="unknown family number 2"),
    bad("normalize-non-integer", "normalize", "--family", "x", code=2),
    bad("normalize-no-plan", "normalize", "--family", "9", error="no built-in plan for family 9"),
    bad("autgroup-unknown-family", "autgroup", "--family", "2", error="unknown family number 2"),
    bad("autgroup-family-zero", "autgroup", "--family", "0", error="unknown family number 0"),
    bad("autgroup-no-plan", "autgroup", "--family", "9", error="no built-in plan for family 9"),
    bad("autgroup-no-input", "autgroup", error="need --septuple"),
    bad("autgroup-non-integer", "autgroup", "--weights", "1,1,1,1,1.5", "--degree", "4", code=2),
    bad("autgroup-over-cap", "autgroup", "--septuple", "1,1,1,1,1,31",
        error="has 52360 monomials of degree 31, more than the limit of 50000"),
    bad("stabilizer-two-points", "stabilizer", "--points", "0,1", error="fewer than 3 points"),
    bad("stabilizer-zero-denominator", "stabilizer", "--points", "1/0", error="zero denominator"),
    bad("stabilizer-not-a-number", "stabilizer", "--points", "abc", error="Invalid literal"),
    bad("stabilizer-repeated", "stabilizer", "--points", "0,1,1,inf", error="must be distinct"),
    bad("stabilizer-over-cap", "stabilizer", "--points", ",".join(map(str, range(33))),
        error="33 points, more than the limit of 32"),
    bad("verdict-rejected-family", "verdict", "--septuple", "1,1,1,1,3,4", error="is not terminal"),
    bad("verdict-wrong-index", "verdict", "--septuple", "1,1,1,1,1,4,2", error="inconsistent septuple"),
    bad("verdict-zero-index", "verdict", "--septuple", "1,1,1,1,1,5",
        error="fails the Fano index stage: index 0 < 1"),
    bad("verdict-no-septuple", "verdict", code=2),
    bad("verdict-non-member", "verdict", "--septuple", "1,1,1,1,4,7", error="is not an accepted family"),
    bad("report-zero-weight", "report", "--max-weight", "0", error="bounds must be positive"),
    bad("report-catalog-list", "report", "--catalog", "{tmp}/list.json", error="JSON object"),
    bad("report-catalog-no-records", "report", "--catalog", "{tmp}/norecords.json",
        error="'records' must be a list"),
    bad("report-catalog-short-septuple", "report", "--catalog", "{tmp}/short.json",
        error="septuple of 7 integers"),
    bad("report-catalog-wrong-label", "report", "--catalog", "{tmp}/label.json",
        error="paperNumber 'x'"),
    bad("report-catalog-non-member", "report", "--catalog", "{tmp}/nonmember.json", error="fails"),
    bad("report-catalog-version", "report", "--catalog", "{tmp}/version.json",
        error="unsupported schemaVersion"),
    bad("report-catalog-not-json", "report", "--catalog", "{tmp}/text.json", error="Expecting value"),
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


def test_bad_input_covers_every_subcommand():
    commands = set(build_parser()._subparsers._group_actions[0].choices)
    assert {p.values[0][0] for p in BAD_INPUTS} == commands
