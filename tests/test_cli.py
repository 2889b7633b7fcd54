import json

import pytest

from wfano.cli import main


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


def test_basket_rejects_bad_family(capsys):
    code, _, err = run_cli(capsys, "basket", "--septuple", "1,1,1,1,4,7")
    assert code == 1
    assert "error" in err


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


def test_normalize_unknown_family(capsys):
    code, _, err = run_cli(capsys, "normalize", "--family", "2")
    assert code == 1
    assert "error" in err


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


def test_stabilizer_rejects_two_points(capsys):
    code, _, err = run_cli(capsys, "stabilizer", "--points", "0,1")
    assert code == 1
    assert "error" in err


def test_verdict_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--septuple", "1,7,8,9,12,36")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [3]
    assert payload["generalOnly"] is True
    code, out, _ = run_cli(capsys, "verdict", "--septuple", "1,1,2,3,3,9")
    assert json.loads(out)["values"] == [2]


def test_verdict_rejects_rejected_family(capsys):
    code, _, err = run_cli(capsys, "verdict", "--septuple", "1,1,1,1,3,4")
    assert code == 1


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--no-such-flag"])
    assert exc.value.code == 2


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


def test_stabilizer_rejects_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "stabilizer", "--points", "1/0")
    assert code == 1
    assert out == ""
    assert "zero denominator" in json.loads(err)["error"]
