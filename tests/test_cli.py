import io
import json

import pytest

from radindex.cli import main

from conftest import FIXTURES


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def fixture(name):
    return str(FIXTURES / f"{name}.quiv")


def test_validate_ok():
    code, text = run("validate", fixture("e1"))
    assert code == 0
    assert "vertices: 1..7" in text


def test_validate_machine_lists_classification():
    code, text = run("--format", "machine", "validate", fixture("e4"))
    assert code == 0
    payload = json.loads(text)
    assert payload["classification"]["string"] is True
    assert payload["classification"]["monomial"] is True


def test_validate_garbage_exits_2(tmp_path):
    bad = tmp_path / "garbage.quiv"
    bad.write_text("vertices: 1..2\narrow a 1 -> 2\n")
    code, _ = run("validate", str(bad))
    assert code == 2


def test_validate_missing_file_exits_2():
    code, _ = run("validate", "/nonexistent/input.quiv")
    assert code == 2


def test_index_e1_all_methods():
    code, text = run("index", "--method", "all", fixture("e1"))
    assert code == 0
    assert "r_A = 13" in text
    assert "agreement: yes" in text


def test_index_e2_auto_flags_pullback():
    code, text = run("index", fixture("e2"))
    assert code == 0
    assert "r_A = 17" in text
    assert "inapplicable" in text


def test_index_machine_deterministic():
    code1, text1 = run("--format", "machine", "index", "--method", "all", fixture("e1"))
    code2, text2 = run("--format", "machine", "index", "--method", "all", fixture("e1"))
    assert code1 == code2 == 0
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["r"] == 13
    assert payload["schema"] == "radindex.report/1"
    assert payload["per_vertex_r"]["3"] == 12


@pytest.mark.parametrize("name", ["e1", "e2", "e3", "e4"])
def test_index_all_machine_matches_golden(name):
    """`<name>.index-all.json` holds the report of an earlier release;
    refactors must leave it byte-identical."""
    code, text = run("--format", "machine", "index", "--method", "all", fixture(name))
    assert code == 0
    assert text == (FIXTURES / f"{name}.index-all.json").read_text()


def test_index_string_policy_rejected_for_non_string():
    code, _ = run("index", "--method", "string", fixture("e1"))
    assert code == 1


def test_explain_e4_prints_representatives():
    code, text = run("explain", fixture("e4"))
    assert code == 0
    assert "S = {3, 7}" in text
    assert "overlap" in text


def test_explain_machine(e4):
    code, text = run("--format", "machine", "explain", fixture("e4"))
    assert code == 0
    payload = json.loads(text)
    assert payload["representatives"] == [3, 7]
    assert payload["involved"] == [2, 3, 4, 5, 7, 8]
    assert payload["overlaps"][0]["intersection"] == [3, 4]


def test_explain_overlap_without_shared_vertex_exits_1(tmp_path, capsys):
    """A_4 with zero b*a and c*b: the two relations overlap on b but share
    no involved vertex, so no representative can be chosen for the pair."""
    path = tmp_path / "a4.quiv"
    path.write_text(
        "vertices: 1..4\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
        "zero: b * a\nzero: c * b\n"
    )
    code, _ = run("explain", str(path))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "b * a" in err and "c * b" in err


def test_crosscheck_agreement_exit_zero():
    code, text = run("crosscheck", fixture("e1"))
    assert code == 0
    assert "agreement: yes" in text


def test_crosscheck_e3():
    code, _ = run("crosscheck", fixture("e3"))
    assert code == 0


def test_dump_ar_is_dot():
    code, text = run("dump-ar", fixture("e1"))
    assert code == 0
    assert text.startswith("digraph")
    assert text.count("->") > 40


def test_dump_strings_e4():
    code, text = run("dump-strings", fixture("e4"))
    assert code == 0
    lines = text.strip().splitlines()
    assert "e_1" in lines
    assert any("^-1" in ln for ln in lines)


def test_dump_strings_non_string_exits_1():
    code, _ = run("dump-strings", fixture("e1"))
    assert code == 1


def test_cap_flag_respected():
    code, _ = run("--cap", "5", "index", "--method", "knit", fixture("e1"))
    assert code == 1  # cap too low reads as likely representation-infinite
