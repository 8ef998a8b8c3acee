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


@pytest.mark.parametrize("policy", ["auto", "knit", "string", "formula"])
@pytest.mark.parametrize("name", ["e1", "e2", "e3", "e4"])
def test_index_policy_machine_matches_golden(name, policy):
    """`<name>.index-<policy>.out` holds `exit <code>` and then the machine
    report of an earlier release; refactors must leave both unchanged."""
    code, text = run("--format", "machine", "index", "--method", policy, fixture(name))
    assert f"exit {code}\n{text}" == (FIXTURES / f"{name}.index-{policy}.out").read_text()


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


def test_explain_overlap_without_shared_vertex_takes_both_relations(tmp_path):
    """A_4 with zero b*a and c*b: the two relations overlap on b but share
    no involved vertex, so both relations' involved vertices represent the
    pair."""
    path = tmp_path / "a4.quiv"
    path.write_text(
        "vertices: 1..4\narrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\n"
        "zero: b * a\nzero: c * b\n"
    )
    code, text = run("explain", str(path))
    assert code == 0
    assert "S = {2, 3}" in text


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


def test_cap_reaches_the_string_fans():
    """e4 has more than 5 oriented strings, so the string method stops at
    the cap, as dump-strings does."""
    code, text = run("--cap", "5", "index", "--method", "string", fixture("e4"))
    assert code == 1 and text == ""
    code, text = run("index", "--method", "string", fixture("e4"))
    assert code == 0 and text.startswith("r_A = 8\n")


def test_each_call_reads_its_own_options():
    code, text = run("--format", "machine", "--cap", "4000", "index", fixture("e1"))
    assert code == 0
    assert json.loads(text)["r"] == 13
    code, text = run("--cap", "5", "dump-strings", fixture("e4"))
    assert code == 1 and text == ""
    code, text = run("index", fixture("e1"))
    assert code == 0
    assert text.startswith("r_A = 13\n")


@pytest.mark.parametrize("name", ["e1", "e2", "e3", "e4"])
def test_dump_ar_matches_golden(name):
    """`<name>.dump-ar.dot` pins node ids, arrow order and tau pairs of the
    knitted AR quiver as an earlier release printed them."""
    code, text = run("dump-ar", fixture(name))
    assert code == 0
    assert text == (FIXTURES / f"{name}.dump-ar.dot").read_text()


def _disagreeing_report():
    from radindex.formulas import IndexReport, MethodResult

    methods = [
        MethodResult("glued_formula", "ok", value=9),
        MethodResult("string_fans", "error", error="not a string algebra"),
        MethodResult("knit", "ok", value=10),
    ]
    return IndexReport("all", 10, methods, agreement=False)


def test_human_report_names_the_disagreeing_values():
    from radindex.cli import _print_report

    out = io.StringIO()
    _print_report(_disagreeing_report(), "human", out)
    assert "  agreement: NO (glued_formula 9, knit 10)\n" in out.getvalue()


def test_machine_report_of_a_disagreement_is_unchanged():
    from radindex.cli import _print_report

    report = _disagreeing_report()
    out = io.StringIO()
    _print_report(report, "machine", out)
    assert out.getvalue() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert json.loads(out.getvalue())["agreement"] is False
