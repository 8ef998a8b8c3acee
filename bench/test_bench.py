"""Tests of the benchmark itself: run with `python3 -m pytest bench`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpora
import run
import speed
import worker

BENCH = Path(__file__).resolve().parent


# --------------------------------------------------------------------------
# corpora
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_same_seed_same_corpus(workload):
    first = corpora.corpus(workload, 7, 2)
    assert first == corpora.corpus(workload, 7, 2)
    assert [i.text for i in first] != [i.text for i in corpora.corpus(workload, 8, 2)]
    assert [i.text for i in first] != [i.text for i in corpora.corpus(workload, 7, 2, part=1)]


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_corpus_texts_are_distinct(workload):
    texts = [i.text for i in corpora.corpus(workload, 3, 20)]
    assert len(set(texts)) == len(texts)


def test_generation_calls_no_radindex_function():
    code = ("import sys; sys.path.insert(0, 'bench'); import corpora;"
            "[corpora.corpus(w, 1, 3) for w in corpora.WORKLOADS];"
            "assert not any(m.startswith('radindex') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent, check=True)


# --------------------------------------------------------------------------
# the oracle
# --------------------------------------------------------------------------

def test_dynkin_table():
    assert [corpora.dynkin_index("A", n) for n in (1, 15, 66)] == [1, 15, 66]
    assert [corpora.dynkin_index("D", n) for n in (4, 10, 40)] == [5, 17, 77]
    assert [corpora.dynkin_index("E", n) for n in (6, 7, 8)] == [11, 17, 29]


def test_dynkin_corpus_oracle_and_long_paths():
    for inst in corpora.corpus("dynkin-long", 1, 3):
        family, n = inst.name.split("-")[2][0], int(inst.name.split("-")[2][1:])
        assert inst.expect_r == corpora.dynkin_index(family, n)
        assert inst.expect_ok == ("hereditary_table", "knit")
        # exactly the "long" instances reach past the admissibility cap
        assert (inst.longest_path > corpora.ADMISSIBILITY_CAP) == inst.name.endswith("-long")


def test_fixture_values():
    assert {k: v for k, (_, v) in corpora.FIXTURES.items()} == {
        "e1": 13, "e2": 17, "e3": 19, "e4": 8}
    fixtures = (BENCH.parent / "tests" / "fixtures")
    if fixtures.is_dir():
        for name, (text, _) in corpora.FIXTURES.items():
            body = (fixtures / f"{name}.quiv").read_text()
            assert text.splitlines() == body.splitlines()[1:]  # after the comment


def test_toupie_formula():
    assert corpora.toupie_index((1, 1)) == 5
    assert corpora.toupie_index((3, 1)) == 1 + 2 * 3 + 2
    assert corpora.toupie_index((1, 1, 1)) == 2 * 5 - 1     # star D4
    assert corpora.toupie_index((1, 2, 4)) == 2 * 29 - 1    # star E8


# --------------------------------------------------------------------------
# checks and failure accounting
# --------------------------------------------------------------------------

def report(r, agreement=True, **statuses):
    return json.dumps({"r": r, "agreement": agreement, "methods": [
        {"name": k, "status": v, "value": r if v == "ok" else None} for k, v in statuses.items()]})


DYNKIN = corpora.Instance("A3", "", expect_r=3, expect_ok=("hereditary_table", "knit"))


def test_check_accepts_a_right_answer():
    assert worker.check(DYNKIN, 0, report(3, hereditary_table="ok", knit="ok"), None) == ([], False)


@pytest.mark.parametrize("code,stdout,error,wrong", [
    (0, report(4, hereditary_table="ok", knit="ok"), None, True),          # wrong r
    (1, "", None, True),                                                   # abstained
    (2, "", None, True),                                                   # input error
    (None, "", "ValueError: boom", True),                                  # escaped exception
    (0, report(3, False, hereditary_table="ok", knit="ok"), None, False),  # disagreement
    (0, report(3, hereditary_table="ok", knit="error"), None, False),     # missing value
])
def test_check_flags_failures(code, stdout, error, wrong):
    reasons, is_wrong = worker.check(DYNKIN, code, stdout, error)
    assert reasons and is_wrong == wrong


def test_forced_wrong_answer_counts_in_failed_frac(monkeypatch, tmp_path):
    cli = worker.import_cli()
    from radindex import formulas

    knit_index = formulas.nilpotency_knit

    def off_by_one(*args, **kwargs):
        result = knit_index(*args, **kwargs)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(formulas, "nilpotency_knit", off_by_one)
    batch = worker.write_inputs(corpora.corpus("dynkin-long", 2, 1)[:3], str(tmp_path))
    tally = worker.Tally()
    for inst, path in batch:
        tally.add(inst, *worker.run_index(cli, 10000, path))
    assert len(tally.failures) == 3 and tally.wrong == 3

    class Canned:
        workload, seed = "dynkin-long", 2

        def spawn(self, *args):
            kernel = [(t, speed.NOMINAL_KERNEL_S) for t in tally.starts]
            return {**tally.result(), "ready": 0.0, "kernel": kernel, "peak_rss_mb": 30.0,
                    "setup_kernel_s": [speed.NOMINAL_KERNEL_S]}, 0.2

    correct, attempted, failed, metrics, _ = run.end_to_end(Canned(), 1e-9)
    assert (correct, attempted, failed) == (False, 3, 3)


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def test_tail_is_p95_with_ten_samples_beyond_it():
    def tail(values):
        return run.percentile(values, [1 / len(values)] * len(values), 0.95, 10)

    assert tail(list(range(1000))[::-1]) == (949, pytest.approx(95.0), 50)
    assert tail(list(range(100))) == (89, pytest.approx(90.0), 10)
    assert tail([3, 1, 2]) == (3, pytest.approx(100.0), 0)


def test_abstentions_weigh_a_fixed_share():
    latencies, codes = [0.1, 0.1, 0.3, 0.5], [0, 0, 1, 1]
    weights = run.mix_weights(codes, 0.25)
    assert weights == pytest.approx([0.375, 0.375, 0.125, 0.125])
    assert run.rate(latencies, weights) == pytest.approx(1 / 0.175)
    assert run.percentile(latencies, weights, 0.5)[0] == 0.1
    assert run.percentile(latencies, weights, 0.8)[0] == 0.3
    assert run.mix_weights(codes, None) == [0.25] * 4 == run.mix_weights([0] * 4, 0.25)
    assert run.rate(latencies, run.mix_weights(codes, None)) == pytest.approx(4 / 1.0)


def test_self_times_subtract_children():
    spans = [["instance", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["a", 5.0, 6.0, 0, 0]]
    assert dict(run.self_times(spans)) == {"instance": 6.0, "a": 3.0, "b": 1.0}


# --------------------------------------------------------------------------
# whole runs
# --------------------------------------------------------------------------

def spawn_list(seed, workdir):
    inputs = workdir / str(len(list(workdir.iterdir())))
    inputs.mkdir()
    out = subprocess.run([sys.executable, str(BENCH / "worker.py"), "list", "string-comm",
                          str(seed), str(inputs), "2"], cwd=BENCH.parent, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_same_seed_same_digest(tmp_path):
    first = spawn_list(4, tmp_path)
    assert first["digest"] == spawn_list(4, tmp_path)["digest"]
    assert first["digest"] != spawn_list(5, tmp_path)["digest"]
    assert not first["failures"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "string-comm",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
