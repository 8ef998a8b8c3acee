"""The benchmark's call surface.

`bench/spans.py` runs the program stage by stage through the public
functions of each module, and `bench/worker.py` runs the CLI command that
the benchmark measures.  These tests run both on the first round of two
corpora, so that a change the traced pass cannot follow fails here, not
only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpora  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", ["string-comm", "dynkin-long"])
def test_traced_pass_prints_what_the_command_prints(workload, tmp_path):
    cli = worker.import_cli()
    cap = worker.CAPS[workload]
    batch = worker.write_inputs(corpora.corpus(workload, 801, 1), str(tmp_path))
    result = spans.traced_pass(cli, cap, batch, lambda path: worker.index_argv(cap, path))
    assert len(result["outputs"]) == len(batch)
    for (inst, path), traced in zip(batch, result["outputs"]):
        code, stdout, error, _, _ = worker.run_index(cli, cap, path)
        assert error is None, inst.name
        assert traced == (code, stdout), inst.name
