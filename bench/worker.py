"""One benchmark repetition in a fresh process, so that the program's
memo caches start cold, as they do for a user of the CLI.

Started by run.py, one worker at a time, with a directory for the inputs
that run.py removes afterwards:

    python3 bench/worker.py setup  WORKLOAD SEED DIR
    python3 bench/worker.py timed  WORKLOAD SEED DIR PART
    python3 bench/worker.py list   WORKLOAD SEED DIR ROUNDS
    python3 bench/worker.py traced WORKLOAD SEED DIR ROUNDS

`setup` only sets up (import, generation of the first round); `timed` runs
a closed loop over the first TIMED_ROUNDS rounds of stream PART of the
corpus, with samples of the machine's speed between the instances
(speed.py); `list` runs the first ROUNDS rounds of stream 0 once; `traced`
runs the same instances through the stages of the pipeline with spans
(spans.py).  Every worker reports when
its set-up ended and the speed right after it.  The worker prints one JSON
object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import corpora
import spans
import speed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

CAPS = {"monotree-wild": 4000, "dynkin-long": 10000, "string-comm": 10000}
# A timed worker runs this many rounds, some 3-5 seconds of work.  The
# number is fixed, not the time: the program's caches grow over a worker's
# life, and its later instances run slower, so a worker that ran on while
# the machine was fast would read as a slower program.
TIMED_ROUNDS = {"monotree-wild": 2, "dynkin-long": 1, "string-comm": 25}
# Speed samples right after set-up, to scale the set-up time.
SETUP_SAMPLES = 9


def import_cli():
    """radindex.cli from this checkout's `src`, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import radindex.cli

    if not Path(radindex.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"radindex was not imported from {SRC}")
    return radindex.cli


def index_argv(cap: int, path: str) -> list[str]:
    """The measured operation: `radindex --format machine --cap CAP index
    --method all PATH`."""
    return ["--format", "machine", "--cap", str(cap), "index", "--method", "all", path]


def run_index(cli, cap: int, path: str):
    """The user's command, in-process: (exit code, stdout, error, start,
    seconds).

    `error` names an exception that escaped `cli.main`; the CLI turns every
    RadindexError into exit code 1 or 2, so any other exception is a bug."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(index_argv(cap, path), out=out)
        except Exception as exc:  # recorded as a failed instance, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return code, out.getvalue(), error, t0, dt


def check(inst: corpora.Instance, code, stdout: str, error):
    """Why `inst` counts as failed (empty if it does not), and whether any
    reason is a wrong output.

    Exit codes: 0 index, 1 stated abstention, 2 input error.  Wrong outputs
    are an escaped exception, a disallowed exit code and an index other
    than the oracle's.  Methods that disagree (the report says so itself)
    and an oracle-covered method that returned no value also fail the
    instance."""
    if error is not None:
        return [f"exception {error}"], True
    if code not in inst.exits:
        return [f"exit code {code}"], True
    if code != 0:
        return [], False
    report = json.loads(stdout)
    wrong = []
    if inst.expect_r is not None and report["r"] != inst.expect_r:
        wrong.append(f"r = {report['r']}, oracle says {inst.expect_r}")
    status = {m["name"]: m["status"] for m in report["methods"]}
    values = {m["name"]: m["value"] for m in report["methods"] if m["status"] == "ok"}
    reasons = wrong + [f"{name} gave no value ({status.get(name, 'not run')})"
                       for name in inst.expect_ok if status.get(name) != "ok"]
    if report["agreement"] is False:
        reasons.append("methods disagree: " + ", ".join(f"{k} {v}" for k, v in values.items()))
    return reasons, bool(wrong)


def write_inputs(instances, workdir: str):
    out = []
    for inst in instances:
        path = os.path.join(workdir, f"{inst.name}.quiv")
        with open(path, "x", encoding="utf-8") as fh:  # names are unique
            fh.write(inst.text)
        out.append((inst, path))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_bytes(inst: corpora.Instance, code, stdout: str) -> bytes:
    """One instance's share of the digest: its name, exit code and machine
    report."""
    return f"# {inst.name} exit {code}\n{stdout}".encode()


class Tally:
    """Per-instance results of one worker."""

    def __init__(self):
        self.names: list[str] = []
        self.codes: list = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.wrong = 0
        self.digest = hashlib.sha256()

    def add(self, inst, code, stdout, error, start, dt):
        self.names.append(inst.name)
        self.codes.append(code)
        self.starts.append(start)
        self.latencies.append(dt)
        self.digest.update(report_bytes(inst, code, stdout))
        reasons, wrong = check(inst, code, stdout, error)
        if reasons:
            self.failures.append({"name": inst.name, "reasons": reasons,
                                  "longest_path": inst.longest_path})
            self.wrong += wrong

    def result(self) -> dict:
        return {
            "names": self.names,
            "codes": self.codes,
            "starts": self.starts,
            "latencies": self.latencies,
            "failures": self.failures,
            "wrong": self.wrong,
            "digest": self.digest.hexdigest(),
        }


def ready_speed(sampler: speed.Sampler) -> dict:
    """The end of set-up, and the speed samples taken right after it."""
    ready = time.monotonic()
    sampler.batch(SETUP_SAMPLES)
    return {"ready": ready, "setup_kernel_s": [s for _, s in sampler.samples]}


def setup(workload: str, seed: int, workdir: str) -> dict:
    import_cli()
    write_inputs(next(corpora.rounds(workload, seed)), workdir)
    return ready_speed(speed.Sampler())


def timed(workload: str, seed: int, part: int, workdir: str) -> dict:
    """The first TIMED_ROUNDS rounds of stream `part`, with speed samples taken
    between the instances."""
    cli = import_cli()
    cap = CAPS[workload]
    stream = corpora.rounds(workload, seed, part)
    batch = write_inputs(next(stream), workdir)
    sampler = speed.Sampler()
    setup_speed = ready_speed(sampler)
    tally = Tally()
    for rounds in range(1, TIMED_ROUNDS[workload] + 1):
        for inst, path in batch:
            tally.add(inst, *run_index(cli, cap, path))
            sampler.maybe()
        if rounds < TIMED_ROUNDS[workload]:
            # The next round is written between instances, outside the timing.
            batch = write_inputs(next(stream), workdir)
    sampler.batch()
    return {**setup_speed, "peak_rss_mb": peak_rss_mb(), "kernel": sampler.samples,
            **tally.result()}


def listed(workload: str, seed: int, n_rounds: int, workdir: str) -> dict:
    cli = import_cli()
    cap = CAPS[workload]
    batch = write_inputs(corpora.corpus(workload, seed, n_rounds), workdir)
    ready = time.monotonic()
    tally = Tally()
    for inst, path in batch:
        tally.add(inst, *run_index(cli, cap, path))
    return {"ready": ready, "busy": sum(tally.latencies), **tally.result()}


def traced(workload: str, seed: int, n_rounds: int, workdir: str) -> dict:
    cli = import_cli()
    cap = CAPS[workload]
    batch = write_inputs(corpora.corpus(workload, seed, n_rounds), workdir)
    ready = time.monotonic()
    result = spans.traced_pass(cli, cap, batch, lambda path: index_argv(cap, path))
    digest = hashlib.sha256()
    for (inst, _), (code, stdout) in zip(batch, result.pop("outputs")):
        digest.update(report_bytes(inst, code, stdout))
    return {"ready": ready, "digest": digest.hexdigest(), **result}


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "setup":
        result = setup(workload, seed, workdir)
    elif mode == "timed":
        result = timed(workload, seed, int(argv[4]), workdir)
    elif mode == "list":
        result = listed(workload, seed, int(argv[4]), workdir)
    elif mode == "traced":
        result = traced(workload, seed, int(argv[4]), workdir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
