"""Check that two source trees of radindex print the same index reports.

    python3 tools/same_output.py OLD_SRC NEW_SRC [--seeds 801 811] [--rounds 1]

OLD_SRC and NEW_SRC are `src` directories, e.g. of a `git archive` of the
parent commit and of the working tree.  Both run `radindex --format machine
index --method POLICY` under every policy on the fixtures e1-e4 (default
cap) and on the first ROUNDS rounds of each seed of the three benchmark
workloads (bench/corpora.py, at the benchmark's caps).  Each tree runs in
one fresh process.  The tool prints the first run whose exit code, report
or error text differs, or "same".  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
POLICIES = ("auto", "string", "knit", "formula", "all")


def inputs(seeds, n_rounds):
    """(label, cap or None, text) of every input, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpora
    from worker import CAPS

    for name in ("e1", "e2", "e3", "e4"):
        yield name, None, (FIXTURES / f"{name}.quiv").read_text()
    for workload in corpora.WORKLOADS:
        for seed in seeds:
            for inst in corpora.corpus(workload, seed, n_rounds):
                yield f"{workload}/{seed}/{inst.name}", CAPS[workload], inst.text


def side(src: str, seeds, n_rounds) -> None:
    """Print one JSON line [label, policy, exit code, stdout, stderr] per
    run of radindex from `src`."""
    sys.path.insert(0, str(Path(src).resolve()))
    from radindex import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"radindex was not imported from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, cap, text) in enumerate(inputs(seeds, n_rounds)):
            path = Path(tmp) / f"{i}.quiv"
            path.write_text(text)
            options = [] if cap is None else ["--cap", str(cap)]
            for policy in POLICIES:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main(["--format", "machine", *options, "index",
                                     "--method", policy, str(path)], out=out)
                print(json.dumps([label, policy, code, out.getvalue(), err.getvalue()]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[801, 811])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:  # the worker: old_src is the tree to run
        side(args.old_src, args.seeds, args.rounds)
        return 0

    options = ["--seeds", *map(str, args.seeds), "--rounds", str(args.rounds)]
    procs = [subprocess.Popen([sys.executable, __file__, "--side", src, "-", *options],
                              stdout=subprocess.PIPE, text=True)
             for src in (args.old_src, args.new_src)]
    old, new = (proc.communicate()[0].splitlines() for proc in procs)
    if any(proc.returncode for proc in procs):
        print("a side failed to run", file=sys.stderr)
        return 2
    for a, b in zip(old, new):
        if a != b:
            label, policy, *old_run = json.loads(a)
            print(f"differs: {label} --method {policy}")
            print("old:", json.dumps(old_run, indent=1))
            print("new:", json.dumps(json.loads(b)[2:], indent=1))
            return 1
    if len(old) != len(new):
        print(f"differs: {len(old)} runs against {len(new)}")
        return 1
    print("same")
    print(f"{len(old)} runs compared", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
