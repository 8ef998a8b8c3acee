"""Check that two source trees of radindex print the same reports and AR
quivers.

    python3 tools/same_output.py OLD_SRC NEW_SRC [--seeds 801 811] [--rounds 1]

OLD_SRC and NEW_SRC are `src` directories, e.g. of a `git archive` of the
parent commit and of the working tree.  Both run `radindex --format machine
index --method POLICY` under every policy, and `radindex dump-ar`, on the
fixtures e1-e4 (default cap), on the corpus inputs in tests/fixtures/glued
(at the cap of their workload), on the first ROUNDS rounds of each seed of the
three benchmark workloads (bench/corpora.py, at the benchmark's caps) and
on RANDOM_PER_ROUND small random quivers per seed and round (cap 300).  The
random quivers may have oriented cycles and carry zero-relations, so they
reach the knit's out-of-scope exits, which the corpora never do.  Each tree
runs in one fresh process.  The tool prints every run whose exit code,
output or error text differs, then how many runs differ in each of the
three, or "same".  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
POLICIES = ("auto", "string", "knit", "formula", "all")
RANDOM_PER_ROUND = 400
RANDOM_CAP = 300


def random_quiver(rng: random.Random):
    """A connected quiver on 2-5 vertices, oriented cycles allowed, with up
    to four zero-relations of length 2 or 3 along it, as the arguments of
    `corpora.quiv_text` after its rng."""
    n = rng.randint(2, 5)
    ends = []
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        ends.append((u, v) if rng.random() < 0.5 else (v, u))
    ends += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 2))]
    arrows = [(f"a{i}", s, t) for i, (s, t) in enumerate(ends, start=1)]
    zeros = set()
    for _ in range(rng.randint(0, 4)):
        name, _, t = rng.choice(arrows)
        walk = [name]
        for _ in range(rng.randint(1, 2)):
            out = [(m, b) for m, s, b in arrows if s == t]
            if not out:
                break
            name, t = rng.choice(out)
            walk.append(name)
        if len(walk) >= 2:
            zeros.add(tuple(walk))
    return n, arrows, sorted(zeros)


def inputs(seeds, n_rounds):
    """(label, cap or None, text) of every input, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpora
    from worker import CAPS

    for name in ("e1", "e2", "e3", "e4"):
        yield name, None, (FIXTURES / f"{name}.quiv").read_text()
    for path in sorted((FIXTURES / "glued").glob("*.quiv")):
        yield f"glued/{path.stem}", CAPS["monotree-wild"], path.read_text()
    for workload in corpora.WORKLOADS:
        for seed in seeds:
            for inst in corpora.corpus(workload, seed, n_rounds):
                yield f"{workload}/{seed}/{inst.name}", CAPS[workload], inst.text
    for seed in seeds:
        rng = random.Random(seed)
        for r in range(n_rounds):
            for i in range(RANDOM_PER_ROUND):
                yield (f"random/{seed}/{r}/{i}", RANDOM_CAP,
                       corpora.quiv_text(None, *random_quiver(rng)))


def side(src: str, seeds, n_rounds) -> None:
    """Print one JSON line [label, command, exit code, stdout, stderr] per
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
            commands = [["--format", "machine", *options, "index", "--method", policy]
                        for policy in POLICIES]
            for command in commands + [[*options, "dump-ar"]]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([*command, str(path)], out=out)
                print(json.dumps([label, " ".join(command), code, out.getvalue(),
                                  err.getvalue()]))


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
    kinds = dict.fromkeys(("exit code", "stdout", "stderr"), 0)
    differing = 0
    for a, b in zip(old, new):
        if a != b:
            differing += 1
            label, command, *old_run = json.loads(a)
            new_run = json.loads(b)[2:]
            print(f"differs: {label}: radindex {command}")
            print("old:", json.dumps(old_run, indent=1))
            print("new:", json.dumps(new_run, indent=1))
            for kind, x, y in zip(kinds, old_run, new_run):
                kinds[kind] += x != y
    if len(old) != len(new):
        print(f"differs: {len(old)} runs against {len(new)}")
        return 1
    if differing:
        print(f"{differing} of {len(old)} runs differ: "
              + ", ".join(f"{n} in {kind}" for kind, n in kinds.items()))
        return 1
    print("same")
    print(f"{len(old)} runs compared", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
