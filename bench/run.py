"""radindex benchmark: seeded corpora through `radindex index --method all`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m pytest bench          # the benchmark's own tests

Run from the root of a checkout; the program is imported from its `src`.
Workloads and their inputs are described in corpora.py.

`--trace 0` gives the end-to-end metrics.  Fresh worker processes run one
after another (so the program's caches start cold in each), each a closed
loop, one instance after the other, over a fixed number of rounds of its own
stream of the seeded corpus, until the instances have taken S seconds.
Latencies are pooled over the workers; peak RSS is the median over them.
Set-up time (from the start of a worker to its inputs being ready) is the
median over the timed workers and set-up-only ones, SETUPS at least.  These
times are scaled by the machine's speed, sampled between instances
(speed.py), so that the figures of runs on a shared host agree; the unscaled
figures are printed as well.  On monotree-wild the latencies are taken on a
fixed share of abstentions (ABSTAIN_SHARE).

`--trace 1` gives the per-layer metrics from a fixed list of instances (the
first LIST_ROUNDS rounds of stream 0), so that counts repeat exactly: one
fresh process runs the list untraced, a second runs it stage by stage with
spans (spans.py), ending with the CLI command itself on warm caches.  The
stages repeat work that the untraced command does once, so "overhead" (the
traced total minus the untraced total) includes that repetition as well as
the cost of the spans.  The spans are written to
bench/out/trace-<workload>-<seed>.json, and the SHA-256 digest of the
untraced machine reports is printed, so that a refactor can show
byte-identical output.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Exit code
0 means the benchmark ran; a checkout without the program, a crashed
worker or a run past its time limit exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import corpora
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

WORKLOADS = corpora.WORKLOADS
# Set-ups per run, at least: those of the timed workers and set-up-only ones.
SETUPS = 7
# Rounds of stream 0 in the traced run's fixed list.
LIST_ROUNDS = {"monotree-wild": 3, "dynkin-long": 2, "string-comm": 40}
# The tail latency is this percentile, or a lower one where that leaves fewer
# than TAIL_BEYOND samples beyond it.  Higher percentiles, such as the highest
# with ten samples beyond it on the thousands of string-comm instances, move
# with the few heaviest instances a seed draws by more than the bound.
TAIL_PERCENTILE = 95
TAIL_BEYOND = 10
# The latencies are taken on a fixed mix: instances that abstain (exit code 1)
# weigh this share, the others the rest.  About 27% of the monotree-wild
# candidates are representation-infinite and abstain, each costing some 60
# times an indexed one; the share a seed draws moves by a tenth from seed to
# seed, and the plain rate and median with it.  Elsewhere, and where no
# instance or every instance abstains, all instances weigh the same.
ABSTAIN_SHARE = {"monotree-wild": 0.27}
# Every run ends within this many seconds, or fails.
TIME_LIMIT = 170.0

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# Stage spans, reported as mean self time per instance.  What each layer
# should move, and where:
#   quiver                instances_per_s on string-comm (many small instances)
#   pathspace             latency_p50_ms on dynkin-long; instances_per_s on string-comm
#   knitting, knit loop   latency_tail_ms and instances_per_s on monotree-wild
#   knitting, readout     latency_tail_ms on dynkin-long
#   strings               instances_per_s on string-comm
#   reductions            latency_p50_ms on string-comm
#   formulas              instances_per_s on string-comm and monotree-wild
#   cli                   latency_p50_ms on string-comm
LAYER_SPANS = {
    "quiver.parse": "quiver.parse_ms",
    "quiver.classify": "quiver.classify_ms",
    "pathspace.bases": "pathspace.bases_ms",
    "knitting.knit": "knitting.knit_ms",
    "knitting.readout": "knitting.readout_ms",
    "strings.enumerate": "strings.enumerate_ms",
    "strings.fans": "strings.fans_ms",
    "reductions": "reductions.ms",
    "formulas.closed_forms": "formulas.closed_forms_ms",
    "formulas.route": "formulas.route_ms",
    "cli.report": "cli.report_ms",
}
PER_LAYER = {
    **{metric: "ms" for metric in LAYER_SPANS.values()},
    "pathspace.dim_total": "count",
    "knitting.nodes": "count",
    "knitting.cap_hits": "count",
    "knitting.wasted_node_frac": "fraction",
    "strings.count": "count",
    "reductions.errors": "count",
    "trace.overhead_ms": "ms",
    "trace.unattributed_ms": "ms",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts workers one at a time, all within one deadline, each with a
    fresh directory for its inputs under `workdir`."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + TIME_LIMIT

    def spawn(self, *args) -> tuple[dict, float]:
        """Run one worker to completion: (its result, its set-up seconds)."""
        inputs = tempfile.mkdtemp(dir=self.workdir)
        cmd = [sys.executable, str(WORKER), args[0], self.workload, str(self.seed), inputs,
               *map(str, args[1:])]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args} passed the {TIME_LIMIT:.0f} s limit")
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        return result, result["ready"] - start


def mix_weights(codes: list, abstain_share) -> list[float]:
    """The weight of each instance in the fixed mix, summing to 1."""
    n = len(codes)
    abstained = codes.count(1)
    if abstain_share is None or abstained in (0, n):
        return [1 / n] * n
    return [abstain_share / abstained if code == 1 else (1 - abstain_share) / (n - abstained)
            for code in codes]


def percentile(latencies: list[float], weights: list[float], q: float,
               beyond: int = 0) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the first latency, in sorted
    order, at which the weights add up to `q`, or an earlier one that leaves
    `beyond` samples beyond it; the maximum if there are too few samples."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    last = len(order) - 1 - beyond if len(order) > beyond else len(order) - 1
    total = 0.0
    for i, j in enumerate(order):
        total += weights[j]
        if total >= q - 1e-12 or i == last:
            return latencies[j], 100 * total, len(order) - 1 - i


def rate(latencies: list[float], weights: list[float]) -> float:
    """Instances per second on the mix the weights give."""
    return 1 / sum(w * t for w, t in zip(weights, latencies))


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus that of the children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), seconds in zip(spans, own):
        totals[name] += seconds
    return totals


def print_failures(failures):
    for f in failures[:20]:
        long = (f" (directed path of {f['longest_path']} arrows)"
                if f["longest_path"] > corpora.ADMISSIBILITY_CAP else "")
        print(f"  failed {f['name']}{long}: {'; '.join(f['reasons'])}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more")


def scaled_setup(result: dict, raw: float) -> float:
    return raw * speed.NOMINAL_KERNEL_S / statistics.median(result["setup_kernel_s"])


def end_to_end(runner: Runner, seconds: float):
    results, busy = [], 0.0
    while busy < seconds:
        results.append(runner.spawn("timed", len(results)))
        busy += sum(results[-1][0]["latencies"])
    setups = [runner.spawn("setup") for _ in range(SETUPS - len(results))]
    setup_s = [scaled_setup(r, raw) for r, raw in setups + results]
    latencies = [t for r, _ in results
                 for t in speed.scale(zip(r["starts"], r["latencies"]), r["kernel"])]
    raw = [t for r, _ in results for t in r["latencies"]]
    names = [name for r, _ in results for name in r["names"]]
    codes = [code for r, _ in results for code in r["codes"]]
    failures = [f for r, _ in results for f in r["failures"]]
    share = ABSTAIN_SHARE.get(runner.workload)
    weights = mix_weights(codes, share)
    n = len(latencies)
    tail_value, tail_pct, beyond = percentile(latencies, weights, TAIL_PERCENTILE / 100,
                                              TAIL_BEYOND)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "instances_per_s": rate(latencies, weights),
        "latency_p50_ms": 1000 * percentile(latencies, weights, 0.5)[0],
        "latency_tail_ms": 1000 * tail_value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in results),
    }
    print(f"{runner.workload} seed {runner.seed}: {n} instances by {len(results)} fresh workers "
          f"in {sum(raw):.1f} s of instance time ({sum(latencies):.1f} s scaled)")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  latency_tail_ms is p{tail_pct:.2f} of {n} samples ({beyond} beyond it); "
          f"setup_s is the median of "
          f"{len(setup_s)} set-ups and peak_rss_mb of {len(results)} workers")
    if share is not None:
        plain = [1 / n] * n
        print(f"  the latencies are taken on a mix of {100 * share:.0f}% abstentions; "
              f"{100 * codes.count(1) / n:.1f}% of these {n} abstained, and on them "
              f"instances_per_s is {rate(latencies, plain):.6g}, latency_p50_ms "
              f"{1000 * percentile(latencies, plain, 0.5)[0]:.6g}")
    print(f"  unscaled: instances_per_s {rate(raw, weights):.6g}, latency_p50_ms "
          f"{1000 * percentile(raw, weights, 0.5)[0]:.6g}, latency_tail_ms "
          f"{1000 * percentile(raw, weights, TAIL_PERCENTILE / 100, TAIL_BEYOND)[0]:.6g}, "
          f"setup_s {statistics.median(t for _, t in setups + results):.6g}; the speed kernel "
          f"took {1000 * statistics.median(s for r, _ in results for _, s in r['kernel']):.4g} "
          f"ms a call (median), against {1000 * speed.NOMINAL_KERNEL_S:.4g} ms nominal")
    slowest = sorted(zip(latencies, names), reverse=True)[:5]
    print("  slowest: " + ", ".join(f"{name} {1000 * t:.0f} ms" for t, name in slowest))
    print(f"  failed_frac = {len(failures) / n:.6g} ({len(failures)} of {n})")
    print_failures(failures)
    wrong = sum(r["wrong"] for r, _ in results)
    return wrong == 0, n, len(failures), metrics, END_TO_END


def per_layer(runner: Runner):
    n_rounds = LIST_ROUNDS[runner.workload]
    base, _ = runner.spawn("list", n_rounds)
    traced, _ = runner.spawn("traced", n_rounds)
    spans = traced["spans"]
    n = len(base["latencies"])
    own = self_times(spans)
    traced_total = sum(end - start for name, start, end, _, _ in spans if name == "instance")
    untraced_total = sum(base["latencies"])
    counts = traced["counts"]
    metrics = {metric: 1000 * own.get(name, 0.0) / n for name, metric in LAYER_SPANS.items()}
    metrics.update({name: counts[name] for name in PER_LAYER if name in counts})
    metrics.update({
        "knitting.wasted_node_frac":
            counts["knitting.wasted_nodes"] / counts["knitting.nodes"]
            if counts["knitting.nodes"] else 0.0,
        "trace.overhead_ms": 1000 * (traced_total - untraced_total) / n,
        "trace.unattributed_ms": 1000 * own["instance"] / n,
    })
    out = BENCH / "out" / f"trace-{runner.workload}-{runner.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "instance"],
                               "spans": spans}))

    same_output = traced["digest"] == base["digest"]
    print(f"{runner.workload} seed {runner.seed}: {n} instances ({n_rounds} rounds of stream 0), "
          f"traced {1000 * traced_total / n:.6g} ms and untraced "
          f"{1000 * untraced_total / n:.6g} ms per instance")
    for name, unit in PER_LAYER.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  layer self times leave {metrics['trace.unattributed_ms']:.6g} ms per instance "
          f"unattributed, against {metrics['trace.overhead_ms']:.6g} ms of tracing overhead")
    print(f"  digest sha256:{base['digest']} over the machine reports of the {n} instances")
    if not same_output:
        print("  the warm CLI run in the traced pass printed other reports than the cold run")
    print(f"  failed_frac = {len(base['failures']) / n:.6g} ({len(base['failures'])} of {n})")
    print_failures(base["failures"])
    print(f"  spans written to {out.relative_to(ROOT)}")
    correct = base["wrong"] == 0 and same_output
    return correct, n, len(base["failures"]), metrics, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "radindex" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'radindex'} is missing", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        if args.trace:
            correct, attempted, failed, metrics, units = per_layer(runner)
        else:
            correct, attempted, failed, metrics, units = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
