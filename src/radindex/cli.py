"""Command line front end.

Commands: validate, index, explain, crosscheck, dump-ar, dump-strings.
Exit codes: 0 success, 1 mathematical inapplicability, 2 input errors.
Machine output is versioned JSON with sorted keys, so identical input and
configuration produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InputError, RadindexError, Unsupported
from .formulas import POLICIES, route
from .knitting import DEFAULT_CAP, knit, to_dot
from .quiver import classify, parse_bound_quiver, serialize, toupie_shape
from .reductions import (
    overlap_report,
    relation_text,
    representative_set,
    toupie_branch_vertex,
    zero_relation_vertices,
)
from .strings import enumerate_strings


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radindex",
        description="Nilpotency index of the radical of the module category "
        "of a representation-finite bound quiver algebra.",
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="node/string cap before declaring the input "
                        "likely representation-infinite (default %(default)s)")
    parser.add_argument("--format", choices=("human", "machine"), default="human",
                        help="report format (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and re-serialize the input")
    p.add_argument("input")

    p = sub.add_parser("index", help="compute the nilpotency index")
    p.add_argument("input")
    p.add_argument("--method", choices=POLICIES, default="auto")

    p = sub.add_parser("explain", help="print the vertex reductions with provenance")
    p.add_argument("input")

    p = sub.add_parser("crosscheck", help="run every applicable method; "
                                          "exit nonzero on disagreement")
    p.add_argument("input")

    p = sub.add_parser("dump-ar", help="dump the knitted AR quiver as graphviz text")
    p.add_argument("input")

    p = sub.add_parser("dump-strings", help="dump all strings, one per line")
    p.add_argument("input")
    return parser


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_bound_quiver(fh.read())


def _emit_machine(payload: dict, out):
    print(json.dumps(payload, sort_keys=True, indent=2), file=out)


def _print_report(report, fmt, out):
    if fmt == "machine":
        _emit_machine(report.to_dict(), out)
        return
    print(f"r_A = {report.r_value}", file=out)
    for m in report.methods:
        if m.status == "ok":
            print(f"  {m.name}: {m.value}", file=out)
        else:
            print(f"  {m.name}: {m.status} ({m.error})", file=out)
    if report.agreement is not None:
        print(f"  agreement: {'yes' if report.agreement else 'NO'}", file=out)
    if report.per_vertex:
        table = "  ".join(f"{v}:{r}" for v, r in sorted(report.per_vertex.items()))
        print(f"  per-vertex r_a: {table}", file=out)


def _cmd_validate(args, out):
    bq = _load(args.input)
    cls = classify(bq)
    if args.format == "machine":
        _emit_machine(
            {
                "schema": "radindex.validate/1",
                "vertices": len(bq.quiver.vertices),
                "arrows": len(bq.quiver.arrows),
                "relations": len(bq.relations),
                "classification": {
                    "monomial": cls.is_monomial,
                    "tree": cls.is_tree,
                    "string": cls.is_string,
                    "toupie": cls.is_toupie,
                    "hereditary": cls.is_hereditary,
                    "dynkin": None if cls.dynkin is None else f"{cls.dynkin[0]}{cls.dynkin[1]}",
                },
                "canonical": serialize(bq),
            },
            out,
        )
    else:
        print(serialize(bq), end="", file=out)
        print(f"# ok: {len(bq.quiver.vertices)} vertices, {len(bq.quiver.arrows)} arrows, "
              f"{len(bq.relations)} relations", file=out)
    return 0


def _cmd_index(args, out):
    bq = _load(args.input)
    report = route(bq, args.method, args.cap)
    _print_report(report, args.format, out)
    return 0


def _cmd_explain(args, out):
    bq = _load(args.input)
    rz = zero_relation_vertices(bq)
    reps = representative_set(bq)
    lines = []
    ov = overlap_report(bq)
    for r1, r2, inter in ov.pairs:
        lines.append(
            f"overlap: {relation_text(r1)} with {relation_text(r2)} "
            f"at {{{', '.join(map(str, inter))}}}"
        )
    toupie_sel = None
    if toupie_shape(bq.quiver) is not None:
        try:
            toupie_sel = toupie_branch_vertex(bq)
        except RadindexError:
            toupie_sel = None
    if args.format == "machine":
        payload = {
            "schema": "radindex.explain/1",
            "involved": list(rz.vertices),
            "overlaps": [
                {"first": relation_text(r1), "second": relation_text(r2),
                 "intersection": list(inter)}
                for r1, r2, inter in ov.pairs
            ],
            "representatives": list(reps.vertices),
            "provenance": [
                {"vertex": v, "why": note} for v, note in reps.provenance
            ],
            "toupie_vertex": None if toupie_sel is None else toupie_sel.vertices[0],
        }
        _emit_machine(payload, out)
        return 0
    print(f"(R_A)_0 = {{{', '.join(map(str, rz.vertices))}}}", file=out)
    if rz.note:
        print(f"  note: {rz.note}", file=out)
    for line in lines:
        print(line, file=out)
    print(f"S = {{{', '.join(map(str, reps.vertices))}}}", file=out)
    for v, note in reps.provenance:
        print(f"  {v}: {note}", file=out)
    if toupie_sel is not None:
        v, note = toupie_sel.provenance[0]
        print(f"toupie vertex: {v} ({note})", file=out)
    return 0


def _cmd_crosscheck(args, out):
    bq = _load(args.input)
    report = route(bq, "all", args.cap)
    _print_report(report, args.format, out)
    ok = [m for m in report.methods if m.status == "ok"]
    if len(ok) >= 2 and report.agreement is False:
        return 1
    return 0


def _cmd_dump_ar(args, out):
    bq = _load(args.input)
    print(to_dot(knit(bq, args.cap)), end="", file=out)
    return 0


def _cmd_dump_strings(args, out):
    bq = _load(args.input)
    for walk in enumerate_strings(bq, args.cap):
        print(walk.display(), file=out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "index": _cmd_index,
    "explain": _cmd_explain,
    "crosscheck": _cmd_crosscheck,
    "dump-ar": _cmd_dump_ar,
    "dump-strings": _cmd_dump_strings,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Unsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 1
    except RadindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
