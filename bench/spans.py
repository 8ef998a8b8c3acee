"""The traced pass: each instance through the program's modules in pipeline
order, with a span around every call from this file into a module.

A span is (name, start, end, parent, instance id); spans stay in memory and
are handed back at the end of the pass.  The pass ends with the warm CLI
command, whose call to `route` is wrapped so that the router's time
(formulas.route) and the CLI's own report time (cli.report) separate.
"""

from __future__ import annotations

import contextlib
import io
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.instance = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.instance]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def traced_pass(cli, cap: int, batch, argv) -> dict:
    """Run `batch`, a list of (instance, path); `argv(path)` is the CLI
    command.  Returns the spans, the layer counts and the CLI outputs."""
    from radindex import formulas, knitting, pathspace, quiver, reductions, strings
    from radindex.errors import CapExceeded, RadindexError

    tracer = Tracer()
    counts = {"pathspace.dim_total": 0, "knitting.nodes": 0, "knitting.cap_hits": 0,
              "knitting.wasted_nodes": 0, "strings.count": 0, "reductions.errors": 0}
    outputs = []
    untraced_route = cli.route

    def traced_route(*args, **kwargs):
        with tracer.span("formulas.route"):
            return untraced_route(*args, **kwargs)

    cli.route = traced_route
    try:
        for iid, (_, path) in enumerate(batch):
            tracer.instance = iid
            with tracer.span("instance"):
                with tracer.span("quiver.parse"):
                    with open(path, encoding="utf-8") as fh:
                        bq = quiver.parse_bound_quiver(fh.read())
                with tracer.span("quiver.classify"):
                    cls = quiver.classify(bq)

                with tracer.span("pathspace.bases"):
                    try:
                        for a in bq.quiver.vertices:
                            counts["pathspace.dim_total"] += pathspace.dim_projective(bq, a).total()
                            pathspace.dim_injective(bq, a)
                            pathspace.radical_summands(bq, a)
                    except RadindexError:
                        pass

                ar, nodes = None, 0
                with tracer.span("knitting.knit"):
                    try:
                        ar = knitting.knit(bq, cap)
                        nodes = ar.node_count()
                    except CapExceeded:
                        counts["knitting.cap_hits"] += 1
                        nodes = cap
                    except RadindexError:
                        pass
                counts["knitting.nodes"] += nodes
                with tracer.span("knitting.readout"):
                    if ar is not None:
                        try:
                            knitting.nilpotency_knit(bq, cap, ar=ar)
                        except RadindexError:
                            pass

                if cls.is_string and bq.zero_relations():  # as the router decides
                    with tracer.span("strings.enumerate"):
                        try:
                            counts["strings.count"] += len(strings.enumerate_strings(bq))
                        except RadindexError:
                            pass
                    with tracer.span("strings.fans"):
                        try:
                            strings.nilpotency_string(bq)
                        except RadindexError:
                            pass

                with tracer.span("reductions"):
                    reductions.zero_relation_vertices(bq)
                    reductions.overlap_report(bq)
                    try:
                        reductions.representative_set(bq)
                    except ValueError:
                        # Relations that share one arrow count as overlapped
                        # with no common involved vertex; min() of nothing.
                        counts["reductions.errors"] += 1

                with tracer.span("formulas.closed_forms"):
                    if cls.dynkin is not None:
                        formulas.hereditary_index(cls.dynkin)
                    closed_forms = [formulas.toupie_index,
                                    lambda b: formulas.glued_index(b, cap)]
                    if ar is not None:  # the pullback test reads the shared AR quiver
                        closed_forms.append(lambda b: formulas.pullback_index(b, cap, ar=ar))
                    for form in closed_forms:
                        try:
                            form(bq)
                        except RadindexError:
                            pass

                out = io.StringIO()
                with tracer.span("cli.report"), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv(path), out=out)
            outputs.append((code, out.getvalue()))
            if code != 0:
                counts["knitting.wasted_nodes"] += nodes
    finally:
        cli.route = untraced_route
    return {"spans": tracer.spans, "counts": counts, "outputs": outputs}
