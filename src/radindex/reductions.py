"""Vertex-selection strategies that shrink the set of vertices to inspect.

Covers the involved vertices of zero-relations, overlap analysis on shared
carrier paths, the one-vertex-per-relation representative set, and the
shortest-branch vertex of commutative toupies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoInteriorVertex, NotToupie
from .quiver import (
    COMM,
    BoundQuiver,
    Relation,
    partition,
    path_walk,
    toupie_shape,
)


def relation_text(rel: Relation) -> str:
    if rel.kind == COMM:
        return " * ".join(rel.paths[0]) + " = " + " * ".join(rel.paths[1])
    return " * ".join(rel.path)


def involved_vertices(bq: BoundQuiver, rel: Relation) -> tuple[int, ...]:
    """Vertices x = s(a_i), i >= 2, of a zero-relation a_m ... a_1."""
    q = bq.quiver
    return tuple(sorted({q.arrow(name).source for name in rel.path[:-1]}))


@dataclass(frozen=True)
class VertexSelection:
    strategy: str
    vertices: tuple[int, ...]
    provenance: tuple[tuple[int, str], ...] = ()
    note: str = ""


def zero_relation_vertices(bq: BoundQuiver) -> VertexSelection:
    """The set (R_A)_0 of vertices involved in some zero-relation."""
    prov = []
    for rel in bq.zero_relations():
        for v in involved_vertices(bq, rel):
            prov.append((v, f"involved in zero: {relation_text(rel)}"))
    vertices = tuple(sorted({v for v, _ in prov}))
    note = ""
    if not bq.zero_relations() and bq.relations:
        note = "only commutativity relations; no vertex is involved in a zero-relation"
    return VertexSelection("zero-relation", vertices, tuple(prov), note)


# --------------------------------------------------------------------------
# overlaps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapReport:
    pairs: tuple[tuple[Relation, Relation, tuple[int, ...]], ...]

    def relations_overlapped(self) -> set[Relation]:
        out = set()
        for r1, r2, _ in self.pairs:
            out.add(r1)
            out.add(r2)
        return out


def _walks_overlap(w1: tuple[str, ...], w2: tuple[str, ...]) -> bool:
    """Positions along a shared carrier satisfy s(g1) < s(g2) < e(g1)."""
    # g2 starts strictly inside g1: shared suffix/prefix or containment
    for k in range(1, min(len(w1), len(w2)) + 1):
        if w1[len(w1) - k:] == w2[:k] and 0 < len(w1) - k:
            return True
    for j in range(1, len(w1) - len(w2) + 1):
        if w1[j:j + len(w2)] == w2:
            return True
    return False


def overlap_report(bq: BoundQuiver) -> OverlapReport:
    zeros = bq.zero_relations()
    pairs = []
    for i, r1 in enumerate(zeros):
        for r2 in zeros[i + 1:]:
            w1, w2 = path_walk(r1.path), path_walk(r2.path)
            if _walks_overlap(w1, w2) or _walks_overlap(w2, w1):
                inter = tuple(sorted(
                    set(involved_vertices(bq, r1)) & set(involved_vertices(bq, r2))
                ))
                pairs.append((r1, r2, inter))
    return OverlapReport(tuple(pairs))


def representative_set(bq: BoundQuiver) -> VertexSelection:
    """One vertex per overlap intersection plus one per non-overlapped
    zero-relation, with least-id tie-breaking.

    An overlapped pair that shares no involved vertex contributes the
    involved vertices of both relations.  That rule is measured, not the
    paper's statement: on string algebras it attained the maximum of the
    string-fan r_u over (R_A)_0 on every input checked, while the least or
    the greatest of those vertices alone missed it on some."""
    report = overlap_report(bq)
    overlapped = report.relations_overlapped()
    prov = []
    for r1, r2, inter in report.pairs:
        pair = f"{relation_text(r1)} and {relation_text(r2)}"
        if inter:
            prov.append((min(inter), f"overlap of {pair}"))
            continue
        for v in sorted(set(involved_vertices(bq, r1)) | set(involved_vertices(bq, r2))):
            prov.append((v, f"overlap of {pair}, which share no involved vertex"))
    for rel in bq.zero_relations():
        if rel in overlapped:
            continue
        v = min(involved_vertices(bq, rel))
        prov.append((v, f"zero-relation {relation_text(rel)}"))
    vertices = tuple(sorted({v for v, _ in prov}))
    return VertexSelection("representatives", vertices, tuple(prov))


# --------------------------------------------------------------------------
# toupies
# --------------------------------------------------------------------------

def commutative_toupie_shape(bq: BoundQuiver):
    """(source, sink, branches) of a toupie whose commutativity relations
    identify all full branch paths; raises NotToupie otherwise."""
    shape = toupie_shape(bq.quiver)
    if shape is None:
        raise NotToupie("quiver is not a toupie")
    a, b, branches = shape
    if not bq.relations or any(r.kind != COMM for r in bq.relations):
        raise NotToupie("toupie relations must all be commutativity relations")

    q = bq.quiver
    branch_paths = []
    for interior in branches:
        walk = []
        cur = a
        for v in list(interior) + [b]:
            arrow = next(ar for ar in q.arrows_from(cur) if ar.target == v)
            walk.append(arrow.name)
            cur = v
        branch_paths.append(tuple(reversed(walk)))  # composition order

    for rel in bq.relations:
        if any(p not in branch_paths for p in rel.paths):
            raise NotToupie("commutativity relation is not between full branch paths")
    if len(partition(branch_paths, [rel.paths for rel in bq.relations])) != 1:
        raise NotToupie("commutativity relations do not identify all branches")
    return a, b, branches


def toupie_branch_vertex(bq: BoundQuiver) -> VertexSelection:
    """An interior vertex of a shortest branch of a commutative toupie."""
    a, b, branches = commutative_toupie_shape(bq)
    min_len = min(len(br) for br in branches)
    if min_len == 0:
        raise NoInteriorVertex("a shortest branch has no interior vertex")
    candidates = sorted(
        v for br in branches if len(br) == min_len for v in br
    )
    v = candidates[0]
    prov = ((v, f"interior of a shortest branch (length {min_len})"),)
    return VertexSelection("toupie-shortest-branch", (v,), prov)
