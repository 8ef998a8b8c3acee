"""Closed-form index computations and the method router.

Implements the hereditary table, the commutative-toupie formulas, the
single-relation pullback decomposition with its middle-subcategory test,
recognition of the published always-applicable families, the glued
multi-relation maximum, and a router that cross-validates methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    FormulaInapplicable,
    NotSingleRelationTree,
    OverlappedRelations,
    RadindexError,
    RepresentationInfinite,
    ShapeMismatch,
    Unsupported,
)
from .knitting import (
    DEFAULT_CAP,
    ARQuiver,
    knit,
    nilpotency_knit,
    reach,
    sectional_path_exists,
)
from .pathspace import radical_summands, top_of_injective_summands
from .quiver import (
    COMM,
    BoundQuiver,
    Relation,
    classify,
    component_vertices,
    dynkin_type,
    full_subquiver,
    relation_vertices,
    underlying_tree,
)
from .reductions import (
    commutative_toupie_shape,
    overlap_report,
    toupie_branch_vertex,
)
from .strings import nilpotency_string

_HEREDITARY = {"E6": 11, "E7": 17, "E8": 29}


def hereditary_index(dynkin: tuple[str, int]) -> int:
    """Index of a representation-finite hereditary algebra by type:
    A_n -> n, D_n -> 2n-3, E6/E7/E8 -> 11/17/29."""
    family, n = dynkin
    if family == "A" and n >= 1:
        return n
    if family == "D" and n >= 4:
        return 2 * n - 3
    if family == "E" and n in (6, 7, 8):
        return _HEREDITARY[f"E{n}"]
    raise ValueError(f"not a Dynkin type: {dynkin}")


# --------------------------------------------------------------------------
# pullback decomposition of a single-relation tree
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PullbackSplit:
    """Hereditary parts of a single-relation tree.

    a1 is the maximal connected hereditary part containing the source of
    the relation (the last relation arrow deleted), a2 the part containing
    its target (the first arrow deleted), core their intersection."""

    a1: BoundQuiver
    a2: BoundQuiver
    core: BoundQuiver
    relation: Relation


def _single_zero_relation(bq: BoundQuiver) -> Relation:
    zeros = bq.zero_relations()
    if len(zeros) != 1 or not bq.is_monomial() or not underlying_tree(bq.quiver):
        raise NotSingleRelationTree(
            "pullback decomposition needs a monomial tree with exactly one zero-relation"
        )
    return zeros[0]


def pullback_split(bq: BoundQuiver) -> PullbackSplit:
    rel = _single_zero_relation(bq)
    q = bq.quiver
    first, last = rel.path[-1], rel.path[0]  # composition order: first applied is rightmost
    rv = relation_vertices(q, rel)

    a1_verts = component_vertices(q, rv[0], dropped_arrows=[last])
    a2_verts = component_vertices(q, rv[-1], dropped_arrows=[first])
    core_verts = component_vertices(q, rv[1], dropped_arrows=[first, last])

    a1 = full_subquiver(bq, a1_verts, dropped_arrows=[last])
    a2 = full_subquiver(bq, a2_verts, dropped_arrows=[first])
    core = full_subquiver(bq, core_verts, dropped_arrows=[first, last])
    if not (core_verts <= a1_verts and core_verts <= a2_verts):
        raise NotSingleRelationTree("relation interior does not sit in both parts")
    return PullbackSplit(a1, a2, core, rel)


def _pred_succ(split: PullbackSplit, ar: ARQuiver) -> tuple[set[int], set[int]]:
    """(Pred(DA'), Succ(C')): the node ids below an injective of an
    a2-only vertex and above a projective of an a1-only vertex."""
    core_verts = set(split.core.quiver.vertices)
    a1_only = set(split.a1.quiver.vertices) - core_verts
    a2_only = set(split.a2.quiver.vertices) - core_verts
    idx = reach(ar)
    c_nodes = idx.succ_of(ar.projective(i).ident for i in sorted(a1_only))
    a_nodes = idx.pred_of(ar.injective(i).ident for i in sorted(a2_only))
    return a_nodes, c_nodes


def b_nonempty(bq: BoundQuiver, split: PullbackSplit, ar: ARQuiver) -> bool:
    """True iff some indecomposable lies outside Pred(injectives of the
    a2-only vertices) and Succ(projectives of the a1-only vertices)."""
    a_nodes, c_nodes = _pred_succ(split, ar)
    return len(a_nodes | c_nodes) < len(ar.nodes)


def a_cap_c_empty(bq: BoundQuiver, split: PullbackSplit, ar: ARQuiver) -> bool:
    """Whether Pred(DA') and Succ(C') are disjoint on the knitted quiver."""
    a_nodes, c_nodes = _pred_succ(split, ar)
    return not (a_nodes & c_nodes)


def sectional_criterion(bq: BoundQuiver, split: PullbackSplit, ar: ARQuiver) -> bool:
    """Sectional path from a summand of rad P_a to a summand of
    I_b / soc I_b, where a and b are the relation endpoints."""
    rv = relation_vertices(bq.quiver, split.relation)
    a, b = rv[0], rv[-1]
    sources = {ar.locate(dv).ident for dv in radical_summands(bq, a)}
    targets = {ar.locate(dv).ident for dv in top_of_injective_summands(bq, b)}
    return sectional_path_exists(ar, sources, targets)


# --------------------------------------------------------------------------
# family recognition
# --------------------------------------------------------------------------

def _hanging_subtrees(bq: BoundQuiver, v: int, exclude: set[int]) -> list[set[int]]:
    """Underlying components hanging off v, ignoring neighbors in exclude."""
    q = bq.quiver
    at_v = [a.name for a in q.arrows_from(v) + q.arrows_into(v)]
    return [component_vertices(q, w, dropped_arrows=at_v)
            for w in sorted(q.neighbors(v) - exclude)]


def _is_end_attached_path(bq: BoundQuiver, subtree: set[int], attach_neighbor: int) -> bool:
    """Is the hanging subtree a path entered at one of its endpoints?"""
    q = bq.quiver
    degrees = {v: 0 for v in subtree}
    for a in q.arrows:
        if a.source in subtree and a.target in subtree:
            degrees[a.source] += 1
            degrees[a.target] += 1
    if any(d > 2 for d in degrees.values()):
        return False
    return degrees[attach_neighbor] <= 1


def family_match(bq: BoundQuiver) -> Optional[str]:
    """Which published always-applicable family the shape matches, if any.

    Tags: Ejemplos1..4 (core of type A), InterDn1/2 (pendant vertex deep in
    the relation, m >= 4), CoreE6 (core of type E6, m >= 3)."""
    rel = _single_zero_relation(bq)
    q = bq.quiver
    rv = relation_vertices(q, rel)
    m = len(rv) - 1
    interior_branches = {}
    for i in range(1, m):
        subs = _hanging_subtrees(bq, rv[i], exclude={rv[i - 1], rv[i + 1]})
        if subs:
            interior_branches[i] = subs

    if not interior_branches:
        return "Ejemplos1"

    def single_pendant(i):
        return (
            list(interior_branches) == [i]
            and len(interior_branches[i]) == 1
            and len(interior_branches[i][0]) == 1
        )

    def single_path_branch(i):
        if list(interior_branches) != [i] or len(interior_branches[i]) != 1:
            return False
        subtree = interior_branches[i][0]
        (neigh,) = q.neighbors(rv[i]) & subtree  # a tree meets each hanging subtree once
        return _is_end_attached_path(bq, subtree, neigh)

    ends_bare = not _hanging_subtrees(bq, rv[0], exclude={rv[1]}) and not _hanging_subtrees(
        bq, rv[m], exclude={rv[m - 1]}
    )
    if (
        m >= 3
        and ends_bare
        and sorted(interior_branches) == [1, m - 1]
        and all(len(subs) == 1 and len(subs[0]) == 1 for subs in interior_branches.values())
    ):
        return "Ejemplos4"
    if m >= 4 and single_pendant(2):
        return "InterDn1"
    if m >= 4 and single_pendant(m - 2):
        return "InterDn2"
    if single_path_branch(1):
        return "Ejemplos2"
    if single_path_branch(m - 1):
        return "Ejemplos3"
    if m >= 3 and dynkin_type(pullback_split(bq).core.quiver) == ("E", 6):
        return "CoreE6"
    return None


# --------------------------------------------------------------------------
# index fragments
# --------------------------------------------------------------------------

@dataclass
class PullbackIndex:
    value: int
    part_values: dict[str, int]
    part_types: dict[str, Optional[tuple[str, int]]]
    applicable: bool
    family: Optional[str]
    sectional: bool
    split: PullbackSplit


def _part_index(part: BoundQuiver, cap: int) -> tuple[int, Optional[tuple[str, int]]]:
    dk = dynkin_type(part.quiver) if not part.relations else None
    if dk is not None:
        return hereditary_index(dk), dk
    return nilpotency_knit(part, cap).value, dk


def pullback_index(bq: BoundQuiver, cap: int = DEFAULT_CAP,
                   ar: Optional[ARQuiver] = None) -> PullbackIndex:
    """r(a1) + r(a2) - r(core), valid when the middle subcategory is
    nonempty; otherwise FormulaInapplicable carries both the naive value
    and the knitting fallback."""
    split = pullback_split(bq)
    r1, t1 = _part_index(split.a1, cap)
    r2, t2 = _part_index(split.a2, cap)
    rc, tc = _part_index(split.core, cap)
    naive = r1 + r2 - rc
    if ar is None:
        ar = knit(bq, cap)
    family = family_match(bq)
    sect = sectional_criterion(bq, split, ar)
    parts = {"a1": r1, "a2": r2, "core": rc}
    types = {"a1": t1, "a2": t2, "core": tc}
    if b_nonempty(bq, split, ar):
        return PullbackIndex(naive, parts, types, True, family, sect, split)
    fallback = nilpotency_knit(bq, cap, ar=ar).value
    raise FormulaInapplicable(
        f"middle subcategory empty; naive formula value {naive}, true index {fallback}",
        naive_value=naive,
        fallback_value=fallback,
        parts=parts,
        family=family,
        sectional=sect,
    )


@dataclass
class ToupieIndex:
    value: int
    branch_lengths: tuple[int, ...]
    vertex: int


def toupie_index(bq: BoundQuiver) -> ToupieIndex:
    """Two branches: n1 + 2 n2 + 2 (n1 <= n2).  Three branches: twice the
    index of the star left after deleting the source, minus one."""
    a, b, branches = commutative_toupie_shape(bq)
    ns = tuple(sorted(len(br) for br in branches))
    vertex = toupie_branch_vertex(bq).vertices[0]
    if len(branches) > 3:
        raise RepresentationInfinite("a commutative toupie with more than three branches")
    if len(branches) == 3:
        if ns[0] >= 2:
            raise RepresentationInfinite(
                "three-branch commutative toupie with every branch of interior length >= 2"
            )
        star = full_subquiver(bq, set(bq.quiver.vertices) - {a})
        dk = dynkin_type(star.quiver)
        if dk is None:
            raise RepresentationInfinite("branch star is not of Dynkin type")
        return ToupieIndex(2 * hereditary_index(dk) - 1, ns, vertex)
    n1, n2 = ns
    return ToupieIndex(n1 + 2 * n2 + 2, ns, vertex)


@dataclass
class GluedIndex:
    value: int
    blocks: list[dict]


def glued_index(bq: BoundQuiver, cap: int = DEFAULT_CAP) -> GluedIndex:
    """Maximum of the per-block indices for trees glued from single-relation
    blocks along a spine of non-overlapped zero-relations."""
    zeros = bq.zero_relations()
    if len(zeros) < 2 or not bq.is_monomial() or not underlying_tree(bq.quiver):
        raise ShapeMismatch("glued formula needs a monomial tree with >= 2 zero-relations")
    if overlap_report(bq).pairs:
        raise OverlappedRelations("glued formula needs pairwise non-overlapped relations")

    q = bq.quiver
    rel_vertices = [relation_vertices(q, rel) for rel in zeros]
    spine = _spanning_path({v for rv in rel_vertices for v in rv}, q)
    if spine is None:
        raise ShapeMismatch("relation zones do not lie on a single spine path")
    positions = {v: i for i, v in enumerate(spine)}

    spans = [(positions[rv[0]], positions[rv[-1]]) for rv in rel_vertices]
    if all(s > e for s, e in spans):
        spans = [(-s, -e) for s, e in spans]  # mirrored: read the spine the other way
    elif not all(s < e for s, e in spans):
        raise ShapeMismatch("relations are not consistently oriented along the spine")

    order = sorted(range(len(zeros)), key=lambda i: spans[i][0])
    for i, j in zip(order, order[1:]):
        if spans[i][1] > spans[j][0]:
            raise ShapeMismatch("relation zones interleave along the spine")

    blocks = []
    value = None
    for pos, i in enumerate(order):
        drops = []
        if pos > 0:
            drops.append(zeros[order[pos - 1]].path[-1])  # first arrow of the previous relation
        if pos < len(order) - 1:
            drops.append(zeros[order[pos + 1]].path[0])  # last arrow of the next relation
        verts = component_vertices(q, rel_vertices[i][0], dropped_arrows=drops)
        block = full_subquiver(bq, verts, dropped_arrows=drops)
        if block.zero_relations() != (zeros[i],):
            raise ShapeMismatch("block does not isolate exactly its own relation")
        entry = {"vertices": list(block.quiver.vertices)}
        try:
            frag = pullback_index(block, cap)
            entry["value"] = frag.value
            entry["method"] = "pullback"
        except FormulaInapplicable as exc:
            entry["value"] = exc.fallback_value
            entry["method"] = "knit-fallback"
            entry["naive_value"] = exc.naive_value
        blocks.append(entry)
        value = entry["value"] if value is None else max(value, entry["value"])
    return GluedIndex(value, blocks)


def _spanning_path(targets: set[int], q) -> Optional[list[int]]:
    """The tree path between the two targets farthest apart, or None unless
    it holds every target (it is then the least subtree spanning them)."""

    def farthest(start: int) -> list[int]:
        """The path from a target farthest from `start` back to `start`."""
        parent = {start: None}
        order = [start]
        for v in order:  # breadth first, so by distance from start
            for w in q.neighbors(v) - parent.keys():
                parent[w] = v
                order.append(w)
        path = [next(v for v in reversed(order) if v in targets)]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    spine = farthest(farthest(min(targets))[0])
    return spine if targets <= set(spine) else None


# --------------------------------------------------------------------------
# the method router
# --------------------------------------------------------------------------

POLICIES = ("auto", "string", "knit", "formula", "all")


@dataclass
class MethodResult:
    name: str
    status: str  # "ok" | "inapplicable" | "error"
    value: Optional[int] = None
    error: Optional[str] = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.value is not None:
            out["value"] = self.value
        if self.error is not None:
            out["error"] = self.error
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class IndexReport:
    policy: str
    r_value: Optional[int]
    methods: list[MethodResult]
    agreement: Optional[bool]
    per_vertex: dict[int, int] = field(default_factory=dict)
    vertices_used: tuple[int, ...] = ()

    SCHEMA = "radindex.report/1"

    def method(self, name: str) -> Optional[MethodResult]:
        for m in self.methods:
            if m.name == name:
                return m
        return None

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "policy": self.policy,
            "r": self.r_value,
            "agreement": self.agreement,
            "vertices_used": list(self.vertices_used),
            "per_vertex_r": {str(v): r for v, r in sorted(self.per_vertex.items())},
            "methods": [m.to_dict() for m in self.methods],
        }


def _dynkin_str(dk) -> Optional[str]:
    return None if dk is None else f"{dk[0]}{dk[1]}"


def _hereditary(bq, cap, ar):
    dk = classify(bq).dynkin
    if dk is None:
        raise RepresentationInfinite("hereditary but not of Dynkin type: representation-infinite")
    return hereditary_index(dk), {"dynkin": _dynkin_str(dk)}


def _toupie(bq, cap, ar):
    frag = toupie_index(bq)
    return frag.value, {"branch_lengths": list(frag.branch_lengths), "vertex": frag.vertex}


def _pullback(bq, cap, ar):
    frag = pullback_index(bq, cap, ar=ar())
    return frag.value, {
        "parts": frag.part_values,
        "part_types": {k: _dynkin_str(t) for k, t in frag.part_types.items()},
        "b_nonempty": True,
        "family": frag.family,
        "sectional": frag.sectional,
    }


def _glued(bq, cap, ar):
    frag = glued_index(bq, cap)
    return frag.value, {"blocks": frag.blocks}


def _string(bq, cap, ar):
    frag = nilpotency_string(bq, cap)
    return frag.value, {
        "per_vertex": {str(v): r for v, r in sorted(frag.per_vertex.items())},
        "vertices_used": list(frag.vertices_used),
    }


def _knit(bq, cap, ar):
    frag = nilpotency_knit(bq, cap, ar=ar())
    return frag.value, {
        "per_vertex": {str(v): r for v, r in sorted(frag.per_vertex.items())},
        "vertices_used": list(frag.vertices_used),
        "nodes": frag.ar.node_count(),
    }


# Each method maps (bq, cap, ar) to (value, detail) or raises a
# RadindexError; ar() returns the algebra's AR quiver, knitted once per route.
_METHODS = {
    "hereditary_table": _hereditary,
    "toupie_formula": _toupie,
    "pullback_formula": _pullback,
    "glued_formula": _glued,
    "string_fans": _string,
    "knit": _knit,
}


def _applicable_methods(bq):
    cls = classify(bq)
    zeros = bq.zero_relations()
    methods = []
    if cls.is_hereditary:
        methods.append("hereditary_table")
    if cls.is_toupie and bq.relations and all(r.kind == COMM for r in bq.relations):
        methods.append("toupie_formula")
    if cls.is_monomial and cls.is_tree and len(zeros) == 1:
        methods.append("pullback_formula")
    if cls.is_monomial and cls.is_tree and len(zeros) >= 2:
        methods.append("glued_formula")
    if cls.is_string and zeros:
        methods.append("string_fans")
    methods.append("knit")
    return methods


def _candidates(bq: BoundQuiver, policy: str) -> list[str]:
    """The methods that `policy` tries, in order: auto and all try every
    applicable method, formula the applicable closed forms, knit and string
    their one method."""
    applicable = _applicable_methods(bq)
    return {
        "auto": applicable,
        "all": applicable,
        "formula": [name for name in applicable if name not in ("string_fans", "knit")],
        "knit": ["knit"],
        "string": ["string_fans"],
    }[policy]


def route(bq: BoundQuiver, policy: str = "auto", cap: int = DEFAULT_CAP) -> IndexReport:
    """Run the candidate methods of `policy` until one gives a value (all of
    them under policy all); an inapplicable pullback is recorded and falls
    through.

    r is knit's value when knit gave one, else the first value; agreement
    is recorded once two methods gave values."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    knitted = None  # the AR quiver, or the RadindexError that knitting raised

    def ar() -> ARQuiver:
        nonlocal knitted
        if knitted is None:
            try:
                knitted = knit(bq, cap)
            except RadindexError as exc:
                knitted = exc
        if isinstance(knitted, RadindexError):
            raise knitted
        return knitted

    def run(name: str) -> MethodResult:
        try:
            value, detail = _METHODS[name](bq, cap, ar)
            return MethodResult(name, "ok", value, detail=detail)
        except FormulaInapplicable as exc:
            return MethodResult(
                name, "inapplicable", error=str(exc),
                detail={
                    "naive_value": exc.naive_value,
                    "fallback_value": exc.fallback_value,
                    "b_nonempty": False,
                    "parts": exc.parts,
                    "family": exc.family,
                    "sectional": exc.sectional,
                },
            )
        except RadindexError as exc:
            return MethodResult(name, "error", error=str(exc))

    results: list[MethodResult] = []
    for name in _candidates(bq, policy):
        results.append(run(name))
        if results[-1].status == "ok" and policy != "all":
            break

    # A stored knit error's traceback holds ar()'s frame, which holds the
    # error: break that cycle so the partial AR quiver is freed right away.
    knitted = None

    ok = [r for r in results if r.status == "ok"]
    value = ok[0].value if ok else None
    for r in ok:
        if r.name == "knit":
            value = r.value
    agreement = len({r.value for r in ok}) == 1 if len(ok) >= 2 else None
    table = next((r.detail for r in ok if "per_vertex" in r.detail), {})
    per_vertex = {int(v): n for v, n in table.get("per_vertex", {}).items()}
    used = tuple(table.get("vertices_used", ()))

    report = IndexReport(policy, value, results, agreement, per_vertex, used)
    if value is None:
        raise Unsupported(_unsupported_message(report), report=report)
    return report


def _unsupported_message(report: IndexReport) -> str:
    parts = [f"{m.name}: {m.error or m.status}" for m in report.methods]
    return "no method produced an index (" + "; ".join(parts) + ")"
