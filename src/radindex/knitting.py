"""Knit the Auslander-Reiten quiver of a representation-directed algebra.

Nodes carry dimension vectors; for representation-directed algebras these
identify indecomposables, so meshes can be driven purely by dimension
arithmetic:

    dim tau^{-1} X = sum of middle dims - dim X

A projective P_a enters once every indecomposable summand of rad P_a is
already knitted; a ray stops when its dimension vector matches an
injective.  Arrows always point from older to newer nodes, so node ids
form a topological order of the resulting translation quiver.

The loop is a worklist over plain count tuples.  Each projective counts
its radical summands not yet knitted.  Each node counts its blockers: the
open meshes at its non-injective predecessors and the projectives not yet
inserted that have it as a radical summand; at zero its mesh goes on a
heap of node ids.  A pass inserts the projectives with no summand missing,
in vertex order, then closes the heap's meshes at nodes that existed when
that phase began, in id order.  Node ids and errors therefore come out
in the order of a pass that rescans every node, but no pass rescans the
knitted nodes.

Over a representation-directed algebra the dimension vector of every
indecomposable is a positive root of the weakly positive Tits form
(Ringel, Tame Algebras and Integral Quadratic Forms, LNM 1099, 2.4), and
no such root has a coordinate above 6 (Ovsienko 1978; the maximal root of
E8 reaches 6).  So knitting stops with NotDirected at the first projective
or new node with a coordinate of 7 or more; the cap stays as the backstop.

r_a is read off a grading l of the knitted quiver as l(I_a) - l(P_a) when
one exists, and by shortest paths otherwise.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    AmbiguousInjective,
    CapExceeded,
    KnittingStuck,
    NegativeMesh,
    NoPath,
    NotDirected,
    NotFound,
    WithoutLength,
)
from .pathspace import (
    DimensionVector,
    dim_injective,
    dim_projective,
    dim_simple,
    radical_summands,
)
from .quiver import BoundQuiver, per_algebra

DEFAULT_CAP = 10_000
# The largest coordinate of a positive root of a weakly positive unit form.
MAX_COORDINATE = 6


@dataclass
class ARNode:
    ident: int
    dim: DimensionVector
    projective_of: Optional[int] = None
    injective_of: Optional[int] = None
    simple_of: Optional[int] = None

    def label(self) -> str:
        tags = []
        if self.projective_of is not None:
            tags.append(f"P{self.projective_of}")
        if self.injective_of is not None:
            tags.append(f"I{self.injective_of}")
        if self.simple_of is not None:
            tags.append(f"S{self.simple_of}")
        dims = ",".join(str(c) for c in self.dim.counts)
        return f"({dims})" + (" " + " ".join(tags) if tags else "")


@dataclass
class ARQuiver:
    bq: BoundQuiver
    nodes: list[ARNode] = field(default_factory=list)
    out: dict[int, dict[int, int]] = field(default_factory=dict)
    inn: dict[int, dict[int, int]] = field(default_factory=dict)
    tau: dict[int, int] = field(default_factory=dict)      # z -> x with z = tau^{-1} x
    tau_inv: dict[int, int] = field(default_factory=dict)  # x -> z
    by_dim: dict[tuple[int, ...], int] = field(default_factory=dict)  # keyed by counts
    # Results of the ``per_algebra`` functions below (grading, has_length,
    # reach); the quiver must not change once one of them has run.
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def node_count(self) -> int:
        return len(self.nodes)

    def locate(self, dv: DimensionVector) -> ARNode:
        ident = self.by_dim.get(dv.counts)
        if ident is None:
            raise NotFound(f"no indecomposable with dimension vector {dv.counts}")
        return self.nodes[ident]

    def projective(self, a: int) -> ARNode:
        return self.locate(dim_projective(self.bq, a))

    def injective(self, a: int) -> ARNode:
        return self.locate(dim_injective(self.bq, a))

    def simple(self, a: int) -> ARNode:
        return self.locate(dim_simple(self.bq.quiver, a))


# --------------------------------------------------------------------------
# the knitting loop
# --------------------------------------------------------------------------

def knit(bq: BoundQuiver, cap: int = DEFAULT_CAP) -> ARQuiver:
    q = bq.quiver
    proj = {a: dim_projective(bq, a).counts for a in q.vertices}
    inj = {dim_injective(bq, a).counts: a for a in q.vertices}
    if len(inj) != len(q.vertices):
        raise AmbiguousInjective("two injectives share a dimension vector")
    if len(set(proj.values())) != len(q.vertices):
        raise AmbiguousInjective("two projectives share a dimension vector")
    for dim in proj.values():
        if max(dim) > MAX_COORDINATE:
            raise not_directed(dim)
    rad = {a: Counter(dv.counts for dv in radical_summands(bq, a)) for a in q.vertices}
    missing = {a: len(rad[a]) for a in q.vertices}
    needed_by: dict[tuple[int, ...], list[int]] = {}
    for a in q.vertices:
        for dim in rad[a]:
            needed_by.setdefault(dim, []).append(a)

    ar = ARQuiver(bq)
    dims: list[tuple[int, ...]] = []  # by node id
    blockers: list[int] = []          # by node id: open predecessor meshes + projectives above
    ready: list[int] = []             # heap of node ids whose mesh can close
    pending = dict.fromkeys(q.vertices)  # vertices whose projective is not knitted, in order
    open_meshes = 0

    def unblock(x: int):
        blockers[x] -= 1
        if not blockers[x] and ar.nodes[x].injective_of is None:
            heapq.heappush(ready, x)

    def insert(dim: tuple[int, ...], preds: list[tuple[int, int]]) -> int:
        nonlocal open_meshes
        if not any(dim):
            raise NegativeMesh("mesh produced the zero dimension vector")
        if dim in ar.by_dim:
            raise AmbiguousInjective(
                f"dimension vector {dim} produced twice; "
                "input is outside the representation-directed scope"
            )
        if len(ar.nodes) >= cap:
            raise CapExceeded(
                f"more than {cap} nodes; the algebra is likely representation-infinite"
            )
        if max(dim) > MAX_COORDINATE:
            raise not_directed(dim)
        ident = len(ar.nodes)
        node = ARNode(ident, DimensionVector(q.vertices, dim), injective_of=inj.get(dim))
        if sum(dim) == 1:
            node.simple_of = q.vertices[dim.index(1)]
        ar.nodes.append(node)
        ar.by_dim[dim] = ident
        dims.append(dim)
        ar.out[ident] = {}
        ar.inn[ident] = dict(preds)
        for p, mult in preds:
            ar.out[p][ident] = mult
        # no predecessor of a new node has closed its mesh yet
        blockers.append(len(needed_by.get(dim, ())) + sum(
            1 for p, _ in preds if ar.nodes[p].injective_of is None
        ))
        if node.injective_of is None:
            open_meshes += 1
            if not blockers[ident]:
                heapq.heappush(ready, ident)
        for a in needed_by.get(dim, ()):
            missing[a] -= 1
        return ident

    while True:
        size = len(ar.nodes)
        # the projectives whose radical summands are all knitted, by vertex
        for a in list(pending):
            if missing[a]:
                continue
            preds = sorted((ar.by_dim[dim], mult) for dim, mult in rad[a].items())
            ar.nodes[insert(proj[a], preds)].projective_of = a
            del pending[a]
            for p, _ in preds:
                unblock(p)
        # the ready meshes at nodes older than this phase, by node id
        boundary = len(ar.nodes)
        while ready and ready[0] < boundary:
            x = heapq.heappop(ready)
            mids = list(ar.out[x].items())
            new = [-c for c in dims[x]]
            for mid, mult in mids:
                new = [s + mult * c for s, c in zip(new, dims[mid])]
            if min(new) < 0:
                raise NegativeMesh(
                    f"mesh at {dims[x]} went negative; "
                    "input is outside the representation-directed scope"
                )
            z = insert(tuple(new), mids)
            ar.tau[z] = x
            ar.tau_inv[x] = z
            open_meshes -= 1
            for mid, _ in mids:
                unblock(mid)

        if not pending and not open_meshes:
            return ar
        if len(ar.nodes) == size:
            raise KnittingStuck(
                f"no progress with {len(pending)} projectives pending and "
                f"{open_meshes} meshes open"
            )


def not_directed(dim: tuple[int, ...]) -> NotDirected:
    return NotDirected(
        f"dimension vector {dim} has a coordinate above {MAX_COORDINATE}; "
        "the algebra is not representation-directed"
    )


def check_mesh_identities(ar: ARQuiver) -> list[int]:
    """Node ids of non-projective nodes violating the mesh identity."""
    bad = []
    for z, x in sorted(ar.tau.items()):
        rest = [a + b for a, b in zip(ar.nodes[z].dim.counts, ar.nodes[x].dim.counts)]
        for mid, mult in ar.out[x].items():
            rest = [r - mult * c for r, c in zip(rest, ar.nodes[mid].dim.counts)]
        if any(rest):
            bad.append(z)
    return bad


def glue(bq: BoundQuiver, parts: list[ARQuiver]) -> ARQuiver:
    """The translation quiver glued from the AR quivers of full subalgebras
    of bq: the union of their nodes, each vector padded by zeros to every
    vertex of bq, with an arrow X -> Y kept only if every part that holds
    both X and Y has it (an irreducible map of bq is irreducible in each
    such part).  Node ids follow the parts in turn and need not be a
    topological order; meshes are not glued."""
    vertices = bq.quiver.vertices
    glued = ARQuiver(bq)
    held, maps = [], []
    for part in parts:
        at = [vertices.index(v) for v in part.bq.quiver.vertices]
        dims = []
        for node in part.nodes:
            dim = [0] * len(vertices)
            for i, c in zip(at, node.dim.counts):
                dim[i] = c
            dim = tuple(dim)
            dims.append(dim)
            if dim not in glued.by_dim:
                ident = glued.by_dim[dim] = len(glued.nodes)
                glued.nodes.append(ARNode(ident, DimensionVector(vertices, dim)))
                glued.out[ident] = {}
                glued.inn[ident] = {}
        held.append(set(dims))
        maps.append({(dims[u], dims[v]): mult
                     for u, out in part.out.items() for v, mult in out.items()})
    for arrows in maps:
        for (x, y), mult in arrows.items():
            if all((x, y) in other for other, nodes in zip(maps, held)
                   if x in nodes and y in nodes):
                u, v = glued.by_dim[x], glued.by_dim[y]
                glued.out[u][v] = glued.inn[v][u] = mult
    return glued


# --------------------------------------------------------------------------
# path structure of the knitted quiver
# --------------------------------------------------------------------------

@per_algebra
def grading(ar: ARQuiver) -> Optional[list[int]]:
    """Levels l with l(head) = l(tail) + 1 on every arrow, by node id, or
    None when no such levels exist.

    One walk over the underlying graph; each component starts at level 0."""
    level: list[Optional[int]] = [None] * len(ar.nodes)
    for root in range(len(ar.nodes)):
        if level[root] is not None:
            continue
        level[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for nbrs, step in ((ar.out[u], 1), (ar.inn[u], -1)):
                for v in nbrs:
                    if level[v] is None:
                        level[v] = level[u] + step
                        stack.append(v)
                    elif level[v] != level[u] + step:
                        return None
    return level


@per_algebra
def has_length(ar: ARQuiver) -> bool:
    """True iff for every node pair all directed paths have equal length.

    With a grading l, every path x -> y has length l(y) - l(x).  Without
    one, node ids are a topological order, so a single sweep per source
    computing shortest and longest distances decides."""
    if grading(ar) is not None:
        return True
    n = len(ar.nodes)
    for s in range(n):
        lo = {s: 0}
        hi = {s: 0}
        for u in range(s, n):
            if u not in lo:
                continue
            for v in ar.out[u]:
                d = lo[u] + 1
                if v not in lo or d < lo[v]:
                    lo[v] = d
                d = hi[u] + 1
                if v not in hi or d > hi[v]:
                    hi[v] = d
        if any(lo[v] != hi[v] for v in lo):
            return False
    return True


def distance(ar: ARQuiver, src: int, tgt: int) -> int:
    """Shortest directed path length from node src to node tgt."""
    if src == tgt:
        return 0
    seen = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in ar.out[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                if v == tgt:
                    return seen[v]
                queue.append(v)
    raise NoPath(f"no path from node {src} to node {tgt}")


def r_a_knit(ar: ARQuiver, a: int) -> int:
    """Length of the path P_a -> S_a -> I_a in the knitted quiver."""
    if not has_length(ar):
        raise WithoutLength("component without length; use the string method")
    p = ar.projective(a).ident
    s = ar.simple(a).ident
    i = ar.injective(a).ident
    level = grading(ar)
    if level is None:
        return distance(ar, p, s) + distance(ar, s, i)
    succ = reach(ar).succ
    for src, tgt in ((p, s), (s, i)):
        if not succ[src] >> tgt & 1:
            raise NoPath(f"no path from node {src} to node {tgt}")
    return level[i] - level[p]


@dataclass
class KnitIndex:
    value: int
    per_vertex: dict[int, int]
    vertices_used: tuple[int, ...]
    ar: ARQuiver


def nilpotency_knit(bq: BoundQuiver, cap: int = DEFAULT_CAP,
                    ar: Optional[ARQuiver] = None) -> KnitIndex:
    """Index via Theorem-style maximum of r_a + 1 over the knitted quiver.

    Sinks and sources are skipped when any other vertex exists; the
    per-vertex table still covers every vertex."""
    if ar is None:
        ar = knit(bq, cap)
    if not has_length(ar):
        raise WithoutLength("component without length; use the string method")
    per_vertex = {a: r_a_knit(ar, a) for a in bq.quiver.vertices}
    used = readout_vertices(bq.quiver)
    value = 1 + max(per_vertex[a] for a in used)
    return KnitIndex(value, per_vertex, used, ar)


def readout_vertices(q) -> tuple[int, ...]:
    """The vertices whose r_a the index maximises: those with arrows in and
    out, or every vertex when none has both."""
    interior = tuple(a for a in q.vertices if q.arrows_from(a) and q.arrows_into(a))
    return interior or tuple(q.vertices)


# --------------------------------------------------------------------------
# reachability and sectional paths
# --------------------------------------------------------------------------

@dataclass
class ReachabilityIndex:
    succ: list[int]  # bitmask per node id, reflexive
    pred: list[int]

    def succ_of(self, idents) -> set[int]:
        mask = 0
        for i in idents:
            mask |= self.succ[i]
        return _bits(mask)

    def pred_of(self, idents) -> set[int]:
        mask = 0
        for i in idents:
            mask |= self.pred[i]
        return _bits(mask)


def _bits(mask: int) -> set[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return out


@per_algebra
def reach(ar: ARQuiver) -> ReachabilityIndex:
    n = len(ar.nodes)
    succ = [0] * n
    pred = [0] * n
    for u in range(n - 1, -1, -1):
        m = 1 << u
        for v in ar.out[u]:
            m |= succ[v]
        succ[u] = m
    for u in range(n):
        m = 1 << u
        for v in ar.inn[u]:
            m |= pred[v]
        pred[u] = m
    return ReachabilityIndex(succ, pred)


def sectional_path_exists(ar: ARQuiver, sources: set[int], targets: set[int]) -> bool:
    """Is there a sectional path from some source node to some target node?

    A step ... -> prev -> cur -> nxt is forbidden when nxt = tau^{-1} prev.
    Paths of length zero count."""
    if sources & targets:
        return True
    seen = set()
    stack = [(None, s) for s in sorted(sources)]
    while stack:
        prev, cur = stack.pop()
        banned = ar.tau_inv.get(prev) if prev is not None else None
        for nxt in ar.out[cur]:
            if nxt == banned:
                continue
            if nxt in targets:
                return True
            if (cur, nxt) not in seen:
                seen.add((cur, nxt))
                stack.append((cur, nxt))
    return False


def to_dot(ar: ARQuiver) -> str:
    """Graphviz text dump; node labels show dimension vector and role tags."""
    lines = ["digraph AR {", "  rankdir=LR;"]
    for node in ar.nodes:
        lines.append(f'  n{node.ident} [label="{node.label()}"];')
    for u in range(len(ar.nodes)):
        for v, mult in sorted(ar.out[u].items()):
            attr = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(f"  n{u} -> n{v}{attr};")
    for z, x in sorted(ar.tau.items()):
        lines.append(f"  n{z} -> n{x} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
