"""Knit the Auslander-Reiten quiver of a representation-directed algebra.

Nodes carry dimension vectors; for representation-directed algebras these
identify indecomposables, so meshes can be driven purely by dimension
arithmetic:

    dim tau^{-1} X = sum of middle dims - dim X

A projective P_a enters once every indecomposable summand of rad P_a is
already knitted; a ray stops when its dimension vector matches an
injective.  Arrows always point from older to newer nodes, so node ids
form a topological order of the resulting translation quiver.

r_a is read off a grading l of the knitted quiver as l(I_a) - l(P_a) when
one exists, and by shortest paths otherwise.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    AmbiguousInjective,
    CapExceeded,
    KnittingStuck,
    NegativeMesh,
    NoPath,
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
    by_dim: dict[DimensionVector, int] = field(default_factory=dict)
    # Results of the ``per_algebra`` functions below (grading, has_length,
    # reach); the quiver must not change once one of them has run.
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def node_count(self) -> int:
        return len(self.nodes)

    def locate(self, dv: DimensionVector) -> ARNode:
        ident = self.by_dim.get(dv)
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
    proj = {a: dim_projective(bq, a) for a in q.vertices}
    inj = {a: dim_injective(bq, a) for a in q.vertices}
    if len(set(inj.values())) != len(q.vertices):
        raise AmbiguousInjective("two injectives share a dimension vector")
    if len(set(proj.values())) != len(q.vertices):
        raise AmbiguousInjective("two projectives share a dimension vector")
    inj_by_dim = {dv: a for a, dv in inj.items()}
    rad_req = {a: Counter(radical_summands(bq, a)) for a in q.vertices}

    ar = ARQuiver(bq)

    def insert(dim: DimensionVector) -> int:
        if dim.is_zero():
            raise NegativeMesh("mesh produced the zero dimension vector")
        if dim in ar.by_dim:
            raise AmbiguousInjective(
                f"dimension vector {dim.counts} produced twice; "
                "input is outside the representation-directed scope"
            )
        if len(ar.nodes) >= cap:
            raise CapExceeded(
                f"more than {cap} nodes; the algebra is likely representation-infinite"
            )
        ident = len(ar.nodes)
        node = ARNode(ident, dim)
        b = inj_by_dim.get(dim)
        if b is not None:
            node.injective_of = b
        if dim.total() == 1:
            node.simple_of = dim.support()[0]
        ar.nodes.append(node)
        ar.by_dim[dim] = ident
        ar.out[ident] = {}
        ar.inn[ident] = {}
        return ident

    def add_arrow(src: int, tgt: int, mult: int = 1):
        ar.out[src][tgt] = ar.out[src].get(tgt, 0) + mult
        ar.inn[tgt][src] = ar.inn[tgt].get(src, 0) + mult

    pending = set(q.vertices)
    mesh_closed: set[int] = set()

    while True:
        progress = False

        # insert projectives whose radical summands all exist
        for a in sorted(pending):
            need = rad_req[a]
            if all(dv in ar.by_dim for dv in need):
                ident = insert(proj[a])
                ar.nodes[ident].projective_of = a
                for dv, mult in sorted(need.items(), key=lambda kv: ar.by_dim[kv[0]]):
                    add_arrow(ar.by_dim[dv], ident, mult)
                pending.discard(a)
                progress = True

        pending_dims = {dv for a in pending for dv in rad_req[a]}

        # close meshes whose middle terms are complete
        for node in list(ar.nodes):
            x = node.ident
            if node.injective_of is not None or x in mesh_closed:
                continue
            if node.dim in pending_dims:
                continue  # a projective above this node is still missing
            if any(
                ar.nodes[v].injective_of is None and v not in mesh_closed
                for v in ar.inn[x]
            ):
                continue
            total = DimensionVector.zero(q)
            for mid, mult in ar.out[x].items():
                total = total + ar.nodes[mid].dim.scaled(mult)
            try:
                new_dim = total - node.dim
            except ValueError:
                raise NegativeMesh(
                    f"mesh at {node.dim.counts} went negative; "
                    "input is outside the representation-directed scope"
                )
            z = insert(new_dim)
            for mid, mult in sorted(ar.out[x].items()):
                add_arrow(mid, z, mult)
            ar.tau[z] = x
            ar.tau_inv[x] = z
            mesh_closed.add(x)
            progress = True

        open_meshes = [
            n for n in ar.nodes
            if n.injective_of is None and n.ident not in mesh_closed
        ]
        if not pending and not open_meshes:
            return ar
        if not progress:
            raise KnittingStuck(
                f"no progress with {len(pending)} projectives pending and "
                f"{len(open_meshes)} meshes open"
            )


def check_mesh_identities(ar: ARQuiver) -> list[int]:
    """Node ids of non-projective nodes violating the mesh identity."""
    bad = []
    for node in ar.nodes:
        x = ar.tau.get(node.ident)
        if x is None:
            continue
        total = DimensionVector.zero(ar.bq.quiver)
        for mid, mult in ar.out[x].items():
            total = total + ar.nodes[mid].dim.scaled(mult)
        if node.dim + ar.nodes[x].dim != total:
            bad.append(node.ident)
    return bad


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
    q = bq.quiver
    per_vertex = {a: r_a_knit(ar, a) for a in q.vertices}
    interior = tuple(
        a for a in q.vertices
        if q.arrows_from(a) and q.arrows_into(a)
    )
    used = interior if interior else tuple(q.vertices)
    value = 1 + max(per_vertex[a] for a in used)
    return KnitIndex(value, per_vertex, used, ar)


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
