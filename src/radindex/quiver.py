"""Bound quivers: data model, parser, canonical serializer, classification.

A bound quiver is a finite quiver together with admissible relations (zero
relations and commutativity relations).  Relation paths are stored in
composition order, i.e. target-to-source: the tuple ``(l, d, g, b, a)``
means the path that applies ``a`` first and ``l`` last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterable, Optional

from .errors import (
    DuplicateName,
    InvalidQuiver,
    NonAdmissible,
    NonComposablePath,
    QuivSyntaxError,
    UnknownArrow,
    UnknownVertex,
)

ZERO = "zero"
COMM = "comm"

# Length cap used by the admissibility witness on cyclic inputs.
ADMISSIBILITY_CAP = 64


def per_algebra(fn):
    """Memoize ``fn(bq, *args)`` in a dict that lives on the bound quiver
    ``bq``, so derived data is computed once per algebra and freed with it.

    The memo is filled lazily without a lock: concurrent callers may compute
    an entry twice, with equal results."""

    @wraps(fn)
    def memoized(bq, *args):
        key = (fn, args)
        try:
            return bq._memo[key]
        except KeyError:
            value = bq._memo[key] = fn(bq, *args)
            return value

    return memoized


@dataclass(frozen=True, order=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    """Vertices are small integers, arrows carry unique string names."""

    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows, key=lambda a: a.name)))
        self._validate()

    def _validate(self):
        if not self.vertices:
            raise InvalidQuiver("a quiver needs at least one vertex")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise DuplicateName("duplicate arrow name")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset:
                raise UnknownVertex(f"arrow {a.name}: unknown source {a.source}")
            if a.target not in vset:
                raise UnknownVertex(f"arrow {a.name}: unknown target {a.target}")
            if a.source == a.target:
                raise InvalidQuiver(f"arrow {a.name} is a loop; loops are out of scope")
        if component_vertices(self, self.vertices[0]) != set(self.vertices):
            raise InvalidQuiver("underlying graph is not connected; split the input")

    # -- lookups, built on first use ---------------------------------------

    @cached_property
    def _by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _out(self) -> dict[int, tuple[Arrow, ...]]:
        out = {v: () for v in self.vertices}
        for a in self.arrows:
            out[a.source] += (a,)
        return out

    @cached_property
    def _in(self) -> dict[int, tuple[Arrow, ...]]:
        inn = {v: () for v in self.vertices}
        for a in self.arrows:
            inn[a.target] += (a,)
        return inn

    @cached_property
    def _acyclic(self) -> bool:
        indeg = {v: len(self.arrows_into(v)) for v in self.vertices}
        ready = [v for v, d in indeg.items() if d == 0]
        ordered = 0
        while ready:
            v = ready.pop()
            ordered += 1
            for a in self.arrows_from(v):
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    ready.append(a.target)
        return ordered == len(self.vertices)

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownArrow(name) from None

    def arrows_from(self, v: int) -> tuple[Arrow, ...]:
        return self._out[v]

    def arrows_into(self, v: int) -> tuple[Arrow, ...]:
        return self._in[v]

    def neighbors(self, v: int) -> set[int]:
        """Vertices joined to v by an arrow in either direction."""
        return {a.target for a in self.arrows_from(v)} | {a.source for a in self.arrows_into(v)}

    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if not self.arrows_from(v))

    def sources(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if not self.arrows_into(v))

    def undirected_edges(self) -> list[tuple[int, int]]:
        return [tuple(sorted((a.source, a.target))) for a in self.arrows]

    def has_multi_edge(self) -> bool:
        edges = self.undirected_edges()
        return len(set(edges)) != len(edges)

    def is_directed_acyclic(self) -> bool:
        return self._acyclic


@dataclass(frozen=True)
class Relation:
    """kind is ZERO (one path) or COMM (two parallel paths).

    Paths are tuples of arrow names in composition order (rightmost arrow
    applied first)."""

    kind: str
    paths: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.kind == ZERO:
            if len(self.paths) != 1:
                raise InvalidQuiver("zero relation takes exactly one path")
        elif self.kind == COMM:
            if len(self.paths) != 2:
                raise InvalidQuiver("commutativity relation takes exactly two paths")
            object.__setattr__(self, "paths", tuple(sorted(self.paths)))
        else:
            raise InvalidQuiver(f"unknown relation kind {self.kind!r}")
        object.__setattr__(self, "paths", tuple(tuple(p) for p in self.paths))

    @property
    def path(self) -> tuple[str, ...]:
        return self.paths[0]

    def sort_key(self):
        return (self.kind != ZERO, self.paths)


def path_walk(path: tuple[str, ...]) -> tuple[str, ...]:
    """Source-to-target arrow order of a composition-order path."""
    return tuple(reversed(path))


def path_source(quiver: Quiver, path: tuple[str, ...]) -> int:
    return quiver.arrow(path[-1]).source


def path_target(quiver: Quiver, path: tuple[str, ...]) -> int:
    return quiver.arrow(path[0]).target


def path_vertices(quiver: Quiver, path: tuple[str, ...]) -> tuple[int, ...]:
    """Vertices visited by the path, in walk order."""
    walk = path_walk(path)
    out = [quiver.arrow(walk[0]).source]
    for name in walk:
        out.append(quiver.arrow(name).target)
    return tuple(out)


@dataclass(frozen=True)
class BoundQuiver:
    quiver: Quiver
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "relations", tuple(sorted(self.relations, key=lambda r: r.sort_key()))
        )
        self._validate()

    def _validate(self):
        q = self.quiver
        for rel in self.relations:
            for path in rel.paths:
                if len(path) < 2:
                    raise InvalidQuiver("relation paths must have length >= 2")
                for name in path:
                    q.arrow(name)  # raises UnknownArrow
                for left, right in zip(path, path[1:]):
                    # composition order: the right factor is applied first
                    if q.arrow(left).source != q.arrow(right).target:
                        raise NonComposablePath(f"{left} * {right} does not compose")
            if rel.kind == COMM:
                p, p2 = rel.paths
                if p == p2:
                    raise InvalidQuiver("commutativity relation needs two distinct paths")
                if path_source(q, p) != path_source(q, p2) or path_target(q, p) != path_target(q, p2):
                    raise InvalidQuiver("commutativity paths must be parallel")
        _check_admissible(self)

    @cached_property
    def _memo(self) -> dict:
        """Results of the ``per_algebra`` functions on this algebra."""
        return {}

    # -- conveniences ---------------------------------------------------------

    def zero_relations(self) -> tuple[Relation, ...]:
        return tuple(r for r in self.relations if r.kind == ZERO)

    def comm_relations(self) -> tuple[Relation, ...]:
        return tuple(r for r in self.relations if r.kind == COMM)

    def is_monomial(self) -> bool:
        return all(r.kind == ZERO for r in self.relations)


def _check_admissible(bq: BoundQuiver):
    """Admissibility witness: some power of the arrow ideal lies in the ideal.

    Acyclic quivers are automatically admissible.  On a directed cycle the
    zero-relations must kill every long path; commutativity relations alone
    never do, so cyclic inputs are grown monomially up to a cap."""
    if bq.quiver.is_directed_acyclic():
        return
    zero_walks = [path_walk(r.path) for r in bq.zero_relations()]

    def alive(walk):
        for zw in zero_walks:
            m = len(zw)
            for i in range(len(walk) - m + 1):
                if tuple(walk[i:i + m]) == zw:
                    return False
        return True

    frontier = [(a.name,) for a in bq.quiver.arrows]
    length = 1
    while frontier:
        if length > ADMISSIBILITY_CAP:
            raise NonAdmissible(
                f"paths still alive at length {ADMISSIBILITY_CAP}; ideal not admissible"
            )
        nxt = []
        for walk in frontier:
            tail = bq.quiver.arrow(walk[-1]).target
            for a in bq.quiver.arrows_from(tail):
                cand = walk + (a.name,)
                if alive(cand):
                    nxt.append(cand)
        frontier = nxt
        length += 1


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraClass:
    is_monomial: bool
    is_tree: bool
    is_string: bool
    is_toupie: bool
    is_hereditary: bool
    dynkin: Optional[tuple[str, int]] = None


def underlying_tree(quiver: Quiver) -> bool:
    if quiver.has_multi_edge():
        return False
    return len(quiver.arrows) == len(quiver.vertices) - 1


def dynkin_type(quiver: Quiver) -> Optional[tuple[str, int]]:
    """Dynkin type of the underlying graph, or None.

    Recognized by arm-length analysis: A_n is a path, D_n has arms
    (1, 1, n-3) at a single degree-3 vertex, E_6/E_7/E_8 have arms
    (1, 2, 2), (1, 2, 3), (1, 2, 4)."""
    if not underlying_tree(quiver):
        return None
    n = len(quiver.vertices)
    adj = {v: quiver.neighbors(v) for v in quiver.vertices}
    degrees = {v: len(ws) for v, ws in adj.items()}
    branch = [v for v, d in degrees.items() if d >= 3]
    if not branch:
        return ("A", n)
    if len(branch) > 1 or degrees[branch[0]] > 3:
        return None
    center = branch[0]
    arms = []
    for w in adj[center]:
        length = 1
        prev, cur = center, w
        while degrees[cur] == 2:
            nxt = [u for u in adj[cur] if u != prev][0]
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    return None


def _length_two_zeros(bq: BoundQuiver) -> set[tuple[str, str]]:
    """Pairs (b, g) in composition order such that b*g is a zero relation."""
    return {r.path for r in bq.zero_relations() if len(r.path) == 2}


def _is_string(bq: BoundQuiver) -> bool:
    if not bq.is_monomial():
        return False  # condition (3)
    q = bq.quiver
    dead = _length_two_zeros(bq)
    for v in q.vertices:
        if len(q.arrows_from(v)) > 2 or len(q.arrows_into(v)) > 2:
            return False  # conditions (1), (1')
    for b in q.arrows:
        # condition (2): at most one g with e(g) = s(b) and b*g nonzero
        live = [g for g in q.arrows_into(b.source) if (b.name, g.name) not in dead]
        if len(live) > 1:
            return False
    for g in q.arrows:
        # condition (2'): at most one b with s(b) = e(g) and b*g nonzero
        live = [b for b in q.arrows_from(g.target) if (b.name, g.name) not in dead]
        if len(live) > 1:
            return False
    return True


def toupie_shape(quiver: Quiver) -> Optional[tuple[int, int, tuple[tuple[int, ...], ...]]]:
    """(source, sink, branches) if the quiver is a toupie, else None.

    Each branch is the tuple of its interior vertices in walk order; a bare
    source-to-sink arrow yields an empty tuple."""
    if quiver.has_multi_edge():
        return None
    srcs = quiver.sources()
    snks = quiver.sinks()
    if len(srcs) != 1 or len(snks) != 1:
        return None
    a, b = srcs[0], snks[0]
    if a == b:
        return None
    for v in quiver.vertices:
        if v in (a, b):
            continue
        if len(quiver.arrows_from(v)) != 1 or len(quiver.arrows_into(v)) != 1:
            return None
    if len(quiver.arrows_from(a)) < 2:
        return None  # linear quivers are not toupies
    branches = []
    for first in quiver.arrows_from(a):
        interior = []
        cur = first.target
        while cur != b:
            interior.append(cur)
            cur = quiver.arrows_from(cur)[0].target
        branches.append(tuple(interior))
    if sum(len(br) for br in branches) + 2 != len(quiver.vertices):
        return None
    return a, b, tuple(branches)


@per_algebra
def classify(bq: BoundQuiver) -> AlgebraClass:
    q = bq.quiver
    hereditary = not bq.relations
    tree = underlying_tree(q)
    dynkin = dynkin_type(q) if hereditary else None
    return AlgebraClass(
        is_monomial=bq.is_monomial(),
        is_tree=tree,
        is_string=_is_string(bq),
        is_toupie=toupie_shape(q) is not None,
        is_hereditary=hereditary,
        dynkin=dynkin,
    )


# --------------------------------------------------------------------------
# .quiv parsing and canonical serialization
# --------------------------------------------------------------------------

_ARROW_RE = re.compile(r"^arrow\s+(\w+)\s*:\s*(\d+)\s*->\s*(\d+)$")


def _parse_vertices(body: str, line_no: int) -> list[int]:
    out = []
    for item in body.split(","):
        item = item.strip()
        if not item:
            raise QuivSyntaxError("empty vertex item", line_no)
        if ".." in item:
            lo, _, hi = item.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise QuivSyntaxError(f"expected integer range, got {item!r}", line_no)
            if hi_i < lo_i:
                raise QuivSyntaxError(f"empty range {item!r}", line_no)
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(item))
            except ValueError:
                raise QuivSyntaxError(f"expected vertex id, got {item!r}", line_no)
    return out


def _parse_path(body: str, line_no: int) -> tuple[str, ...]:
    names = [p.strip() for p in body.split("*")]
    if any(not n for n in names):
        raise QuivSyntaxError("malformed path (expected name * name * ...)", line_no)
    return tuple(names)


def parse_bound_quiver(text: str) -> BoundQuiver:
    """Parse the line-oriented .quiv format.

    Grammar: `vertices:`, `arrow <name>: <src> -> <tgt>`, `zero: <path>`,
    `comm: <path> = <path>`; `#` starts a comment."""
    vertices: list[int] = []
    arrows: list[Arrow] = []
    relations: list[Relation] = []
    seen_vertices = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        key = key.split()[0] if key.split() else ""
        if not sep:
            raise QuivSyntaxError(f"expected 'keyword:' directive, got {line!r}", line_no)
        body = body.strip()
        if key == "vertices":
            if seen_vertices:
                raise QuivSyntaxError("duplicate vertices line", line_no)
            vertices = _parse_vertices(body, line_no)
            if len(set(vertices)) != len(vertices):
                raise DuplicateName(f"line {line_no}: duplicate vertex id")
            seen_vertices = True
        elif key == "arrow":
            m = _ARROW_RE.match(line)
            if not m:
                raise QuivSyntaxError("expected 'arrow <name>: <src> -> <tgt>'", line_no)
            name, src, tgt = m.group(1), int(m.group(2)), int(m.group(3))
            if any(a.name == name for a in arrows):
                raise DuplicateName(f"line {line_no}: duplicate arrow name {name!r}")
            arrows.append(Arrow(name, src, tgt))
        elif key == "zero":
            relations.append(Relation(ZERO, (_parse_path(body, line_no),)))
        elif key == "comm":
            left, eq, right = body.partition("=")
            if not eq:
                raise QuivSyntaxError("expected 'comm: <path> = <path>'", line_no)
            relations.append(
                Relation(COMM, (_parse_path(left, line_no), _parse_path(right, line_no)))
            )
        else:
            raise QuivSyntaxError(f"unknown directive {key!r}", line_no)
    if not seen_vertices:
        raise QuivSyntaxError("missing vertices line", None)
    quiver = Quiver(tuple(vertices), tuple(arrows))
    return BoundQuiver(quiver, tuple(relations))


def _format_vertices(vertices: tuple[int, ...]) -> str:
    if len(vertices) >= 2 and vertices == tuple(range(vertices[0], vertices[-1] + 1)):
        return f"{vertices[0]}..{vertices[-1]}"
    return ",".join(str(v) for v in vertices)


def serialize(bq: BoundQuiver) -> str:
    """Canonical text form: vertices sorted numerically, arrows by name."""
    lines = [f"vertices: {_format_vertices(bq.quiver.vertices)}"]
    for a in bq.quiver.arrows:
        lines.append(f"arrow {a.name}: {a.source} -> {a.target}")
    for rel in bq.relations:
        if rel.kind == ZERO:
            lines.append("zero: " + " * ".join(rel.path))
        else:
            left, right = rel.paths
            lines.append("comm: " + " * ".join(left) + " = " + " * ".join(right))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# subquiver extraction (shared by the split/glued constructions)
# --------------------------------------------------------------------------

def full_subquiver(bq: BoundQuiver, vertices: Iterable[int],
                   dropped_arrows: Iterable[str] = ()) -> BoundQuiver:
    """Full sub-bound-quiver on `vertices`, minus `dropped_arrows`.

    Keeps exactly the relations all of whose arrows survive."""
    vset = set(vertices)
    drop = set(dropped_arrows)
    arrows = tuple(
        a for a in bq.quiver.arrows
        if a.name not in drop and a.source in vset and a.target in vset
    )
    kept_names = {a.name for a in arrows}
    relations = tuple(
        r for r in bq.relations
        if all(name in kept_names for path in r.paths for name in path)
    )
    return BoundQuiver(Quiver(tuple(sorted(vset)), arrows), relations)


def component_vertices(quiver: Quiver, start: int, dropped_arrows: Iterable[str] = ()) -> set[int]:
    """Vertices of the underlying component of `start` after dropping arrows."""
    drop = set(dropped_arrows)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for a in quiver.arrows_from(v) + quiver.arrows_into(v):
            w = a.target if a.source == v else a.source
            if a.name not in drop and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen
