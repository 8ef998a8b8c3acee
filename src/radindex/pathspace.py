"""Exact linear algebra on path spaces of a bound quiver algebra.

Everything here works over the rationals (fractions.Fraction); dimensions
are exact integers.  The basis of e_b A e_a is computed by enumerating the
paths a -> b and quotienting by the subspace generated by the relations
closed under left/right path multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonAdmissible
from .quiver import (
    ADMISSIBILITY_CAP,
    ZERO,
    BoundQuiver,
    Quiver,
    path_walk,
    per_algebra,
)


@dataclass(frozen=True)
class DimensionVector:
    """Vertex-indexed nonnegative integer vector."""

    vertices: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.counts):
            raise ValueError("vertices/counts length mismatch")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative entry in dimension vector")

    def __getitem__(self, v: int) -> int:
        return self.counts[self.vertices.index(v)]

    def __add__(self, other: "DimensionVector") -> "DimensionVector":
        self._check_aligned(other)
        return DimensionVector(self.vertices, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "DimensionVector") -> "DimensionVector":
        """Componentwise difference; a negative entry raises ValueError."""
        self._check_aligned(other)
        diff = tuple(a - b for a, b in zip(self.counts, other.counts))
        if any(d < 0 for d in diff):
            raise ValueError("dimension vector subtraction went negative")
        return DimensionVector(self.vertices, diff)

    def scaled(self, k: int) -> "DimensionVector":
        return DimensionVector(self.vertices, tuple(k * c for c in self.counts))

    def _check_aligned(self, other):
        if self.vertices != other.vertices:
            raise ValueError("dimension vectors over different vertex sets")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, c in zip(self.vertices, self.counts) if c)

    @classmethod
    def zero(cls, quiver: Quiver) -> "DimensionVector":
        return cls(quiver.vertices, (0,) * len(quiver.vertices))

    @classmethod
    def unit(cls, quiver: Quiver, a: int) -> "DimensionVector":
        return cls(quiver.vertices, tuple(1 if v == a else 0 for v in quiver.vertices))


def dim_simple(quiver: Quiver, a: int) -> DimensionVector:
    return DimensionVector.unit(quiver, a)


# --------------------------------------------------------------------------
# path enumeration
# --------------------------------------------------------------------------

@per_algebra
def all_paths(bq: BoundQuiver, a: int, b: int) -> tuple[tuple[str, ...], ...]:
    """All paths a -> b as composition-order tuples, lexicographically sorted.

    The trivial path is represented by the empty tuple (only when a == b).
    On cyclic quivers, prefixes that already contain a zero-relation are
    pruned and growth is capped by the admissibility witness."""
    q = bq.quiver
    acyclic = q.is_directed_acyclic()
    zero_walks = [path_walk(r.path) for r in bq.relations if r.kind == ZERO]

    def dead(walk):
        for zw in zero_walks:
            m = len(zw)
            if len(walk) >= m and tuple(walk[-m:]) == zw:
                return True
        return False

    found = []
    def grow(v, walk):
        if len(walk) > ADMISSIBILITY_CAP:
            raise NonAdmissible("path enumeration exceeded the admissibility cap")
        if v == b and walk:
            found.append(tuple(reversed(walk)))
        for arrow in q.arrows_from(v):
            nxt = walk + [arrow.name]
            if not acyclic and dead(nxt):
                continue
            grow(arrow.target, nxt)

    grow(a, [])
    if a == b:
        found.append(())
    return tuple(sorted(found))


# --------------------------------------------------------------------------
# rational row reduction
# --------------------------------------------------------------------------

class _Eliminator:
    """Incremental row echelon form over Fraction, vectors as sparse dicts."""

    def __init__(self):
        self.rows = {}  # pivot index -> reduced row dict

    def _reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        for pivot in sorted(vec):
            if pivot not in self.rows:
                continue
            coef = vec.get(pivot)
            if not coef:
                continue
            row = self.rows[pivot]
            for j, rj in row.items():
                new = vec.get(j, Fraction(0)) - coef * rj
                if new:
                    vec[j] = new
                else:
                    vec.pop(j, None)
        return {j: c for j, c in vec.items() if c}

    def residue(self, vec: dict) -> tuple:
        """Canonical reduced form of vec modulo the current row space."""
        red = self._reduce(vec)
        return tuple(sorted(red.items()))

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def add(self, vec: dict) -> bool:
        """Insert vec; returns True if it enlarged the row space."""
        red = self._reduce(vec)
        if not red:
            return False
        pivot = min(red)
        inv = Fraction(1) / red[pivot]
        row = {j: c * inv for j, c in red.items()}
        # keep echelon form reduced against the new pivot
        for p, other in list(self.rows.items()):
            coef = other.get(pivot)
            if coef:
                for j, rj in row.items():
                    new = other.get(j, Fraction(0)) - coef * rj
                    if new:
                        other[j] = new
                    else:
                        other.pop(j, None)
        self.rows[pivot] = row
        return True

    def copy(self) -> "_Eliminator":
        out = _Eliminator()
        out.rows = {p: dict(r) for p, r in self.rows.items()}
        return out


# --------------------------------------------------------------------------
# path space bases
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpaceBasis:
    source: int
    target: int
    basis: tuple[tuple[str, ...], ...]
    classes: tuple[frozenset, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _relation_generators(bq: BoundQuiver, paths, index):
    """Sparse vectors spanning the relation subspace inside span(paths)."""
    gens = []
    walks = [path_walk(p) for p in paths]
    for rel in bq.relations:
        if rel.kind == ZERO:
            zw = path_walk(rel.path)
            m = len(zw)
            for path, walk in zip(paths, walks):
                for i in range(len(walk) - m + 1):
                    if tuple(walk[i:i + m]) == zw:
                        gens.append({index[path]: Fraction(1)})
                        break
        else:
            pw, qw = (path_walk(p) for p in rel.paths)
            m = len(pw)
            for path, walk in zip(paths, walks):
                for i in range(len(walk) - m + 1):
                    if tuple(walk[i:i + m]) == pw:
                        partner_walk = walk[:i] + qw + walk[i + m:]
                        partner = tuple(reversed(partner_walk))
                        if partner in index:
                            gens.append({index[path]: Fraction(1),
                                         index[partner]: Fraction(-1)})
    return gens


@per_algebra
def path_basis(bq: BoundQuiver, a: int, b: int) -> PathSpaceBasis:
    """Basis of e_b (kQ/I) e_a with lexicographically least representatives."""
    paths = all_paths(bq, a, b)
    index = {p: i for i, p in enumerate(paths)}
    rel = _Eliminator()
    for gen in _relation_generators(bq, paths, index):
        rel.add(gen)

    # group the surviving paths into equivalence classes: p ~ q iff their
    # residues modulo the relation subspace coincide
    groups: dict[tuple, list] = {}
    for p in paths:
        res = rel.residue({index[p]: Fraction(1)})
        if not res:
            continue  # the path itself is zero in the quotient
        groups.setdefault(res, []).append(p)
    classes = tuple(frozenset(g) for g in sorted(groups.values(), key=min))

    span = rel.copy()
    basis = []
    for p in paths:
        if span.add({index[p]: Fraction(1)}):
            basis.append(p)
    return PathSpaceBasis(a, b, tuple(basis), classes)


@per_algebra
def dim_projective(bq: BoundQuiver, a: int) -> DimensionVector:
    q = bq.quiver
    return DimensionVector(q.vertices, tuple(path_basis(bq, a, v).dimension for v in q.vertices))


@per_algebra
def dim_injective(bq: BoundQuiver, a: int) -> DimensionVector:
    q = bq.quiver
    return DimensionVector(q.vertices, tuple(path_basis(bq, v, a).dimension for v in q.vertices))


# --------------------------------------------------------------------------
# radical / socle-quotient summands
# --------------------------------------------------------------------------

def _grouped_summands(bq: BoundQuiver, a: int, incoming: bool) -> tuple[DimensionVector, ...]:
    """Indecomposable summand dimension vectors of rad P_a (incoming=False)
    or of I_a / soc I_a (incoming=True).

    Nontrivial path classes are grouped by their boundary arrow at `a`
    (first arrow for rad P_a, last arrow for I_a/soc); commutativity
    relations that identify paths through different arrows merge groups."""
    q = bq.quiver
    boundary = q.arrows_into(a) if incoming else q.arrows_from(a)
    parent = {arr.name: arr.name for arr in boundary}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    per_vertex_classes = {}
    for v in q.vertices:
        basis = path_basis(bq, v, a) if incoming else path_basis(bq, a, v)
        classes = [cls for cls in basis.classes if all(p for p in cls)]
        per_vertex_classes[v] = classes
        for cls in classes:
            # boundary arrow: last applied (composition head) when incoming,
            # first applied (composition tail) when outgoing
            arrows_of_cls = {p[0] if incoming else p[-1] for p in cls}
            first = next(iter(arrows_of_cls))
            for other in arrows_of_cls:
                union(first, other)

    anchors = sorted({find(arr.name) for arr in boundary})
    out = []
    for anchor in anchors:
        counts = []
        for v in q.vertices:
            n = sum(
                1 for cls in per_vertex_classes[v]
                if find(next(iter(cls))[0] if incoming else next(iter(cls))[-1]) == anchor
            )
            counts.append(n)
        dv = DimensionVector(q.vertices, tuple(counts))
        if not dv.is_zero():
            out.append(dv)
    return tuple(out)


@per_algebra
def radical_summands(bq: BoundQuiver, a: int) -> tuple[DimensionVector, ...]:
    """Dimension vectors of the indecomposable summands of rad P_a."""
    return _grouped_summands(bq, a, incoming=False)


@per_algebra
def top_of_injective_summands(bq: BoundQuiver, a: int) -> tuple[DimensionVector, ...]:
    """Dimension vectors of the indecomposable summands of I_a / soc I_a."""
    return _grouped_summands(bq, a, incoming=True)
