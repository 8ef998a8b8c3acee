"""Path spaces of a bound quiver algebra and the dimension vectors they give.

Everything here is integer counting; no linear algebra is needed.  The
relations are zero paths and commutativity relations p = q, so inside the
paths a -> b the ideal is spanned by single paths and by differences of two
paths.  A basis of e_b A e_a therefore has one path per class of paths made
equal by the relations, leaving out the classes that hold a zero path.

The paths from each source are enumerated once, extending only walks that
contain no zero-relation; the bases e_b A e_a for every target b are read
off that one enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonAdmissible
from .quiver import (
    ADMISSIBILITY_CAP,
    COMM,
    BoundQuiver,
    Quiver,
    ends_in_zero,
    partition,
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
def all_paths(bq: BoundQuiver, a: int) -> dict[int, tuple[tuple[str, ...], ...]]:
    """The paths from a that contain no zero-relation, by target, as
    lexicographically sorted composition-order tuples.

    The trivial path at a is the empty tuple.  A walk is extended only while
    it is live, and one longer than the admissibility cap stops the
    enumeration."""
    q = bq.quiver
    found = {a: [()]}
    stack = [(a, ())]
    while stack:
        v, walk = stack.pop()
        for arrow in q.arrows_from(v):
            nxt = walk + (arrow.name,)
            if ends_in_zero(bq, nxt):
                continue
            if len(nxt) > ADMISSIBILITY_CAP:
                raise NonAdmissible("path enumeration exceeded the admissibility cap")
            found.setdefault(arrow.target, []).append(path_walk(nxt))
            stack.append((arrow.target, nxt))
    return {b: tuple(sorted(paths)) for b, paths in found.items()}


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


def _relation_generators(bq: BoundQuiver, paths):
    """The pairs of `paths` that one commutativity relation, applied inside
    a longer path, makes equal, and the paths whose partner is not among
    `paths`.  Those are zero: `all_paths` leaves out exactly the paths
    through a zero-relation."""
    enumerated = set(paths)
    walks = [path_walk(p) for p in paths]
    zero = set()
    pairs = []
    for rel in bq.relations:
        if rel.kind != COMM:
            continue
        rel_walks = [path_walk(p) for p in rel.paths]
        for path, walk in zip(paths, walks):
            for j, rw in enumerate(rel_walks):
                m = len(rw)
                for i in range(len(walk) - m + 1):
                    if walk[i:i + m] != rw:
                        continue
                    partner = tuple(reversed(walk[:i] + rel_walks[1 - j] + walk[i + m:]))
                    if partner in enumerated:
                        pairs.append((path, partner))
                    else:
                        zero.add(path)
    return zero, pairs


@per_algebra
def path_basis(bq: BoundQuiver, a: int, b: int) -> PathSpaceBasis:
    """Basis of e_b (kQ/I) e_a: the lexicographically least path of each
    class of equal paths that holds no zero path."""
    paths = all_paths(bq, a).get(b, ())
    zero, pairs = _relation_generators(bq, paths)
    classes = [c for c in partition(paths, pairs) if zero.isdisjoint(c)]
    return PathSpaceBasis(a, b, tuple(c[0] for c in classes),
                          tuple(frozenset(c) for c in classes))


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
    or of I_a / soc I_a (incoming=True), ordered by least boundary arrow.

    Nontrivial path classes are grouped by their boundary arrow at `a`
    (first arrow for rad P_a, last arrow for I_a/soc); commutativity
    relations that identify paths through different arrows merge groups."""
    q = bq.quiver
    boundary = q.arrows_into(a) if incoming else q.arrows_from(a)
    # boundary arrow: last applied (composition head) when incoming,
    # first applied (composition tail) when outgoing
    end = 0 if incoming else -1
    class_ends = {}
    for v in q.vertices:
        basis = path_basis(bq, v, a) if incoming else path_basis(bq, a, v)
        class_ends[v] = [[p[end] for p in cls] for cls in basis.classes if () not in cls]
    groups = partition(
        [arr.name for arr in boundary],
        [(ends[0], e) for per_class in class_ends.values() for ends in per_class for e in ends],
    )
    group_of = {name: i for i, group in enumerate(groups) for name in group}
    counts = [[0] * len(q.vertices) for _ in groups]
    for j, v in enumerate(q.vertices):
        for ends in class_ends[v]:
            counts[group_of[ends[0]]][j] += 1
    return tuple(DimensionVector(q.vertices, tuple(c)) for c in counts if any(c))


@per_algebra
def radical_summands(bq: BoundQuiver, a: int) -> tuple[DimensionVector, ...]:
    """Dimension vectors of the indecomposable summands of rad P_a."""
    return _grouped_summands(bq, a, incoming=False)


@per_algebra
def top_of_injective_summands(bq: BoundQuiver, a: int) -> tuple[DimensionVector, ...]:
    """Dimension vectors of the indecomposable summands of I_a / soc I_a."""
    return _grouped_summands(bq, a, incoming=True)
