"""String combinatorics for representation-finite string algebras.

A string is a reduced walk of arrows and formal inverses avoiding the
zero-relations and their inverses; a walk and its inverse are the same
string.  Walk letters are stored first-applied-first; the display form is
composition order, e.g. ``b a`` for the walk a-then-b and ``b a^-1`` when
a is traversed backwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NoRelations, NotStringAlgebra, RepresentationInfinite
from .quiver import BoundQuiver, Quiver, classify, path_walk, per_algebra
from .reductions import zero_relation_vertices

DEFAULT_STRING_CAP = 10_000

Letter = tuple[str, int]  # (arrow name, +1 direct / -1 inverse)


@dataclass(frozen=True)
class StringWalk:
    letters: tuple[Letter, ...]
    start: int
    end: int

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def inverse(self) -> "StringWalk":
        return StringWalk(
            tuple((name, -sign) for name, sign in reversed(self.letters)),
            self.end,
            self.start,
        )

    def canonical(self) -> "StringWalk":
        if self.is_trivial:
            return self
        inv = self.inverse()
        return self if _letters_key(self.letters) <= _letters_key(inv.letters) else inv

    def display(self) -> str:
        if self.is_trivial:
            return f"e_{self.start}"
        parts = []
        for name, sign in reversed(self.letters):
            parts.append(name if sign == 1 else f"{name}^-1")
        return " ".join(parts)


def _letters_key(letters: tuple[Letter, ...]):
    """Sort key that prefers direct letters over inverse ones."""
    return tuple((name, 0 if sign == 1 else 1) for name, sign in letters)


def _letter_ends(q: Quiver, letter: Letter) -> tuple[int, int]:
    arrow = q.arrow(letter[0])
    return (arrow.source, arrow.target) if letter[1] == 1 else (arrow.target, arrow.source)


def _zero_walks(bq: BoundQuiver) -> tuple[tuple[str, ...], ...]:
    return tuple(path_walk(r.path) for r in bq.zero_relations())


def _window_hits_relation(letters: tuple[Letter, ...], zero_walks) -> bool:
    """Check only the windows ending at the last letter (for incremental use)."""
    n = len(letters)
    for zw in zero_walks:
        m = len(zw)
        if m > n:
            continue
        tail = letters[n - m:]
        if all(s == 1 for _, s in tail) and tuple(name for name, _ in tail) == zw:
            return True
        if all(s == -1 for _, s in tail) and tuple(name for name, _ in reversed(tail)) == zw:
            return True
    return False


def walk_is_string(bq: BoundQuiver, letters: tuple[Letter, ...]) -> bool:
    """Full validity check used by tests as an independent oracle path."""
    q = bq.quiver
    zero_walks = _zero_walks(bq)
    for i, letter in enumerate(letters):
        if i:
            prev = letters[i - 1]
            if _letter_ends(q, prev)[1] != _letter_ends(q, letter)[0]:
                return False
            if prev[0] == letter[0] and prev[1] == -letter[1]:
                return False
        if _window_hits_relation(letters[: i + 1], zero_walks):
            return False
    return True


def _require_string(bq: BoundQuiver):
    if not classify(bq).is_string:
        raise NotStringAlgebra("input does not satisfy the string algebra conditions")


def _band_check(bq: BoundQuiver, walk: StringWalk):
    """A cyclic walk whose self-concatenation stays valid means infinitely
    many strings."""
    if walk.is_trivial or walk.start != walk.end:
        return
    first, last = walk.letters[0], walk.letters[-1]
    if first[0] == last[0] and first[1] == -last[1]:
        return  # junction not reduced, powers collapse
    max_rel = max((len(r.path) for r in bq.zero_relations()), default=0)
    reps = max(2, (max_rel // len(walk.letters)) + 2)
    if walk_is_string(bq, walk.letters * reps):
        raise RepresentationInfinite(
            f"band detected: {walk.display()}; the string algebra is "
            "representation-infinite"
        )


@per_algebra
def oriented_strings(bq: BoundQuiver, cap: int) -> tuple[StringWalk, ...]:
    """Every valid oriented walk, trivial walks included, breadth-first by
    length and lexicographic within a length."""
    _require_string(bq)
    q = bq.quiver
    zero_walks = _zero_walks(bq)
    out: list[StringWalk] = [StringWalk((), v, v) for v in q.vertices]
    frontier = list(out)
    letters_at = {}
    for v in q.vertices:
        ls = [(a.name, 1) for a in q.arrows_from(v)] + [(a.name, -1) for a in q.arrows_into(v)]
        letters_at[v] = sorted(ls)
    while frontier:
        nxt = []
        for walk in frontier:
            last = walk.letters[-1] if walk.letters else None
            for letter in letters_at[walk.end]:
                if last is not None and letter[0] == last[0] and letter[1] == -last[1]:
                    continue
                new_letters = walk.letters + (letter,)
                if _window_hits_relation(new_letters, zero_walks):
                    continue
                new = StringWalk(new_letters, walk.start, _letter_ends(q, letter)[1])
                _band_check(bq, new)
                nxt.append(new)
                if len(out) + len(nxt) > cap:
                    raise CapExceeded(
                        f"more than {cap} oriented strings; representation-infinite "
                        "input or cap too low"
                    )
        out.extend(nxt)
        frontier = nxt
    return tuple(out)


@per_algebra
def enumerate_strings(bq: BoundQuiver, cap: int = DEFAULT_STRING_CAP) -> tuple[StringWalk, ...]:
    """The finite set of strings, one canonical representative each."""
    seen = {}
    for walk in oriented_strings(bq, cap):
        canon = walk.canonical()
        seen.setdefault((canon.letters, canon.start), canon)
    return tuple(seen.values())


# --------------------------------------------------------------------------
# fans at a vertex and arrow string sets
# --------------------------------------------------------------------------

START, END = "start", "end"


@dataclass(frozen=True)
class StringFan:
    vertex: int
    side: str
    members: frozenset


def string_fan(bq: BoundQuiver, u: int, side: str) -> StringFan:
    """Members of the start fan are the trivial walk and the strings leaving
    u through an arrow; end fan dually (strings entering u through an
    arrow)."""
    _require_string(bq)
    members = {}
    for walk in oriented_strings(bq, DEFAULT_STRING_CAP):
        if walk.is_trivial:
            if walk.start == u:
                members.setdefault(_string_key(walk), walk)
            continue
        if side == START and walk.start == u and walk.letters[0][1] == 1:
            canon = walk.canonical()
            members.setdefault(_string_key(canon), walk)
        elif side == END and walk.end == u and walk.letters[-1][1] == 1:
            canon = walk.canonical()
            members.setdefault(_string_key(canon), walk)
    return StringFan(u, side, frozenset(members.values()))


def _string_key(walk: StringWalk):
    canon = walk.canonical()
    return (canon.letters, canon.start)


def r_u_string(bq: BoundQuiver, u: int) -> int:
    """|start fan| + |end fan| - 2."""
    return len(string_fan(bq, u, START).members) + len(string_fan(bq, u, END).members) - 2


@dataclass(frozen=True)
class ArrowStringSets:
    arrow: str
    starting: frozenset  # strings of the form C' g
    ending: frozenset    # strings of the form g C'


def arrow_string_sets(bq: BoundQuiver, arrow_name: str) -> ArrowStringSets:
    _require_string(bq)
    bq.quiver.arrow(arrow_name)  # raises UnknownArrow
    starting = {}
    ending = {}
    for walk in oriented_strings(bq, DEFAULT_STRING_CAP):
        if walk.is_trivial:
            continue
        if walk.letters[0] == (arrow_name, 1):
            starting.setdefault(_string_key(walk), walk)
        if walk.letters[-1] == (arrow_name, 1):
            ending.setdefault(_string_key(walk), walk)
    return ArrowStringSets(arrow_name, frozenset(starting.values()), frozenset(ending.values()))


# --------------------------------------------------------------------------
# the index via string fans
# --------------------------------------------------------------------------

@dataclass
class StringIndex:
    value: int
    per_vertex: dict[int, int]
    vertices_used: tuple[int, ...]


def nilpotency_string(bq: BoundQuiver) -> StringIndex:
    """Index as 1 + max r_u over the vertices involved in zero-relations."""
    _require_string(bq)
    selection = zero_relation_vertices(bq)
    if not selection.vertices:
        raise NoRelations("no zero-relations; use the hereditary table instead")
    per_vertex = {u: r_u_string(bq, u) for u in selection.vertices}
    value = 1 + max(per_vertex.values())
    return StringIndex(value, per_vertex, selection.vertices)
