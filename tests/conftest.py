"""Shared builders, brute-force oracles, and seeded fixture generators."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from radindex.errors import RadindexError
from radindex.knitting import knit
from radindex.quiver import (
    COMM,
    ZERO,
    Arrow,
    BoundQuiver,
    Quiver,
    Relation,
    parse_bound_quiver,
    path_walk,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str) -> BoundQuiver:
    return parse_bound_quiver((FIXTURES / f"{name}.quiv").read_text())


@pytest.fixture(scope="session")
def e1():
    return load("e1")


@pytest.fixture(scope="session")
def e2():
    return load("e2")


@pytest.fixture(scope="session")
def e3():
    return load("e3")


@pytest.fixture(scope="session")
def e4():
    return load("e4")


# --------------------------------------------------------------------------
# small builders
# --------------------------------------------------------------------------

def linear_quiver(n: int, relations=()) -> BoundQuiver:
    """1 -> 2 -> ... -> n with arrows a1..a(n-1); relations as composition
    tuples of arrow names."""
    arrows = tuple(Arrow(f"a{i}", i, i + 1) for i in range(1, n))
    rels = tuple(Relation(ZERO, (tuple(p),)) for p in relations)
    return BoundQuiver(Quiver(tuple(range(1, n + 1)), arrows), rels)


def commutative_toupie(branch_lengths) -> BoundQuiver:
    """Toupie from source 1 to a common sink with all branch paths
    identified pairwise."""
    v = 2
    branches = []
    for n in branch_lengths:
        branches.append(list(range(v, v + n)))
        v += n
    sink = v
    arrows = []
    paths = []
    for i, interior in enumerate(branches):
        chain = [1] + interior + [sink]
        walk = []
        for j, (x, y) in enumerate(zip(chain, chain[1:])):
            name = f"b{i}_{j}"
            arrows.append(Arrow(name, x, y))
            walk.append(name)
        paths.append(tuple(reversed(walk)))
    rels = tuple(Relation(COMM, (paths[0], p)) for p in paths[1:])
    return BoundQuiver(Quiver(tuple(range(1, sink + 1)), tuple(arrows)), rels)


def dynkin_edges(kind: str, n: int):
    if kind == "A":
        return [(i, i + 1) for i in range(1, n)]
    if kind == "D":
        return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]
    if kind == "E":
        return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]
    raise ValueError(kind)


def oriented(edges, bits, n_vertices=None) -> BoundQuiver:
    arrows = []
    for k, ((x, y), bit) in enumerate(zip(edges, bits)):
        s, t = (x, y) if bit == 0 else (y, x)
        arrows.append(Arrow(f"a{k}", s, t))
    if n_vertices is None:
        verts = tuple(sorted({v for e in edges for v in e}))
    else:
        verts = tuple(range(1, n_vertices + 1))
    return BoundQuiver(Quiver(verts, tuple(arrows)))


def orientations(kind: str, n: int, limit: int = 200, seed: int = 11):
    """Up to `limit` orientations of the given Dynkin graph."""
    edges = dynkin_edges(kind, n)
    if not edges:
        return [oriented([], (), n_vertices=n)]
    total = 2 ** len(edges)
    if total <= limit:
        bit_sets = list(itertools.product((0, 1), repeat=len(edges)))
    else:
        rng = random.Random(seed)
        seen = set()
        while len(seen) < limit:
            seen.add(tuple(rng.randint(0, 1) for _ in edges))
        bit_sets = sorted(seen)
    return [oriented(edges, bits, n_vertices=n) for bits in bit_sets]


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def brute_relation_free_paths(bq: BoundQuiver, a: int, b: int) -> int:
    """Count paths a -> b avoiding every zero-relation subpath, by direct
    walk enumeration (monomial acyclic algebras only)."""
    assert bq.is_monomial() and bq.quiver.is_directed_acyclic()
    q = bq.quiver
    zero_walks = [path_walk(r.path) for r in bq.relations]

    def alive(walk):
        for zw in zero_walks:
            m = len(zw)
            for i in range(len(walk) - m + 1):
                if tuple(walk[i:i + m]) == zw:
                    return False
        return True

    count = 1 if a == b else 0  # the trivial path
    stack = [(a, ())]
    while stack:
        v, walk = stack.pop()
        if v == b and walk:
            count += 1
        for arrow in q.arrows_from(v):
            nw = walk + (arrow.name,)
            if alive(nw):
                stack.append((arrow.target, nw))
    return count


def brute_strings(bq: BoundQuiver, max_len: int = 40):
    """Independent string enumerator: generate letter sequences recursively
    and validate each from scratch with its own full-window scan."""
    from radindex.strings import StringWalk

    q = bq.quiver
    letters = []
    for arr in q.arrows:
        letters.append((arr.name, 1))
        letters.append((arr.name, -1))

    def ends(letter):
        arr = q.arrow(letter[0])
        return (arr.source, arr.target) if letter[1] == 1 else (arr.target, arr.source)

    zero_walks = {path_walk(r.path) for r in bq.relations if r.kind == ZERO}

    def valid(seq):
        for i in range(1, len(seq)):
            if ends(seq[i - 1])[1] != ends(seq[i])[0]:
                return False
            if seq[i - 1][0] == seq[i][0] and seq[i - 1][1] == -seq[i][1]:
                return False
        for i in range(len(seq)):
            for j in range(i + 2, len(seq) + 1):
                window = seq[i:j]
                names = tuple(name for name, _ in window)
                if all(s == 1 for _, s in window) and names in zero_walks:
                    return False
                if all(s == -1 for _, s in window) and tuple(reversed(names)) in zero_walks:
                    return False
        return True

    found = set()
    out = [StringWalk((), v, v) for v in q.vertices]

    def extend(seq):
        if len(seq) >= max_len:
            raise AssertionError("brute enumeration hit the length guard")
        for letter in letters:
            if seq and ends(seq[-1])[1] != ends(letter)[0]:
                continue
            cand = seq + (letter,)
            if valid(cand):
                walk = StringWalk(cand, ends(cand[0])[0], ends(cand[-1])[1])
                canon = walk.canonical()
                key = (canon.letters, canon.start)
                if key not in found:
                    found.add(key)
                    out.append(canon)
                extend(cand)

    extend(())
    return out


# --------------------------------------------------------------------------
# seeded random fixture generators
# --------------------------------------------------------------------------

def random_tree_quiver(rng: random.Random, n: int, max_in=3, max_out=3) -> Quiver:
    """Random oriented tree on n vertices with per-vertex degree caps."""
    while True:
        arrows = []
        in_deg = {1: 0}
        out_deg = {1: 0}
        ok = True
        for v in range(2, n + 1):
            u = rng.randint(1, v - 1)
            if rng.random() < 0.5:
                s, t = u, v
            else:
                s, t = v, u
            in_deg.setdefault(v, 0)
            out_deg.setdefault(v, 0)
            if out_deg.get(s, 0) >= max_out or in_deg.get(t, 0) >= max_in:
                ok = False
                break
            arrows.append(Arrow(f"a{v}", s, t))
            out_deg[s] = out_deg.get(s, 0) + 1
            in_deg[t] = in_deg.get(t, 0) + 1
        if ok:
            return Quiver(tuple(range(1, n + 1)), tuple(arrows))


def directed_paths(q: Quiver, min_len=2):
    """All directed paths of length >= min_len, as walk-order arrow tuples."""
    out = []

    def grow(v, walk):
        if len(walk) >= min_len:
            out.append(tuple(walk))
        for arr in q.arrows_from(v):
            grow(arr.target, walk + [arr.name])

    for v in q.vertices:
        grow(v, [])
    return out


def random_monomial_trees(seed: int, count: int, max_vertices=12, max_relations=3,
                          cap=4000, require_nonoverlap=True):
    """Representation-finite monomial tree algebras with 1..max_relations
    zero-relations; knitting succeeds within the cap for every yield."""
    from radindex.reductions import overlap_report

    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        assert attempts < count * 300, "generator acceptance rate collapsed"
        n = rng.randint(4, max_vertices)
        q = random_tree_quiver(rng, n)
        pool = directed_paths(q, min_len=2)
        if not pool:
            continue
        want = rng.randint(1, max_relations)
        rng.shuffle(pool)
        chosen = []
        used = set()
        for walk in pool:
            if len(chosen) >= want:
                break
            if used & set(walk):
                continue  # disjoint arrow sets cannot overlap
            chosen.append(walk)
            used |= set(walk)
        if not chosen:
            continue
        rels = tuple(Relation(ZERO, (tuple(reversed(w)),)) for w in chosen)
        try:
            bq = BoundQuiver(q, rels)
        except RadindexError:
            continue
        if require_nonoverlap and overlap_report(bq).pairs:
            continue
        try:
            ar = knit(bq, cap)
        except RadindexError:
            continue
        produced += 1
        yield bq, ar


def random_tree_string_algebras(seed: int, count: int, max_vertices=10):
    """String algebras on trees: degree caps 2/2 and a random composition
    matching at every vertex, non-matched pairs killed by length-2 zeros."""
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        assert attempts < count * 200, "generator acceptance rate collapsed"
        n = rng.randint(3, max_vertices)
        q = random_tree_quiver(rng, n, max_in=2, max_out=2)
        rels = []
        for v in q.vertices:
            ins = list(q.arrows_into(v))
            outs = list(q.arrows_from(v))
            allowed = set()
            if ins and outs:
                rng.shuffle(ins)
                rng.shuffle(outs)
                for g, b in zip(ins, outs):
                    if rng.random() < 0.8:
                        allowed.add((b.name, g.name))
            for b in outs:
                for g in ins:
                    if (b.name, g.name) not in allowed:
                        rels.append(Relation(ZERO, ((b.name, g.name),)))
        try:
            bq = BoundQuiver(q, tuple(rels))
        except RadindexError:
            continue
        produced += 1
        yield bq


def caterpillar_string_algebras(seed: int, count: int, max_spine=8, pendant_prob=0.7):
    """Linear spine with one long zero-relation and optional flanking
    pendant arrows, plus the length-2 kills the string conditions force.

    Each interior relation vertex independently receives an in-pendant, an
    out-pendant, both, or none."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(4, max_spine)
        spine = [Arrow(f"a{i}", i, i + 1) for i in range(1, n)]
        m = rng.randint(3, n - 1)
        start = rng.randint(1, n - m)
        rel_walk = tuple(f"a{i}" for i in range(start, start + m))
        arrows = list(spine)
        rels = [Relation(ZERO, (tuple(reversed(rel_walk)),))]
        next_v = n + 1
        for idx in range(start + 1, start + m):
            add_in = rng.random() < pendant_prob
            add_out = rng.random() < pendant_prob
            if add_in:
                # new arrow into idx; its composition with the outgoing
                # spine arrow must die to keep the string conditions
                arrows.append(Arrow(f"p{next_v}", next_v, idx))
                rels.append(Relation(ZERO, ((f"a{idx}", f"p{next_v}"),)))
                next_v += 1
            if add_out:
                arrows.append(Arrow(f"p{next_v}", idx, next_v))
                rels.append(Relation(ZERO, ((f"p{next_v}", f"a{idx - 1}"),)))
                next_v += 1
        verts = tuple(range(1, next_v))
        try:
            bq = BoundQuiver(Quiver(verts, tuple(arrows)), tuple(rels))
        except RadindexError:
            continue
        from radindex.quiver import classify
        if not classify(bq).is_string:
            continue
        produced += 1
        yield bq


def _attach_path(arrows, rng, at, length, next_v, prefix):
    """Random-orientation path of `length` new vertices hanging at `at`."""
    cur = at
    for _ in range(length):
        if rng.random() < 0.5:
            arrows.append(Arrow(f"{prefix}{next_v}", cur, next_v))
        else:
            arrows.append(Arrow(f"{prefix}{next_v}", next_v, cur))
        cur = next_v
        next_v += 1
    return next_v


def family_instances(seed: int, per_family: int = 3):
    """Representation-finite instances of the published always-applicable
    families, as (tag, bound quiver) pairs."""
    rng = random.Random(seed)
    out = []

    def spine(m):
        return [Arrow(f"a{i}", i, i + 1) for i in range(1, m + 1)]

    def relation(m):
        return Relation(ZERO, (tuple(f"a{i}" for i in range(m, 0, -1)),))

    def finish(tag, arrows, next_v, m):
        try:
            bq = BoundQuiver(
                Quiver(tuple(range(1, next_v)), tuple(arrows)), (relation(m),)
            )
            knit(bq, 3000)
        except RadindexError:
            return
        out.append((tag, bq))

    for _ in range(per_family):
        # Ejemplos1: bare interior, decorated ends
        m = rng.randint(2, 4)
        arrows = spine(m)
        next_v = m + 2
        next_v = _attach_path(arrows, rng, 1, rng.randint(0, 2), next_v, "l")
        next_v = _attach_path(arrows, rng, m + 1, rng.randint(0, 2), next_v, "r")
        finish("Ejemplos1", arrows, next_v, m)

        # Ejemplos2: end-attached path at the second relation vertex
        m = rng.randint(2, 4)
        arrows = spine(m)
        next_v = m + 2
        next_v = _attach_path(arrows, rng, 2, rng.randint(1, 2), next_v, "b")
        next_v = _attach_path(arrows, rng, 1, rng.randint(0, 1), next_v, "l")
        finish("Ejemplos2", arrows, next_v, m)

        # Ejemplos3: mirror of Ejemplos2 (m >= 3 keeps the position distinct)
        m = rng.randint(3, 4)
        arrows = spine(m)
        next_v = m + 2
        next_v = _attach_path(arrows, rng, m, rng.randint(1, 2), next_v, "b")
        next_v = _attach_path(arrows, rng, m + 1, rng.randint(0, 1), next_v, "r")
        finish("Ejemplos3", arrows, next_v, m)

        # Ejemplos4: bare ends, pendants at the second and second-to-last
        m = rng.randint(3, 5)
        arrows = spine(m)
        next_v = m + 2
        next_v = _attach_path(arrows, rng, 2, 1, next_v, "b")
        next_v = _attach_path(arrows, rng, m, 1, next_v, "c")
        finish("Ejemplos4", arrows, next_v, m)

        # InterDn1: pendant at the third relation vertex, m >= 4
        m = rng.randint(4, 5)
        arrows = spine(m)
        next_v = m + 2
        next_v = _attach_path(arrows, rng, 3, 1, next_v, "b")
        next_v = _attach_path(arrows, rng, 1, rng.randint(0, 1), next_v, "l")
        finish("InterDn1", arrows, next_v, m)

        # InterDn2: pendant at the third-from-last relation vertex
        # (m >= 5 keeps the position distinct from InterDn1's)
        m = rng.randint(5, 6)
        arrows = spine(m)
        next_v = m + 2
        next_v = _attach_path(arrows, rng, m - 1, 1, next_v, "b")
        next_v = _attach_path(arrows, rng, m + 1, rng.randint(0, 1), next_v, "r")
        finish("InterDn2", arrows, next_v, m)

        # CoreE6: relation of length six whose core is E6 (pendant at the
        # middle interior vertex)
        m = 6
        arrows = spine(m)
        next_v = m + 2
        next_v = _attach_path(arrows, rng, 4, 1, next_v, "b")
        finish("CoreE6", arrows, next_v, m)
    return out


def glued_tree_algebras(seed: int, count: int, max_spine=12, touching=False):
    """Trees shaped like the multi-relation gluing: disjoint zero-relation
    zones along a directed spine, random joint orientations, a few pendant
    decorations; each yield knits within the cap.  Zones are one to four
    arrows apart, or with `touching` each starts where the one before it
    ends (gap 0)."""
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        assert attempts < count * 300, "generator acceptance rate collapsed"
        n = rng.randint(7, max_spine)
        k = rng.randint(2, 3)
        # choose k disjoint arrow windows [s, s+len) in 1..n-1
        windows = []
        cursor = 1
        for _ in range(k):
            remaining = (n - 1) - cursor + 1
            if remaining < 2:
                break
            length = rng.randint(2, min(3, remaining))
            latest = (n - 1) - length + 1
            if latest < cursor:
                break
            s = cursor if touching and windows else rng.randint(cursor, min(cursor + 2, latest))
            windows.append((s, length))
            cursor = s + length + (0 if touching else rng.randint(1, 2))
        if len(windows) < 2:
            continue
        zone_arrows = {i for s, ln in windows for i in range(s, s + ln)}
        arrows = []
        for i in range(1, n):
            if i in zone_arrows or rng.random() < 0.6:
                arrows.append(Arrow(f"a{i}", i, i + 1))
            else:
                arrows.append(Arrow(f"a{i}", i + 1, i))
        next_v = n + 1
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(1, n)
            if rng.random() < 0.5:
                arrows.append(Arrow(f"p{next_v}", at, next_v))
            else:
                arrows.append(Arrow(f"p{next_v}", next_v, at))
            next_v += 1
        rels = tuple(
            Relation(ZERO, (tuple(f"a{i}" for i in range(s + ln - 1, s - 1, -1)),))
            for s, ln in windows
        )
        try:
            bq = BoundQuiver(Quiver(tuple(range(1, next_v)), tuple(arrows)), rels)
            ar = knit(bq, 4000)
        except RadindexError:
            continue
        produced += 1
        yield bq, ar


def gentle_square_with_tails(seed: int, count: int):
    """Non-tree gentle fixtures: the two-zero commutative-square shape with
    random pendant tails; the without-length cases live here."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        arrows = [Arrow("p", 1, 2), Arrow("q", 2, 4), Arrow("r", 1, 3), Arrow("s", 3, 4)]
        rels = [Relation(ZERO, (("q", "p"),)), Relation(ZERO, (("s", "r"),))]
        next_v = 5
        for corner in (1, 2, 3, 4):
            if rng.random() < 0.4:
                if rng.random() < 0.5:
                    arrows.append(Arrow(f"t{next_v}", corner, next_v))
                else:
                    arrows.append(Arrow(f"t{next_v}", next_v, corner))
                next_v += 1
        try:
            bq = BoundQuiver(Quiver(tuple(range(1, next_v)), tuple(arrows)), tuple(rels))
        except RadindexError:
            continue
        from radindex.quiver import classify
        if not classify(bq).is_string:
            continue
        produced += 1
        yield bq
