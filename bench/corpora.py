"""Seeded corpora for the radindex benchmark, written as `.quiv` texts.

Only the standard library is used and no radindex function is called, so
the inputs, and the oracle values attached to them, do not depend on the
code under test.  The shapes follow the generators in `tests/conftest.py`.

  monotree-wild  the paper's fixtures e1-e4 (oracle 13/17/19/8) and
                 criterion-3-shaped monomial trees, not filtered by
                 representation type, run at --cap 4000;
  dynkin-long    random orientations of a ladder of A_n, D_n and E6-E8
                 (oracle: the Dynkin table), and an A_n with a directed path
                 longer than the program's admissibility cap;
  string-comm    string algebras on trees, caterpillars, gentle squares with
                 tails (the knit abstains) and commutative toupies (oracle:
                 their closed form), the only inputs with commutativity
                 relations.

A corpus is an endless sequence of rounds.  Every round of a workload has
the same composition (the same shape families, and mostly the same sizes,
in the same order); the seed decides the random content of each round.  A
run measures whole rounds, so it processes nearly the same mix of work on
every seed, which keeps its figures steady, while each seed still gives
different inputs.

Texts are deduplicated across the corpus, so no instance finds its own
results in the program's caches.  Vertices are numbered at random: small
shapes come in few orientations, and the numbering keeps them distinct for
the program, which caches by exact value, without changing the algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("monotree-wild", "dynkin-long", "string-comm")

# Path length at which `all_paths` gives up (the program's ADMISSIBILITY_CAP).
ADMISSIBILITY_CAP = 64


@dataclass(frozen=True)
class Instance:
    """One input with what the benchmark's oracle knows about it.

    `expect_r` is the index the oracle computes, or None when it has no
    value for this input.  `expect_ok` names the methods that must return a
    value.  `exits` is the set of allowed CLI exit codes."""

    name: str
    text: str
    expect_r: Optional[int] = None
    expect_ok: tuple[str, ...] = ()
    exits: frozenset = frozenset({0})
    longest_path: int = 0


def quiv_text(rng: Optional[random.Random], n_vertices: int, arrows, zeros=(),
              comms=()) -> str:
    """`.quiv` text of a quiver on 1..n_vertices, numbered anew by a random
    permutation unless `rng` is None; arrows are (name, source, target),
    relation paths are walk-order arrow names (first applied first)."""
    number = list(range(1, n_vertices + 1))
    if rng is not None:
        rng.shuffle(number)
    lines = [f"vertices: 1..{n_vertices}"]
    lines += [f"arrow {name}: {number[s - 1]} -> {number[t - 1]}" for name, s, t in arrows]
    lines += ["zero: " + " * ".join(reversed(walk)) for walk in zeros]
    lines += [
        "comm: " + " * ".join(reversed(p)) + " = " + " * ".join(reversed(q))
        for p, q in comms
    ]
    return "\n".join(lines) + "\n"


def longest_directed_path(n_vertices: int, arrows) -> int:
    """Arrows on a longest directed path of an acyclic quiver."""
    out = {v: [] for v in range(1, n_vertices + 1)}
    indeg = {v: 0 for v in out}
    for _, s, t in arrows:
        out[s].append(t)
        indeg[t] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    depth = {v: 0 for v in out}
    while ready:
        v = ready.pop()
        for w in out[v]:
            depth[w] = max(depth[w], depth[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return max(depth.values())


def dynkin_index(family: str, n: int) -> int:
    """The hereditary table: A_n -> n, D_n -> 2n-3, E6/E7/E8 -> 11/17/29."""
    if family == "A":
        return n
    if family == "D":
        return 2 * n - 3
    return {6: 11, 7: 17, 8: 29}[n]


def unique(draw, seen: set):
    """Call `draw()` until it returns an instance whose text is not in
    `seen`, and record that text."""
    for _ in range(1000):
        inst = draw()
        if inst is not None and inst.text not in seen:
            seen.add(inst.text)
            return inst
    raise RuntimeError("generator keeps repeating itself; the shape space is exhausted")


# --------------------------------------------------------------------------
# monotree-wild
# --------------------------------------------------------------------------

FIXTURES = {
    # name: (text, r_A as printed in the paper)
    "e1": ("""\
vertices: 1..7
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 4 -> 3
arrow d: 5 -> 6
arrow g: 3 -> 5
arrow l: 6 -> 7
zero: l * d * g * b * a
""", 13),
    "e2": ("""\
vertices: 1..7
arrow a: 1 -> 2
arrow b: 2 -> 5
arrow c: 3 -> 2
arrow d: 2 -> 4
arrow e: 7 -> 4
arrow f: 6 -> 5
zero: b * a
""", 17),
    "e3": ("""\
vertices: 1..14
arrow p: 1 -> 2
arrow q: 2 -> 12
arrow a1: 2 -> 3
arrow r: 3 -> 7
arrow a2: 3 -> 4
arrow s: 5 -> 4
arrow b1: 5 -> 6
arrow t: 6 -> 11
arrow b2: 6 -> 9
arrow b3: 9 -> 10
arrow g1: 10 -> 13
arrow g2: 13 -> 14
arrow u: 7 -> 8
zero: a2 * a1
zero: b3 * b2 * b1
zero: g2 * g1
""", 19),
    "e4": ("""\
vertices: 1..10
arrow a1: 1 -> 2
arrow a2: 2 -> 3
arrow a3: 3 -> 4
arrow a4: 4 -> 5
arrow a5: 5 -> 6
arrow b1: 7 -> 6
arrow b2: 8 -> 7
arrow b3: 9 -> 8
arrow b4: 10 -> 9
zero: a4 * a3 * a2 * a1
zero: a5 * a4 * a3 * a2
zero: b1 * b2 * b3
""", 8),
}


def random_tree(rng: random.Random, n: int, max_in: int = 3, max_out: int = 3):
    """Random oriented tree on 1..n with per-vertex degree caps, arrows
    named a<v> after the vertex that attached them."""
    while True:
        arrows = []
        in_deg = {v: 0 for v in range(1, n + 1)}
        out_deg = dict(in_deg)
        for v in range(2, n + 1):
            u = rng.randint(1, v - 1)
            s, t = (u, v) if rng.random() < 0.5 else (v, u)
            if out_deg[s] >= max_out or in_deg[t] >= max_in:
                break
            arrows.append((f"a{v}", s, t))
            out_deg[s] += 1
            in_deg[t] += 1
        else:
            return arrows


def directed_walks(n: int, arrows, min_len: int = 2):
    """All directed paths with at least `min_len` arrows, as walk-order
    name tuples."""
    out_arrows = {v: [] for v in range(1, n + 1)}
    for name, s, t in sorted(arrows):
        out_arrows[s].append((name, t))
    found = []

    def grow(v, walk):
        if len(walk) >= min_len:
            found.append(tuple(walk))
        for name, t in out_arrows[v]:
            grow(t, walk + [name])

    for v in range(1, n + 1):
        grow(v, [])
    return found


# One round: every (relation budget, tree size) of the criterion-3 shape.
# Trees have at most 10 vertices (criterion 3 goes to 12): then about seven
# in ten candidates are representation-finite and the median latency falls
# inside one size class instead of on the edge of the rejects, while the
# rejects still take most of the time.
MONOTREE_RELATIONS = (1, 2, 3)
MONOTREE_SIZES = tuple(range(4, 11))


def monotree_candidate(rng: random.Random, r: int, n: int, want: int):
    """A criterion-3-shaped candidate: a random oriented tree with up to
    `want` zero-relations on arrow-disjoint directed paths.  Nothing is
    filtered by representation type; None when the tree has no path of
    length two."""
    arrows = random_tree(rng, n)
    pool = directed_walks(n, arrows)
    if not pool:
        return None
    rng.shuffle(pool)
    chosen, used = [], set()
    for walk in pool:
        if len(chosen) >= want:
            break
        if used.isdisjoint(walk):
            chosen.append(walk)
            used.update(walk)
    return Instance(f"r{r}-tree{n}-z{want}", quiv_text(rng, n, arrows, zeros=chosen),
                    exits=frozenset({0, 1}))


def monotree_round(rng: random.Random, r: int, seen: set):
    out = []
    if r == 0:
        for name, (text, value) in FIXTURES.items():
            seen.add(text)
            out.append(Instance(name, text, expect_r=value, expect_ok=("knit",)))
    for want in MONOTREE_RELATIONS:
        for n in MONOTREE_SIZES:
            out.append(unique(lambda: monotree_candidate(rng, r, n, want), seen))
    return out


# --------------------------------------------------------------------------
# dynkin-long
# --------------------------------------------------------------------------

def dynkin_edges(family: str, n: int):
    if family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        return [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]
    return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]


# One round, in this order.  The five A_20 sit in the middle of the costs,
# so the median latency is the median of many A_20 rather than the edge
# between two size classes.  Likewise the three D_40, the costliest, hold the
# tail latency (the 95th percentile, or the eleventh slowest of a run's six
# to nine rounds): with fewer, it sits on the edge between the D_40 and the
# A_50, about a tenth cheaper.  The "long" A_n has a directed path of 65
# arrows, one more than ADMISSIBILITY_CAP, which keeps the admissibility-cap
# defect in view.
DYNKIN_LADDER = (
    ("A", 15), ("D", 10), ("E", 6), ("A", 20), ("D", 16), ("E", 7), ("A", 20),
    ("D", 40), ("A", 25), ("D", 22), ("E", 8), ("A", 20), ("A", 35), ("D", 28),
    ("A", 20), ("D", 40), ("A", 50), ("A", 20), ("D", 40), ("A", "long"),
)
LONG_PATH = ADMISSIBILITY_CAP + 1


def dynkin_instance(rng: random.Random, name: str, spec) -> Instance:
    """A random orientation of the Dynkin graph `spec`.  For ("A", "long"),
    A_n with n in 66..74 whose first 65 edges form one directed path,
    numbered along it as a user would write it (the numbering decides how
    much work comes before the failure)."""
    family, n = spec
    long = n == "long"
    if long:
        n = rng.randint(LONG_PATH + 1, LONG_PATH + 9)
        bits = [0] * LONG_PATH + [rng.randint(0, 1) for _ in range(n - 1 - LONG_PATH)]
    else:
        bits = [rng.randint(0, 1) for _ in dynkin_edges(family, n)]
    arrows = [
        (f"a{k}", x, y) if bit == 0 else (f"a{k}", y, x)
        for k, ((x, y), bit) in enumerate(zip(dynkin_edges(family, n), bits))
    ]
    return Instance(
        f"{name}-{family}{n}" + ("-long" if long else ""),
        quiv_text(None if long else rng, n, arrows),
        expect_r=dynkin_index(family, n),
        expect_ok=("hereditary_table", "knit"),
        longest_path=longest_directed_path(n, arrows),
    )


def dynkin_round(rng: random.Random, r: int, seen: set):
    return [unique(lambda: dynkin_instance(rng, f"r{r}-{i}", spec), seen)
            for i, spec in enumerate(DYNKIN_LADDER)]


# --------------------------------------------------------------------------
# string-comm
# --------------------------------------------------------------------------

def tree_string_algebra(rng: random.Random, name: str) -> Instance:
    """String algebra on a tree: degree caps 2/2 and a random composition
    matching at every vertex; unmatched pairs die by length-2 zeros."""
    n = rng.randint(3, 10)
    arrows = random_tree(rng, n, max_in=2, max_out=2)
    zeros = []
    for v in range(1, n + 1):
        ins = [a for a in arrows if a[2] == v]
        outs = [a for a in arrows if a[1] == v]
        rng.shuffle(ins)
        rng.shuffle(outs)
        allowed = {(g[0], b[0]) for g, b in zip(ins, outs) if rng.random() < 0.8}
        zeros += [(g[0], b[0]) for b in outs for g in ins if (g[0], b[0]) not in allowed]
    # Without zeros it is hereditary and the string method does not apply.
    return Instance(name, quiv_text(rng, n, arrows, zeros=zeros),
                    expect_ok=("string_fans", "knit") if zeros else ("knit",))


CATERPILLAR_SIZES = tuple((n, m) for n in range(4, 9) for m in range(3, n))


def caterpillar(rng: random.Random, name: str, n: int, m: int) -> Instance:
    """Spine of n vertices with one zero-relation of length m and optional
    pendant arrows at its interior vertices, plus the length-2 kills that
    keep it a string algebra."""
    arrows = [(f"a{i}", i, i + 1) for i in range(1, n)]
    start = rng.randint(1, n - m)
    zeros = [tuple(f"a{i}" for i in range(start, start + m))]
    v = n + 1
    for idx in range(start + 1, start + m):
        if rng.random() < 0.7:
            arrows.append((f"p{v}", v, idx))
            zeros.append((f"p{v}", f"a{idx}"))
            v += 1
        if rng.random() < 0.7:
            arrows.append((f"p{v}", idx, v))
            zeros.append((f"a{idx - 1}", f"p{v}"))
            v += 1
    return Instance(name, quiv_text(rng, v - 1, arrows, zeros=zeros),
                    expect_ok=("string_fans", "knit"))


def gentle_square(rng: random.Random, name: str) -> Instance:
    """The commutative-square shape with both paths killed by length-2
    zeros, and a random tail of 1 to 4 arrows at each middle corner with
    probability 0.6 (a tail at the source or the sink would break the
    string conditions).  Its AR quiver is without length, so knitting
    abstains and the string method gives the index."""
    arrows = [("p", 1, 2), ("q", 2, 4), ("r", 1, 3), ("s", 3, 4)]
    v = 5
    for corner in (2, 3):
        if rng.random() < 0.6:
            at = corner
            for _ in range(rng.randint(1, 4)):
                arrows.append((f"t{v}", at, v) if rng.random() < 0.5 else (f"t{v}", v, at))
                at, v = v, v + 1
    return Instance(name, quiv_text(rng, v - 1, arrows, zeros=[("p", "q"), ("r", "s")]),
                    expect_ok=("string_fans",))


# Interior branch lengths of the representation-finite commutative toupies.
TOUPIE_SHAPES = tuple(
    [(n1, n2) for n1 in range(1, 5) for n2 in range(n1, 5)]
    + [(1, 1, k) for k in range(1, 5)]
    + [(1, 2, 2), (1, 2, 3), (1, 2, 4)]
)


def toupie_index(lengths) -> int:
    """Closed form of a commutative toupie with the given branch lengths:
    n1 + 2 n2 + 2 for two branches; for three, twice the index of the star
    left after deleting the source, minus one."""
    ns = sorted(lengths)
    if len(ns) == 2:
        return ns[0] + 2 * ns[1] + 2
    star = ("D", ns[2] + 3) if ns[1] == 1 else ("E", ns[1] + ns[2] + 2)
    return 2 * dynkin_index(*star) - 1


def commutative_toupie(rng: random.Random, name: str, lengths) -> Instance:
    """Source 1, sink 2 and branches of the given interior lengths in random
    order, every branch path identified with the first."""
    lengths = list(lengths)
    rng.shuffle(lengths)
    arrows, walks, v = [], [], 3
    for i, n in enumerate(lengths):
        chain = [1] + list(range(v, v + n)) + [2]
        v += n
        walk = []
        for j, (x, y) in enumerate(zip(chain, chain[1:])):
            arrows.append((f"b{i}_{j}", x, y))
            walk.append(f"b{i}_{j}")
        walks.append(tuple(walk))
    comms = [(walks[0], w) for w in walks[1:]]
    return Instance(name, quiv_text(rng, v - 1, arrows, comms=comms),
                    expect_r=toupie_index(lengths), expect_ok=("toupie_formula", "knit"))


# One round, in this order: the criterion-5 mix (8 : 6 : 1) plus a toupie.
STRING_ROUND = ("tree", "caterpillar", "tree", "tree", "caterpillar", "tree",
                "caterpillar", "gentle", "tree", "caterpillar", "tree", "tree",
                "caterpillar", "tree", "caterpillar", "toupie")


def string_round(rng: random.Random, r: int, seen: set):
    """Caterpillar sizes and toupie shapes go round fixed cycles, so the
    heaviest shapes, which make the latency tail, come at a fixed rate."""
    sizes = iter(CATERPILLAR_SIZES[(6 * r + j) % len(CATERPILLAR_SIZES)] for j in range(6))
    out = []
    for i, kind in enumerate(STRING_ROUND):
        name = f"r{r}-{i}-{kind}"
        if kind == "tree":
            draw = lambda: tree_string_algebra(rng, name)
        elif kind == "caterpillar":
            size = next(sizes)
            draw = lambda: caterpillar(rng, name, *size)
        elif kind == "gentle":
            draw = lambda: gentle_square(rng, name)
        else:
            shape = TOUPIE_SHAPES[r % len(TOUPIE_SHAPES)]
            draw = lambda: commutative_toupie(rng, name, shape)
        out.append(unique(draw, seen))
    return out


# --------------------------------------------------------------------------

_ROUNDS = {
    "monotree-wild": monotree_round,
    "dynkin-long": dynkin_round,
    "string-comm": string_round,
}


def rounds(workload: str, seed: int, part: int = 0):
    """The corpus of `workload` for `seed`, round by round, without end.

    `part` picks one of several independent streams of the same seed, so
    that the workers of one run see different inputs."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{part}")
    seen: set = set()
    r = 0
    while True:
        yield _ROUNDS[workload](rng, r, seen)
        r += 1


def corpus(workload: str, seed: int, n_rounds: int, part: int = 0) -> list[Instance]:
    """The first `n_rounds` rounds of `rounds(workload, seed, part)`."""
    stream = rounds(workload, seed, part)
    return [inst for _ in range(n_rounds) for inst in next(stream)]
