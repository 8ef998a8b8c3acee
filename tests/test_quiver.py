import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import radindex

from radindex.errors import (
    DuplicateName,
    InvalidQuiver,
    NonComposablePath,
    QuivSyntaxError,
    UnknownArrow,
)
from radindex.quiver import (
    COMM,
    ZERO,
    Arrow,
    BoundQuiver,
    Quiver,
    Relation,
    classify,
    dynkin_type,
    parse_bound_quiver,
    serialize,
    toupie_shape,
    underlying_tree,
)

from conftest import commutative_toupie, linear_quiver, load, random_tree_quiver


def test_parse_e1(e1):
    assert len(e1.quiver.vertices) == 7
    assert len(e1.quiver.arrows) == 6
    zeros = e1.zero_relations()
    assert len(zeros) == 1
    assert zeros[0].path == ("l", "d", "g", "b", "a")


def test_parse_single_vertex():
    bq = parse_bound_quiver("vertices: 1\n")
    assert bq.quiver.vertices == (1,)
    assert not bq.quiver.arrows
    assert classify(bq).dynkin == ("A", 1)


def test_parse_noncomposable_relation():
    text = "vertices: 1..3\narrow a: 1 -> 2\narrow b: 2 -> 3\nzero: a * b\n"
    with pytest.raises(NonComposablePath):
        parse_bound_quiver(text)


@pytest.mark.parametrize(
    "text, exc",
    [
        ("vertices: 1..2\narrow a: 1 -> 2\narrow a: 2 -> 1\n", DuplicateName),
        ("vertices: 1..2\narrow a: 1 -> 3\n", Exception),
        ("vertices: 1..2\narrow a: 1 => 2\n", QuivSyntaxError),
        ("arrow a: 1 -> 2\n", QuivSyntaxError),
        ("vertices: 1..2\nfrobnicate: yes\n", QuivSyntaxError),
        ("vertices: 1..3\narrow a: 1 -> 2\n", InvalidQuiver),  # disconnected
        ("vertices: 1\narrow a: 1 -> 1\n", InvalidQuiver),  # loop
        ("vertices: 1..2\narrow a: 1 -> 2\nzero: a\n", InvalidQuiver),  # length 1
        ("vertices: 1..3, 2\narrow a: 1 -> 2\n", DuplicateName),
        ("vertices: 1..5, 4..6\narrow a: 1 -> 2\n", DuplicateName),
        ("vertices: 1..9, 2..3, 5\narrow a: 1 -> 2\n", DuplicateName),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_bound_quiver(text)


def test_syntax_error_carries_line_number():
    with pytest.raises(QuivSyntaxError) as info:
        parse_bound_quiver("vertices: 1..2\narrow a: 1 -> 2\nbogus line\n")
    assert "line 3" in str(info.value)


def test_roundtrip_fixtures():
    for name in ("e1", "e2", "e3", "e4"):
        bq = load(name)
        assert parse_bound_quiver(serialize(bq)) == bq
        assert serialize(parse_bound_quiver(serialize(bq))) == serialize(bq)


def test_roundtrip_random_trees():
    rng = random.Random(5)
    for _ in range(40):
        q = random_tree_quiver(rng, rng.randint(2, 12))
        bq = BoundQuiver(q)
        assert parse_bound_quiver(serialize(bq)) == bq


def test_roundtrip_comm_relation():
    bq = commutative_toupie((1, 2))
    text = serialize(bq)
    assert "comm:" in text
    assert parse_bound_quiver(text) == bq


def test_classify_e1(e1):
    cls = classify(e1)
    assert cls.is_monomial and cls.is_tree
    assert not cls.is_string  # two nonzero compositions through vertex 3
    assert not cls.is_hereditary and cls.dynkin is None


def test_classify_linear_a3():
    bq = linear_quiver(3)
    cls = classify(bq)
    assert cls.is_hereditary and cls.dynkin == ("A", 3)
    assert cls.is_string and cls.is_tree and not cls.is_toupie


def test_classify_commutative_toupie():
    bq = commutative_toupie((1, 2, 2))
    cls = classify(bq)
    assert cls.is_toupie
    assert not cls.is_monomial
    assert not cls.is_tree
    a, b, branches = toupie_shape(bq.quiver)
    assert a == 1 and sorted(len(br) for br in branches) == [1, 2, 2]


def test_hereditary_iff_no_relations(e1):
    assert not classify(e1).is_hereditary
    bare = BoundQuiver(e1.quiver)
    assert classify(bare).is_hereditary


@pytest.mark.parametrize(
    "kind, n, arms",
    [
        ("A", 5, None),
        ("D", 4, [(1, 3), (2, 3), (3, 4)]),
        ("E", 6, None),
    ],
)
def test_dynkin_recognition_basic(kind, n, arms):
    from conftest import dynkin_edges, oriented

    bq = oriented(dynkin_edges(kind, n), [0] * (n - 1))
    assert dynkin_type(bq.quiver) == (kind, n)


def test_dynkin_rejects_wide_star():
    # degree-4 center is not Dynkin
    arrows = tuple(Arrow(f"a{i}", i, 5) for i in range(1, 5))
    assert dynkin_type(Quiver((1, 2, 3, 4, 5), arrows)) is None


def test_dynkin_rejects_e6_lookalike():
    # arms (2,2,2) is affine E6, not Dynkin
    arrows = (
        Arrow("a", 1, 2), Arrow("b", 2, 7),
        Arrow("c", 3, 4), Arrow("d", 4, 7),
        Arrow("e", 5, 6), Arrow("f", 6, 7),
    )
    assert dynkin_type(Quiver(tuple(range(1, 8)), arrows)) is None


def test_tree_stable_under_arrow_deletion():
    rng = random.Random(17)
    for _ in range(30):
        q = random_tree_quiver(rng, rng.randint(3, 12))
        assert underlying_tree(q)
        for arr in q.arrows:
            rest = tuple(a for a in q.arrows if a.name != arr.name)
            # deleting one arrow from a tree gives a forest: both components
            # are trees again
            from radindex.quiver import component_vertices

            for part_start in (arr.source, arr.target):
                verts = component_vertices(q, part_start, dropped_arrows=[arr.name])
                part = Quiver(
                    tuple(sorted(verts)),
                    tuple(a for a in rest if a.source in verts and a.target in verts),
                )
                assert underlying_tree(part)


def test_multiarrow_rejected_for_tree_and_toupie():
    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 1, 2)))
    assert not underlying_tree(q)
    assert toupie_shape(q) is None


def test_comm_relation_must_be_parallel():
    q = Quiver(
        (1, 2, 3, 4),
        (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 2, 4)),
    )
    with pytest.raises(InvalidQuiver):
        BoundQuiver(q, (Relation(COMM, (("b", "a"), ("c", "a"))),))


def test_unknown_arrow_in_relation():
    q = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3)))
    with pytest.raises(UnknownArrow):
        BoundQuiver(q, (Relation(ZERO, (("z", "a"),)),))


def test_cycle_without_relations_is_not_admissible():
    from radindex.errors import NonAdmissible

    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    with pytest.raises(NonAdmissible):
        BoundQuiver(q)


def test_cycle_with_killing_relations_is_admissible():
    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    bq = BoundQuiver(q, (Relation(ZERO, (("b", "a"),)), Relation(ZERO, (("a", "b"),))))
    assert bq.is_monomial()


FIVE_ARROWS = (
    "vertices: 1..3\n"
    "arrow a0: 2 -> 1\narrow a1: 1 -> 3\narrow a2: 1 -> 3\n"
    "arrow a3: 3 -> 2\narrow a4: 2 -> 1\n"
)

# Five arrows each way between two vertices, killed only by one zero-relation
# of length 20: the walks avoiding it grow fivefold with each arrow.
LONG_RELATION = (
    "vertices: 1..2\n"
    + "".join(f"arrow a{i}: 1 -> 2\narrow b{i}: 2 -> 1\n" for i in range(5))
    + "zero: " + " * ".join(["b0", "a0"] * 10) + "\n"
)

CYCLE_70 = (
    "vertices: 0..69\n"
    + "".join(f"arrow x{i}: {i} -> {(i + 1) % 70}\n" for i in range(70))
    + "zero: x2 * x1\n"
)


@pytest.mark.parametrize("text", [FIVE_ARROWS, LONG_RELATION])
def test_cyclic_input_is_rejected_in_bounded_memory(text):
    """Live walks of every length exist here, and their number grows
    exponentially with their length; the check must say so without growing
    the walks themselves."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from radindex.errors import NonAdmissible\n"
        "from radindex.quiver import parse_bound_quiver\n"
        "try:\n"
        f"    parse_bound_quiver({text!r})\n"
        "except NonAdmissible:\n"
        "    print('rejected')\n"
    )
    src = str(Path(radindex.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\n"


@pytest.mark.parametrize("n", [10**8, 10**18])
def test_a_vertex_range_beyond_the_arrows_is_rejected_in_bounded_memory(n):
    """A connected quiver on n vertices needs n - 1 arrows, so a range that
    the arrow lines cannot connect is rejected before it is expanded."""
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from radindex.errors import InvalidQuiver\n"
        "from radindex.quiver import parse_bound_quiver\n"
        "try:\n"
        f"    parse_bound_quiver('vertices: 1..{n}\\narrow a: 1 -> 2\\n')\n"
        "except InvalidQuiver as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(radindex.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "underlying graph is not connected; split the input\n"


def test_live_paths_longer_than_the_enumeration_cap_are_admissible(tmp_path):
    """The longest live path on the 70-cycle with one zero-relation has 70
    arrows: more than the enumeration cap, yet the ideal is admissible."""
    from radindex.cli import main

    bq = parse_bound_quiver(CYCLE_70)
    assert len(bq.quiver.arrows) == 70
    path = tmp_path / "cycle70.quiv"
    path.write_text(CYCLE_70)
    assert main(["validate", str(path)], out=io.StringIO()) == 0
    out = io.StringIO()
    assert main(["index", "--method", "all", str(path)], out=out) == 0
    assert "knit: error (path enumeration exceeded the admissibility cap)" in out.getvalue()


def test_a_live_cycle_beside_a_killed_one_is_not_admissible():
    from radindex.errors import NonAdmissible

    text = (
        "vertices: 1..3\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 1\narrow c: 1 -> 3\narrow d: 3 -> 1\n"
        "zero: b * a\nzero: a * b\n"
    )
    with pytest.raises(NonAdmissible):
        parse_bound_quiver(text)


def _live_walks_of_every_length(arrows, zero_walks):
    """Independent oracle: with k one less than the longest zero walk, live
    walks of every length exist iff the graph on the live walks of length k,
    each joined to the live walks that shift it by one arrow, has a cycle."""
    from graphlib import CycleError, TopologicalSorter
    from itertools import product

    k = max((len(zw) for zw in zero_walks), default=2) - 1
    target = {name: t for name, _, t in arrows}
    source = {name: s for name, s, _ in arrows}

    def live(walk):
        return all(target[x] == source[y] for x, y in zip(walk, walk[1:])) and not any(
            walk[i:i + len(zw)] == zw for zw in zero_walks for i in range(len(walk))
        )

    windows = [w for w in product(target, repeat=k) if live(w)]
    graph = {w: [w[1:] + (x,) for x in target if live(w + (x,))] for w in windows}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError:
        return True
    return False


def test_admissibility_matches_a_cycle_search_on_random_cyclic_quivers():
    from radindex.errors import NonAdmissible

    rng = random.Random(9)
    checked = {True: 0, False: 0}
    while sum(checked.values()) < 150:
        n = rng.randint(2, 4)
        arrows = []
        for i in range(rng.randint(n, n + 3)):
            s, t = rng.sample(range(1, n + 1), 2)
            arrows.append((f"a{i}", s, t))
        outgoing = {v: [a for a in arrows if a[1] == v] for v in range(1, n + 1)}
        zero_walks = set()
        for _ in range(rng.randint(0, 4)):
            walk, length = [rng.choice(arrows)], rng.randint(2, 3)
            while len(walk) < length and outgoing[walk[-1][2]]:
                walk.append(rng.choice(outgoing[walk[-1][2]]))
            if len(walk) >= 2:
                zero_walks.add(tuple(a[0] for a in walk))
        text = (f"vertices: 1..{n}\n"
                + "".join(f"arrow {a}: {s} -> {t}\n" for a, s, t in arrows)
                + "".join("zero: " + " * ".join(reversed(zw)) + "\n" for zw in zero_walks))
        try:
            parse_bound_quiver(text)
            admissible = True
        except NonAdmissible:
            admissible = False
        except InvalidQuiver:
            continue  # disconnected
        assert admissible != _live_walks_of_every_length(arrows, zero_walks), text
        checked[admissible] += 1
    assert min(checked.values()) >= 30
