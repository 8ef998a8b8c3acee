import pytest

from radindex.errors import NoRelations, NotStringAlgebra, RepresentationInfinite
from radindex.knitting import has_length, knit, nilpotency_knit
from radindex.quiver import Arrow, BoundQuiver, Quiver, parse_bound_quiver, path_walk, serialize
from radindex.reductions import involved_vertices, overlap_report, zero_relation_vertices
from radindex.strings import (
    END,
    START,
    StringWalk,
    arrow_string_sets,
    enumerate_strings,
    nilpotency_string,
    oriented_strings,
    r_u_string,
    string_fan,
)

from conftest import (
    brute_strings,
    caterpillar_string_algebras,
    gentle_square_with_tails,
    linear_quiver,
    random_tree_string_algebras,
)


def names(walks):
    return sorted(w.display() for w in walks)


def test_enumerate_a2():
    bq = linear_quiver(2)
    assert names(enumerate_strings(bq)) == ["a1", "e_1", "e_2"]


def test_enumerate_a3_with_zero():
    bq = linear_quiver(3, relations=[("a2", "a1")])
    assert names(enumerate_strings(bq)) == ["a1", "a2", "e_1", "e_2", "e_3"]


def test_enumerate_gentle_a4():
    bq = linear_quiver(4, relations=[("a2", "a1")])
    strs = names(enumerate_strings(bq))
    assert "a3 a2" in strs and "a3 a2 a1" not in strs


def test_fan_a2():
    bq = linear_quiver(2)
    assert names(string_fan(bq, 1, START).members) == ["a1", "e_1"]
    assert names(string_fan(bq, 1, END).members) == ["e_1"]
    assert r_u_string(bq, 1) == 1
    # single-vertex algebra: r_u = 0
    single = BoundQuiver(Quiver((1,), ()))
    assert r_u_string(single, 1) == 0


def test_fan_a3_with_zero():
    bq = linear_quiver(3, relations=[("a2", "a1")])
    assert names(string_fan(bq, 2, START).members) == ["a2", "e_2"]
    assert names(string_fan(bq, 2, END).members) == ["a1", "e_2"]
    assert r_u_string(bq, 2) == 2


def test_fan_matches_brute_enumeration():
    """Fan membership recomputed from a from-scratch string enumerator."""
    fixtures = [linear_quiver(3), linear_quiver(4, relations=[("a2", "a1")])]
    fixtures += list(random_tree_string_algebras(seed=13, count=25, max_vertices=8))
    for bq in fixtures:
        brute = brute_strings(bq)
        canonical = {(w.letters, w.start) for w in map(StringWalk.canonical, brute)}
        mine = {(w.letters, w.start) for w in enumerate_strings(bq)}
        assert mine == canonical, bq
        q = bq.quiver
        for u in q.vertices:
            starts = {
                key
                for w in brute
                for o in (w, w.inverse())
                if (o.start == u and (o.is_trivial or o.letters[0][1] == 1))
                for key in [(o.canonical().letters, o.canonical().start)]
            }
            fan = string_fan(bq, u, START)
            assert {(m.canonical().letters, m.canonical().start) for m in fan.members} == starts


def test_arrow_string_sets_a2():
    bq = linear_quiver(2)
    ss = arrow_string_sets(bq, "a1")
    assert names(ss.starting) == ["a1"] and names(ss.ending) == ["a1"]


def test_arrow_string_sets_a3():
    hered = linear_quiver(3)
    ss = arrow_string_sets(hered, "a2")
    assert names(ss.starting) == ["a2"]
    assert names(ss.ending) == ["a2", "a2 a1"]
    killed = linear_quiver(3, relations=[("a2", "a1")])
    ss2 = arrow_string_sets(killed, "a2")
    assert names(ss2.starting) == ["a2"] and names(ss2.ending) == ["a2"]


def test_requires_string_algebra(e1):
    with pytest.raises(NotStringAlgebra):
        enumerate_strings(e1)
    with pytest.raises(NotStringAlgebra):
        nilpotency_string(e1)


def test_hereditary_routes_away():
    with pytest.raises(NoRelations):
        nilpotency_string(linear_quiver(4))


def test_string_index_a3():
    bq = linear_quiver(3, relations=[("a2", "a1")])
    frag = nilpotency_string(bq)
    assert frag.value == 3
    assert frag.vertices_used == (2,)
    assert nilpotency_knit(bq).value == 3


def test_string_index_e4(e4):
    frag = nilpotency_string(e4)
    ki = nilpotency_knit(e4)
    assert frag.value == ki.value == 8
    assert frag.value == 1 + max(frag.per_vertex.values())
    assert set(frag.vertices_used) == set(zero_relation_vertices(e4).vertices)
    # the representative pair {3, 7} already attains the maximum
    assert frag.value == 1 + max(r_u_string(e4, 3), r_u_string(e4, 7))


def test_band_detection():
    # hereditary cycle graph (affine A_3): a band exists
    q = Quiver((1, 2, 3, 4), (Arrow("p", 1, 2), Arrow("q", 2, 4),
                              Arrow("r", 1, 3), Arrow("s", 3, 4)))
    with pytest.raises(RepresentationInfinite):
        enumerate_strings(BoundQuiver(q))


def test_inverse_is_same_string_and_canonical_idempotent():
    for bq in random_tree_string_algebras(seed=29, count=15, max_vertices=8):
        for w in enumerate_strings(bq):
            assert w.canonical() == w
            assert w.inverse().canonical() == w
            assert w.inverse().inverse() == w


def test_theorem_c_reduction_soundness():
    """Max of r_u over the involved vertices equals the max over all
    non-sink-non-source vertices."""
    checked = 0
    fixtures = list(random_tree_string_algebras(seed=71, count=60, max_vertices=9))
    fixtures += list(caterpillar_string_algebras(seed=72, count=30))
    for bq in fixtures:
        involved = zero_relation_vertices(bq).vertices
        if not involved:
            continue
        q = bq.quiver
        interior = [v for v in q.vertices if q.arrows_from(v) and q.arrows_into(v)]
        if not interior:
            continue
        lhs = max(r_u_string(bq, u) for u in involved)
        rhs = max(r_u_string(bq, u) for u in interior)
        assert lhs == rhs, bq
        checked += 1
    assert checked >= 50


def test_string_vs_knit_agreement():
    checked = 0
    fixtures = list(random_tree_string_algebras(seed=83, count=50, max_vertices=9))
    fixtures += list(caterpillar_string_algebras(seed=84, count=25))
    fixtures += list(gentle_square_with_tails(seed=85, count=20))
    for bq in fixtures:
        try:
            frag = nilpotency_string(bq)
        except NoRelations:
            continue
        try:
            ar = knit(bq, 4000)
        except Exception:
            continue  # outside the representation-directed scope
        if not has_length(ar):
            continue
        assert frag.value == nilpotency_knit(bq, ar=ar).value, bq
        checked += 1
    assert checked >= 40


def relstring_cases(bq):
    """Interior steps of non-overlapped zero-relations with both flanking
    arrows present."""
    q = bq.quiver
    overlapped = overlap_report(bq).relations_overlapped()
    for rel in bq.zero_relations():
        if rel in overlapped or len(rel.path) < 3:
            continue
        walk = path_walk(rel.path)
        for i in range(1, len(walk) - 1):
            alpha = q.arrow(walk[i])
            x, y = alpha.source, alpha.target
            beta = [g for g in q.arrows_into(x) if g.name != walk[i - 1]]
            delta = [d for d in q.arrows_from(y) if d.name != walk[i + 1]]
            if beta and delta:
                yield x, y, beta[0], delta[0]


def test_relstring_identity():
    """r_x + |S_delta| = r_y + |E_beta| at eligible interior relation steps."""
    checked = 0
    for bq in caterpillar_string_algebras(seed=97, count=80):
        for x, y, beta, delta in relstring_cases(bq):
            s_delta = len(arrow_string_sets(bq, delta.name).starting)
            e_beta = len(arrow_string_sets(bq, beta.name).ending)
            assert r_u_string(bq, x) + s_delta == r_u_string(bq, y) + e_beta, (
                bq, x, y, beta.name, delta.name,
            )
            checked += 1
    assert checked >= 30


def test_relstring_corollary_constant_interior():
    """Along a zero-relation whose interior vertices meet no other relation,
    r is constant on the involved vertices."""
    checked = 0
    for bq in caterpillar_string_algebras(seed=101, count=60, pendant_prob=0.15):
        for rel in bq.zero_relations():
            if len(rel.path) < 3:
                continue
            involved = involved_vertices(bq, rel)
            others = [r for r in bq.zero_relations() if r != rel]
            touched = {
                v
                for r in others
                for name in r.path
                for v in (bq.quiver.arrow(name).source, bq.quiver.arrow(name).target)
            }
            if any(v in touched for v in involved):
                continue
            values = {r_u_string(bq, v) for v in involved}
            assert len(values) == 1, (bq, rel, values)
            checked += 1
    assert checked >= 10


def test_strings_are_enumerated_once_per_algebra(e4):
    bq = parse_bound_quiver(serialize(e4))
    enumerate_strings(bq)
    nilpotency_string(bq)
    keys = [args for fn, args in bq._memo if fn is oriented_strings.__wrapped__]
    assert len(keys) == 1
