import pytest

from radindex.errors import NotToupie, RadindexError
from radindex.knitting import has_length, knit, nilpotency_knit, r_a_knit
from radindex.reductions import (
    involved_vertices,
    overlap_report,
    representative_set,
    toupie_branch_vertex,
    zero_relation_vertices,
)

from radindex.strings import r_u_string

from conftest import (
    caterpillar_string_algebras,
    commutative_toupie,
    linear_quiver,
    random_monomial_trees,
    random_tree_string_algebras,
)


def test_involved_e1(e1):
    assert zero_relation_vertices(e1).vertices == (2, 3, 5, 6)


def test_involved_e4(e4):
    sel = zero_relation_vertices(e4)
    assert sel.vertices == (2, 3, 4, 5, 7, 8)
    by_rel = {}
    for rel in e4.zero_relations():
        by_rel[rel.path] = involved_vertices(e4, rel)
    assert by_rel[("a4", "a3", "a2", "a1")] == (2, 3, 4)
    assert by_rel[("a5", "a4", "a3", "a2")] == (3, 4, 5)
    assert by_rel[("b1", "b2", "b3")] == (7, 8)


def test_involved_hereditary_empty():
    sel = zero_relation_vertices(linear_quiver(4))
    assert sel.vertices == ()


def test_commutativity_only_note():
    bq = commutative_toupie((1, 1))
    sel = zero_relation_vertices(bq)
    assert sel.vertices == ()
    assert "commutativity" in sel.note


def test_overlap_e4(e4):
    report = overlap_report(e4)
    assert len(report.pairs) == 1
    r1, r2, inter = report.pairs[0]
    assert inter == (3, 4)
    assert {r1.path, r2.path} == {("a4", "a3", "a2", "a1"), ("a5", "a4", "a3", "a2")}


def test_overlap_empty_e1_e3(e1, e3):
    assert overlap_report(e1).pairs == ()
    assert overlap_report(e3).pairs == ()


def test_representative_set_e4(e4):
    assert representative_set(e4).vertices == (3, 7)


def test_representative_set_e1(e1):
    assert representative_set(e1).vertices == (2,)


def test_representative_set_e3(e3):
    # least involved vertex of each relation: {3}, {6, 9}, {13}
    assert representative_set(e3).vertices == (3, 6, 13)


def test_representative_provenance_mentions_relations(e4):
    sel = representative_set(e4)
    notes = dict(sel.provenance)
    assert "overlap" in notes[3]
    assert "zero-relation" in notes[7]


def test_representative_set_attains_the_involved_maximum_on_overlaps():
    """On string algebras with overlapped relations, S attains the largest
    string-fan r_u over (R_A)_0, and the largest knitted r_a where knit
    gives a value, also where an overlapped pair shares no involved vertex
    and S takes both relations' involved vertices."""
    checked = disjoint = knitted = 0
    for seed in (3, 4, 5):
        for bq in [*caterpillar_string_algebras(seed, 60),
                   *random_tree_string_algebras(seed, 60)]:
            pairs = overlap_report(bq).pairs
            if not pairs:
                continue
            disjoint += any(not inter for *_, inter in pairs)
            reps = representative_set(bq).vertices
            involved = zero_relation_vertices(bq).vertices
            assert set(reps) <= set(involved), bq
            assert (max(r_u_string(bq, u) for u in reps)
                    == max(r_u_string(bq, u) for u in involved)), bq
            checked += 1
            try:
                r_a = nilpotency_knit(bq).per_vertex
            except RadindexError:
                continue
            assert max(r_a[u] for u in reps) == max(r_a[u] for u in involved), bq
            knitted += 1
    assert checked >= 100 and disjoint >= 100 and knitted >= 100


def test_toupie_branch_vertex():
    bq = commutative_toupie((1, 2, 2))
    sel = toupie_branch_vertex(bq)
    assert sel.vertices == (2,)  # the single interior vertex of the short branch


def test_toupie_branch_vertex_tie():
    bq = commutative_toupie((1, 1))
    assert toupie_branch_vertex(bq).vertices == (2,)  # least id wins the tie


def test_toupie_rejects_linear():
    with pytest.raises(NotToupie):
        toupie_branch_vertex(linear_quiver(4))


def test_toupie_rejects_monomial_relations(e1):
    with pytest.raises(NotToupie):
        toupie_branch_vertex(e1)


def test_theorem_a_reduction_soundness():
    """max r_a over the representative set equals the max over all
    non-sink-non-source vertices, on generated monomial trees."""
    checked = 0
    for bq, ar in random_monomial_trees(seed=119, count=80, max_vertices=11):
        if not has_length(ar):
            continue
        reps = representative_set(bq).vertices
        q = bq.quiver
        interior = [v for v in q.vertices if q.arrows_from(v) and q.arrows_into(v)]
        if not reps or not interior:
            continue
        lhs = max(r_a_knit(ar, a) for a in reps)
        rhs = max(r_a_knit(ar, a) for a in interior)
        assert lhs == rhs, bq
        checked += 1
    assert checked >= 70


def test_theorem_b_shortest_branch_attains_max():
    for ns in [(1, 1), (1, 3), (2, 2), (2, 4), (1, 1, 1), (1, 2, 2), (1, 1, 3)]:
        bq = commutative_toupie(ns)
        ar = knit(bq)
        v = toupie_branch_vertex(bq).vertices[0]
        q = bq.quiver
        interior = [u for u in q.vertices if q.arrows_from(u) and q.arrows_into(u)]
        best = max(r_a_knit(ar, u) for u in interior)
        assert r_a_knit(ar, v) == best, ns


def test_toupie_equal_r_within_branch():
    for ns in [(2, 3), (1, 2, 2), (2, 2)]:
        bq = commutative_toupie(ns)
        ar = knit(bq)
        from radindex.quiver import toupie_shape

        _, _, branches = toupie_shape(bq.quiver)
        for br in branches:
            values = {r_a_knit(ar, v) for v in br}
            assert len(values) <= 1, (ns, br, values)


def test_sink_source_exclusion_never_lowers_max():
    for bq, ar in random_monomial_trees(seed=131, count=40, max_vertices=10):
        if not has_length(ar):
            continue
        q = bq.quiver
        per = {a: r_a_knit(ar, a) for a in q.vertices}
        interior = [v for v in q.vertices if q.arrows_from(v) and q.arrows_into(v)]
        if interior:
            assert max(per[v] for v in interior) == max(per.values()), bq
