import gc
import weakref

import pytest

from radindex.errors import (
    FormulaInapplicable,
    NotSingleRelationTree,
    OverlappedRelations,
    RepresentationInfinite,
    ShapeMismatch,
    Unsupported,
)
from radindex.formulas import (
    a_cap_c_empty,
    b_nonempty,
    family_match,
    glued_index,
    hereditary_index,
    pullback_index,
    pullback_split,
    route,
    sectional_criterion,
    toupie_index,
)
from radindex.knitting import DEFAULT_CAP, knit, nilpotency_knit
from radindex import formulas
from radindex.quiver import classify, dynkin_type, parse_bound_quiver

from conftest import (
    FIXTURES,
    commutative_toupie,
    family_instances,
    linear_quiver,
    orientations,
    random_monomial_trees,
)


@pytest.mark.parametrize(
    "dynkin, expected",
    [(("A", 1), 1), (("A", 5), 5), (("D", 4), 5), (("D", 6), 9),
     (("E", 6), 11), (("E", 7), 17), (("E", 8), 29)],
)
def test_hereditary_table(dynkin, expected):
    assert hereditary_index(dynkin) == expected


def test_hereditary_table_rejects_non_dynkin():
    with pytest.raises(ValueError):
        hereditary_index(("D", 3))


def test_table_matches_knit_small_sample():
    for kind, n in [("A", 4), ("D", 5), ("E", 6)]:
        for bq in orientations(kind, n, limit=6):
            assert nilpotency_knit(bq).value == hereditary_index((kind, n))


def test_pullback_split_e1(e1):
    sp = pullback_split(e1)
    assert sp.a1.quiver.vertices == (1, 2, 3, 4, 5, 6)
    assert sp.a2.quiver.vertices == (2, 3, 4, 5, 6, 7)
    assert sp.core.quiver.vertices == (2, 3, 4, 5, 6)
    assert dynkin_type(sp.a1.quiver) == ("E", 6)
    assert dynkin_type(sp.a2.quiver) == ("D", 6)
    assert dynkin_type(sp.core.quiver) == ("D", 5)
    for part in (sp.a1, sp.a2, sp.core):
        assert classify(part).is_hereditary


def test_pullback_split_reassembles(e1, e2):
    for bq in (e1, e2):
        sp = pullback_split(bq)
        v1, v2 = set(sp.a1.quiver.vertices), set(sp.a2.quiver.vertices)
        assert v1 | v2 == set(bq.quiver.vertices)
        assert v1 & v2 == set(sp.core.quiver.vertices)
        names = {a.name for a in sp.a1.quiver.arrows} | {a.name for a in sp.a2.quiver.arrows}
        assert names == {a.name for a in bq.quiver.arrows}


def test_pullback_split_e2_types(e2):
    sp = pullback_split(e2)
    assert dynkin_type(sp.a1.quiver) == ("D", 5)
    assert dynkin_type(sp.a2.quiver) == ("E", 6)
    assert dynkin_type(sp.core.quiver) == ("A", 4)


def test_pullback_split_a3():
    bq = linear_quiver(3, relations=[("a2", "a1")])
    sp = pullback_split(bq)
    assert sp.a1.quiver.vertices == (1, 2)
    assert sp.a2.quiver.vertices == (2, 3)
    assert sp.core.quiver.vertices == (2,)


def test_pullback_split_rejects(e3, e4):
    for bq in (e3, e4):
        with pytest.raises(NotSingleRelationTree):
            pullback_split(bq)


def test_b_nonempty_e1_true_e2_false(e1, e2):
    for bq, expected in ((e1, True), (e2, False)):
        sp = pullback_split(bq)
        ar = knit(bq)
        assert b_nonempty(bq, sp, ar) is expected


def test_b_nonempty_a3():
    bq = linear_quiver(3, relations=[("a2", "a1")])
    assert b_nonempty(bq, pullback_split(bq), knit(bq)) is True


def test_sectional_criterion_examples(e1, e2):
    assert sectional_criterion(e1, pullback_split(e1), knit(e1)) is True
    assert sectional_criterion(e2, pullback_split(e2), knit(e2)) is False
    # linear A_6 with a short middle relation: rad P = I/soc directly
    bq = linear_quiver(6, relations=[("a4", "a3")])
    assert sectional_criterion(bq, pullback_split(bq), knit(bq)) is True


def test_family_match_examples(e1, e2):
    assert family_match(e1) == "InterDn1"
    assert family_match(e2) is None


def test_family_match_needs_single_relation_tree(e4):
    with pytest.raises(NotSingleRelationTree):
        family_match(e4)


def test_family_match_generated_instances():
    instances = family_instances(seed=7)
    seen = set()
    for tag, bq in instances:
        assert family_match(bq) == tag, (tag, bq)
        seen.add(tag)
    assert seen == {
        "Ejemplos1", "Ejemplos2", "Ejemplos3", "Ejemplos4",
        "InterDn1", "InterDn2", "CoreE6",
    }


def test_family_instances_have_nonempty_middle():
    for tag, bq in family_instances(seed=19):
        sp = pullback_split(bq)
        ar = knit(bq)
        assert b_nonempty(bq, sp, ar), (tag, bq)


def test_pullback_index_e1(e1):
    frag = pullback_index(e1)
    assert frag.value == 13
    assert frag.part_values == {"a1": 11, "a2": 9, "core": 7}
    assert frag.applicable and frag.family == "InterDn1"


def test_pullback_index_e2_inapplicable(e2):
    with pytest.raises(FormulaInapplicable) as info:
        pullback_index(e2)
    exc = info.value
    assert exc.naive_value == 7 + 11 - 4  # D5 + E6 - A4, independently derived
    assert exc.fallback_value == 17


def test_pullback_index_a3():
    bq = linear_quiver(3, relations=[("a2", "a1")])
    assert pullback_index(bq).value == 3 == nilpotency_knit(bq).value


def test_implication_chain():
    """sectional => A cap C empty => B nonempty, on varied fixtures."""
    fixtures = [bq for bq, _ in random_monomial_trees(
        seed=151, count=60, max_vertices=10, max_relations=1)]
    fixtures += [bq for _, bq in family_instances(seed=23)]
    checked = 0
    for bq in fixtures:
        try:
            sp = pullback_split(bq)
        except NotSingleRelationTree:
            continue
        ar = knit(bq)
        sect = sectional_criterion(bq, sp, ar)
        disjoint = a_cap_c_empty(bq, sp, ar)
        nonempty = b_nonempty(bq, sp, ar)
        if sect:
            assert disjoint, bq
        if disjoint:
            assert nonempty, bq
        checked += 1
    assert checked >= 50


def test_proyiny_part_core_agreement():
    """For core vertices, projectives over a1 restrict to core projectives
    and injectives over a2 restrict to core injectives."""
    from radindex.pathspace import dim_injective, dim_projective

    fixtures = [bq for bq, _ in random_monomial_trees(
        seed=157, count=30, max_vertices=10, max_relations=1)]
    for bq in fixtures:
        sp = pullback_split(bq)
        core_vs = sp.core.quiver.vertices
        for x in core_vs:
            p_a1 = dim_projective(sp.a1, x)
            p_core = dim_projective(sp.core, x)
            assert all(p_a1[v] == p_core[v] for v in core_vs), (bq, x)
            assert all(p_a1[v] == 0 for v in sp.a1.quiver.vertices if v not in core_vs)
            i_a2 = dim_injective(sp.a2, x)
            i_core = dim_injective(sp.core, x)
            assert all(i_a2[v] == i_core[v] for v in core_vs), (bq, x)
            assert all(i_a2[v] == 0 for v in sp.a2.quiver.vertices if v not in core_vs)


def test_theorem_nilpo_soundness():
    """pullback = knit whenever the middle subcategory is nonempty."""
    checked = 0
    for bq, ar in random_monomial_trees(seed=163, count=80, max_vertices=10,
                                        max_relations=1):
        sp = pullback_split(bq)
        if not b_nonempty(bq, sp, ar):
            continue
        assert pullback_index(bq, ar=ar).value == nilpotency_knit(bq, ar=ar).value, bq
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize(
    "ns, expected",
    [((1, 1, 1), 9), ((1, 1), 5), ((2, 3), 10), ((1, 2), 7), ((1, 2, 4), 57)],
)
def test_toupie_index_values(ns, expected):
    assert toupie_index(commutative_toupie(ns)).value == expected


def test_toupie_two_branch_consistency():
    # with a unit branch both published formulas coincide
    for n2 in range(1, 6):
        bq = commutative_toupie((1, n2))
        star = dynkin_type(
            pullback_splitless_star(bq)
        )
        value = toupie_index(bq).value
        assert value == 1 + 2 * n2 + 2
        assert value == 2 * hereditary_index(star) - 1


def pullback_splitless_star(bq):
    """The hereditary algebra left after deleting the toupie source."""
    from radindex.quiver import full_subquiver, toupie_shape

    a, _, _ = toupie_shape(bq.quiver)
    sub = full_subquiver(bq, set(bq.quiver.vertices) - {a})
    return sub.quiver


def test_toupie_rejects_representation_infinite():
    with pytest.raises(RepresentationInfinite):
        toupie_index(commutative_toupie((2, 2, 2)))
    with pytest.raises(RepresentationInfinite):
        toupie_index(commutative_toupie((1, 3, 3)))


def test_glued_e3(e3):
    frag = glued_index(e3)
    assert frag.value == 19
    assert [b["value"] for b in frag.blocks] == [19, 15, 6]
    assert [b["method"] for b in frag.blocks] == ["pullback"] * 3


def test_glued_blocks_match_standalone_knit(e3):
    """Dual-route check: every block value equals the block's own knit."""
    from radindex.quiver import BoundQuiver, Quiver

    frag = glued_index(e3)
    for entry in frag.blocks:
        verts = set(entry["vertices"])
        arrows = tuple(
            a for a in e3.quiver.arrows if a.source in verts and a.target in verts
        )
        rels = tuple(
            r for r in e3.relations
            if all(n in {a.name for a in arrows} for p in r.paths for n in p)
        )
        block = BoundQuiver(Quiver(tuple(sorted(verts)), arrows), rels)
        assert nilpotency_knit(block).value == entry["value"]


def test_glued_rejects_overlap(e4):
    with pytest.raises(OverlappedRelations):
        glued_index(e4)


def test_glued_rejects_single_relation(e1):
    with pytest.raises(ShapeMismatch):
        glued_index(e1)


def test_glued_two_identical_blocks():
    # two copies of the A_3-with-zero shape glued by a long joint
    bq = linear_quiver(9, relations=[("a2", "a1"), ("a8", "a7")])
    frag = glued_index(bq)
    assert frag.value == nilpotency_knit(bq).value
    values = [b["value"] for b in frag.blocks]
    assert values[0] == values[1] == frag.value  # symmetric blocks share the value


def test_two_e1_copies_are_representation_infinite():
    """Gluing two full copies of the E1 shape leaves a relation-free
    hereditary corner with two branch vertices, so the algebra is
    representation-infinite; every method must refuse consistently."""
    from radindex.errors import CapExceeded
    from radindex.quiver import Arrow, BoundQuiver, Quiver, Relation, ZERO

    arrows = (
        Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 4, 3), Arrow("g", 3, 5),
        Arrow("d", 5, 6), Arrow("l", 6, 7),
        Arrow("m", 7, 8),
        Arrow("a2", 8, 9), Arrow("b2", 9, 10), Arrow("c2", 14, 10),
        Arrow("g2", 10, 11), Arrow("d2", 11, 12), Arrow("l2", 12, 13),
    )
    rels = (
        Relation(ZERO, (("l", "d", "g", "b", "a"),)),
        Relation(ZERO, (("l2", "d2", "g2", "b2", "a2"),)),
    )
    bq = BoundQuiver(Quiver(tuple(range(1, 15)), arrows), rels)
    with pytest.raises(CapExceeded):
        nilpotency_knit(bq, 4000)
    with pytest.raises(Unsupported) as info:
        route(bq, "auto", 4000)
    report = info.value.report
    assert report.method("glued_formula").status == "error"
    assert report.method("knit").status == "error"


def test_glued_matches_knit_generated():
    from conftest import glued_tree_algebras

    checked = 0
    for bq, ar in glued_tree_algebras(seed=177, count=40):
        try:
            frag = glued_index(bq)
        except (ShapeMismatch, OverlappedRelations):
            continue
        assert frag.value == nilpotency_knit(bq, ar=ar).value, bq
        checked += 1
    assert checked >= 25


# Two-relation monomial trees on which the block maximum falls short of the
# knitted index; each key ends with the glued and the knitted value.  They
# pass once `glued_index` abstains outside the hypothesis of the block
# maximum.
GLUED_SHORT = {
    "concatenated zones, 9 vs 10": (
        "vertices: 1..8\n"
        "arrow a2: 2 -> 1\narrow a3: 2 -> 3\narrow a4: 4 -> 2\narrow a5: 1 -> 5\n"
        "arrow a6: 5 -> 6\narrow a7: 2 -> 7\narrow a8: 8 -> 6\n"
        "zero: a2 * a4\nzero: a6 * a5\n"
    ),
    "nine vertices, 11 vs 12": (
        "vertices: 1..9\n"
        "arrow a2: 6 -> 2\narrow a3: 5 -> 2\narrow a4: 4 -> 5\narrow a5: 5 -> 1\n"
        "arrow a6: 1 -> 9\narrow a7: 9 -> 7\narrow a8: 8 -> 7\narrow a9: 3 -> 2\n"
        "zero: a7 * a6\nzero: a5 * a4\n"
    ),
    "ten vertices, 17 vs 19": (
        "vertices: 1..10\n"
        "arrow a2: 10 -> 8\narrow a3: 3 -> 8\narrow a4: 9 -> 10\narrow a5: 3 -> 1\n"
        "arrow a6: 5 -> 9\narrow a7: 2 -> 5\narrow a8: 7 -> 5\narrow a9: 6 -> 5\n"
        "arrow a10: 2 -> 4\n"
        "zero: a2 * a4\nzero: a6 * a8\n"
    ),
    "zones one arrow apart, 11 vs 12": (
        "vertices: 1..9\n"
        "arrow a2: 7 -> 5\narrow a3: 6 -> 5\narrow a4: 7 -> 1\narrow a5: 1 -> 3\n"
        "arrow a6: 8 -> 6\narrow a7: 4 -> 6\narrow a8: 9 -> 3\narrow a9: 2 -> 6\n"
        "zero: a3 * a6\nzero: a5 * a4\n"
    ),
}


@pytest.mark.xfail(strict=True, reason="glued_index applies the block maximum "
                   "outside its hypothesis")
@pytest.mark.parametrize("text", GLUED_SHORT.values(), ids=GLUED_SHORT.keys())
def test_glued_matches_knit_on_known_disagreements(text):
    bq = parse_bound_quiver(text)
    assert glued_index(bq).value == nilpotency_knit(bq).value


# Monotree-wild corpus inputs (bench/corpora.py, named seed-stream-instance)
# on which the block maximum fell short of the knitted index.
GLUED_CORPUS_SHORT = sorted((FIXTURES / "glued").glob("*.quiv"))


@pytest.mark.parametrize(
    "text",
    [path.read_text() for path in GLUED_CORPUS_SHORT] + list(GLUED_SHORT.values()),
    ids=[path.stem for path in GLUED_CORPUS_SHORT] + list(GLUED_SHORT),
)
def test_glued_abstains_where_the_block_maximum_falls_short(text):
    from radindex.errors import BlocksInteract

    bq = parse_bound_quiver(text)
    knitted = nilpotency_knit(bq, 4000).value
    with pytest.raises(BlocksInteract) as info:
        glued_index(bq, 4000)
    assert f"reads {knitted}," in str(info.value)
    report = route(bq, "all", 4000)
    assert report.agreement is not False
    assert report.r_value == knitted
    assert report.method("glued_formula").status == "error"


def test_glued_corpus_fixtures_are_all_there():
    assert len(GLUED_CORPUS_SHORT) == 13


def test_glued_matches_knit_or_abstains_on_touching_zones():
    """Zones with no arrow between them, which glued_tree_algebras draws
    only when asked: the block maximum either equals the knitted index or
    glued abstains, as it must on some of these."""
    from conftest import glued_tree_algebras

    agreed = abstained = 0
    for bq, ar in glued_tree_algebras(seed=1, count=40, touching=True):
        try:
            value = glued_index(bq).value
        except (ShapeMismatch, OverlappedRelations):
            abstained += 1
            continue
        assert value == nilpotency_knit(bq, ar=ar).value, bq
        agreed += 1
    assert agreed >= 30 and abstained >= 1


def test_glue_of_one_part_is_its_ar_quiver(e3):
    from radindex.knitting import glue

    ar = knit(e3)
    glued = glue(e3, [ar])
    assert [n.dim.counts for n in glued.nodes] == [n.dim.counts for n in ar.nodes]
    assert glued.out == ar.out and glued.inn == ar.inn


# --------------------------------------------------------------------------
# the router
# --------------------------------------------------------------------------

def test_route_e1_all(e1):
    report = route(e1, "all")
    assert report.r_value == 13
    assert report.agreement is True
    assert report.method("pullback_formula").value == 13
    assert report.method("knit").value == 13
    assert report.method("string_fans") is None  # E1 is not a string algebra


def test_route_e2_auto(e2):
    report = route(e2, "auto")
    assert report.r_value == 17
    pb = report.method("pullback_formula")
    assert pb.status == "inapplicable"
    assert pb.detail["b_nonempty"] is False
    assert pb.detail["naive_value"] == 14
    assert report.method("knit").value == 17


def test_route_e3_auto(e3):
    report = route(e3, "auto")
    assert report.r_value == 19
    glued = report.method("glued_formula")
    assert glued.status == "ok"
    assert [b["value"] for b in glued.detail["blocks"]] == [19, 15, 6]
    assert report.method("knit") is None  # auto stopped before knitting


def test_route_e4_auto_uses_strings(e4):
    report = route(e4, "auto")
    assert report.r_value == 8
    assert report.method("string_fans").status == "ok"


def test_route_hereditary_all():
    bq = orientations("D", 5, limit=1)[0]
    report = route(bq, "all")
    assert report.r_value == 7
    assert report.method("hereditary_table").value == 7
    assert report.method("knit").value == 7
    assert report.agreement is True


def test_route_toupie_auto():
    report = route(commutative_toupie((1, 2)), "auto")
    assert report.r_value == 7
    assert report.method("toupie_formula").status == "ok"


def test_route_policy_knit(e1):
    report = route(e1, "knit")
    assert report.r_value == 13
    assert [m.name for m in report.methods] == ["knit"]


def test_route_policy_string_rejects_non_string(e1):
    with pytest.raises(Unsupported):
        route(e1, "string")


def test_route_policy_formula(e2):
    with pytest.raises(Unsupported):
        route(e2, "formula")  # only the pullback applies, and it is inapplicable


def test_route_all_cross_validates_many():
    count_multi = 0
    for bq, _ in random_monomial_trees(seed=191, count=40, max_vertices=9):
        report = route(bq, "all")
        ok = [m for m in report.methods if m.status == "ok"]
        if len(ok) >= 2:
            assert report.agreement is True, bq
            count_multi += 1
    assert count_multi >= 20


def test_report_serialization_is_stable(e1):
    import json

    r1 = json.dumps(route(e1, "all").to_dict(), sort_keys=True)
    r2 = json.dumps(route(e1, "all").to_dict(), sort_keys=True)
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["schema"] == "radindex.report/1"
    assert payload["r"] == 13


# A representation-infinite single-relation tree.
WILD_TREE = (
    "vertices: 1..7\n"
    "arrow a: 2 -> 1\narrow b: 3 -> 1\narrow c: 4 -> 1\narrow d: 5 -> 1\n"
    "arrow e: 1 -> 6\narrow f: 6 -> 7\n"
    "zero: f * e\n"
)


def test_route_knits_a_failing_algebra_once(monkeypatch):
    """A representation-infinite single-relation tree: the pullback formula
    and the knitting oracle read one knit attempt and report its error."""
    bq = parse_bound_quiver(WILD_TREE)
    calls = []

    def counting_knit(*args):
        calls.append(args)
        return knit(*args)

    monkeypatch.setattr(formulas, "knit", counting_knit)
    with pytest.raises(Unsupported) as info:
        route(bq, "all", 300)
    assert len(calls) == 1
    report = info.value.report
    pb, kn = report.method("pullback_formula"), report.method("knit")
    assert pb.status == kn.status == "error"
    assert pb.error == kn.error


def test_route_leaves_no_reference_to_the_algebra(e1):
    from radindex.quiver import serialize

    bq = parse_bound_quiver(serialize(e1))
    assert route(bq, "all").r_value == 13
    ref = weakref.ref(bq)
    del bq
    gc.collect()
    assert ref() is None


def _freed_by_reference_counting(text, cap):
    """Route a fresh parse of `text` with the cycle collector off and tell
    whether the algebra is freed as soon as the caller drops it."""
    gc.disable()
    try:
        bq = parse_bound_quiver(text)
        ref = weakref.ref(bq)
        try:
            route(bq, "all", cap)
        except Unsupported:
            pass
        del bq
        return ref() is None
    finally:
        gc.enable()


def test_route_frees_the_algebra_after_an_inapplicable_pullback():
    assert _freed_by_reference_counting((FIXTURES / "e2.quiv").read_text(), DEFAULT_CAP)


def test_route_frees_the_algebra_after_unsupported():
    assert _freed_by_reference_counting(WILD_TREE, 300)


def test_parse_and_route_leave_no_cyclic_garbage():
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name in ("e1", "e2", "e3", "e4"):
            route(parse_bound_quiver((FIXTURES / f"{name}.quiv").read_text()), "all")
        found = gc.collect()
        garbage = gc.garbage[:]
        gc.garbage.clear()
    finally:
        gc.set_debug(flags)
        gc.enable()
    assert found == 0, sorted({type(o).__name__ for o in garbage})
