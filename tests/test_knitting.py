import pytest

from radindex.errors import CapExceeded, NoPath, NotFound, WithoutLength
from radindex.knitting import (
    ARNode,
    ARQuiver,
    check_mesh_identities,
    distance,
    grading,
    has_length,
    knit,
    nilpotency_knit,
    r_a_knit,
    reach,
    to_dot,
)
from radindex.pathspace import DimensionVector, dim_simple
from radindex.quiver import Arrow, BoundQuiver, Quiver
from radindex.reductions import involved_vertices, overlap_report, zero_relation_vertices

from conftest import (
    gentle_square_with_tails,
    linear_quiver,
    load,
    orientations,
    random_monomial_trees,
)


def test_knit_a2():
    bq = linear_quiver(2)
    ar = knit(bq)
    assert ar.node_count() == 3
    dims = sorted(n.dim.counts for n in ar.nodes)
    assert dims == [(0, 1), (1, 0), (1, 1)]
    # tau pairs I_1 = S_1 back to P_2 = S_2
    s1 = ar.locate(DimensionVector((1, 2), (1, 0)))
    p2 = ar.locate(DimensionVector((1, 2), (0, 1)))
    assert ar.tau[s1.ident] == p2.ident


def test_knit_a3_six_nodes():
    bq = linear_quiver(3)
    ki = nilpotency_knit(bq)
    assert ki.ar.node_count() == 6
    assert ki.value == 3
    assert ki.per_vertex[2] == 2


def test_knit_e1(e1):
    ki = nilpotency_knit(e1)
    assert ki.value == 13
    assert ki.per_vertex[3] == 12
    assert not check_mesh_identities(ki.ar)
    assert has_length(ki.ar)


def test_knit_e2_value(e2):
    ki = nilpotency_knit(e2)
    assert ki.value == 17
    assert ki.per_vertex[2] == 16  # the paper computes this path length


def test_knit_e3_value(e3):
    assert nilpotency_knit(e3).value == 19


def test_locate(e1):
    ar = knit(e1)
    node = ar.locate(dim_simple(e1.quiver, 3))
    assert node.simple_of == 3
    with pytest.raises(NotFound):
        ar.locate(DimensionVector(e1.quiver.vertices, (0,) * 7))


def test_locate_all_roles(e1):
    ar = knit(e1)
    for a in e1.quiver.vertices:
        assert ar.projective(a).projective_of == a
        assert ar.injective(a).injective_of == a


def test_reach_a2():
    bq = linear_quiver(2)
    ar = knit(bq)
    idx = reach(ar)
    p1 = ar.projective(1).ident
    i1 = ar.injective(1).ident
    assert idx.succ_of([p1]) == {p1, i1}
    for node in ar.nodes:
        assert node.ident in idx.succ_of([node.ident])
        assert node.ident in idx.pred_of([node.ident])


def test_reach_matches_dfs(e1):
    ar = knit(e1)
    idx = reach(ar)
    i7 = ar.injective(7).ident

    def dfs_pred(target):
        seen = {target}
        stack = [target]
        while stack:
            for w in ar.inn[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    preds = idx.pred_of([i7])
    assert preds == dfs_pred(i7)
    # every indecomposable on a path to I_7 is in there, P_7 included
    assert ar.projective(7).ident in preds
    assert ar.simple(7).ident in preds


def test_r_a_sink_is_distance_to_injective(e1):
    ar = knit(e1)
    # at a sink b, P_b = S_b, so r_b is the plain distance to I_b
    b = 7
    assert r_a_knit(ar, b) == distance(ar, ar.projective(b).ident, ar.injective(b).ident)


def test_r_a_equals_the_sum_of_shortest_distances(e1, e2, e3, e4):
    algebras = [e1, e2, e3, e4]
    for kind in ("A", "D", "E"):
        algebras += orientations(kind, 6)
    algebras += [bq for bq, _ in random_monomial_trees(seed=73, count=30)]
    for bq in algebras:
        ar = knit(bq)
        for a in bq.quiver.vertices:
            p, s, i = (ar.projective(a).ident, ar.simple(a).ident,
                       ar.injective(a).ident)
            assert r_a_knit(ar, a) == distance(ar, p, s) + distance(ar, s, i), (bq, a)


def test_grading_rises_by_one_along_every_arrow(e1):
    for bq in [e1] + orientations("D", 6, limit=8):
        ar = knit(bq)
        level = grading(ar)
        assert level is not None
        for u in range(ar.node_count()):
            for v in ar.out[u]:
                assert level[v] == level[u] + 1


def test_has_length_without_a_grading():
    """The underlying cycle a-b-c-d-e of a -> b -> c <- d -> e <- a is
    unbalanced, so no grading exists; no two paths share both ends, so the
    quiver still has length, and the sweep has to say so."""
    order = "adbec"  # node ids: a topological order
    bq = linear_quiver(5)  # only labels the nodes
    ar = ARQuiver(bq)
    for ident in range(5):
        unit = tuple(int(k == ident) for k in range(5))
        ar.nodes.append(ARNode(ident, DimensionVector(bq.quiver.vertices, unit)))
        ar.out[ident], ar.inn[ident] = {}, {}
    for x, y in ("ab", "bc", "dc", "de", "ae"):
        u, v = order.index(x), order.index(y)
        ar.out[u][v] = ar.inn[v][u] = 1
    assert grading(ar) is None
    assert has_length(ar)


def test_r_a_from_a_grading_needs_a_path():
    ar = knit(linear_quiver(2))
    p1, s1 = ar.projective(1).ident, ar.simple(1).ident
    del ar.out[p1][s1], ar.inn[s1][p1]
    assert grading(ar) is not None
    with pytest.raises(NoPath):
        r_a_knit(ar, 1)


def test_mesh_identities_random_trees():
    for bq, ar in random_monomial_trees(seed=31, count=40, max_vertices=10):
        assert not check_mesh_identities(ar)


def test_root_counts_hereditary():
    expected = {("A", 4): 10, ("A", 6): 21, ("D", 4): 12, ("E", 6): 36}
    for (kind, n), roots in expected.items():
        for bq in orientations(kind, n, limit=8):
            assert knit(bq).node_count() == roots


def test_cap_exceeded_on_wild_input():
    # Kronecker-like: two parallel arrows
    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 1, 2)))
    with pytest.raises(CapExceeded):
        knit(BoundQuiver(q), cap=60)


def test_ambiguous_dimensions_refused():
    from radindex.errors import AmbiguousInjective
    from radindex.quiver import Relation, ZERO

    # 2-cycle with rad^2 = 0: both projectives have dimension vector (1, 1)
    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    bq = BoundQuiver(q, (Relation(ZERO, (("b", "a"),)), Relation(ZERO, (("a", "b"),))))
    with pytest.raises(AmbiguousInjective):
        knit(bq)


def test_has_length_true_on_trees_and_d4():
    from conftest import orientations

    assert has_length(knit(load("e1")))
    for bq in orientations("D", 4, limit=4):
        assert has_length(knit(bq))


def test_has_length_false_exists_and_knit_abstains():
    found = None
    for bq in gentle_square_with_tails(seed=3, count=40):
        try:
            ar = knit(bq, 2000)
        except Exception:
            continue
        if not has_length(ar):
            found = (bq, ar)
            break
    assert found is not None, "no without-length fixture found in the search"
    bq, ar = found
    with pytest.raises(WithoutLength):
        r_a_knit(ar, bq.quiver.vertices[0])
    with pytest.raises(WithoutLength):
        nilpotency_knit(bq, ar=ar)


def test_zero_vertex_lemma_properties():
    """Vertices of the same zero-relation have equal r_a; involved vertices
    dominate the rest (with-length monomial trees)."""
    checked = 0
    for bq, ar in random_monomial_trees(seed=47, count=60, max_vertices=10):
        if not has_length(ar):
            continue
        per = {a: r_a_knit(ar, a) for a in bq.quiver.vertices}
        involved_all = set(zero_relation_vertices(bq).vertices)
        for rel in bq.zero_relations():
            vs = involved_vertices(bq, rel)
            assert len({per[v] for v in vs}) == 1, (bq, rel, per)
            checked += 1
        non_sink_source = [
            a for a in bq.quiver.vertices
            if bq.quiver.arrows_from(a) and bq.quiver.arrows_into(a)
        ]
        if involved_all:
            best_involved = max(per[v] for v in involved_all)
            for b in non_sink_source:
                if b not in involved_all:
                    assert best_involved >= per[b], (bq, b, per)
    assert checked >= 60


def test_nonzero_vertex_lemma_on_overlap(e4):
    """Overlap-intersection vertices share r_a and dominate the other
    involved vertices (E4-style fixtures)."""
    ki = nilpotency_knit(e4)
    per = ki.per_vertex
    report = overlap_report(e4)
    assert len(report.pairs) == 1
    _, _, inter = report.pairs[0]
    assert inter == (3, 4)
    assert len({per[v] for v in inter}) == 1
    for v in zero_relation_vertices(e4).vertices:
        assert per[inter[0]] >= per[v]


def _sectional_bypass_exists(ar, x, y):
    """Sectional path x -> ... -> y of length >= 2 parallel to the arrow."""
    seen = set()
    stack = []
    for mid in ar.out[x]:
        if mid != y:
            stack.append((x, mid))
            seen.add((x, mid))
    while stack:
        prev, cur = stack.pop()
        if cur == y:
            return True
        banned = ar.tau_inv.get(prev)
        for nxt in ar.out[cur]:
            if nxt == banned or (cur, nxt) in seen:
                continue
            seen.add((cur, nxt))
            stack.append((cur, nxt))
    return False


def test_no_sectional_bypass():
    """No AR arrow admits a parallel sectional path (bypass check)."""
    fixtures = [load("e1"), load("e4"), linear_quiver(4)]
    for bq, _ in random_monomial_trees(seed=61, count=15, max_vertices=8):
        fixtures.append(bq)
    for bq in fixtures:
        ar = knit(bq)
        for x in range(ar.node_count()):
            for y in ar.out[x]:
                assert not _sectional_bypass_exists(ar, x, y), (bq, x, y)


def test_dot_dump_mentions_roles(e1):
    text = to_dot(knit(e1))
    assert "digraph" in text and "P1" in text and "I7" in text


def _quiv(arrows, zeros=()):
    """`.quiv` text on the vertices 1..n that the arrows name."""
    ends = [arrow.split(":")[1].split("->") for arrow in arrows]
    n = max(int(v) for pair in ends for v in pair)
    return "".join([f"vertices: 1..{n}\n"]
                   + [f"arrow {arrow}\n" for arrow in arrows]
                   + [f"zero: {z}\n" for z in zeros])


@pytest.mark.parametrize("arrows, zeros, cap, error, text", [
    (["a1: 1 -> 2", "a2: 2 -> 3", "a3: 1 -> 3"], ["a2 * a1"], 300, "KnittingStuck",
     "no progress with 1 projectives pending and 2 meshes open"),
    (["a1: 2 -> 1", "a2: 1 -> 2"], ["a1 * a2"], 300, "KnittingStuck",
     "no progress with 2 projectives pending and 0 meshes open"),
    (["a1: 1 -> 2", "a2: 2 -> 3", "a3: 2 -> 4", "a4: 4 -> 1"], ["a1 * a4"], 300,
     "KnittingStuck", "no progress with 3 projectives pending and 1 meshes open"),
    (["a1: 1 -> 2", "a2: 2 -> 1"], ["a1 * a2", "a2 * a1"], 300, "AmbiguousInjective",
     "two injectives share a dimension vector"),
    (["a1: 2 -> 1", "a2: 1 -> 2", "a3: 2 -> 1"], ["a1 * a2", "a2 * a1", "a2 * a3"], 300,
     "AmbiguousInjective", "two projectives share a dimension vector"),
    (["a: 1 -> 2", "b: 1 -> 2"], [], 5, "CapExceeded",
     "more than 5 nodes; the algebra is likely representation-infinite"),
    (["a: 1 -> 2", "b: 2 -> 3"], [], 5, "CapExceeded",
     "more than 5 nodes; the algebra is likely representation-infinite"),
])
def test_knit_out_of_scope_exits(arrows, zeros, cap, error, text):
    """Each exit of the knit outside the representation-directed scope, with
    the class and text it had before the worklist: the stuck counts, both
    setup refusals, and the cap, which A_3 (six nodes) hits at cap 5."""
    from radindex import errors
    from radindex.quiver import parse_bound_quiver

    bq = parse_bound_quiver(_quiv(arrows, zeros))
    with pytest.raises(getattr(errors, error)) as info:
        knit(bq, cap)
    assert type(info.value).__name__ == error
    assert str(info.value) == text


def test_cap_fires_past_the_last_node():
    """A_3 has six nodes: cap 6 knits it all, cap 5 stops (above)."""
    assert knit(linear_quiver(3), cap=6).node_count() == 6


def test_e8_knits_in_every_orientation_up_to_six():
    """The maximal root of E8 has coordinate 6, the bound knit stops above;
    every orientation knits all 120 positive roots and reaches it."""
    quivers = orientations("E", 8)
    assert len(quivers) == 128
    for bq in quivers:
        ar = knit(bq)
        assert ar.node_count() == 120
        assert max(max(node.dim.counts) for node in ar.nodes) == 6


def test_bound_fires_at_the_first_coordinate_above_six():
    """The Kronecker quiver's preprojectives are (0,1), (1,2), ...; (6,7)
    is the first with a 7, long before cap 60."""
    from radindex.errors import NotDirected

    bq = BoundQuiver(Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 1, 2))))
    with pytest.raises(NotDirected) as info:
        knit(bq, cap=60)
    assert isinstance(info.value, CapExceeded)
    assert str(info.value) == (
        "dimension vector (6, 7) has a coordinate above 6; "
        "the algebra is not representation-directed"
    )


def test_bound_checks_the_projectives_first():
    """Seven parallel arrows give P_1 = (1, 7): refused before the first
    node, so even cap 0 does not fire."""
    from radindex.errors import NotDirected

    arrows = tuple(Arrow(f"a{i}", 1, 2) for i in range(7))
    with pytest.raises(NotDirected, match=r"\(1, 7\)"):
        knit(BoundQuiver(Quiver((1, 2), arrows)), cap=0)
