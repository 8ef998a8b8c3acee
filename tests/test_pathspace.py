import os
import subprocess
import sys
from pathlib import Path

import pytest

import radindex
from radindex.pathspace import (
    DimensionVector,
    dim_injective,
    dim_projective,
    dim_simple,
    path_basis,
    radical_summands,
    top_of_injective_summands,
)
from radindex.quiver import Arrow, BoundQuiver, Quiver, parse_bound_quiver

from conftest import (
    brute_relation_free_paths,
    commutative_toupie,
    linear_quiver,
    random_monomial_trees,
)


def dv(bq, *counts):
    return DimensionVector(bq.quiver.vertices, counts)


def test_path_basis_killed_by_relation(e1):
    assert path_basis(e1, 1, 7).dimension == 0


def test_path_basis_trivial_idempotent(e1):
    pb = path_basis(e1, 3, 3)
    assert pb.dimension == 1 and pb.basis == ((),)


def test_path_basis_commutative_square():
    bq = commutative_toupie((1, 1))
    source, sink = 1, 4
    pb = path_basis(bq, source, sink)
    assert pb.dimension == 1  # the two branch paths are identified
    assert len(pb.classes) == 1 and len(pb.classes[0]) == 2


def test_dim_projective_e1(e1):
    assert dim_projective(e1, 1) == dv(e1, 1, 1, 1, 0, 1, 1, 0)


def test_dim_injective_hereditary_a3():
    bq = linear_quiver(3)
    assert dim_injective(bq, 3) == dv(bq, 1, 1, 1)


def test_sink_projective_is_simple(e1):
    assert dim_projective(e1, 7) == dim_simple(e1.quiver, 7)


def test_simple_projective_iff_sink(e1):
    for a in e1.quiver.vertices:
        is_sink = not e1.quiver.arrows_from(a)
        assert (dim_projective(e1, a) == dim_simple(e1.quiver, a)) == is_sink
        is_source = not e1.quiver.arrows_into(a)
        assert (dim_injective(e1, a) == dim_simple(e1.quiver, a)) == is_source


def test_total_dimension_counts_agree(e1, e2, e3, e4):
    """Projective and injective dimension vectors both partition a basis of
    the whole algebra, so their grand totals coincide."""
    for bq in (e1, e2, e3, e4):
        vs = bq.quiver.vertices
        total_proj = sum(dim_projective(bq, a).total() for a in vs)
        total_inj = sum(dim_injective(bq, a).total() for a in vs)
        assert total_proj == total_inj
        # and per slot, column a of the projective table is row a of the
        # injective table
        for a in vs:
            for v in vs:
                assert dim_projective(bq, a)[v] == dim_injective(bq, v)[a]


def test_monomial_rank_equals_path_count():
    for bq, _ in random_monomial_trees(seed=23, count=25, max_vertices=9):
        for a in bq.quiver.vertices:
            for b in bq.quiver.vertices:
                assert path_basis(bq, a, b).dimension == brute_relation_free_paths(bq, a, b)


def test_dimension_vector_arithmetic():
    x = DimensionVector((1, 2), (1, 2))
    y = DimensionVector((1, 2), (0, 2))
    assert (x + y).counts == (1, 4)
    assert (x - y).counts == (1, 0)
    with pytest.raises(ValueError):
        y - x
    with pytest.raises(ValueError):
        x + DimensionVector((1, 3), (0, 0))


def test_radical_summands_e1(e1):
    # only the full-length path from 1 dies, so rad P_1 stops before 7
    summands = radical_summands(e1, 1)
    assert summands == (dv(e1, 0, 1, 1, 0, 1, 1, 0),)
    # paths from 3 survive all the way down
    assert radical_summands(e1, 3) == (dv(e1, 0, 0, 0, 0, 1, 1, 1),)
    assert radical_summands(e1, 7) == ()


def test_radical_summands_merge_in_commutative_square():
    bq = commutative_toupie((1, 1))
    summands = radical_summands(bq, 1)
    assert len(summands) == 1
    assert summands[0].counts == (0, 1, 1, 1)


def test_radical_summands_split_without_commutativity():
    q = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 1, 3)))
    bq = BoundQuiver(q)
    assert radical_summands(bq, 1) == (
        DimensionVector((1, 2, 3), (0, 1, 0)),
        DimensionVector((1, 2, 3), (0, 0, 1)),
    )


def test_top_of_injective_summands_e1(e1):
    # vertex 3 receives arrows b and c; the two socle-quotient summands
    tops = top_of_injective_summands(e1, 3)
    assert sorted(t.counts for t in tops) == [
        (0, 0, 0, 1, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0),
    ]


def test_top_of_injective_merges_in_commutative_square():
    bq = commutative_toupie((1, 1))
    tops = top_of_injective_summands(bq, 4)
    assert len(tops) == 1 and tops[0].counts == (1, 1, 1, 0)


# A commutative square 1 -> 4 with a tail 4 -> 5 that kills one branch.
SQUARE_WITH_TAIL = (
    "vertices: 1..5\n"
    "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\narrow e: 4 -> 5\n"
    "comm: b * a = d * c\nzero: e * b\n"
)


def test_zero_path_kills_its_whole_class():
    bq = parse_bound_quiver(SQUARE_WITH_TAIL)
    assert path_basis(bq, 1, 5).dimension == 0  # e*d*c = e*b*a = 0
    assert path_basis(bq, 2, 5).dimension == 0
    pb = path_basis(bq, 3, 5)
    assert pb.dimension == 1 and pb.basis == (("e", "d"),)
    pb = path_basis(bq, 1, 4)
    assert pb.dimension == 1 and pb.classes == (frozenset({("b", "a"), ("d", "c")}),)


def test_commutativity_partner_through_zero_relation_on_cyclic_quiver():
    """On a cyclic quiver the path e*b*a runs through the zero-relation e*b
    and is not enumerated; its partner e*d*c is still zero."""
    bq = parse_bound_quiver(
        SQUARE_WITH_TAIL + "arrow f: 5 -> 1\nzero: a * f\nzero: c * f\n"
    )
    assert not bq.quiver.is_directed_acyclic()
    assert path_basis(bq, 1, 5).dimension == 0


def test_radical_summands_order_does_not_depend_on_hash_seed():
    """Vertex 1 has boundary arrows a, b, c; the commutativity relation
    merges the summands through a and c, which then come first."""
    text = (
        "vertices: 1..5\n"
        "arrow a: 1 -> 2\narrow c: 1 -> 3\narrow b: 1 -> 5\n"
        "arrow d: 2 -> 4\narrow e: 3 -> 4\n"
        "comm: d * a = e * c\n"
    )
    code = (
        "from radindex.pathspace import radical_summands\n"
        "from radindex.quiver import parse_bound_quiver\n"
        f"print([s.counts for s in radical_summands(parse_bound_quiver({text!r}), 1)])\n"
    )
    src = str(Path(radindex.__file__).resolve().parents[1])
    printed = set()
    for seed in "0123":
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        printed.add(proc.stdout)
    assert printed == {"[(0, 1, 1, 1, 0), (0, 0, 0, 0, 1)]\n"}
