import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import wsh
from wsh import (
    DimensionOutOfRange,
    MismatchedDimensions,
    ZeroChain,
    build_complex,
    cycle_basis,
    from_maximal,
    homology_all,
    lift_cycle,
)
from wsh.homology import homology
from .conftest import RATIONALS as Q
from .conftest import GF2

DATA = pathlib.Path(__file__).parent / "data"


def test_cycle_basis_hollow_triangle(hollow_triangle):
    basis = cycle_basis(hollow_triangle, 1, Q)
    assert basis.independent == [("a", "b"), ("a", "c")]
    assert basis.dependent == [("b", "c")]
    beta = basis.cycles[("b", "c")]
    assert beta == {("b", "c"): 1, ("a", "b"): 1, ("a", "c"): -1}


def test_cycle_basis_dimension_zero(glued_triangles):
    basis = cycle_basis(glued_triangles, 0, Q)
    assert basis.independent == []
    assert set(basis.dependent) == {("a",), ("b",), ("c",), ("d",)}
    for v, beta in basis.cycles.items():
        assert beta == {v: 1}


def test_cycle_basis_processes_heavy_edges_first(tetra_boundary):
    basis = cycle_basis(tetra_boundary, 1, Q)
    # AB has weight 4, all other edges 2, so AB is processed first and
    # lands in the independent set
    assert ("A", "B") in basis.independent
    assert len(basis.independent) == 3
    assert len(basis.dependent) == 3


def test_cycle_basis_cycle_structure(tetra_boundary):
    basis = cycle_basis(tetra_boundary, 1, Q)
    for kappa, beta in basis.cycles.items():
        assert beta[kappa] == Q.one()
        support = set(beta)
        assert support <= set(basis.independent) | {kappa}
        # the owner achieves the minimum weight over the support
        wmin = min(tetra_boundary.weight(s) for s in support)
        assert tetra_boundary.weight(kappa) == wmin


def test_cycle_basis_out_of_range(hollow_triangle):
    with pytest.raises(DimensionOutOfRange):
        cycle_basis(hollow_triangle, -1, Q)
    empty = cycle_basis(hollow_triangle, 5, Q)
    assert empty.dependent == [] and empty.independent == []


def test_lift_cycle_scales_by_weight_gap():
    X = build_complex(
        [(("a",), 3), (("b",), 3), (("c",), 3),
         (("a", "b"), 3), (("a", "c"), 2), (("b", "c"), 1)]
    )
    chain = {("a", "b"): Q.one(), ("a", "c"): Q.neg(Q.one()), ("b", "c"): Q.one()}
    lifted = lift_cycle(chain, X, Q)
    assert lifted.terms[("a", "b")] == ((2, Q.one()),)
    assert lifted.terms[("a", "c")] == ((1, Q.neg(Q.one())),)
    assert lifted.terms[("b", "c")] == ((0, Q.one()),)


def test_lift_cycle_equal_weights_is_identity(hollow_triangle):
    chain = {("a", "b"): Q.one(), ("a", "c"): Q.neg(Q.one()), ("b", "c"): Q.one()}
    lifted = lift_cycle(chain, hollow_triangle, Q)
    for s, terms in lifted.terms.items():
        assert terms == ((0, chain[s]),)


def test_lift_cycle_errors(hollow_triangle):
    with pytest.raises(ZeroChain):
        lift_cycle({}, hollow_triangle, Q)
    with pytest.raises(ZeroChain):
        lift_cycle({("a", "b"): Q.zero()}, hollow_triangle, Q)
    with pytest.raises(MismatchedDimensions):
        lift_cycle({("a",): Q.one(), ("a", "b"): Q.one()}, hollow_triangle, Q)


def test_pairing_filled_triangle(filled_triangle):
    pairing = homology(filled_triangle, 1, Q).pairing
    assert [(p.kappa, p.mu, p.m) for p in pairing.pairs] == [
        (("b", "c"), ("a", "b", "c"), 1)
    ]
    assert pairing.unpaired == []


def test_pairing_no_cofaces(hollow_triangle):
    pairing = homology(hollow_triangle, 1, Q).pairing
    assert pairing.pairs == []
    assert pairing.unpaired == [("b", "c")]


def test_pairing_tetra_vertices(tetra_boundary):
    # images are taken in decreasing weight order, so the heavy AB edge is
    # considered first and captures A with exponent 5 - 4 = 1
    pairing = homology_all(tetra_boundary, Q)[0].pairing
    assert [(p.kappa, p.mu, p.m) for p in pairing.pairs] == [
        (("A",), ("A", "B"), 1),
        (("B",), ("A", "C"), 3),
        (("C",), ("A", "D"), 3),
    ]
    assert pairing.unpaired == [("D",)]


def test_homology_tetra_boundary(tetra_boundary):
    for F in (Q, GF2):
        mods = homology_all(tetra_boundary, F)
        assert [(m.free_rank, m.torsion) for m in mods] == [
            (1, [1, 3, 3]),
            (0, [1, 1, 1]),
            (1, []),
        ]


def test_homology_glued_triangles_matches_golden(glued_triangles):
    golden = json.loads((DATA / "glued_triangles.golden.json").read_text())
    mods = homology_all(glued_triangles, Q)
    assert [
        {"n": m.n, "free_rank": m.free_rank, "torsion": m.torsion} for m in mods
    ] == golden["dimensions"]


def test_golden_records_match_fixture(glued_triangles):
    golden = json.loads((DATA / "glued_triangles.golden.json").read_text())
    rebuilt = build_complex(
        [(tuple(rec.split()), w) for rec, w in golden["records"]]
    )
    assert rebuilt == glued_triangles


def test_homology_single_vertex():
    X = build_complex([(("a",), 0)])
    mods = homology_all(X, Q)
    assert len(mods) == 1
    assert (mods[0].free_rank, mods[0].torsion) == (1, [])


def test_homology_single_edge_module_and_generators():
    X = build_complex([(("a",), 3), (("b",), 2), (("a", "b"), 1)])
    mod = homology(X, 0, Q, with_generators=True)
    assert (mod.free_rank, mod.torsion) == (1, [1])
    free, torsion = mod.generators
    assert free.terms == {("a",): ((0, Q.one()),)}
    assert torsion.terms == {
        ("a",): ((1, Q.neg(Q.one())),),
        ("b",): ((0, Q.one()),),
    }


def test_homology_filled_triangle_trivial_weights():
    X = from_maximal([("a", "b", "c")], 0)
    mods = homology_all(X, Q)
    assert [(m.free_rank, m.torsion) for m in mods] == [(1, []), (0, []), (0, [])]


def test_homology_zero_exponent_pairs_drop_from_torsion():
    # equal weights force every pairing exponent to zero
    X = from_maximal([("a", "b", "c"), ("b", "c", "d")], 2)
    for m in homology_all(X, Q):
        assert m.torsion == []
        for p in m.pairing.pairs:
            assert p.m == 0


def test_homology_generator_count_matches_module(glued_triangles):
    mods = homology_all(glued_triangles, Q, with_generators=True)
    for m in mods:
        assert len(m.generators) == m.free_rank + len(m.torsion)


def test_homology_all_consistent_with_single_calls(glued_triangles):
    mods = homology_all(glued_triangles, Q)
    for m in mods:
        single = homology(glued_triangles, m.n, Q)
        assert (single.free_rank, single.torsion) == (m.free_rank, m.torsion)


def test_wsh_homology_is_the_module():
    # the package does not shadow its submodule with the homology function
    assert inspect.ismodule(wsh.homology)
    assert wsh.homology.homology_all is wsh.homology_all


def test_homology_out_of_range(hollow_triangle):
    with pytest.raises(DimensionOutOfRange):
        homology(hollow_triangle, -1, Q)


def test_negative_pair_exponent_raises_under_optimize():
    # the complex skips validation: its edge is heavier than both vertices.
    # The check must survive python -O, which strips asserts
    code = (
        "from wsh import ComplexError, FieldSpec, homology_all\n"
        "from wsh.complexes import WeightedComplex\n"
        "X = WeightedComplex({('a',): 1, ('b',): 1, ('a', 'b'): 5})\n"
        "try:\n"
        "    homology_all(X, FieldSpec.rationals())\n"
        "except ComplexError as e:\n"
        "    print('raised:', e)\n"
    )
    src = str(pathlib.Path(wsh.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised:") and "negative exponent -4" in done.stdout
