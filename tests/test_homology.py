import copy
import inspect
import itertools
import json
import os
import pathlib
import pickle
import random
import re
import subprocess
import sys

import pytest

import wsh
from wsh.complexes import build_complex, from_maximal
from wsh.errors import DimensionOutOfRange, DuplicateSimplex, MismatchedDimensions, ZeroChain
from wsh.fields import FieldSpec
from wsh.fileio import render_json_report
from wsh.homology import (
    CycleBasis,
    HomologyModule,
    PairedSimplices,
    SimplexPairing,
    WeightedChain,
    cycle_basis,
    homology,
    homology_all,
    lift_cycle,
    simplex_pairing,
)
from .conftest import RATIONALS as Q
from .conftest import GF2, random_weighted_complex, torus_grid_complex

GF5 = FieldSpec(5)

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


def test_lift_cycle_accepts_any_vertex_order(glued_triangles):
    # X.weight takes ("b", "a") for the edge {a, b}; the lift keeps the key as given
    chain = {("b", "a"): Q.one(), ("a", "c"): Q.neg(Q.one()), ("b", "c"): Q.one()}
    lifted = lift_cycle(chain, glued_triangles, Q)
    assert lifted.n == 1
    assert lifted.terms == {s: ((0, c),) for s, c in sorted(chain.items())}
    assert list(lifted.terms) == [("a", "c"), ("b", "a"), ("b", "c")]
    # and each spelling is weighed: {b, d} and {c, d} are one lighter than {b, c}
    chain = {("c", "b"): Q.one(), ("d", "c"): Q.one(), ("b", "d"): Q.one()}
    lifted = lift_cycle(chain, glued_triangles, Q)
    assert lifted.terms == {
        ("b", "d"): ((0, Q.one()),),
        ("c", "b"): ((1, Q.one()),),
        ("d", "c"): ((0, Q.one()),),
    }


def test_lift_cycle_refuses_two_spellings_of_one_simplex(glued_triangles):
    # ab + ba names the edge {a, b} twice: one simplex, not two terms
    for chain in (
        {("a", "b"): Q.one(), ("b", "a"): Q.one()},
        {("b", "c"): Q.one(), ("b", "a"): Q.one(), ("a", "b"): Q.neg(Q.one())},
    ):
        with pytest.raises(DuplicateSimplex, match=r"^simplex \{a b\} listed more than once$") as ei:
            lift_cycle(chain, glued_triangles, Q)
        assert ei.value.simplex == ("a", "b")
    # a spelling whose coefficient is zero is dropped before the check
    lifted = lift_cycle({("a", "b"): Q.one(), ("b", "a"): Q.zero()}, glued_triangles, Q)
    assert list(lifted.terms) == [("a", "b")]


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
    # homology(X, n) with generators carries the chains through _split's
    # reduction over every face; homology_all through the pairing passes
    # over owner rows. Their reports must agree byte for byte
    complexes = [glued_triangles, _sphere(7)]
    complexes += [torus_grid_complex(k, random.Random(k)) for k in (6, 10)]
    for X, field in itertools.product(complexes, (Q, GF2, GF5)):
        for m in homology_all(X, field, True):
            single = homology(X, m.n, field, True)
            assert render_json_report([single], field) == render_json_report([m], field)


@pytest.mark.parametrize("field", [Q, GF2], ids=lambda f: f.name)
def test_single_dimension_carries_chains_only_for_generators(monkeypatch, field):
    # homology(X, 1) splits the edges itself, in the union-find forest,
    # rooting that forest exactly when generators are asked for but never
    # carrying an edge chain: the generators are pushed out of the forest.
    # The module is the same either way, and _reduce never sees the edges
    calls = []
    reduce, forest = wsh.homology._reduce, wsh.homology._edge_forest

    def reduce_spy(X, n, rows, field, with_cycles):
        calls.append((n, with_cycles))
        return reduce(X, n, rows, field, with_cycles)

    def forest_spy(X, owners, field, rooted):
        calls.append((1, rooted))
        basis, taken = forest(X, owners, field, rooted)
        assert basis.cycles == {}
        assert (basis._forest is not None) == rooted
        return basis, taken

    monkeypatch.setattr(wsh.homology, "_reduce", reduce_spy)
    monkeypatch.setattr(wsh.homology, "_edge_forest", forest_spy)
    X = torus_grid_complex(6, random.Random(6))
    modules = []
    for gens in (False, True):
        calls.clear()
        modules.append(homology(X, 1, field, with_generators=gens))
        assert calls == [(1, gens), (2, False)]
    plain, full = modules
    assert plain.generators is None and full.generators is not None
    assert (plain.free_rank, plain.torsion) == (full.free_rank, full.torsion)
    assert plain.pairing.pairs == full.pairing.pairs


def test_wsh_homology_is_the_module():
    # the package does not shadow its submodule with the homology function
    assert inspect.ismodule(wsh.homology)
    assert wsh.homology.homology_all is wsh.homology_all


def test_package_exports_what_the_readme_names():
    # every python block of the README runs, and the package exports
    # exactly the names its Library section gives
    readme = (DATA.parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert sorted(wsh.__all__) == [
        "FieldSpec",
        "build_complex",
        "cycle_basis",
        "homology_all",
        "parse_complex_file",
    ]
    for name in wsh.__all__:
        assert re.search(rf"\b{name}\b", readme), name


def test_homology_out_of_range(hollow_triangle):
    with pytest.raises(DimensionOutOfRange):
        homology(hollow_triangle, -1, Q)


def test_simplex_pairing_out_of_range(hollow_triangle):
    # refused before any work, as cycle_basis and homology refuse it
    with pytest.raises(DimensionOutOfRange):
        simplex_pairing(hollow_triangle, -1, cycle_basis(hollow_triangle, 0, Q), Q)


def test_negative_pair_exponent_raises_under_optimize():
    # the complex skips validation: its edge is heavier than both vertices.
    # The check must survive python -O, which strips asserts
    code = (
        "from wsh import FieldSpec, homology_all\n"
        "from wsh.errors import ComplexError\n"
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


def _tied_complexes():
    # weights 0-1 make ties the rule, so every order below leans on its tie-break
    rng = random.Random(19)
    yield from (random_weighted_complex(rng, max_weight=1) for _ in range(60))
    yield torus_grid_complex(6, random.Random(6))


def test_processing_and_owner_orders_break_ties_lexicographically():
    # columns come by decreasing weight and cycle owners by increasing
    # weight, ties ascending lexicographic in both; pairs and unpaired
    # owners follow the owner order, and each pair's stored column holds,
    # past its pivot, only owners after its own
    for X in _tied_complexes():
        w = X._weights
        modules = homology_all(X, Q)
        basis = cycle_basis(X, 0, Q)
        for n in range(X.dim + 1):
            order = wsh.homology._processing_order(X, n)
            assert order == sorted(X.n_simplices(n), key=lambda s: (-w[s], s))
            owners = sorted(basis.dependent, key=lambda s: (w[s], s))
            for pairing in (modules[n].pairing, homology(X, n, Q).pairing):
                paired = {p.kappa for p in pairing.pairs}
                assert [p.kappa for p in pairing.pairs] == [s for s in owners if s in paired]
                assert pairing.unpaired == [s for s in owners if s not in paired]
                stored_owners, columns = pairing._columns
                assert stored_owners == owners
                for p, (_c, rest) in zip(pairing.pairs, columns, strict=True):
                    k = owners.index(p.kappa)
                    assert all(i > k for i in rest), (p, rest)
            basis = modules[n].pairing.up


def _sphere(d):
    # the `!maximal 0` boundary of the d-simplex
    return from_maximal(itertools.combinations([f"v{i}" for i in range(d + 1)], d), 0)


def _pivot_map(taken):
    return {k: (s, c, rest, g) for k, (s, c, rest, _chain, g) in taken.items()}


@pytest.mark.parametrize("field", [Q, GF2, GF5], ids=lambda f: f.name)
def test_reduce_splits_and_pivots_the_same_with_and_without_chains(field):
    # the chain-free reduction stops once every row that can be a pivot is
    # one; what it returns must be what carrying the chains to the end gives
    reduce = wsh.homology._reduce
    rng = random.Random(20)
    complexes = [random_weighted_complex(rng, max_weight=1) for _ in range(40)]
    complexes += [_sphere(d) for d in range(2, 10)]
    complexes += [
        torus_grid_complex(6, random.Random(6)),
        build_complex([(("a",), 1), (("b",), 1), (("a", "b"), 0)]),
        # H_0 has free rank 2, so the edges never reach their bound
        from_maximal([("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f")], 0),
    ]
    cases = [(from_maximal([("a", "b", "c", "d")], 0), n, []) for n in (2, 3)]
    for X in complexes:
        weights = X._weights
        basis = cycle_basis(X, 0, field)
        for n in range(1, X.dim + 1):
            cases.append((X, n, X.n_simplices(n - 1)[::-1]))
            owners = sorted(basis.dependent, key=weights.__getitem__)
            cases.append((X, n, owners))
            basis = reduce(X, n, owners, field, True)[0]
    stopped = 0
    for X, n, rows in cases:
        full, full_taken = reduce(X, n, rows, field, True)
        plain, plain_taken = reduce(X, n, rows, field, False)
        assert plain.dependent == full.dependent
        assert plain.independent == full.independent
        assert plain.cycles == {}
        assert _pivot_map(plain_taken) == _pivot_map(full_taken)
        if len(plain_taken) == len(rows) and plain.dependent:
            stopped += 1
    assert stopped


def test_homology_all_stops_each_chain_free_reduction_at_the_rank_bound():
    # on the boundary of the 8-simplex every row of every map becomes a
    # pivot early, and the columns left after that take no products; the
    # edges go to the union-find forest, which takes none at all
    class CountingField(FieldSpec):
        __slots__ = ("muls",)

        def __init__(self, p):
            super().__init__(p)
            self.muls = 0

        def mul(self, a, b):
            self.muls += 1
            return super().mul(a, b)

    field = CountingField(2)
    modules = homology_all(_sphere(8), field)
    assert [(m.free_rank, m.torsion) for m in modules] == [(1, [])] + [(0, [])] * 6 + [(1, [])]
    assert [len(m.pairing.pairs) for m in modules] == [8, 28, 56, 70, 56, 28, 8, 0]
    assert field.muls == 0


def _edge_module():
    # H_0 of a ; 3, b ; 2, a b ; 1: one free vertex and one R/(pi^1)
    X = build_complex([(("a",), 3), (("b",), 2), (("a", "b"), 1)])
    return homology(X, 0, Q, with_generators=True)


def test_result_types_repr_their_public_fields_in_order():
    mod = _edge_module()
    up = "CycleBasis(n=1, dependent=[], independent=[('a', 'b')], cycles={})"
    pair = "PairedSimplices(kappa=('b',), mu=('a', 'b'), m=1)"
    pairing = f"SimplexPairing(n=0, pairs=[{pair}], unpaired=[('a',)], up={up})"
    chains = (
        "[WeightedChain(n=0, terms={('a',): ((0, 1),)}), "
        "WeightedChain(n=0, terms={('a',): ((1, -1),), ('b',): ((0, 1),)})]"
    )
    assert repr(mod.pairing.up) == up
    assert repr(mod.pairing.pairs[0]) == pair
    assert repr(mod.pairing) == pairing
    assert repr(mod.generators) == chains
    assert repr(mod) == (
        f"HomologyModule(n=0, free_rank=1, torsion=[1], pairing={pairing}, generators={chains})"
    )
    assert repr(HomologyModule(0, 0, [], mod.pairing)).endswith(", generators=None)")


def _assert_fields_are_fixed(value):
    # a named tuple's fields cannot be reassigned or deleted, and the lists
    # and dicts they hold keep it unhashable
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 2)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(TypeError):
        hash(value)


def test_cycle_basis_equality_leaves_out_the_forest():
    X = build_complex([(("a",), 1), (("b",), 1), (("c",), 1),
                       (("a", "b"), 1), (("a", "c"), 1), (("b", "c"), 1)])
    basis = cycle_basis(X, 1, Q)
    assert CycleBasis._fields == ("n", "dependent", "independent", "cycles")
    assert basis == (1, basis.dependent, basis.independent, basis.cycles)
    n, dependent, independent, cycles = basis
    assert basis._asdict() == {"n": n, "dependent": dependent, "independent": independent,
                               "cycles": cycles}
    assert basis._forest is not None
    bare = CycleBasis(1, basis.dependent, basis.independent, basis.cycles)
    assert bare._forest is None and "_forest" not in vars(bare)
    assert bare == basis and basis == bare
    other = CycleBasis(n=1, dependent=list(basis.dependent),
                       independent=list(basis.independent), cycles=dict(basis.cycles))
    other._forest = ("another", "forest")
    assert other == bare and repr(other) == repr(bare)
    assert bare != CycleBasis(1, basis.dependent, basis.independent, {})
    assert bare != CycleBasis(2, basis.dependent, basis.independent, basis.cycles)
    assert "_forest" not in repr(basis)
    for copied in (copy.copy(basis), copy.deepcopy(basis), pickle.loads(pickle.dumps(basis))):
        assert copied == basis and copied._forest == basis._forest
    _assert_fields_are_fixed(basis)


def test_simplex_pairing_equality_leaves_out_the_columns():
    pairing = _edge_module().pairing
    assert SimplexPairing._fields == ("n", "pairs", "unpaired", "up")
    assert pairing == (0, pairing.pairs, pairing.unpaired, pairing.up)
    n, pairs, unpaired, up = pairing
    assert pairing._asdict() == {"n": n, "pairs": pairs, "unpaired": unpaired, "up": up}
    assert pairing._columns is not None
    other = SimplexPairing(pairing.n, list(pairing.pairs), list(pairing.unpaired), pairing.up)
    assert other._columns is None
    other._columns = ((), ())
    assert other == pairing and repr(other) == repr(pairing)
    assert SimplexPairing(0, [], pairing.unpaired, pairing.up) != pairing
    assert "_columns" not in repr(pairing)
    for copied in (copy.deepcopy(pairing), pickle.loads(pickle.dumps(pairing))):
        assert copied == pairing and copied._columns == pairing._columns
    _assert_fields_are_fixed(pairing)


def test_homology_module_and_weighted_chain_compare_field_by_field():
    mod = _edge_module()
    assert HomologyModule._fields == ("n", "free_rank", "torsion", "pairing", "generators")
    assert WeightedChain._fields == ("n", "terms")
    same = HomologyModule(n=0, free_rank=1, torsion=[1], pairing=mod.pairing,
                          generators=list(mod.generators))
    assert same == mod == (0, 1, [1], mod.pairing, mod.generators)
    assert HomologyModule(0, 1, [1], mod.pairing) != mod
    assert HomologyModule(0, 1, [1], mod.pairing).generators is None
    assert HomologyModule(0, 2, [1], mod.pairing, mod.generators) != mod
    chain = mod.generators[1]
    assert chain == WeightedChain(n=0, terms={("a",): ((1, -1),), ("b",): ((0, 1),)})
    assert chain != WeightedChain(1, chain.terms)
    assert chain != WeightedChain(0, {("b",): ((0, 1),)})
    assert chain == (0, chain.terms) and chain._asdict() == {"n": 0, "terms": chain.terms}
    for copied in (copy.deepcopy(mod), pickle.loads(pickle.dumps(mod))):
        assert copied == mod and copied.pairing._columns == mod.pairing._columns
    # the lists and dicts the fields hold can still change
    chain.terms[("c",)] = ((0, 1),)
    assert ("c",) in mod.generators[1].terms
    for value in (mod, chain):
        _assert_fields_are_fixed(value)


def test_paired_simplices_is_a_named_tuple():
    assert PairedSimplices._fields == ("kappa", "mu", "m")
    pair = PairedSimplices._make((("b",), ("a", "b"), 1))
    assert pair == (("b",), ("a", "b"), 1) == PairedSimplices(kappa=("b",), mu=("a", "b"), m=1)
    assert (pair.kappa, pair.mu, pair.m) == pair
    assert pair._asdict() == {"kappa": ("b",), "mu": ("a", "b"), "m": 1}
    assert _edge_module().pairing.pairs == [pair]
