"""The edge pass: union-find with the elder rule against the column reduction.

`wsh.homology._edge_forest` splits the edges and pairs the vertices
without field arithmetic, and carries no edge chain: `_pusher` builds each
edge cycle from its owner coordinates in the rooted forest. `_reduce` is
still correct on the edges, so it is the yardstick here: the same split,
the same stored column at every pivot and the same cycles, in the same
order. The pairs and the pairing's columns at pivot time are also
compared against `tests/reference_homology.py`, and every H_1 generator
against the sum of cycles that built it before the push.
"""

import itertools
import random
import time

import pytest

import wsh
from wsh.complexes import build_complex, from_maximal
from wsh.fields import FieldSpec
from wsh.homology import (
    _add_multiple,
    cycle_basis,
    homology,
    homology_all,
    lift_cycle,
    simplex_pairing,
)

from . import reference_homology as ref
from .conftest import RATIONALS as Q
from .conftest import GF2, random_weighted_complex, row_coefficients, torus_grid_complex

GF5 = FieldSpec(5)
FIELDS = (Q, GF2, GF5)


def _disjoint_union(X, Y):
    """X beside a copy of Y whose labels are primed: H_0 adds up."""
    return build_complex(
        [(s, w) for s, w in X._weights.items()]
        + [(tuple(v + "'" for v in s), w) for s, w in Y._weights.items()]
    )


def _inputs():
    rng = random.Random(21)
    out = [random_weighted_complex(rng, max_vertices=9, max_simplices=40) for _ in range(80)]
    out += [_disjoint_union(out[i], out[i + 1]) for i in range(0, 40, 2)]
    out += [
        from_maximal(itertools.combinations([f"v{i}" for i in range(d + 1)], d), 0)
        for d in range(1, 8)
    ]
    out += [torus_grid_complex(k, random.Random(k)) for k in (6, 10, 30)]
    return out


def _owners(X):
    # vertices by increasing weight, ties lexicographic, as simplex_pairing has them
    return sorted(X.n_simplices(0), key=X._weights.__getitem__)


def _in_key_order(cycles):
    return [(s, list(c.items())) for s, c in cycles.items()]


def _same_as_reduce(X, field, rooted):
    owners = _owners(X)
    forest, forest_taken = wsh.homology._edge_forest(X, owners, field, rooted)
    basis, taken = wsh.homology._reduce(X, 1, owners, field, True)
    return (
        forest.dependent == basis.dependent
        and forest.independent == basis.independent
        # no edge chain is carried; the rooted forest stands in for them
        and forest.cycles == {}
        and (forest._forest is not None) == rooted
        and forest_taken == {k: (s, c, rest) for k, (s, c, rest, _chain, _g) in taken.items()}
        # the same cycles, each listing its owner first, then by processing order
        and _in_key_order(cycle_basis(X, 1, field).cycles) == _in_key_order(basis.cycles)
    )


def _summed_chains(pairing, cycles, field):
    """The H_1 generator chains as built before the push: whole cycles summed.

    Free generators first, then torsion generators in torsion order, as
    the module lists them.
    """
    pairs = pairing.pairs
    torsion = sorted(
        (i for i in range(len(pairs)) if pairs[i].m >= 1), key=lambda i: (pairs[i].m, i)
    )
    parts = [{kappa: field.one()} for kappa in pairing.unpaired]
    rows = row_coefficients(pairing)
    parts += [rows[i] for i in torsion]
    chains = []
    for part in parts:
        chain = {}
        for owner, coeff in part.items():
            _add_multiple(chain, coeff, cycles[owner], field)
        chains.append(chain)
    return parts, chains


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_forest_splits_pivots_and_cycles_as_the_reduction(field):
    inputs = _inputs()
    disconnected = 0
    for X in inputs:
        for rooted in (False, True):
            assert _same_as_reduce(X, field, rooted), (X._weights, rooted)
        h0 = homology_all(X, field)[0]
        disconnected += h0.free_rank >= 2
    assert disconnected >= 20


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_forest_pairs_and_cycles_match_reference(field):
    for X in _inputs():
        if X.dim < 1:
            continue
        basis0, basis1 = ref.cycle_basis(X, 0, field), ref.cycle_basis(X, 1, field)
        expected = ref.simplex_pairing(X, 0, basis0, basis1, field)
        for with_cycles in (False, True):
            got = simplex_pairing(X, 0, cycle_basis(X, 0, field), field, with_cycles)
            assert got.pairs == expected.pairs
            assert got.unpaired == expected.unpaired
            assert row_coefficients(got) == expected.row_coefficients
            assert got.up.dependent == basis1.dependent
            assert got.up.cycles == {}
        assert _in_key_order(cycle_basis(X, 1, field).cycles) == _in_key_order(basis1.cycles)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_pushed_generators_match_summed_cycles(field):
    # every H_1 generator, free and torsion, from homology_all and from
    # homology(X, 1) is the sum of coefficient times cycle over its owner
    # coordinates: the same values on the same support
    free = torsion = 0
    for X in _inputs():
        if X.dim < 1:
            continue
        h0, h1 = homology_all(X, field, with_generators=True)[:2]
        assert h0.pairing.up.cycles == {}
        parts, chains = _summed_chains(h1.pairing, cycle_basis(X, 1, field).cycles, field)
        push = wsh.homology._pusher(h0.pairing.up._forest, field)
        assert [push(part) for part in parts] == chains
        lifted = [lift_cycle(chain, X, field) for chain in chains]
        assert h1.generators == lifted
        assert homology(X, 1, field, with_generators=True).generators == lifted
        free += h1.free_rank
        torsion += len(h1.torsion)
    assert free >= 20 and torsion >= 100


def test_push_stops_where_demand_cancels_below_the_root():
    # r is the lightest vertex, so the root; ab and ac hang b and c under a,
    # and ar hangs a under r. The cycle of bc puts demand 1 on c and -1 on
    # b, which meet at a and cancel there: the push never reaches the edge
    # ar or the root, whose link it could not follow
    X = build_complex(
        [(("r",), 1), (("a",), 3), (("b",), 3), (("c",), 3),
         (("a", "b"), 3), (("a", "c"), 3), (("a", "r"), 1), (("b", "c"), 0)]
    )
    h0, h1 = homology_all(X, Q, with_generators=True)[:2]
    order, rank, link = h0.pairing.up._forest
    assert link[rank["r"]] is None
    assert link[rank["a"]][0] == rank["r"]
    assert link[rank["b"]][0] == link[rank["c"]][0] == rank["a"]
    cycle = {("b", "c"): 1, ("a", "b"): 1, ("a", "c"): -1}
    assert list(cycle_basis(X, 1, Q).cycles[("b", "c")].items()) == list(cycle.items())
    assert wsh.homology._pusher(h0.pairing.up._forest, Q)({("b", "c"): 1}) == cycle
    assert h1.generators == [lift_cycle(cycle, X, Q)]
    # with a triangle, the torsion generator's owners bd and cd put their
    # demand on b and c, which cancels at b, one step below the root's child a
    Y = build_complex(
        [(("r",), 1), (("a",), 3), (("b",), 3), (("c",), 3), (("d",), 3),
         (("a", "r"), 1), (("a", "b"), 3), (("b", "c"), 3), (("a", "d"), 3),
         (("b", "d"), 2), (("c", "d"), 2), (("b", "c", "d"), 0)]
    )
    h1 = homology_all(Y, Q, with_generators=True)[1]
    assert (h1.free_rank, h1.torsion) == (1, [2])
    assert row_coefficients(h1.pairing) == [{("b", "d"): -1, ("c", "d"): 1}]
    assert h1.generators[1].terms == {
        ("b", "c"): ((1, 1),), ("b", "d"): ((0, -1),), ("c", "d"): ((0, 1),)
    }


def test_forest_stops_once_all_but_one_vertex_are_pivots(monkeypatch):
    # the boundary of the 8-simplex, all weight 0: its first eight edges,
    # v0 v1 through v0 v8, join all nine vertices, so the loop draws one
    # more edge and books it and the other 27 dependent unread
    class Drawn(list):
        count = 0

        def __iter__(self):
            for s in list.__iter__(self):
                self.count += 1
                yield s

    drawn = []
    processing_order = wsh.homology._processing_order

    def counting_order(X, n):
        order = Drawn(processing_order(X, n))
        if n == 1:
            drawn.append(order)
        return order

    X = from_maximal(itertools.combinations([f"v{i}" for i in range(9)], 8), 0)
    expected = [(m.free_rank, m.torsion, m.pairing.pairs) for m in homology_all(X, GF2)]
    monkeypatch.setattr(wsh.homology, "_processing_order", counting_order)
    for gens in (False, True):
        drawn.clear()
        modules = homology_all(X, GF2, with_generators=gens)
        assert [(m.free_rank, m.torsion, m.pairing.pairs) for m in modules] == expected
        assert [(len(order), order.count) for order in drawn] == [(36, 9)]


def test_walk_stops_below_the_other_root():
    # equal vertex weights put the owners in the order a b c d. The edge
    # ac hangs a under c and cd hangs c under d, so a walks a -> c -> d.
    # Then ab meets roots d and b: it pivots on b, and the walk from a
    # stops at c, the first vertex past b, short of the root d
    X = build_complex(
        [(("a",), 3), (("b",), 3), (("c",), 3), (("d",), 3),
         (("a", "c"), 3), (("c", "d"), 2), (("a", "b"), 1)]
    )
    pairing = homology_all(X, Q)[0].pairing
    assert [tuple(p) for p in pairing.pairs] == [
        (("a",), ("a", "c"), 0),
        (("b",), ("a", "b"), 2),
        (("c",), ("c", "d"), 1),
    ]
    assert pairing.unpaired == [("d",)]
    assert row_coefficients(pairing) == [
        {("a",): -1, ("c",): 1},
        {("b",): 1, ("c",): -1},
        {("c",): -1, ("d",): 1},
    ]
    basis0, basis1 = ref.cycle_basis(X, 0, Q), ref.cycle_basis(X, 1, Q)
    expected = ref.simplex_pairing(X, 0, basis0, basis1, Q)
    assert expected.row_coefficients == row_coefficients(pairing)
    for field in FIELDS:
        for with_cycles in (False, True):
            assert _same_as_reduce(X, field, with_cycles)


def _deep_path(m, closed):
    """A path u - v0 - ... - v(m-1) - z whose last edge walks all m vertices.

    Vertex weight rises along v0 .. v(m-1), then u, then z, so each v is an
    owner before the next. The edges come in path order from v0, so
    partners run v0 -> v1 -> ... -> z, and u v0, the lightest, pivots on u
    and walks from v0 all the way to z. closed adds u z, which closes the
    path into one cycle that runs the whole forest.
    """
    v = [f"v{i:05d}" for i in range(m)]
    pairs = [((x,), m + 1 + i) for i, x in enumerate(v)]
    pairs += [(("u",), 2 * m + 1), (("z",), 2 * m + 2)]
    pairs += [((v[i], v[i + 1]), m - i + 1) for i in range(m - 1)]
    pairs += [((v[-1], "z"), 2), (("u", v[0]), 1)]
    if closed:
        pairs.append((("u", "z"), 0))
    return build_complex(pairs)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_deepest_walk_runs_in_budget_and_matches_reduce(monkeypatch, closed):
    X = _deep_path(3000, closed)
    field = FieldSpec(32003)
    start = time.perf_counter()
    fast = [homology_all(X, field, with_generators=gens) for gens in (False, True)]
    elapsed = time.perf_counter() - start
    assert [(m.free_rank, m.torsion[-1:]) for m in fast[0]] == [(1, [6000])] + [
        (int(closed), [])
    ]
    assert elapsed < 2.0, elapsed
    # closed, the one H_1 generator is pushed through every tree edge
    h1 = fast[1][1]
    cycles = wsh.homology._reduce(X, 1, _owners(X), field, True)[0].cycles
    chains = _summed_chains(h1.pairing, cycles, field)[1]
    assert h1.generators == [lift_cycle(chain, X, field) for chain in chains]
    assert len(h1.generators) == int(closed)

    def reduce_edges(X, owners, field, rooted):
        return wsh.homology._reduce(X, 1, owners, field, False)

    monkeypatch.setattr(wsh.homology, "_edge_forest", reduce_edges)
    slow = homology_all(X, field)
    for modules in fast:
        for x, y in zip(modules, slow):
            assert x.pairing.pairs == y.pairing.pairs
            assert row_coefficients(x.pairing) == row_coefficients(y.pairing)
            assert x.pairing.up.dependent == y.pairing.up.dependent
