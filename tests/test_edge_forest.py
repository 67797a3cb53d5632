"""The edge pass: union-find with the elder rule against the column reduction.

`wsh.homology._edge_forest` splits the edges and pairs the vertices
without field arithmetic. `_reduce` is still correct on the edges, so it
is the yardstick here: the same split, the same stored column at every
pivot and the same cycles, in the same order. The pairs and row
coefficients are also compared against `tests/reference_homology.py`.
"""

import itertools
import random
import time

import pytest

import wsh
from wsh.complexes import build_complex, from_maximal
from wsh.fields import FieldSpec
from wsh.homology import cycle_basis, homology_all, simplex_pairing

from . import reference_homology as ref
from .conftest import RATIONALS as Q
from .conftest import GF2, random_weighted_complex, torus_grid_complex

GF5 = FieldSpec.prime_field(5)
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


def _same_as_reduce(X, field, with_cycles):
    owners = _owners(X)
    forest, forest_taken = wsh.homology._edge_forest(X, owners, field, with_cycles)
    basis, taken = wsh.homology._reduce(X, 1, owners, field, with_cycles)
    return (
        forest.dependent == basis.dependent
        and forest.independent == basis.independent
        # the same cycles, each listing its owner first, then by processing order
        and [list(c.items()) for c in forest.cycles.values()]
        == [list(c.items()) for c in basis.cycles.values()]
        and list(forest.cycles) == list(basis.cycles)
        and forest_taken == {k: (s, c, rest) for k, (s, c, rest, _chain, _g) in taken.items()}
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_forest_splits_pivots_and_cycles_as_the_reduction(field):
    inputs = _inputs()
    disconnected = 0
    for X in inputs:
        for with_cycles in (False, True):
            assert _same_as_reduce(X, field, with_cycles), (X._weights, with_cycles)
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
            assert got.row_coefficients == expected.row_coefficients
            assert got.up.dependent == basis1.dependent
            assert got.up.cycles == (basis1.cycles if with_cycles else {})
        assert cycle_basis(X, 1, field).cycles == basis1.cycles


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
    assert pairing.row_coefficients == [
        {("a",): -1, ("c",): 1},
        {("b",): 1, ("c",): -1},
        {("c",): -1, ("d",): 1},
    ]
    basis0, basis1 = ref.cycle_basis(X, 0, Q), ref.cycle_basis(X, 1, Q)
    assert ref.simplex_pairing(X, 0, basis0, basis1, Q).row_coefficients == pairing.row_coefficients
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
    field = FieldSpec.prime_field(32003)
    start = time.perf_counter()
    fast = [homology_all(X, field, with_generators=gens) for gens in (False, True)]
    elapsed = time.perf_counter() - start
    assert [(m.free_rank, m.torsion[-1:]) for m in fast[0]] == [(1, [6000])] + [
        (int(closed), [])
    ]
    assert elapsed < 2.0, elapsed

    def reduce_edges(X, owners, field, with_cycles):
        return wsh.homology._reduce(X, 1, owners, field, with_cycles)

    monkeypatch.setattr(wsh.homology, "_edge_forest", reduce_edges)
    slow = [homology_all(X, field, with_generators=gens) for gens in (False, True)]
    for a, b in zip(fast, slow):
        for x, y in zip(a, b):
            assert x.pairing.pairs == y.pairing.pairs
            assert x.pairing.row_coefficients == y.pairing.row_coefficients
            assert (x.pairing.up.dependent, x.pairing.up.cycles) == (
                y.pairing.up.dependent,
                y.pairing.up.cycles,
            )
            assert x.generators == y.generators
