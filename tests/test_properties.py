import itertools
import random

import pytest

from wsh import homology_all, homology_via_snf, parse_complex_file
from .conftest import GF2, RATIONALS, torus_grid_complex
from .invariants import (
    boundary_squared_violations,
    cycle_basis_violations,
    generator_violations,
    pairing_violations,
    relabel_violations,
    weight_shift_violations,
)


def test_cycle_basis_invariants_on_corpus(corpus):
    bad = []
    for X, field in corpus:
        bad += cycle_basis_violations(X, field)
    assert bad == []


def test_pairing_invariants_on_corpus(corpus):
    bad = []
    for X, field in corpus:
        bad += pairing_violations(X, field)
    assert bad == []


def test_boundary_squared_on_corpus(corpus):
    bad = []
    for X, field in corpus:
        bad += boundary_squared_violations(X, field)
    assert bad == []


def test_weight_shift_invariance_on_corpus(corpus):
    bad = []
    for X, field in corpus:
        bad += weight_shift_violations(X, field)
    assert bad == []


def test_relabeling_invariance_on_corpus(corpus):
    rng = random.Random(99)
    bad = []
    for X, field in corpus:
        bad += relabel_violations(X, field, rng)
    assert bad == []


def test_generator_validity_on_corpus(corpus):
    bad = []
    for X, field in corpus:
        bad += generator_violations(X, field)
    assert bad == []


def test_engine_matches_oracle_on_corpus(corpus):
    mismatches = []
    for X, field in corpus:
        for mod in homology_all(X, field):
            slow = homology_via_snf(X, mod.n, field)
            if (mod.free_rank, mod.torsion) != slow:
                mismatches.append((field.name, mod.n, X))
    assert mismatches == []


def _simplex_boundary_maximal(d):
    """The boundary of the d-simplex as a `!maximal 0` file: its d + 1 facets."""
    facets = itertools.combinations([f"v{i}" for i in range(d + 1)], d)
    return "!maximal 0\n" + "".join(" ".join(f) + "\n" for f in facets)


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=lambda f: f.name)
def test_engine_matches_oracle_at_real_sizes(field):
    # the tori carry torsion in H_0 and H_1; the sphere has none
    cases = [(torus_grid_complex(k, random.Random(k)), (1, 2, 1), True) for k in (6, 8, 12, 18)]
    cases.append((parse_complex_file(_simplex_boundary_maximal(5)), (1, 0, 0, 0, 1), False))
    for X, free, torsion in cases:
        fast = [(m.free_rank, m.torsion) for m in homology_all(X, field)]
        assert fast == [homology_via_snf(X, n, field) for n in range(X.dim + 1)]
        assert tuple(f for f, _t in fast) == free
        assert bool(fast[0][1] and fast[1][1]) == torsion


def test_free_rank_equals_betti_number(corpus):
    # with all weights equal the module is torsion free and the free rank
    # is the classical Betti number; check via the weight-shift trick of
    # flattening every weight to zero
    from wsh import build_complex

    bad = []
    for X, field in corpus[:100]:
        flat = build_complex([(s, 0) for s in X.simplices()])
        betti = [m.free_rank for m in homology_all(flat, field)]
        torsion = [m.torsion for m in homology_all(flat, field)]
        weighted_free = [m.free_rank for m in homology_all(X, field)]
        if any(torsion):
            bad.append("flat complex produced torsion")
        if betti != weighted_free:
            bad.append("free rank changed under reweighting")
    assert bad == []
