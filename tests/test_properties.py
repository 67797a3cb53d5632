import random

import pytest

from wsh.fileio import parse_complex_file
from wsh.homology import homology_all
from wsh.oracle import homology_via_snf
from . import invariants
from .conftest import GF2, RATIONALS, rips_complex, simplex_boundary_maximal, torus_grid_complex
from .invariants import (
    boundary_squared_violations,
    cycle_basis_violations,
    generator_violations,
    pairing_violations,
    relabel_violations,
    reweighting_violations,
    sublevel_betti_violations,
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
        known = {}
        for mod in homology_all(X, field):
            slow = homology_via_snf(X, mod.n, field, known)
            if (mod.free_rank, mod.torsion) != slow:
                mismatches.append((field.name, mod.n, X))
    assert mismatches == []


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=lambda f: f.name)
def test_engine_matches_oracle_at_real_sizes(field):
    # the tori carry torsion in H_0 and H_1; the sphere has none
    cases = [
        (torus_grid_complex(k, random.Random(k)), (1, 2, 1), True) for k in (6, 8, 12, 18, 24, 40)
    ]
    cases.append((parse_complex_file(simplex_boundary_maximal(5)), (1, 0, 0, 0, 1), False))
    for X, free, torsion in cases:
        fast = [(m.free_rank, m.torsion) for m in homology_all(X, field)]
        known = {}  # walking up, each boundary map is eliminated once
        assert fast == [homology_via_snf(X, n, field, known) for n in range(X.dim + 1)]
        assert tuple(f for f, _t in fast) == free
        assert bool(fast[0][1] and fast[1][1]) == torsion


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=lambda f: f.name)
def test_generator_validity_at_real_sizes(field):
    # every generator of every dimension; the torsion ones are checked
    # against the image in one elimination per dimension
    for k in (10, 18):
        X = torus_grid_complex(k, random.Random(k))
        assert any(m.torsion for m in homology_all(X, field))
        assert generator_violations(X, field) == []


def test_rips_family_has_the_roadmap_sizes():
    sizes = {}
    for p in (60, 90):
        X = rips_complex(p, random.Random(p))
        sizes[p] = [len(X.n_simplices(n)) for n in range(X.dim + 1)]
    assert sum(sizes[60]) == 3426
    assert sizes[90] == [90, 939, 4474, 13106]


# checks at scale that need no oracle: each reads the pairs of the whole
# complex against a second run of the engine on a changed complex
@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=lambda f: f.name)
def test_monotone_reweighting_keeps_the_pairs_at_scale(field):
    for X in (rips_complex(90, random.Random(90)), torus_grid_complex(40, random.Random(40))):
        assert reweighting_violations(X, field) == []


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=lambda f: f.name)
def test_bars_count_the_sublevel_betti_numbers_at_scale(field):
    for X in (rips_complex(60, random.Random(60)), torus_grid_complex(40, random.Random(40))):
        assert sublevel_betti_violations(X, field) == []


def test_generator_check_names_a_lowered_exponent(monkeypatch):
    # one torsion exponent lowered by one fails the batched check of H_1,
    # and the check of each generator alone then names that one
    X = torus_grid_complex(6, random.Random(6))
    honest = invariants.homology_all
    m = honest(X, GF2)[1].torsion[-1]

    def lowered(*args, **kwargs):
        mods = honest(*args, **kwargs)
        mods[1].torsion[-1] -= 1
        return mods

    monkeypatch.setattr(invariants, "homology_all", lowered)
    assert invariants.generator_violations(X, GF2) == [
        f"n=1: pi^{m - 1} generator is not in the image"
    ]


def test_generator_check_names_zero_coefficients_and_stray_simplices(monkeypatch):
    # the lift filters nothing, so the check must see a zero coefficient and
    # a term that is no simplex of the generator's dimension
    X = torus_grid_complex(6, random.Random(6))
    honest = invariants.homology_all
    vertex, edge = X.n_simplices(0)[0], X.n_simplices(1)[0]

    def spoiled(*args, **kwargs):
        mods = honest(*args, **kwargs)
        mods[1].generators[0].terms[edge] = ((0, GF2.zero()),)
        mods[1].generators[-1].terms[vertex] = ((0, GF2.one()),)
        return mods

    monkeypatch.setattr(invariants, "homology_all", spoiled)
    assert invariants.generator_violations(X, GF2) == [
        f"n=1: generator term {edge} has a zero coefficient",
        f"n=1: generator term {vertex} is not an n-simplex of X",
    ]


def test_free_rank_equals_betti_number(corpus):
    # with all weights equal the module is torsion free and the free rank
    # is the classical Betti number; check via the weight-shift trick of
    # flattening every weight to zero
    from wsh.complexes import build_complex

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
