"""Differential tests: the one-reduction fast path against the reference copy.

`tests/reference_homology.py` is the fast path as it was when every
boundary map was reduced twice, once for the cycle basis and once, by row
elimination, for the pairing. Both run on the same seeded inputs over five
fields and must give the same cycle bases, pairs, unpaired owners, pairing
snapshots and, byte for byte, the same JSON and text reports.
"""

import itertools
import random

import pytest

from wsh.complexes import build_complex
from wsh.fields import FieldSpec
from wsh.fileio import parse_complex_file, render_json_report, render_text_report
from wsh.homology import cycle_basis, homology, homology_all

from . import reference_homology as ref
from .conftest import (
    CORPUS_FIELDS,
    projective_plane_complex,
    random_weighted_complex,
    row_coefficients,
    torus_grid_complex,
)

FIELDS = CORPUS_FIELDS + (FieldSpec(32003),)


def _random_inputs(count, seed):
    """Seeded random complexes; every third one has all weights equal."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        X = random_weighted_complex(rng, max_vertices=8, max_simplices=45)
        if i % 3 == 2:
            w = rng.randint(0, 3)
            X = build_complex([(s, w) for s in X.simplices()])
        out.append(X)
    return out


def _simplex_boundary(d):
    """The boundary of the d-simplex, parsed from a `!maximal 0` file."""
    facets = itertools.combinations([f"x{i}" for i in range(d + 1)], d)
    return parse_complex_file("!maximal 0\n" + "".join(" ".join(f) + "\n" for f in facets))


def _monotone_copy(X, rng):
    """X with random weights: top simplices draw 0..2, each face adds 0..2 to its heaviest coface."""
    weights = {}
    for n in range(X.dim, -1, -1):
        for s in X.n_simplices(n):
            cofaces = [w for t, w in weights.items() if len(t) == n + 2 and set(s) <= set(t)]
            weights[s] = max(cofaces, default=0) + rng.randint(0, 2)
    return build_complex(weights.items())


def _basis(b):
    # every cycle in key order: the owner first, then by processing order
    return b.dependent, b.independent, [(s, list(c.items())) for s, c in b.cycles.items()]


def _pairing(p):
    return p.pairs, p.unpaired, row_coefficients(p)


def _ref_pairing(p):
    return p.pairs, p.unpaired, p.row_coefficients


def _reports(modules, field):
    return render_json_report(modules, field), render_text_report(modules, field)


def _differences(X, field):
    """Names of the results on which the library and the reference disagree."""
    bad = []
    for gens in (True, False):
        new_all = homology_all(X, field, with_generators=gens)
        ref_all = ref.homology_all(X, field, with_generators=gens)
        if [_pairing(m.pairing) for m in new_all] != [_ref_pairing(m.pairing) for m in ref_all]:
            bad.append(f"homology_all pairing (generators={gens})")
        if _reports(new_all, field) != _reports(ref_all, field):
            bad.append(f"homology_all reports (generators={gens})")
        for mod in new_all:
            up = ref.cycle_basis(X, mod.n + 1, field)
            # the pairing pass carries chains only when generators are asked
            # for, and never edge chains: H_1 generators are pushed out of
            # the forest it roots instead
            carried = gens and mod.n >= 1
            expected = _basis(up) if carried else (up.dependent, up.independent, [])
            if _basis(mod.pairing.up) != expected:
                bad.append(f"split of the {mod.n + 1}-simplices (generators={gens})")
    for n in range(X.dim + 2):
        if _basis(cycle_basis(X, n, field)) != _basis(ref.cycle_basis(X, n, field)):
            bad.append(f"cycle_basis n={n}")
        for gens in (True, False):
            new_mod = homology(X, n, field, with_generators=gens)
            ref_mod = ref.homology(X, n, field, with_generators=gens)
            if _pairing(new_mod.pairing) != _ref_pairing(ref_mod.pairing):
                bad.append(f"homology n={n} pairing (generators={gens})")
            if _reports([new_mod], field) != _reports([ref_mod], field):
                bad.append(f"homology n={n} reports (generators={gens})")
    return bad


def _mismatches(inputs):
    out = []
    for i, X in enumerate(inputs):
        for field in FIELDS:
            bad = _differences(X, field)
            if bad:
                out.append((i, field.name, bad))
    return out


def test_random_complexes_match_reference():
    mismatches = _mismatches(_random_inputs(240, 0x0E5))
    assert not mismatches, f"{len(mismatches)} mismatches, first {mismatches[0]}"


@pytest.mark.parametrize("k", [4, 6, 8])
def test_torus_grids_match_reference(k):
    assert not _mismatches([torus_grid_complex(k, random.Random(k))])


def test_simplex_boundaries_match_reference():
    assert not _mismatches([_simplex_boundary(d) for d in range(3, 8)])


def test_projective_plane_matches_reference():
    # over Q the last stored pivot entry of RP^2 is 2, a unit other than +-1
    # in GF(32003) too; the triangle 123, whose edges RP^2 has but whose face
    # it lacks, comes lighter, so its column reduces against that pivot
    X = projective_plane_complex()
    capped = build_complex([(s, 1) for s in X.simplices()] + [(("1", "2", "3"), 0)])
    assert not _mismatches([X, _monotone_copy(X, random.Random(0x5EED)), capped])


@pytest.mark.parametrize("field", CORPUS_FIELDS[:2], ids=lambda f: f.name)
def test_torsion_generators_read_columns_out_of_position_order(field):
    # a stored column keeps the key order its reduction left, and a torsion
    # generator reads it so; the reference lists each column by position.
    # On this torus some H_1 torsion columns are out of position order, and
    # the reports with generators must still be the reference's
    X = torus_grid_complex(6, random.Random(6))
    modules = homology_all(X, field, with_generators=True)
    h1 = modules[1].pairing
    unordered = [
        p for p, (_c, rest) in zip(h1.pairs, h1._columns[1], strict=True)
        if p.m >= 1 and list(rest) != sorted(rest)
    ]
    assert unordered
    assert _reports(modules, field) == _reports(ref.homology_all(X, field, True), field)
    single, expected = homology(X, 1, field, True), ref.homology(X, 1, field, True)
    assert _reports([single], field) == _reports([expected], field)
