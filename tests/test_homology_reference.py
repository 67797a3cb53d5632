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
    torus_grid_complex,
)

FIELDS = CORPUS_FIELDS + (FieldSpec.prime_field(32003),)


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
    return b.dependent, b.independent, b.cycles


def _pairing(p):
    return p.pairs, p.unpaired, p.row_coefficients


def _reports(modules, field):
    return render_json_report(modules, field), render_text_report(modules, field)


def _differences(X, field):
    """Names of the results on which the library and the reference disagree."""
    bad = []
    for gens in (True, False):
        new_all = homology_all(X, field, with_generators=gens)
        ref_all = ref.homology_all(X, field, with_generators=gens)
        if [_pairing(m.pairing) for m in new_all] != [_pairing(m.pairing) for m in ref_all]:
            bad.append(f"homology_all pairing (generators={gens})")
        if _reports(new_all, field) != _reports(ref_all, field):
            bad.append(f"homology_all reports (generators={gens})")
        for mod in new_all:
            up = ref.cycle_basis(X, mod.n + 1, field)
            # the pairing pass carries chains only when generators are asked for
            expected = _basis(up) if gens else (up.dependent, up.independent, {})
            if _basis(mod.pairing.up) != expected:
                bad.append(f"split of the {mod.n + 1}-simplices (generators={gens})")
    for n in range(X.dim + 2):
        if _basis(cycle_basis(X, n, field)) != _basis(ref.cycle_basis(X, n, field)):
            bad.append(f"cycle_basis n={n}")
        new_mod = homology(X, n, field, with_generators=True)
        ref_mod = ref.homology(X, n, field, with_generators=True)
        if _pairing(new_mod.pairing) != _pairing(ref_mod.pairing):
            bad.append(f"homology n={n} pairing")
        if _reports([new_mod], field) != _reports([ref_mod], field):
            bad.append(f"homology n={n} reports")
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
