"""Differential tests: the sparse oracle against the dense reference copy.

`tests/reference_oracle.py` is the oracle as it was before it skipped zero
entries. Both run on the same seeded inputs and must give the same
valuation lists, span answers, homology and, where precision is forced too
low, the same exception type and message. The reference answers a span
question by mirroring its elimination onto the target; the sparse side by
comparing invariant factors (`tests/invariants.in_column_span`).
"""

import random

from wsh.homology import homology_all
import wsh.oracle as new

from . import invariants
from . import reference_oracle as ref
from .conftest import CORPUS_FIELDS, random_weighted_complex, torus_grid_complex


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as e:  # the oracle's own errors, compared by the caller
        return (type(e).__name__, str(e))


def _boundary_valuations(oracle, X, n, field, precision=None):
    return oracle.snf_valuations(oracle.weighted_boundary_matrix(X, n, field, precision))


# where each side's span question and chain coordinates live
_SPAN = {new: invariants, ref: ref}


def _span_answers(oracle, X, field, per_module=None):
    """in_column_span of pi^k * g for generators g and k at and just below their exponent."""
    span = _SPAN[oracle]
    N = oracle.choose_precision(X)
    out = []
    for mod in homology_all(X, field, with_generators=True):
        n = mod.n
        if n + 1 > X.dim or not X.n_simplices(n + 1):
            continue
        upper = oracle.weighted_boundary_matrix(X, n + 1, field, N)
        exponents = [0] * mod.free_rank + list(mod.torsion)
        for gen, m in list(zip(mod.generators, exponents))[:per_module]:
            vec = span.chain_to_series(gen, X, field, N)
            for k in {m - 1, m} - {-1}:
                pi_k = oracle.TruncatedSeries.monomial(field, N, k)
                out.append(_outcome(span.in_column_span, upper, [pi_k * x for x in vec]))
    return out


def _answers(oracle, X, field, per_module=None):
    dims = range(X.dim + 2)
    return (
        [_outcome(oracle.homology_via_snf, X, n, field) for n in dims],
        [_outcome(_boundary_valuations, oracle, X, n, field) for n in range(1, X.dim + 1)],
        _span_answers(oracle, X, field, per_module),
    )


def _reference_elimination(X, n, field):
    A = ref.weighted_boundary_matrix(X, n, field)
    a = [list(row) for row in A.rows]
    vals, _ = ref._eliminate(a, A.nrows, A.ncols)
    return vals, [a[k][k].coeffs for k in range(len(vals))]


def _sparse_elimination(X, n, field):
    A = new.weighted_boundary_matrix(X, n, field)
    vals = new._eliminate(A.rows, A.nrows, A.ncols)
    return vals, [A.rows[k][k].coeffs for k in range(len(vals))]


def _same_pivots(X, field):
    """Valuations alone cannot tell pivot orders apart; the pivot series can."""
    return all(
        _sparse_elimination(X, n, field) == _reference_elimination(X, n, field)
        for n in range(1, X.dim + 1)
    )


def _low_precisions(X):
    """Every precision from 1 to two past the heaviest weight, below 1 + total weight."""
    w = max(X.weight(s) for s in X.simplices())
    return range(1, min(w + 3, X.total_weight() + 1))


def _low_precision_answers(oracle, X, field):
    """Boundary valuations with the precision forced below 1 + total weight."""
    return [
        _outcome(_boundary_valuations, oracle, X, n, field, P)
        for P in _low_precisions(X)
        for n in range(1, X.dim + 1)
    ]


def _draws(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        yield random_weighted_complex(rng), CORPUS_FIELDS[i % len(CORPUS_FIELDS)]


def test_random_complexes_match_reference():
    for X, field in _draws(1000, 0x0AC1E):
        assert _answers(new, X, field) == _answers(ref, X, field), (X, field)
        assert _same_pivots(X, field), (X, field)


def test_torus_grids_match_reference():
    # the dense reference eliminates the whole image matrix again for each
    # span answer, which is why the tori check 8 generators per dimension;
    # test_generator_validity_at_real_sizes checks all of them on the
    # sparse side
    for k, fields in ((4, CORPUS_FIELDS), (6, CORPUS_FIELDS[:2])):
        X = torus_grid_complex(k, random.Random(k))
        for field in fields:
            got = _answers(new, X, field, per_module=8)
            assert got == _answers(ref, X, field, per_module=8), (k, field)
            assert _same_pivots(X, field), (k, field)
            assert got[0][2] == (1, [])


def test_forced_low_precision_matches_reference():
    kinds = set()
    for X, field in _draws(300, 0x10E):
        got = _low_precision_answers(new, X, field)
        assert got == _low_precision_answers(ref, X, field), (X, field)
        kinds.update(a for a in got if isinstance(a, tuple) and isinstance(a[0], str))
    # the sweep reaches the refusal to build a matrix whose entries do not fit
    assert any(msg.startswith("exponent") for _name, msg in kinds)
