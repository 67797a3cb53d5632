import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsh.complexes import build_complex, from_maximal
from wsh.errors import MismatchedDimensions, PrecisionExhausted
from wsh.fields import FieldSpec
from wsh.homology import lift_cycle
from wsh.oracle import (
    SeriesMatrix,
    TruncatedSeries,
    _add_multiple,
    _eliminate,
    choose_precision,
    homology_via_snf,
    snf_valuations,
    weighted_boundary_matrix,
)
from . import reference_oracle as ref
from .conftest import (
    RATIONALS as Q,
    GF2,
    random_weighted_complex,
    tetra_boundary_complex,
    torus_grid_complex,
)
from .invariants import (
    chain_to_series,
    in_column_span,
    series_identity,
    series_mat_mul,
    series_matrix_is_zero,
)

N = 8


def mono(exp, coeff=1, field=Q, prec=N):
    return TruncatedSeries.monomial(field, prec, exp, field.from_int(coeff))


def zero(field=Q, prec=N):
    return TruncatedSeries.zero(field, prec)


def test_series_construction_and_valuation():
    s = TruncatedSeries(Q, 3, {0: Q.zero(), 1: Q.one(), 2: Q.from_int(2)})
    assert s.precision == 3
    assert s.valuation() == 1
    assert s.coeffs == {1: Q.one(), 2: Q.from_int(2)}
    assert zero().valuation() is None
    assert zero().is_zero()


def test_series_addition_cancels():
    s = mono(2) + mono(2, -1)
    assert s.is_zero()
    t = mono(1) + mono(3)
    assert t.coeffs == {1: Q.one(), 3: Q.one()}
    assert (t - t).is_zero()


def test_series_multiplication_truncates():
    s = mono(3) * mono(6)
    assert s.is_zero()
    t = (mono(0) + mono(1)) * (mono(0) + mono(1, -1))
    assert t.coeffs == {0: Q.one(), 2: Q.neg(Q.one())}


def test_series_division_exact():
    num = mono(2) + mono(4)
    q = num.divide_exact(mono(2))
    assert q.coeffs == {0: Q.one(), 2: Q.one()}
    # quotient is only known below precision - divisor valuation
    assert (q * mono(2)).coeffs == num.coeffs


def test_series_division_by_unit_geometric():
    one_minus_pi = mono(0) + mono(1, -1)
    inv = mono(0).divide_exact(one_minus_pi)
    assert inv.coeffs == {e: Q.one() for e in range(N)}
    assert (inv * one_minus_pi).coeffs == {0: Q.one()}


def test_series_division_guards():
    with pytest.raises(ZeroDivisionError):
        mono(1).divide_exact(zero())
    # a non-unit divides only dividends of at least its valuation
    for divisor in (mono(1), mono(1) + mono(2)):
        with pytest.raises(ValueError, match="dividend valuation below divisor valuation"):
            mono(0).divide_exact(divisor)


_FIELDS = (Q, GF2, FieldSpec.prime_field(5))


@st.composite
def _series_dicts(draw, count):
    """A field, a precision and `count` coefficient dicts.

    Each dict is empty, one term or several terms; one exponent in two is
    the top one, N - 1, where products and shifts fall off the precision.
    """
    field = draw(st.sampled_from(_FIELDS))
    prec = draw(st.integers(1, 9))
    exponent = st.one_of(st.integers(0, prec - 1), st.just(prec - 1))
    if field.p is None:
        coeff = st.builds(
            lambda a, b: field.div(field.from_int(a), field.from_int(b)),
            st.integers(-3, 3).filter(bool),
            st.integers(1, 4),
        )
    else:
        coeff = st.integers(1, field.p - 1)
    one_term = st.builds(lambda e, c: {e: c}, exponent, coeff)
    terms = st.dictionaries(exponent, coeff, min_size=min(2, prec), max_size=4)
    series = st.one_of(one_term, terms, st.just({}))
    return field, prec, [draw(series) for _ in range(count)]


def _outcome(fn, *args):
    try:
        return fn(*args).coeffs
    except (ArithmeticError, ValueError) as e:
        return (type(e).__name__, str(e))


@given(_series_dicts(2))
def test_series_kernels_match_generic_arithmetic(drawn):
    # tests/reference_oracle.py has the generic convolution and long division
    field, prec, (a, b) = drawn
    x, y = TruncatedSeries(field, prec, a), TruncatedSeries(field, prec, b)
    rx, ry = ref.TruncatedSeries(field, prec, a), ref.TruncatedSeries(field, prec, b)
    assert (x * y).coeffs == (rx * ry).coeffs
    assert (y * x).coeffs == (ry * rx).coeffs
    assert _outcome(x.divide_exact, y) == _outcome(rx.divide_exact, ry)


@given(_series_dicts(7))
def test_add_multiple_matches_generic_arithmetic(drawn):
    # vec holds keys 0..2 and src keys 1..3, less the empty draws
    field, prec, dicts = drawn
    f = TruncatedSeries(field, prec, dicts[0])
    vec = {k: TruncatedSeries(field, prec, d) for k, d in zip((0, 1, 2), dicts[1:4]) if d}
    src = {k: TruncatedSeries(field, prec, d) for k, d in zip((1, 2, 3), dicts[4:]) if d}
    rf = ref.TruncatedSeries(field, prec, dicts[0])
    expected = {k: ref.TruncatedSeries(field, prec, x.coeffs) for k, x in vec.items()}
    for k, y in src.items():
        ry = ref.TruncatedSeries(field, prec, y.coeffs)
        expected[k] = expected.get(k, ref.TruncatedSeries(field, prec)) - rf * ry
    _add_multiple(vec, f, src)
    assert {k: x.coeffs for k, x in vec.items()} == {
        k: x.coeffs for k, x in expected.items() if x.coeffs
    }


@pytest.mark.parametrize(
    "a, b",
    [(mono(1, prec=4), mono(1, prec=5)), (mono(1, field=GF2), mono(1, field=FieldSpec(3)))],
    ids=["precisions", "fields"],
)
def test_mixed_series_contexts_are_rejected(a, b):
    for op in (
        lambda: a + b,
        lambda: a * b,
        lambda: a.divide_exact(b),
        lambda: _add_multiple({}, a, {0: b}),
        lambda: _add_multiple({0: b}, a, {0: a}),
    ):
        with pytest.raises(MismatchedDimensions, match="series contexts differ"):
            op()


def test_monomial_beyond_precision():
    with pytest.raises(PrecisionExhausted):
        TruncatedSeries.monomial(Q, 4, 4)
    with pytest.raises(PrecisionExhausted):
        TruncatedSeries.monomial(Q, 1, 3)
    # a zero coefficient stores nothing, any exponent is fine
    assert TruncatedSeries.monomial(Q, 2, 5, Q.zero()).is_zero()


def test_choose_precision_examples():
    assert choose_precision(from_maximal([("a", "b", "c")], 0)) == 1
    assert choose_precision(tetra_boundary_complex()) == 39
    edge = build_complex([(("a",), 2), (("b",), 2), (("a", "b"), 2)])
    assert choose_precision(edge) == 7


def _matrix(rows, prec=N, field=Q):
    """A SeriesMatrix from dense rows of series."""
    return SeriesMatrix(field, prec, [dict(enumerate(r)) for r in rows], len(rows[0]) if rows else 0)


def test_series_matrix_drops_zeros_and_checks_columns():
    m = SeriesMatrix(Q, N, [{0: zero(), 2: mono(1)}, {1: mono(0) + mono(0, -1)}], 3)
    assert m.rows == [{2: mono(1)}, {}]
    assert (m.nrows, m.ncols) == (2, 3)
    for bad in (3, -1):
        with pytest.raises(MismatchedDimensions):
            SeriesMatrix(Q, N, [{bad: mono(0)}], 3)


def test_snf_diagonal():
    m = _matrix([[mono(1), zero()], [zero(), mono(2)]])
    assert snf_valuations(m) == [1, 2]


def test_snf_rank_one():
    m = _matrix([[mono(1), mono(1)], [mono(1), mono(1)]])
    assert snf_valuations(m) == [1]


def test_snf_unit_pivot():
    m = _matrix([[mono(0), mono(1)], [mono(1), mono(2)]])
    assert snf_valuations(m) == [0]


def test_snf_zero_and_empty():
    assert snf_valuations(_matrix([[zero(), zero()]])) == []
    assert snf_valuations(SeriesMatrix(Q, N, [], ncols=3)) == []


def test_snf_needs_column_ops():
    # [[pi, 1], [pi^2, pi^3]]: unit pivot at (0,1) after a column swap,
    # remaining entry pi^2 + pi^4 has valuation 2
    m = _matrix([[mono(1), mono(0)], [mono(2), mono(3)]])
    assert snf_valuations(m) == [0, 2]
    # the elimination runs on a copy of the rows
    assert m.rows == [{0: mono(1), 1: mono(0)}, {0: mono(2), 1: mono(3)}]


def test_snf_invariant_under_unimodular_factors():
    rng = random.Random(13)
    for _ in range(20):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        prec = 12
        rows = [
            [
                TruncatedSeries(
                    Q,
                    prec,
                    {
                        e: Q.from_int(rng.randint(-2, 2))
                        for e in rng.sample(range(6), rng.randint(0, 3))
                    },
                )
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
        m = SeriesMatrix(Q, prec, [dict(enumerate(r)) for r in rows], nc)

        def unimodular(k):
            # product of unit-triangular factors, determinant exactly 1
            low = series_identity(Q, prec, k)
            up = series_identity(Q, prec, k)
            for i in range(k):
                for j in range(k):
                    if i == j or rng.random() < 0.4:
                        continue
                    entry = TruncatedSeries(
                        Q, prec, {rng.randint(0, 3): Q.from_int(rng.randint(-2, 2))}
                    )
                    if entry.is_zero():
                        continue
                    if i > j:
                        low.rows[i][j] = entry
                    else:
                        up.rows[i][j] = entry
            return series_mat_mul(low, up)

        left = unimodular(nr)
        right = unimodular(nc)
        product = series_mat_mul(series_mat_mul(left, m), right)
        assert snf_valuations(product) == snf_valuations(m)


@st.composite
def _single_term_matrices(draw):
    """A dense matrix of zero and one-term entries.

    Valuations come from 0..3, so ties between candidate pivots are common;
    the entries do not follow the a_i - b_j shape, so eliminating them also
    builds series with several terms.
    """
    field = draw(st.sampled_from(_FIELDS))
    prec = draw(st.integers(1, 8))
    nrows, ncols = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    density = draw(st.sampled_from((0.1, 0.3, 0.7)))
    rng = draw(st.randoms(use_true_random=False))
    units = range(1, 7) if field.p is None else range(1, field.p)

    def entry():
        if rng.random() < density:
            return {rng.randrange(min(4, prec)): field.from_int(rng.choice(units))}
        return {}

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    return field, prec, rows


def _elimination_outcome(eliminate, *args):
    try:
        return eliminate(*args)
    except PrecisionExhausted as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(_single_term_matrices())
def test_eliminate_matches_reference_pivots(drawn):
    # the valuations and the pivot series pin the pivot rule, least
    # valuation, then first row, then first column, and the row swaps and
    # row operations that follow it
    field, prec, rows = drawn
    nrows, ncols = len(rows), len(rows[0])
    a = [{j: TruncatedSeries(field, prec, d) for j, d in enumerate(row) if d} for row in rows]
    got = _elimination_outcome(_eliminate, a, nrows, ncols)
    ra = [[ref.TruncatedSeries(field, prec, d) for d in row] for row in rows]
    expected = _elimination_outcome(ref._eliminate, ra, nrows, ncols)
    if isinstance(expected, str):
        assert got == expected
        return
    vals, _ = expected
    assert got == vals
    assert [a[k][k].coeffs for k in range(len(vals))] == [ra[k][k].coeffs for k in range(len(vals))]


def test_weighted_boundary_matrix_entries(filled_triangle):
    A = weighted_boundary_matrix(filled_triangle, 2, Q)
    prec = choose_precision(filled_triangle)
    assert A.precision == prec
    col = [row[0] for row in A.rows]
    vals = [s.valuation() for s in col]
    assert vals == [1, 1, 1]


def test_weighted_boundary_matrix_stores_only_nonzeros():
    # the torus k=30 has 2,700 edges and 1,800 triangles: a dense grid
    # would hold 4,860,000 entries for the 5,400 nonzero ones
    A = weighted_boundary_matrix(torus_grid_complex(30, random.Random(30)), 2, GF2)
    assert (A.nrows, A.ncols) == (2700, 1800)
    assert sum(len(row) for row in A.rows) == 5400
    per_column = [0] * A.ncols
    for row in A.rows:
        for j in row:
            per_column[j] += 1
    assert per_column == [3] * 1800


def test_weighted_boundary_matrix_rejects_tiny_precision(filled_triangle):
    with pytest.raises(PrecisionExhausted):
        weighted_boundary_matrix(filled_triangle, 2, Q, precision=1)


def test_weighted_boundary_squares_to_zero():
    rng = random.Random(3)
    for _ in range(15):
        X = random_weighted_complex(rng, max_simplices=20)
        prec = choose_precision(X)
        for n in range(2, X.dim + 1):
            lower = weighted_boundary_matrix(X, n - 1, Q, prec)
            upper = weighted_boundary_matrix(X, n, Q, prec)
            assert series_matrix_is_zero(series_mat_mul(lower, upper))


def test_in_column_span_weighted_image(filled_triangle):
    prec = choose_precision(filled_triangle)
    A = weighted_boundary_matrix(filled_triangle, 2, Q, prec)
    beta = {("a", "b"): Q.one(), ("a", "c"): Q.neg(Q.one()), ("b", "c"): Q.one()}
    lifted = lift_cycle(beta, filled_triangle, Q)
    vec = chain_to_series(lifted, filled_triangle, Q, prec)
    pi = TruncatedSeries.monomial(Q, prec, 1)
    assert not in_column_span(A, vec)
    assert in_column_span(A, [pi * x for x in vec])


def test_in_column_span_identity_like():
    cols = _matrix([[mono(1), mono(0)], [mono(2), mono(3)]])
    assert in_column_span(cols, [mono(0), mono(5)])
    assert cols.rows == [{0: mono(1), 1: mono(0)}, {0: mono(2), 1: mono(3)}]
    cols = _matrix([[mono(0), zero()], [zero(), mono(2)]])
    assert in_column_span(cols, [mono(3), mono(2)])
    assert not in_column_span(cols, [mono(3), mono(1)])
    assert not in_column_span(_matrix([[mono(1)], [zero()]]), [zero(), mono(0)])


def test_homology_via_snf_tetra():
    X = tetra_boundary_complex()
    assert homology_via_snf(X, 0, Q) == (1, [1, 3, 3])
    assert homology_via_snf(X, 1, Q) == (0, [1, 1, 1])
    assert homology_via_snf(X, 2, Q) == (1, [])
    assert homology_via_snf(X, 1, GF2) == (0, [1, 1, 1])


def test_homology_via_snf_filled_triangle(filled_triangle):
    assert homology_via_snf(filled_triangle, 1, Q) == (0, [1])


def test_homology_via_snf_constant_weights_is_classical():
    X = from_maximal([("a", "b", "c"), ("a", "c", "d"), ("a", "b", "d"), ("b", "c", "d")], 4)
    assert homology_via_snf(X, 0, Q) == (1, [])
    assert homology_via_snf(X, 1, Q) == (0, [])
    assert homology_via_snf(X, 2, Q) == (1, [])


def test_homology_via_snf_empty_dimension(hollow_triangle):
    assert homology_via_snf(hollow_triangle, 2, Q) == (0, [])
