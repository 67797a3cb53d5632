import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsh.oracle
from wsh.complexes import build_complex, from_maximal
from wsh.errors import MismatchedDimensions, PrecisionExhausted
from wsh.fields import FieldSpec
from wsh.homology import lift_cycle
from wsh.oracle import (
    SeriesMatrix,
    _add_multiple,
    _eliminate,
    _row_least,
    choose_precision,
    homology_via_snf,
    snf_valuations,
    weighted_boundary_matrix,
)
from . import reference_oracle as ref
from .conftest import (
    RATIONALS as Q,
    CORPUS_FIELDS,
    GF2,
    random_weighted_complex,
    tetra_boundary_complex,
    torus_grid_complex,
)
from .invariants import chain_to_series, in_column_span, times_pi, weighted_product_is_zero

# the precision of the general series ring in tests/reference_oracle.py: above
# every exponent the drawn and _shaped matrices below can make
REF_N = 12


def mono(exp, coeff=1):
    """The oracle entry coeff * pi^exp over Q."""
    return (exp, Q.from_int(coeff))


_FIELDS = (Q, GF2, FieldSpec(5))


def _units(field):
    return [u for u in range(-6, 7) if not field.is_zero(field.from_int(u))]


def _to_reference(rows, ncols, field):
    """Dense reference rows of general series from sparse rows of pairs."""
    return [
        [ref.TruncatedSeries(field, REF_N, dict([row[j]]) if j in row else None) for j in range(ncols)]
        for row in rows
    ]


def _from_reference(m):
    """A SeriesMatrix from a reference matrix whose entries have one term each."""
    rows = []
    for row in m.rows:
        rows.append({})
        for j, x in enumerate(row):
            if x.coeffs:
                [pair] = x.coeffs.items()
                rows[-1][j] = pair
    return SeriesMatrix(m.field, rows, m.ncols)


def test_series_construction_and_valuation():
    # a zero scalar is a zero entry, and any exponent is kept; the valuation
    # of a row is its least exponent, inf for an empty row
    m = SeriesMatrix(Q, [{0: mono(0, 0), 1: mono(2, 2), 2: mono(1)}, {0: mono(3)}], 3)
    assert m.rows == [{1: mono(2, 2), 2: mono(1)}, {0: mono(3)}]
    assert _row_least(m.rows[0]) == 1
    assert _row_least({3: mono(1), 0: mono(1, 5), 2: mono(0, 2)}) == 0
    assert _row_least({3: mono(1), 0: mono(1, 5)}) == 1
    assert _row_least({}) == math.inf
    with pytest.raises(ValueError, match="negative exponent"):
        SeriesMatrix(Q, [{0: mono(-1)}], 1)


def test_series_addition_cancels():
    # vec += g * pi^shift * src: an entry that sums to zero leaves the row
    vec = {0: mono(2), 1: mono(3, 5)}
    _add_multiple(vec, 1, Q.from_int(-1), {0: mono(1), 1: mono(2, 2), 2: mono(0, 3)}, Q)
    assert vec == {1: mono(3, 3), 2: mono(1, -3)}


def test_monomial_beyond_precision():
    # d_1 of the tetrahedron has entries pi^1 and pi^3
    A = weighted_boundary_matrix(tetra_boundary_complex(), 1, Q)
    assert {e for row in A.rows for e, _c in row.values()} == {1, 3}


@st.composite
def _row_operations(draw):
    """A field and the operands of one weight-shaped row operation.

    vec is row i and src row r of a matrix with row weights a_i >= a_r and
    column weights b_k <= a_r, entry (i, k) c*pi^(a_i - b_k); the shift is
    a_i - a_r.
    """
    field = draw(st.sampled_from(_FIELDS))
    a_r = draw(st.integers(0, 4))
    a_i = draw(st.integers(a_r, 8))
    b = [draw(st.integers(0, a_r)) for _ in range(4)]
    coeff = st.sampled_from(_units(field)).map(field.from_int)

    def row(weight, keys):
        out = {}
        for k in keys:
            if draw(st.booleans()):
                out[k] = (weight - b[k], draw(coeff))
        return out

    # vec holds keys 0..2 and src keys 1..3
    return field, a_i - a_r, draw(coeff), row(a_i, (0, 1, 2)), row(a_r, (1, 2, 3))


@given(_row_operations())
def test_add_multiple_matches_generic_arithmetic(drawn):
    # tests/reference_oracle.py has the general ring: vec + (g pi^shift) * src
    # there, entry by entry, cancellation included; every exponent is at most
    # a_i <= 8, below REF_N, so the reference drops nothing
    field, shift, g, vec, src = drawn

    def series(x):
        return ref.TruncatedSeries(field, REF_N, dict([x]) if x else None)

    f = ref.TruncatedSeries(field, REF_N, {shift: g})
    expected = {k: series(vec.get(k)) for k in range(4)}
    for k, y in src.items():
        expected[k] = expected[k] + f * series(y)
    _add_multiple(vec, shift, g, src, field)
    assert {k: dict([x]) for k, x in vec.items()} == {
        k: x.coeffs for k, x in expected.items() if x.coeffs
    }


def test_choose_precision_examples():
    assert choose_precision(from_maximal([("a", "b", "c")], 0)) == 1
    assert choose_precision(tetra_boundary_complex()) == 39
    edge = build_complex([(("a",), 2), (("b",), 2), (("a", "b"), 2)])
    assert choose_precision(edge) == 7


def _matrix(rows):
    """A SeriesMatrix over Q from dense rows of entries, None for zero."""
    sparse = [{j: x for j, x in enumerate(r) if x is not None} for r in rows]
    return SeriesMatrix(Q, sparse, len(rows[0]) if rows else 0)


def test_series_matrix_drops_zeros_and_checks_columns():
    m = SeriesMatrix(Q, [{0: mono(0, 0), 2: mono(1)}, {1: (0, Q.zero())}], 3)
    assert m.rows == [{2: mono(1)}, {}]
    assert (m.nrows, m.ncols) == (2, 3)
    # every given entry is checked before the zero scalars are dropped
    for bad, error, message in (
        ({3: mono(0)}, MismatchedDimensions, "column 3 outside 3 columns"),
        ({-1: mono(0)}, MismatchedDimensions, "column -1 outside 3 columns"),
        ({99: mono(0, 0)}, MismatchedDimensions, "column 99 outside 3 columns"),
        ({1: mono(-5, 0)}, ValueError, "negative exponent"),
        ({7: mono(9)}, MismatchedDimensions, "column 7 outside 3 columns"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            SeriesMatrix(Q, [bad], 3)


def test_snf_diagonal():
    m = _matrix([[mono(1), None], [None, mono(2)]])
    assert snf_valuations(m) == [1, 2]


def test_snf_rank_one():
    m = _matrix([[mono(1), mono(1)], [mono(1), mono(1)]])
    assert snf_valuations(m) == [1]


def test_snf_unit_pivot():
    m = _matrix([[mono(0), mono(1)], [mono(1), mono(2)]])
    assert snf_valuations(m) == [0]


def test_snf_zero_and_empty():
    assert snf_valuations(_matrix([[None, None]])) == []
    assert snf_valuations(SeriesMatrix(Q, [], ncols=3)) == []


def test_snf_needs_column_ops():
    # [[pi, 1], [pi^3, 2 pi^2]], row weights (1, 3) and column weights (0, 1):
    # the unit pivot at (0,1) needs a column swap, and the determinant
    # 2 pi^3 - pi^3 leaves pi^3
    m = _matrix([[mono(1), mono(0)], [mono(3), mono(2, 2)]])
    assert snf_valuations(m) == [0, 3]
    # the elimination runs on a copy of the rows
    assert m.rows == [{0: mono(1), 1: mono(0)}, {0: mono(3), 1: mono(2, 2)}]


def test_snf_exact_far_past_any_former_cap():
    # the matrix above times pi^M, with exponents near 10^6: each invariant
    # factor gains exactly M
    M = 10**6
    m = _matrix([[mono(M + 1), mono(M)], [mono(M + 3), mono(M + 2, 2)]])
    assert snf_valuations(m) == [M, M + 3]
    # row weights (0, M, 2M) and column weights (0, 0, M): two unit pivots,
    # then pi^(2M) from 2 pi^(2M) - pi^(2M), and the determinant is -pi^(2M)
    m = _matrix(
        [
            [mono(0), mono(0), None],
            [mono(M), mono(M, 2), mono(0)],
            [mono(2 * M), mono(2 * M, 3), mono(M)],
        ]
    )
    assert snf_valuations(m) == [0, 0, 2 * M]


def test_snf_refuses_entries_that_are_not_pi_monomials():
    # [[pi, 1], [pi^2, pi^3]] has no row and column weights: after the
    # column swap, row 1 loses pi^3 * (1, pi), and pi^2 - pi^4 would need
    # two terms in one entry
    m = _matrix([[mono(1), mono(0)], [mono(2), mono(3)]])
    with pytest.raises(
        PrecisionExhausted,
        match=r"^row operation adds pi\^4 to an entry at pi\^2: entries are not pi-monomials$",
    ):
        snf_valuations(m)


def _shaped(row_weights, col_weights, rng, keep=lambda i, j: True):
    """A reference matrix with random entries c*pi^(row_weights[i] - col_weights[j]).

    Only positions with a non-negative exponent, and those keep allows, get
    an entry; c comes from -2..2, so some are zero.
    """
    m = ref.SeriesMatrix.zeros(Q, REF_N, len(row_weights), len(col_weights))
    for i, a in enumerate(row_weights):
        for j, b in enumerate(col_weights):
            if a >= b and keep(i, j) and rng.random() < 0.6:
                m.rows[i][j] = ref.TruncatedSeries(Q, REF_N, {a - b: Q.from_int(rng.randint(-2, 2))})
    return m


def test_snf_invariant_under_unimodular_factors():
    # L * M * R with unit-triangular factors whose entry (i, k) is
    # c*pi^(w_i - w_k) for M's row weights (L) or column weights (R): the
    # product keeps M's shape, and the determinants are exactly 1
    rng = random.Random(13)

    def unimodular(weights):
        one = ref.TruncatedSeries.monomial(Q, REF_N, 0)
        low = _shaped(weights, weights, rng, lambda i, k: i > k)
        up = _shaped(weights, weights, rng, lambda i, k: i < k)
        for i in range(len(weights)):
            low.rows[i][i] = up.rows[i][i] = one
        return low.mat_mul(up)

    for _ in range(20):
        a = [rng.randrange(4) for _ in range(rng.randint(1, 4))]
        b = [rng.randrange(4) for _ in range(rng.randint(1, 4))]
        m = _shaped(a, b, rng)
        product = unimodular(a).mat_mul(m).mat_mul(unimodular(b))
        assert snf_valuations(_from_reference(product)) == snf_valuations(_from_reference(m))


@st.composite
def _weight_shaped_matrices(
    draw,
    nrows=st.integers(1, 25),
    ncols=st.integers(1, 25),
    densities=(0.1, 0.3, 0.7),
    randoms=st.randoms(use_true_random=False),
):
    """Sparse rows of entries c*pi^(a_i - b_j), present only where a_i >= b_j.

    Row and column weights come from 0..4, so ties between candidate pivots
    are common, and every exponent is below REF_N.
    """
    field = draw(st.sampled_from(_FIELDS))
    nrows, ncols = draw(nrows), draw(ncols)
    density = draw(st.sampled_from(densities))
    rng = draw(randoms)
    units = _units(field)
    a = [rng.randrange(5) for _ in range(nrows)]
    b = [rng.randrange(5) for _ in range(ncols)]
    rows = [
        {
            j: (ai - bj, field.from_int(rng.choice(units)))
            for j, bj in enumerate(b)
            if ai >= bj and rng.random() < density
        }
        for ai in a
    ]
    return field, rows, ncols


def _assert_reference_pivots(field, rows, ncols):
    """_eliminate gives the reference's valuations and pivot entries."""
    nrows = len(rows)
    a = [dict(row) for row in rows]
    got = _eliminate(a, nrows, ncols, field)
    ra = _to_reference(rows, ncols, field)
    vals, _ = ref._eliminate(ra, nrows, ncols)
    assert got == vals
    pivots = [dict([a[k][k]]) for k in range(len(vals))]
    assert pivots == [ra[k][k].coeffs for k in range(len(vals))]
    # the rows come back as the diagonal, one pivot per row, then empty rows
    assert a == [{k: a[k][k]} for k in range(len(vals))] + [{}] * (nrows - len(vals))


@settings(max_examples=60, deadline=None)
@given(_weight_shaped_matrices())
def test_eliminate_matches_reference_pivots(drawn):
    # the valuations and the pivot entries pin the pivot rule, least
    # valuation, then first row, then first column, and the row swaps and
    # row operations that follow it
    _assert_reference_pivots(*drawn)


@settings(max_examples=20, deadline=None)
@given(
    _weight_shaped_matrices(
        nrows=st.integers(40, 80),
        ncols=st.integers(1, 60),
        densities=(0.05, 0.1),
        randoms=st.integers(0, 2**32 - 1).map(random.Random),
    )
)
def test_eliminate_matches_reference_pivots_on_tall_sparse_matrices(drawn):
    # tall and sparse, as boundary maps are: most rows meet few pivot
    # columns, and fill-in reaches rows far below the pivot. A seeded
    # Random, as hypothesis would record each of its thousands of draws
    _assert_reference_pivots(*drawn)


def test_eliminate_reaches_an_entry_that_cancels_and_fills_in_again():
    # exponents all 0, so the pivots are the first entries of rows 0, 1, 2, 3.
    # Row 3 loses row 0 and its column-2 entry cancels; it loses row 1 and the
    # entry is filled in again, -1; the pivot of column 2 is row 2's 3, and
    # row 3 must still be found under that column to lose -1/3 of row 2
    rows = [
        {0: mono(0), 2: mono(0)},
        {1: mono(0), 2: mono(0)},
        {2: mono(0, 3)},
        {0: mono(0), 1: mono(0), 2: mono(0), 3: mono(0)},
    ]
    _assert_reference_pivots(Q, rows, 4)
    a = [dict(row) for row in rows]
    assert _eliminate(a, 4, 4, Q) == [0, 0, 0, 0]
    assert a == [{0: mono(0)}, {1: mono(0)}, {2: mono(0, 3)}, {3: mono(0)}]


def test_eliminate_swaps_rows_past_pivot_rows():
    # row weights (2, 2, 0, 1) and column weights (0, 0, 0): row 2 pivots
    # first and row 0 moves to its place, then row 3 pivots and row 1 moves
    # below row 0, so ids and positions no longer agree
    rows = [
        {0: mono(2), 1: mono(2, 2), 2: mono(2, -1)},
        {0: mono(2, 3), 2: mono(2)},
        {0: mono(0), 1: mono(0)},
        {1: mono(1, 2), 2: mono(1)},
    ]
    _assert_reference_pivots(Q, rows, 3)
    for field in (GF2, FieldSpec(5)):
        # the same exponents with the scalars read in the field, zeros dropped
        mapped = [{j: (e, field.from_int(c)) for j, (e, c) in row.items()} for row in rows]
        _assert_reference_pivots(field, SeriesMatrix(field, mapped, 3).rows, 3)


def test_eliminate_reads_the_pivot_column_by_position_after_a_swap():
    # the first pivot swaps column 2 into position 0 and column 0 into
    # position 2; row 1 then ties at valuation 1 in columns 0 and 1, and the
    # tie goes to the first column position, column 1, not the first id
    _assert_reference_pivots(Q, [{2: mono(0)}, {0: mono(1, 5), 1: mono(1, 7)}], 3)


def test_eliminate_reports_row_operations_in_position_order():
    # rows 0 and 1 both break the monomial shape against the pivot row 2,
    # which swaps with row 0; row 1 now comes first, so its message is raised
    m = _matrix([[mono(2), mono(5)], [mono(1), mono(3)], [mono(0), mono(0)]])
    with pytest.raises(
        PrecisionExhausted,
        match=r"^row operation adds pi\^1 to an entry at pi\^3: entries are not pi-monomials$",
    ):
        snf_valuations(m)


def test_weighted_boundary_matrix_entries(filled_triangle):
    A = weighted_boundary_matrix(filled_triangle, 2, Q)
    assert [row[0] for row in A.rows] == [mono(1), mono(1, -1), mono(1)]


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


def test_weighted_boundary_squares_to_zero():
    rng = random.Random(3)
    for _ in range(15):
        X = random_weighted_complex(rng, max_simplices=20)
        for n in range(2, X.dim + 1):
            lower = weighted_boundary_matrix(X, n - 1, Q)
            upper = weighted_boundary_matrix(X, n, Q)
            assert weighted_product_is_zero(lower, upper.rows)


def test_row_operations_stay_within_the_heaviest_weight(monkeypatch):
    # every exponent is a weight difference a_i - b_k, so each row that a row
    # operation of homology_via_snf leaves has its exponents in [0, heaviest
    # weight of X]: the bound that lets the oracle compute exactly
    add = wsh.oracle._add_multiple
    heaviest, outside, calls, reached = [0], [], [0], [0]

    def spy(vec, shift, g, src, field):
        add(vec, shift, g, src, field)
        calls[0] += 1
        exponents = [e for e, _c in vec.values()]
        outside.extend(e for e in exponents if not 0 <= e <= heaviest[0])
        reached[0] += heaviest[0] in exponents

    monkeypatch.setattr(wsh.oracle, "_add_multiple", spy)
    rng = random.Random(0xB0D)
    draws = [(random_weighted_complex(rng), CORPUS_FIELDS[i % 4]) for i in range(400)]
    for k in (6, 10):
        draws.append((torus_grid_complex(k, random.Random(k)), Q))
    for X, field in draws:
        heaviest[0] = max(X.weight(s) for s in X.simplices())
        known = {}
        for n in range(X.dim + 1):
            homology_via_snf(X, n, field, known)
    assert outside == []
    # the draws make thousands of row operations, and the bound is reached
    assert calls[0] > 1000 and reached[0] > 0


def test_in_column_span_weighted_image(filled_triangle):
    A = weighted_boundary_matrix(filled_triangle, 2, Q)
    beta = {("a", "b"): Q.one(), ("a", "c"): Q.neg(Q.one()), ("b", "c"): Q.one()}
    lifted = lift_cycle(beta, filled_triangle, Q)
    vec = chain_to_series(lifted, filled_triangle, Q)
    assert not in_column_span(A, vec)
    assert in_column_span(A, times_pi(vec, 1))


def test_in_column_span_identity_like():
    # targets are columns of the same shape: c*pi^(a_i - b) for one weight b.
    # Row weights (1, 3), column weights (0, 1): x = 2, y = -pi make (pi, 0),
    # while (1, 0) would need pi^3 x = 2 pi^2
    cols = _matrix([[mono(1), mono(0)], [mono(3), mono(2, 2)]])
    assert in_column_span(cols, {0: mono(1)})
    assert not in_column_span(cols, {0: mono(0)})
    assert cols.rows == [{0: mono(1), 1: mono(0)}, {0: mono(3), 1: mono(2, 2)}]
    # row weights (0, 1), column weights (0, -1)
    cols = _matrix([[mono(0), None], [None, mono(2)]])
    assert in_column_span(cols, {0: mono(1), 1: mono(2)})
    assert not in_column_span(cols, {0: mono(0), 1: mono(1)})
    assert not in_column_span(_matrix([[mono(1)], [None]]), {1: mono(0)})


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
