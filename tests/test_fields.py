import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsh.fields import MAX_FIELD_ORDER, FieldSpec, _is_prime

from .dense import Matrix, rank, row_reduce


def test_field_names_round_trip():
    assert FieldSpec.from_name("rational").name == "rational"
    assert FieldSpec.from_name("gf:7").name == "gf:7"
    assert FieldSpec.from_name("gf:2") == FieldSpec.prime_field(2)


@pytest.mark.parametrize(
    "bad", ["gf:4", "gf:1", "gf:0", "gf:-3", "gf:abc", "real", "", "gf:+7", "gf:1_1", "gf:\u0667"]
)
def test_bad_field_names_rejected(bad):
    with pytest.raises(ValueError):
        FieldSpec.from_name(bad)


def test_rational_arithmetic_is_exact():
    F = FieldSpec.rationals()
    a = F.from_int(1)
    third = F.div(a, F.from_int(3))
    assert F.mul(third, F.from_int(3)) == F.one()
    assert third == Fraction(1, 3)


# ints, integral and proper Fractions, with numerators well past 64 bits
_ints = st.integers(min_value=-(2**100), max_value=2**100)
_rationals = st.one_of(
    _ints,
    _ints.map(Fraction),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, _ints, st.integers(min_value=1, max_value=2**70)),
)


def _assert_exact(result, expected):
    assert result == expected
    assert type(result) is (int if expected.denominator == 1 else Fraction)


@given(_rationals, _rationals)
def test_rational_kernel_matches_fraction_arithmetic(a, b):
    F = FieldSpec.rationals()
    fa, fb = Fraction(a), Fraction(b)
    _assert_exact(F.add(a, b), fa + fb)
    _assert_exact(F.sub(a, b), fa - fb)
    _assert_exact(F.mul(a, b), fa * fb)
    _assert_exact(F.neg(a), -fa)
    if fb == 0:
        with pytest.raises(ZeroDivisionError):
            F.div(a, b)
        with pytest.raises(ZeroDivisionError):
            F.inv(b)
    else:
        _assert_exact(F.div(a, b), fa / fb)
        _assert_exact(F.inv(b), 1 / fb)


def test_rational_constants_are_ints():
    F = FieldSpec.rationals()
    assert [type(x) for x in (F.zero(), F.one(), F.from_int(-7))] == [int] * 3
    with pytest.raises(ZeroDivisionError):
        F.div(F.one(), F.zero())


def test_gf5_arithmetic():
    F = FieldSpec.prime_field(5)
    assert F.add(F.from_int(3), F.from_int(4)) == 2
    assert F.mul(F.from_int(2), F.from_int(4)) == 3
    assert F.inv(F.from_int(2)) == 3
    assert F.neg(F.from_int(1)) == 4
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero())


def _m(F, rows):
    return Matrix(F, [[F.from_int(x) for x in r] for r in rows])


def test_rank_examples():
    Q = FieldSpec.rationals()
    assert rank(_m(Q, [[1, 2], [2, 4]])) == 1
    F2 = FieldSpec.prime_field(2)
    assert rank(_m(F2, [[1, 1], [1, 1]])) == 1
    assert rank(Matrix(Q, [], ncols=3)) == 0
    assert rank(Matrix(Q, [[], []], ncols=0)) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    Q = FieldSpec.rationals()
    F3 = FieldSpec.prime_field(3)
    for F in (Q, F3):
        for _ in range(40):
            rows = [
                [F.from_int(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
            ]
            ncols = len(rows[0])
            for _ in range(rng.randint(0, 4)):
                rows.append([F.from_int(rng.randint(-3, 3)) for _ in range(ncols)])
            m = Matrix(F, rows)
            assert rank(m) == rank(m.transpose())


def test_row_reduce_examples():
    Q = FieldSpec.rationals()
    ident = _m(Q, [[1, 0], [0, 1]])
    red, pivots = row_reduce(ident)
    assert red == ident and pivots == [(0, 0), (1, 1)]
    red, pivots = row_reduce(_m(Q, [[0, 1], [1, 0]]))
    assert red == ident
    red, pivots = row_reduce(_m(Q, [[2, 4], [1, 2]]))
    assert red == _m(Q, [[1, 2], [0, 0]]) and pivots == [(0, 0)]


def test_gfp_matches_rationals_mod_p():
    # an integer matrix loses rank mod p only when p divides every nonzero
    # maximal minor. Hadamard's bound keeps these minors below
    # (4 * sqrt(5))^5 < 6e4 here, so mod 1000003 the rank never drops,
    # while mod 5 it may
    rng = random.Random(31)
    Q = FieldSpec.rationals()
    F5 = FieldSpec.prime_field(5)
    big = FieldSpec.prime_field(1000003)
    drops = 0
    for _ in range(200):
        nr, nc = rng.randint(2, 5), rng.randint(1, 5)
        ints = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        r_q, r_5, r_big = (
            rank(Matrix(F, [[F.from_int(x) for x in r] for r in ints])) for F in (Q, F5, big)
        )
        assert r_big == r_q
        assert r_5 <= r_q
        drops += r_5 < r_q
    assert 0 < drops < 100


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael number
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        FieldSpec.prime_field(n)


def test_large_prime_field_accepted_quickly():
    t0 = time.perf_counter()
    F = FieldSpec.from_name("gf:2305843009213693951")  # 2^61 - 1
    assert time.perf_counter() - t0 < 0.5
    assert F.mul(F.from_int(2**60), F.from_int(2)) == 1


@pytest.mark.parametrize("bad", [2.0, 7.5, "5", True, Fraction(5)])
def test_non_int_field_orders_rejected(bad):
    # 2.0 would otherwise pass the primality test and give float scalars;
    # 7.5 and "5" would fail inside it with a TypeError
    with pytest.raises(ValueError, match=f"^field order must be an int, got {re.escape(repr(bad))}$"):
        FieldSpec(bad)


def test_field_order_cap():
    with pytest.raises(ValueError, match=f"below {MAX_FIELD_ORDER}"):
        FieldSpec.prime_field(2**89 - 1)  # prime, but past the proven witness set
