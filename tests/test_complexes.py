import copy
import itertools
import pickle
import random

import pytest

from wsh.complexes import (
    MAX_WEIGHT_DIGITS,
    BoundaryMatrix,
    WeightedComplex,
    _canonical_labels,
    boundary_exponent_matrix,
    boundary_rows,
    build_complex,
    complete_faces,
    from_maximal,
)
from wsh.errors import (
    DimensionOutOfRange,
    DuplicateSimplex,
    EmptyInput,
    InvalidSimplex,
    MissingFace,
    MonotonicityViolation,
)
from wsh.fields import FieldSpec
from wsh.fileio import parse_complex_file, serialize_complex
from .conftest import random_weighted_complex, tetra_boundary_complex, torus_grid_complex
from .dense import Matrix
from .invariants import signed_faces
from .reference_complexes import _closure


def test_build_smallest_edge_complex():
    X = build_complex([(("a",), 0), (("b",), 0), (("a", "b"), 0)])
    assert X.dim == 1
    assert X.n_simplices(0) == (("a",), ("b",))
    assert X.n_simplices(1) == (("a", "b"),)
    assert X.n_simplices(2) == ()
    assert len(X) == 3


def test_build_canonicalizes_vertex_order():
    X = build_complex([(("b", "a"), 0), (("a",), 1), (("b",), 1)])
    assert ("a", "b") in X
    assert X.weight(("a", "b")) == 0
    assert X.weight(("b", "a")) == 0


def test_build_rejects_monotonicity_violation():
    with pytest.raises(MonotonicityViolation) as ei:
        build_complex([(("a",), 1), (("b",), 1), (("a", "b"), 2)])
    assert ei.value.face == ("a",)
    assert ei.value.coface == ("a", "b")


def test_build_rejects_duplicates_and_gaps():
    with pytest.raises(DuplicateSimplex):
        build_complex([(("a",), 1), (("a",), 2)])
    with pytest.raises(MissingFace):
        build_complex([(("a",), 1), (("a", "b"), 1)])
    with pytest.raises(EmptyInput):
        build_complex([])
    with pytest.raises(InvalidSimplex):
        build_complex([(("a", "a"), 0)])
    with pytest.raises(ValueError):
        build_complex([(("a",), -1)])
    with pytest.raises(ValueError):
        build_complex([(("a",), True)])


def test_tetra_boundary_has_14_simplices():
    X = tetra_boundary_complex()
    assert len(X) == 14
    assert X.dim == 2
    assert X.weight(("A", "B")) == 4
    assert X.weight(("A", "C")) == 2
    assert X.total_weight() == 4 * 5 + 5 * 2 + 4 + 4 * 1


def test_from_maximal_triangle():
    X = from_maximal([("a", "b", "c")], 0)
    assert len(X) == 7
    assert all(X.weight(s) == 0 for s in X.simplices())


def test_from_maximal_path():
    X = from_maximal([("a", "b"), ("b", "c")], 3)
    assert len(X) == 5
    assert X.dim == 1
    assert all(X.weight(s) == 3 for s in X.simplices())


def test_from_maximal_tetra_boundary():
    faces = list(itertools.combinations("abcd", 3))
    X = from_maximal(faces, 0)
    assert len(X) == 14
    assert X.dim == 2


@pytest.mark.parametrize("d", range(3, 11))
def test_from_maximal_matches_reference_closure(d):
    # boundary of the d-simplex, plus a top overlapping it in half its
    # vertices, a top nested in another, and a top repeated in another order
    rng = random.Random(d)
    verts = [f"v{i}" for i in range(d + 1)]
    tops = list(itertools.combinations(verts, d))
    tops.append(tuple(verts[: d // 2]) + ("w0", "w1"))
    tops.append(tops[0][1:3])
    tops.append(tuple(reversed(tops[1])))
    tops = [tuple(rng.sample(t, len(t))) for t in tops]
    rng.shuffle(tops)
    closure = _closure([_canonical_labels(t) for t in tops])
    for w in (0, 3):
        X = from_maximal(tops, w)
        assert X == WeightedComplex({s: w for s in closure})
        assert len(X) == len(closure) == 2 ** (d + 1) - 2 + 2 ** (d // 2 + 2) - 2 ** (d // 2)


def test_from_maximal_empty():
    with pytest.raises(EmptyInput):
        from_maximal([], 0)


_TOO_LARGE = tuple(f"x{i:02d}" for i in range(21))


@pytest.mark.parametrize(
    "tops, w, error, message",
    [
        ([], 0, EmptyInput, "no simplices given"),
        ([], -1, EmptyInput, "no simplices given"),
        ([("b", "a")], -1, ValueError, "weight of {a b} must be a non-negative integer, got -1"),
        ([("b", "a")], True, ValueError, "weight of {a b} must be a non-negative integer, got True"),
        ([("b", "a")], 1.5, ValueError, "weight of {a b} must be a non-negative integer, got 1.5"),
        # the weight is reported against the first record
        (
            [("b", "a"), ("c", "d")],
            -1,
            ValueError,
            "weight of {a b} must be a non-negative integer, got -1",
        ),
        ([("a", "a", "b")], 0, InvalidSimplex, "repeated vertex in simplex {a a b}"),
        # every record is read before the weight is checked
        ([("a", "b"), ("c", "c")], -1, InvalidSimplex, "repeated vertex in simplex {c c}"),
        # a bad weight beats the size cap, as '!maximal' with a bad weight fails on line 1
        (
            [("a", "b"), _TOO_LARGE],
            True,
            ValueError,
            "weight of {a b} must be a non-negative integer, got True",
        ),
    ],
)
def test_from_maximal_errors_pin_type_and_message(tops, w, error, message):
    with pytest.raises(error) as ei:
        from_maximal(tops, w)
    assert type(ei.value) is error
    assert str(ei.value) == message


def test_from_maximal_merges_repeated_and_nested_tops():
    triangle = from_maximal([("a", "b", "c")], 2)
    # a top repeated in another order is merged, not refused
    assert from_maximal([("a", "b", "c"), ("c", "a", "b")], 2) == triangle
    # a top that is a face of another top adds nothing
    assert from_maximal([("a", "b"), ("a", "b", "c")], 2) == triangle
    assert from_maximal([("a", "b", "c"), ("b", "c")], 2) == triangle
    assert len(triangle) == 7


def test_complete_faces_single_coface():
    X = complete_faces([(("a", "b", "c"), 2)])
    assert len(X) == 7
    assert all(X.weight(s) == 2 for s in X.simplices())


def test_complete_faces_max_rule():
    X = complete_faces([(("a", "b"), 5), (("a", "b", "c"), 1)])
    assert X.weight(("a",)) == 5
    assert X.weight(("b",)) == 5
    assert X.weight(("c",)) == 1
    assert X.weight(("a", "c")) == 1
    assert X.weight(("b", "c")) == 1
    assert X.weight(("a", "b")) == 5


def test_complete_faces_listed_conflict():
    with pytest.raises(MonotonicityViolation):
        complete_faces([(("a", "b"), 1), (("a",), 0)])


def test_signed_faces_triangle():
    assert signed_faces(("a", "b", "c")) == [
        (("b", "c"), 1),
        (("a", "c"), -1),
        (("a", "b"), 1),
    ]
    assert signed_faces(("a", "b")) == [(("b",), 1), (("a",), -1)]
    assert signed_faces(("a",)) == []


def test_boundary_matrix_filled_triangle_trivial_weights():
    X = from_maximal([("a", "b", "c")], 0)
    bm = boundary_exponent_matrix(X, 2)
    assert len(bm.columns) == 1
    assert [(sign, exp) for _row, sign, exp in bm.columns[0]] == [(1, 0), (-1, 0), (1, 0)]


def test_boundary_matrix_weighted_triangle():
    X = build_complex(
        [(("a",), 1), (("b",), 1), (("c",), 1),
         (("a", "b"), 1), (("a", "c"), 1), (("b", "c"), 1),
         (("a", "b", "c"), 0)]
    )
    bm = boundary_exponent_matrix(X, 2)
    assert [(sign, exp) for _row, sign, exp in bm.columns[0]] == [(1, 1), (-1, 1), (1, 1)]


def test_boundary_matrix_tetra_edges():
    X = tetra_boundary_complex()
    bm = boundary_exponent_matrix(X, 1)
    assert len(bm.row_simplices) == 4
    assert len(bm.col_simplices) == 6
    for j, edge in enumerate(bm.col_simplices):
        expected = 1 if edge == ("A", "B") else 3
        assert all(exp == expected for _r, _s, exp in bm.columns[j])


def _boundary_by_definition(X, n):
    rows = X.n_simplices(n - 1)
    row_index = {f: i for i, f in enumerate(rows)}
    return tuple(
        tuple((row_index[f], sign, X.weight(f) - X.weight(s)) for f, sign in signed_faces(s))
        for s in X.n_simplices(n)
    )


def test_boundary_matrix_matches_signed_faces_definition(corpus):
    # every column lists its faces in signed_faces order, triple by triple
    tori = [torus_grid_complex(k, random.Random(k)) for k in range(4, 13)]
    spheres = [
        from_maximal(itertools.combinations([f"x{i}" for i in range(d + 1)], d), d)
        for d in range(3, 11)
    ]
    for X in [X for X, _field in corpus] + tori + spheres:
        for n in range(1, X.dim + 1):
            bm = boundary_exponent_matrix(X, n)
            assert bm.n == n
            assert bm.row_simplices == X.n_simplices(n - 1)
            assert bm.col_simplices == X.n_simplices(n)
            assert bm.columns == _boundary_by_definition(X, n)


def test_boundary_rows_are_the_definition_read_by_row():
    # the rows carry the sign objects they are given, plus for (-1)^i = 1
    sphere = from_maximal(itertools.combinations([f"x{i}" for i in range(7)], 6), 6)
    for X in (torus_grid_complex(5, random.Random(5)), sphere):
        for n in range(1, X.dim + 1):
            expected = [{} for _ in X.n_simplices(n - 1)]
            for j, col in enumerate(_boundary_by_definition(X, n)):
                for r, sign, exp in col:
                    expected[r][j] = (exp, "+" if sign == 1 else "-")
            assert boundary_rows(X, n, "+", "-") == expected
        for n in (0, X.dim + 1):
            with pytest.raises(DimensionOutOfRange):
                boundary_rows(X, n, 1, -1)


def test_boundary_matrix_dimension_range():
    X = from_maximal([("a", "b")], 0)
    with pytest.raises(DimensionOutOfRange):
        boundary_exponent_matrix(X, 0)
    with pytest.raises(DimensionOutOfRange):
        boundary_exponent_matrix(X, 2)


def _classical(bm, field):
    rows = [[field.zero()] * len(bm.columns) for _ in bm.row_simplices]
    for j, col in enumerate(bm.columns):
        for r, sign, _exp in col:
            rows[r][j] = field.from_int(sign)
    return Matrix(field, rows, ncols=len(bm.columns))


def test_boundary_squares_to_zero():
    rng = random.Random(77)
    F = FieldSpec.rationals()
    for _ in range(25):
        X = random_weighted_complex(rng)
        for n in range(2, X.dim + 1):
            lower = _classical(boundary_exponent_matrix(X, n - 1), F)
            upper = _classical(boundary_exponent_matrix(X, n), F)
            for j in range(upper.ncols):
                assert all(F.is_zero(x) for x in lower.mat_vec(upper.column(j)))


def test_exponents_non_negative_everywhere():
    rng = random.Random(78)
    for _ in range(25):
        X = random_weighted_complex(rng)
        for n in range(1, X.dim + 1):
            bm = boundary_exponent_matrix(X, n)
            assert all(exp >= 0 for col in bm.columns for _r, _s, exp in col)
            assert all(len(col) == n + 1 for col in bm.columns)


def test_complex_equality_and_weight_lookup():
    X = tetra_boundary_complex()
    Y = tetra_boundary_complex()
    assert X == Y
    assert ("A", "E") not in X
    assert () not in X
    with pytest.raises(KeyError):
        X.weight(("A", "E"))
    # a list or an unsorted tuple is read as its sorted labels
    for simplex in (["B", "A"], ["A", "B"], ("B", "A"), ("C", "A", "B")):
        assert simplex in X
        assert X.weight(simplex) == X.weight(tuple(sorted(simplex)))
    assert X.weight(["B", "A"]) == 4
    assert X.weight(("D", "B", "C")) == 1
    # missing and invalid simplices, in any spelling
    for simplex in (["E", "A"], ("A", "A"), ["A", "A"], [], ("A", "B", "C", "D")):
        assert simplex not in X
    for simplex in (["E", "A"], ("B", "A", "C", "D")):
        with pytest.raises(KeyError):
            X.weight(simplex)
    for simplex in ((), [], ("A", "A"), ["B", "B"]):
        with pytest.raises(InvalidSimplex):
            X.weight(simplex)


def test_listing_order_does_not_change_the_dimensions():
    # the per-dimension lists grow as the first simplex of a new size comes
    X = torus_grid_complex(4, random.Random(4))
    items = list(X._weights.items())
    random.Random(1).shuffle(items)
    bottom_up = WeightedComplex(dict(sorted(items, key=lambda kv: len(kv[0]))))
    assert bottom_up.dim == 2
    assert [len(bottom_up.n_simplices(n)) for n in range(3)] == [16, 48, 32]
    top_first = sorted(items, key=lambda kv: -len(kv[0]))
    for listing in (top_first, items):
        Y = WeightedComplex(dict(listing))
        assert Y.dim == bottom_up.dim
        for n in range(-1, Y.dim + 2):
            assert Y.n_simplices(n) == bottom_up.n_simplices(n)


def test_boundary_matrix_is_an_immutable_value():
    X = build_complex([(("a",), 3), (("b",), 2), (("a", "b"), 1)])
    bm = boundary_exponent_matrix(X, 1)
    assert repr(bm) == (
        "BoundaryMatrix(n=1, row_simplices=(('a',), ('b',)), col_simplices=(('a', 'b'),),"
        " columns=(((1, 1, 1), (0, -1, 2)),))"
    )
    same = BoundaryMatrix(n=1, row_simplices=(("a",), ("b",)), col_simplices=(("a", "b"),),
                          columns=(((1, 1, 1), (0, -1, 2)),))
    assert same == bm and hash(same) == hash(bm)
    assert BoundaryMatrix(1, bm.row_simplices, bm.col_simplices, ()) != bm
    # a named tuple, as PairedSimplices is: equal to the plain tuple of its fields
    assert BoundaryMatrix._fields == ("n", "row_simplices", "col_simplices", "columns")
    assert bm == (1, bm.row_simplices, bm.col_simplices, bm.columns)
    for name in ("n", "columns", "other"):
        with pytest.raises(AttributeError):
            setattr(bm, name, 2)
    with pytest.raises(AttributeError):
        del bm.n
    assert bm.n == 1
    assert copy.copy(bm) == bm and copy.deepcopy(bm) == bm
    assert pickle.loads(pickle.dumps(bm)) == bm


_TOO_HEAVY = 10**MAX_WEIGHT_DIGITS  # 4,301 digits, one more than the reader takes


@pytest.mark.parametrize(
    "build, simplex",
    [
        (lambda w: build_complex([(("b",), w), (("a",), w), (("a", "b"), 0)]), "b"),
        (lambda w: complete_faces([(("b", "a"), w)]), "a b"),
        (lambda w: from_maximal([("b", "a")], w), "a b"),
    ],
    ids=["build_complex", "complete_faces", "from_maximal"],
)
def test_builders_refuse_a_weight_the_reader_would_refuse(build, simplex):
    # the bound is compared as an int: no weight is converted to a string
    with pytest.raises(ValueError) as ei:
        build(_TOO_HEAVY)
    assert str(ei.value) == f"weight of {{{simplex}}} has more than 4300 digits"
    X = build(_TOO_HEAVY - 1)
    assert max(map(X.weight, X.simplices())) == _TOO_HEAVY - 1


def test_heaviest_weight_round_trips_through_the_file_format():
    X = build_complex([(("a",), _TOO_HEAVY - 1), (("b",), 7), (("a", "b"), 3)])
    text = serialize_complex(X)
    assert text.splitlines()[0] == "a ; " + "9" * MAX_WEIGHT_DIGITS
    assert parse_complex_file(text) == X
