"""Face completion against the quadratic reference, and the closure size cap."""

import itertools
import random
import time

import pytest

import wsh.complexes
import wsh.fileio
from wsh.complexes import MAX_CLOSURE_VERTICES, complete_faces, from_maximal
from wsh.errors import ComplexError, MonotonicityViolation, ParseError, SimplexTooLarge
from wsh.fileio import parse_complex_file
from . import reference_complexes

LABELS = ("a", "b", "c", "d", "e", "f", "v10", "v2")


def _random_listing(rng):
    """Records (vertices in random order, weight) of an incomplete listing.

    Two in five listings take arbitrary weights, which mostly violate
    monotonicity; the rest are monotone, and half of those then get one
    record re-weighted at random. A few list one simplex twice.
    """
    verts = rng.sample(LABELS, rng.randint(1, 6))
    candidates = [
        c for k in range(1, len(verts) + 1) for c in itertools.combinations(sorted(verts), k)
    ]
    chosen = rng.sample(candidates, rng.randint(1, min(len(candidates), 12)))
    mode = rng.random()
    weights = {}
    if mode < 0.4:
        for s in chosen:
            weights[s] = rng.randint(0, 6)
    else:
        for s in sorted(chosen, key=len, reverse=True):
            floor = max((weights[t] for t in weights if set(s) < set(t)), default=0)
            weights[s] = floor + rng.randint(0, 2)
        if mode > 0.7:
            weights[rng.choice(chosen)] = rng.randint(0, 6)
    records = [(tuple(rng.sample(s, len(s))), weights[s]) for s in chosen]
    if rng.random() < 0.03:
        s = rng.choice(chosen)
        records.insert(rng.randint(0, len(records)), (tuple(reversed(s)), rng.randint(0, 6)))
    return records


def _text(records, rng):
    lines = []
    for vertices, w in records:
        if rng.random() < 0.2:
            lines.append("# comment")
        lines.append(f"{' '.join(vertices)} ; {w}")
    return "\n".join(lines) + "\n"


def _outcome(call):
    try:
        return ("complex", call())
    except (ComplexError, ParseError) as e:
        return (
            type(e),
            e.args,
            getattr(e, "face", None),
            getattr(e, "coface", None),
            getattr(e, "line", None),
        )


def test_complete_faces_matches_quadratic_reference(monkeypatch):
    rng = random.Random(0xFACE)
    kinds = {"complex": 0, MonotonicityViolation: 0}
    for _ in range(2000):
        records = _random_listing(rng)
        text = _text(records, rng)
        new = _outcome(lambda: complete_faces(records))
        ref = _outcome(lambda: reference_complexes.complete_faces(records))
        assert new == ref, records
        parsed = _outcome(lambda: parse_complex_file(text, complete=True))
        with monkeypatch.context() as m:
            # the reader hands its canonical {labels: weight} records to _completed
            m.setattr(
                wsh.fileio,
                "_completed",
                lambda listed: reference_complexes.complete_faces(listed.items()),
            )
            parsed_ref = _outcome(lambda: parse_complex_file(text, complete=True))
        assert parsed == parsed_ref, text
        if new[0] in kinds:
            kinds[new[0]] += 1
    # both outcomes are well represented, so neither half of the comparison is vacuous
    assert kinds["complex"] > 500
    assert kinds[MonotonicityViolation] > 500


def test_vertex_against_triangles_reports_first_heavier_in_file_order():
    # the vertex a is lighter than two listed triangles and no listed edge;
    # a c d comes first in the file although a b c is heavier and sorts first
    records = [(("a", "e"), 1), (("a",), 1), (("d", "c", "a"), 2), (("a", "b", "c"), 4)]
    text = "a e ; 1\na ; 1\nd c a ; 2\na b c ; 4\n"
    for complete in (complete_faces, reference_complexes.complete_faces):
        with pytest.raises(MonotonicityViolation) as ei:
            complete(records)
        err = ei.value
        assert (err.face, err.coface) == (("a",), ("a", "c", "d"))
        assert (err.face_weight, err.coface_weight) == (1, 2)
    with pytest.raises(MonotonicityViolation) as ei:
        parse_complex_file(text, complete=True)
    assert ei.value.line == 2
    assert str(ei.value) == "line 2: weight of face {a} is 1 but its coface {a c d} has weight 2"


def test_face_of_three_cofaces_takes_the_heaviest_in_any_listing_order():
    # the edge a b lies in three listed triangles of weights 1, 3 and 2
    cofaces = [(("a", "b", "c"), 1), (("a", "b", "d"), 3), (("a", "b", "e"), 2)]
    expected = {
        ("a",): 3, ("b",): 3, ("c",): 1, ("d",): 3, ("e",): 2,
        ("a", "b"): 3, ("a", "c"): 1, ("b", "c"): 1,
        ("a", "d"): 3, ("b", "d"): 3, ("a", "e"): 2, ("b", "e"): 2,
    }
    for records in itertools.permutations(cofaces):
        X = complete_faces(records)
        assert X == reference_complexes.complete_faces(records)
        assert len(X) == 15
        for s, w in [*expected.items(), *cofaces]:
            assert X.weight(s) == w, (records, s)


BIG = tuple(f"x{i:02d}" for i in range(64))


class _Enumerated(Exception):
    pass


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(listed):
        raise _Enumerated(len(listed))

    monkeypatch.setattr(wsh.complexes, "_heaviest_cofaces", refuse)


def test_huge_record_refused_before_any_face_is_generated(no_enumeration):
    start = time.perf_counter()
    with pytest.raises(SimplexTooLarge) as ei:
        complete_faces([(("a",), 1), (tuple(reversed(BIG)), 0)])
    assert ei.value.simplex == BIG
    with pytest.raises(SimplexTooLarge) as ei:
        from_maximal([("a", "b"), BIG], 0)
    assert ei.value.simplex == BIG
    with pytest.raises(SimplexTooLarge) as ei:
        parse_complex_file("!maximal 0\na b\n" + " ".join(BIG) + "\n")
    assert ei.value.line == 3
    with pytest.raises(SimplexTooLarge) as ei:
        parse_complex_file("a ; 1\n" + " ".join(BIG) + " ; 0\n", complete=True)
    assert ei.value.line == 2
    assert str(ei.value).startswith("line 2: simplex with 64 vertices")
    assert time.perf_counter() - start < 1.0


def test_vertex_cap_boundary(no_enumeration):
    at_cap = tuple(f"x{i:02d}" for i in range(MAX_CLOSURE_VERTICES))
    over_cap = at_cap + ("y",)
    with pytest.raises(_Enumerated):
        complete_faces([(at_cap, 0)])
    with pytest.raises(_Enumerated):
        from_maximal([at_cap], 0)
    with pytest.raises(SimplexTooLarge):
        complete_faces([(over_cap, 0)])
    with pytest.raises(SimplexTooLarge):
        from_maximal([over_cap], 0)
