import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wsh.complexes
from wsh.complexes import build_complex, complete_faces, from_maximal
from wsh.errors import (
    EmptyInput,
    InvalidSimplex,
    MissingFace,
    MonotonicityViolation,
    ParseError,
    SimplexTooLarge,
)
from wsh.fields import FieldSpec
from wsh.fileio import (
    MAX_WEIGHT_DIGITS,
    parse_complex_file,
    render_json_report,
    render_text_report,
    serialize_complex,
)
from wsh.homology import HomologyModule, WeightedChain, homology, homology_all
from .conftest import NOT_LINE_BREAKS, RATIONALS as Q
from .conftest import glued_triangles_complex, random_weighted_complex, tetra_boundary_complex
from .reference_report import render_json_report_reference


def test_parse_basic_records():
    X = parse_complex_file("a b ; 1\na ; 1\nb ; 1\n")
    assert X.dim == 1
    assert len(X) == 3
    assert all(X.weight(s) == 1 for s in X.simplices())


def test_parse_comments_and_blanks():
    text = "# heading\n\n  a ; 2 \n\n# tail comment\nb ; 1\na b ; 1\n"
    X = parse_complex_file(text)
    assert X.weight(("a",)) == 2
    assert X.weight(("b",)) == 1


def test_parse_maximal_mode():
    X = parse_complex_file("!maximal 0\na b c\n")
    assert len(X) == 7
    assert all(X.weight(s) == 0 for s in X.simplices())


def test_parse_maximal_mode_weighted():
    X = parse_complex_file("# comment first\n!maximal 3\na b\nb c\n")
    assert len(X) == 5
    assert all(X.weight(s) == 3 for s in X.simplices())


def test_parse_monotonicity_reports_face_line():
    with pytest.raises(MonotonicityViolation) as ei:
        parse_complex_file("a b ; 2\na ; 1\nb ; 2\n")
    assert ei.value.line == 2
    assert "line 2" in str(ei.value)


def test_parse_error_cases():
    with pytest.raises(ParseError) as ei:
        parse_complex_file("a b 1\n")
    assert ei.value.line == 1
    with pytest.raises(ParseError):
        parse_complex_file("a ; 1 ; 2\n")
    with pytest.raises(ParseError):
        parse_complex_file("; 1\n")
    with pytest.raises(ParseError):
        parse_complex_file("a ; x\n")
    with pytest.raises(ParseError):
        parse_complex_file("a ; -2\n")
    with pytest.raises(ParseError):
        parse_complex_file("a a ; 1\n")
    with pytest.raises(ParseError):
        parse_complex_file("!frobnicate 3\na ; 1\n")
    with pytest.raises(ParseError):
        parse_complex_file("!maximal x\na\n")
    # int() accepts these spellings; the format takes ASCII digits only
    for weight in ("1_0", "\u0663", "+3"):
        with pytest.raises(ParseError) as ei:
            parse_complex_file(f"a ; 1\nb ; {weight}\n")
        assert ei.value.line == 2
        with pytest.raises(ParseError) as ei:
            parse_complex_file(f"# header\n!maximal {weight}\na b\n")
        assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_complex_file("a ; 1\n!maximal 0\n")
    with pytest.raises(ParseError):
        parse_complex_file("!maximal 1\na b ; 2\n")
    with pytest.raises(EmptyInput):
        parse_complex_file("# nothing here\n\n")


_TOO_BIG = " ".join(f"v{i:02d}" for i in range(21))
_TOO_BIG_REASON = (
    "simplex with 21 vertices would have 2097151 faces; "
    "filling in faces takes at most 20 vertices (1048575 faces)"
)
# past the reader's cap, the 4,300 digits that int() converts from a string by default
_HUGE_WEIGHT = "1" * 5000
# (text, complete, exception type, .line, str(exception)), every reader error
# under the weighted header first, then under '!maximal W'
_READER_ERRORS = [
    ("a b 1\n", False, ParseError, 1, "line 1: expected 'v1 v2 ... ; weight'"),
    ("a ; 1 ; 2\n", False, ParseError, 1, "line 1: expected 'v1 v2 ... ; weight'"),
    ("; 1\n", False, ParseError, 1, "line 1: record has no vertices"),
    ("a ; x\n", False, ParseError, 1, "line 1: bad weight 'x': expected ASCII digits 0-9"),
    ("a ;\n", False, ParseError, 1, "line 1: bad weight '': expected ASCII digits 0-9"),
    ("a ; 1 2\n", False, ParseError, 1, "line 1: bad weight '1 2': expected ASCII digits 0-9"),
    # comments are whole lines: a '#' after a record belongs to the record
    ("a ; 1  # vertex a\n", False, ParseError, 1,
     "line 1: bad weight '1  # vertex a': expected ASCII digits 0-9"),
    pytest.param(f"a ; {_HUGE_WEIGHT}\n", False, ParseError, 1,
                 "line 1: bad weight: more than 4300 digits",
                 id="5000-digit weight"),
    ("a  a ; 1\n", False, ParseError, 1, "line 1: repeated vertex in 'a a'"),
    ("a a ; x\n", False, ParseError, 1, "line 1: repeated vertex in 'a a'"),
    ("!frobnicate 3\na ; 1\n", False, ParseError, 1, "line 1: unknown directive '!frobnicate 3'"),
    ("a ; 1\n!maximal 0\n", False, ParseError, 2, "line 2: directives must precede all records"),
    ("a ; 1\n\na ; 1\n", False, ParseError, 3, "line 3: simplex 'a' already given on line 1"),
    ("a ; 1\n# c\n\nb ; 2\na ; 3\n", False, ParseError, 5,
     "line 5: simplex 'a' already given on line 1"),
    ("a ; 1\nb ; 1\na b ; 1\nb a ; 1\n", True, ParseError, 4,
     "line 4: simplex 'a b' already given on line 3"),
    ("a b ; 1\na ; 1\n", False, MissingFace, 1, "line 1: face {b} of {a b} is not in the complex"),
    # a builder error on an early record loses to a reader error on a later line
    ("a b ; 1\na ; 1\nb a ; 1\n", False, ParseError, 3,
     "line 3: simplex 'a b' already given on line 1"),
    (f"{_TOO_BIG} ; 0\na ; 1\nb c 1\n", True, ParseError, 3,
     "line 3: expected 'v1 v2 ... ; weight'"),
    ("a b ; 2\na ; 1\nb ; 2\n", False, MonotonicityViolation, 2,
     "line 2: weight of face {a} is 1 but its coface {a b} has weight 2"),
    ("a b ; 5\na b c ; 1\nb ; 0\n", True, MonotonicityViolation, 3,
     "line 3: weight of face {b} is 0 but its coface {a b} has weight 5"),
    (f"a ; 0\n{_TOO_BIG} ; 0\n", True, SimplexTooLarge, 2, f"line 2: {_TOO_BIG_REASON}"),
    ("# nothing here\n\n", False, EmptyInput, None, "no simplices in input"),
    ("!maximal x\na\n", False, ParseError, 1,
     "line 1: bad default weight 'x': expected ASCII digits 0-9"),
    ("!maximal\na\n", False, ParseError, 1, "line 1: unknown directive '!maximal'"),
    ("!maximal 0\n!maximal 1\na\n", False, ParseError, 2,
     "line 2: directives must precede all records"),
    ("!maximal 1\na b ; 2\n", False, ParseError, 2,
     "line 2: maximal mode lists bare simplices, no weights"),
    ("!maximal 1\na b ; 2\n", True, ParseError, 2,
     "line 2: maximal mode lists bare simplices, no weights"),
    ("!maximal 0\na  a\n", False, ParseError, 2, "line 2: repeated vertex in 'a  a'"),
    ("!maximal 0\na b\nb a\n", False, ParseError, 3,
     "line 3: simplex 'a b' already given on line 2"),
    ("!maximal 0\n", False, EmptyInput, None, "no simplices in input"),
    (f"!maximal 0\na\n{_TOO_BIG}\n", False, SimplexTooLarge, 3, f"line 3: {_TOO_BIG_REASON}"),
    (f"!maximal 0\n{_TOO_BIG}\na\nb ; 1\n", False, ParseError, 4,
     "line 4: maximal mode lists bare simplices, no weights"),
    # only one leading byte order mark is dropped; a second is text
    ("\ufeff\ufeff# x\na ; 1\n", False, ParseError, 1, "line 1: expected 'v1 v2 ... ; weight'"),
    # a label the record format would not read back as itself, reported on the
    # first record holding it; the last is two marked files joined end to end
    ("a #b ; 1\n", True, InvalidSimplex, 1, "line 1: label '#b' would not read back as one vertex"),
    ("a !b ; 1\n", True, InvalidSimplex, 1, "line 1: label '!b' would not read back as one vertex"),
    ("!maximal 0\na #b\n", False, InvalidSimplex, 2,
     "line 2: label '#b' would not read back as one vertex"),
    ("a ; 1\n\ufeffb ; 1\n", False, InvalidSimplex, 2,
     "line 2: label '\\ufeffb' would not read back as one vertex"),
    # with two bad labels, the first bad line of the file, not the first bad
    # label in sorted order, is reported, with its own label
    ("a ; 1\n\ufeffz ; 1\n\ufeffb ; 1\n", False, InvalidSimplex, 2,
     "line 2: label '\\ufeffz' would not read back as one vertex"),
    ("y #z ; 1\nb #a ; 1\n", True, InvalidSimplex, 1,
     "line 1: label '#z' would not read back as one vertex"),
]


@pytest.mark.parametrize("text, complete, exc, line, message", _READER_ERRORS)
def test_reader_errors_pin_type_message_and_line(text, complete, exc, line, message):
    with pytest.raises(exc) as ei:
        parse_complex_file(text, complete=complete)
    assert type(ei.value) is exc
    assert str(ei.value) == message
    assert getattr(ei.value, "line", None) == line


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int-string limit"
)
def test_weight_digit_cap_does_not_depend_on_the_int_string_limit():
    # with no limit int() converts any length; the reader still caps weights
    # at MAX_WEIGHT_DIGITS. With a lower limit, int() refuses first, and the
    # message names that limit
    longest = "1" * MAX_WEIGHT_DIGITS
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for text, what in [
            (f"a ; {_HUGE_WEIGHT}\n", "weight"),
            (f"!maximal {_HUGE_WEIGHT}\na\n", "default weight"),
        ]:
            with pytest.raises(ParseError) as ei:
                parse_complex_file(text)
            assert str(ei.value) == f"line 1: bad {what}: more than {MAX_WEIGHT_DIGITS} digits"
            assert ei.value.line == 1
        for text in (f"a ; {longest}\n", f"!maximal {longest}\na\n"):
            assert parse_complex_file(text).weight(("a",)) == int(longest)
        sys.set_int_max_str_digits(640)
        with pytest.raises(ParseError, match="^line 1: bad weight: more than 640 digits$"):
            parse_complex_file("a ; " + "1" * 1000)
    finally:
        sys.set_int_max_str_digits(limit)


# (text, complete): files that a leading byte order mark must not change
_BOM_FILES = [
    ("a b ; 0\nc a ; 0\n", True),  # the mark would be part of the label a
    ("# comment\na ; 1\nb ; 1\na b ; 1\n", False),
    ("!maximal 0\na b\nb c\n", False),
]


@pytest.mark.parametrize("text, complete", _BOM_FILES)
def test_leading_byte_order_mark_is_dropped(text, complete):
    X = parse_complex_file("\ufeff" + text, complete=complete)
    assert X == parse_complex_file(text, complete=complete)
    h0 = homology(X, 0, Q)
    assert (h0.free_rank, h0.torsion) == (1, [])


@pytest.mark.parametrize("ch", NOT_LINE_BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_only_cr_and_lf_break_lines(ch):
    # two records joined by ch are one bad record, not two good ones
    with pytest.raises(ParseError, match=r"^line 1: expected 'v1 v2 \.\.\. ; weight'$"):
        parse_complex_file(f"a ; 1{ch}b ; 1\n")
    # error lines count as `wc -l` counts: a comment holding ch is one line
    for text in (f"# x{ch}y\na ; 1\nb ; x\n", f"!maximal 0\n# x{ch}y\na b ; 1\n"):
        with pytest.raises(ParseError) as err:
            parse_complex_file(text)
        assert err.value.line == text.count("\n") == 3


def test_parse_duplicate_record_line():
    with pytest.raises(ParseError) as ei:
        parse_complex_file("a ; 1\n\na ; 1\n")
    assert ei.value.line == 3
    assert "line 1" in ei.value.reason


def test_parse_complete_mode():
    X = parse_complex_file("a b ; 5\na b c ; 1\n", complete=True)
    assert X.weight(("a",)) == 5
    assert X.weight(("c",)) == 1
    # without completion the same text is invalid
    with pytest.raises(Exception):
        parse_complex_file("a b ; 5\na b c ; 1\n")


class _Canonicalised(Exception):
    pass


def test_reader_hands_its_sorted_records_straight_to_the_closure_check(monkeypatch):
    # the reader sorts and checks each record itself; the builders'
    # canonicalisation of (vertices, weight) pairs is for library callers
    files = [
        (
            "b a ; 1\na ; 2\nb ; 1\n",
            False,
            build_complex([(("b", "a"), 1), (("a",), 2), (("b",), 1)]),
        ),
        ("c b a ; 1\nb ; 3\n", True, complete_faces([(("a", "b", "c"), 1), (("b",), 3)])),
        ("!maximal 2\nc b a\nd c\n", False, from_maximal([("a", "b", "c"), ("c", "d")], 2)),
    ]

    def refuse(*args):
        raise _Canonicalised(args)

    monkeypatch.setattr(wsh.complexes, "_listing", refuse)
    monkeypatch.setattr(wsh.complexes, "_canonical_labels", refuse)
    for text, complete, built in files:
        assert parse_complex_file(text, complete=complete) == built


def _records_text(records):
    return "".join(f"{' '.join(vertices)} ; {w}\n" for vertices, w in records)


def test_round_trip_exact():
    for X in (tetra_boundary_complex(), glued_triangles_complex()):
        assert parse_complex_file(serialize_complex(X)) == X
    # seeded draws, vertices shuffled within each record: the reader's complex
    # is the library builder's in all three modes, down to the id order
    rng = random.Random(24)
    for _ in range(80):
        X = random_weighted_complex(rng)
        records = [(tuple(rng.sample(s, len(s))), X.weight(s)) for s in X.simplices()]
        rng.shuffle(records)
        listed = rng.sample(records, rng.randint(1, len(records)))
        tops = [s for s, _ in records if not any(set(s) < set(t) for t, _ in records)]
        w = rng.randint(0, 5)
        maximal = f"!maximal {w}\n" + "".join(" ".join(s) + "\n" for s in tops)
        for text, complete, built in (
            (_records_text(records), False, build_complex(records)),
            (_records_text(listed), True, complete_faces(listed)),
            (maximal, False, from_maximal(tops, w)),
        ):
            parsed = parse_complex_file(text, complete=complete)
            assert parsed == built
            assert parsed.dim == built.dim
            assert all(parsed.n_simplices(n) == built.n_simplices(n) for n in range(built.dim + 1))


def test_serialize_orders_by_dimension_then_lex():
    X = build_complex([(("b",), 1), (("a",), 1), (("a", "b"), 0)])
    assert serialize_complex(X) == "a ; 1\nb ; 1\na b ; 0\n"


@pytest.mark.parametrize(
    "label",
    ["#x", "!x", "\ufeffx", "a;b", ";", "a b", " a", "a\t", "", "a\nb", "a\rb"]
    + [f"a{c}b" for c in NOT_LINE_BREAKS],
)
def test_serialize_refuses_labels_the_reader_reads_differently(label):
    # written out, '#x' would turn its records into comments, 'a b' would be
    # two vertices, and the rest would be a ParseError or a different label;
    # so every builder refuses them, and serialize_complex never meets one
    for build in (
        lambda: build_complex([((label,), 1), (("y",), 1), ((label, "y"), 0)]),
        lambda: complete_faces([((label, "y"), 0)]),
        lambda: from_maximal([("y", label)], 0),
    ):
        with pytest.raises(InvalidSimplex) as ei:
            build()
        assert str(ei.value) == f"label {label!r} would not read back as one vertex"
        assert ei.value.label == label


def test_builders_refuse_labels_the_text_report_cannot_tell_apart():
    # the vertex 'a b' would print as (a b), the edge {a, b}, and '' as ();
    # the first label in sorted order is named
    with pytest.raises(InvalidSimplex) as ei:
        build_complex([(("a b",), 1), (("c",), 1), (("a b", "c"), 0), (("",), 2)])
    assert str(ei.value) == "label '' would not read back as one vertex"


def test_serialize_round_trips_non_ascii_labels_and_inner_marks():
    rng = random.Random(27)
    pool = ["\u00e9", "Stra\u00dfe", "\u03a9", "a#b", "\u65e5\u672c", "x#", "\u00f1!", "z"]
    for _ in range(40):
        Y = random_weighted_complex(rng, max_vertices=len(pool))
        names = dict(zip((v for [v] in Y.n_simplices(0)), rng.sample(pool, len(pool))))
        X = build_complex([(tuple(names[v] for v in s), Y.weight(s)) for s in Y.simplices()])
        assert parse_complex_file(serialize_complex(X)) == X


# two letters, whitespace that str.split breaks at but lines do not end at,
# the record separator, and the characters that may not lead a label. About
# half the labels are drawn led by a letter and free of whitespace and ';',
# so that a good share of the complexes have only labels that read back
_ROUND_TRIP_CHARS = "ab \t\x1c\x85\xa0;#!\ufeff"
_round_trip_labels = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("ab"), st.text(alphabet="ab#!\ufeff", max_size=2)).map("".join),
        st.text(alphabet=_ROUND_TRIP_CHARS, max_size=3),
    ),
    min_size=7,
    max_size=7,
    unique=True,
)


def _relabelled(seed, labels):
    """A seeded random complex's records under the labels, tops and a weight."""
    rng = random.Random(seed)
    base = random_weighted_complex(rng)
    records = [(tuple(labels[int(v[1:])] for v in s), base.weight(s)) for s in base.simplices()]
    tops = [s for s, _ in records if not any(set(s) < set(t) for t, _ in records)]
    return rng, records, tops, rng.randint(0, 5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32), labels=_round_trip_labels)
def test_every_complex_a_builder_accepts_round_trips(seed, labels):
    rng, records, tops, w = _relabelled(seed, labels)
    listed = rng.sample(records, rng.randint(1, len(records)))
    for build in (
        lambda: build_complex(records),
        lambda: complete_faces(listed),
        lambda: from_maximal(tops, w),
    ):
        try:
            X = build()
        except InvalidSimplex as err:
            assert err.label in labels
            continue
        assert parse_complex_file(serialize_complex(X)) == X


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32), labels=_round_trip_labels)
def test_every_complex_the_reader_accepts_round_trips(seed, labels):
    rng, records, tops, w = _relabelled(seed, labels)
    maximal = f"!maximal {w}\n" + "".join(" ".join(s) + "\n" for s in tops)
    for text, complete in [
        (_records_text(records), False),
        (_records_text(rng.sample(records, rng.randint(1, len(records)))), True),
        (maximal, False),
        (maximal, True),
    ]:
        try:
            X = parse_complex_file(text, complete=complete)
        except ValueError:
            continue
        assert parse_complex_file(serialize_complex(X)) == X


def test_text_report_layout():
    X = tetra_boundary_complex()
    text = render_text_report(homology_all(X, Q), Q)
    lines = text.splitlines()
    assert lines[0] == "field: rational"
    assert lines[1] == "H_0 = R (+) R/(pi^1) (+) R/(pi^3) (+) R/(pi^3)"
    assert lines[2] == "H_1 = R/(pi^1) (+) R/(pi^1) (+) R/(pi^1)"
    assert lines[3] == "H_2 = R"


def test_text_report_zero_module():
    X = from_maximal([("a", "b", "c")], 0)
    text = render_text_report(homology_all(X, Q), Q)
    assert "H_1 = 0" in text
    assert "H_2 = 0" in text


def test_text_report_generators():
    X = build_complex([(("a",), 3), (("b",), 2), (("a", "b"), 1)])
    mods = homology_all(X, Q, with_generators=True)
    text = render_text_report(mods, Q)
    assert "  generator: 1*pi^0*(a)" in text
    assert "  generator: -1*pi^1*(a) + 1*pi^0*(b)" in text


def test_json_report_schema():
    X = glued_triangles_complex()
    payload = json.loads(render_json_report(homology_all(X, Q), Q))
    assert set(payload) == {"field", "dimensions"}
    assert payload["field"] == "rational"
    for entry in payload["dimensions"]:
        assert list(entry) == ["n", "free_rank", "torsion", "pairs"]
        for pair in entry["pairs"]:
            assert list(pair) == ["kappa", "mu", "m"]
            assert isinstance(pair["kappa"], list)
            assert isinstance(pair["m"], int)
    d0 = payload["dimensions"][0]
    assert d0["free_rank"] == 1
    assert d0["torsion"] == [2, 2, 2]


def test_json_report_generators_key_only_when_asked():
    X = build_complex([(("a",), 3), (("b",), 2), (("a", "b"), 1)])
    plain = json.loads(render_json_report(homology_all(X, Q), Q))
    assert all("generators" not in d for d in plain["dimensions"])
    mods = homology_all(X, Q, with_generators=True)
    rich = json.loads(render_json_report(mods, Q))
    gens = rich["dimensions"][0]["generators"]
    assert gens[0]["terms"][0]["simplex"] == ["a"]
    assert gens[0]["terms"][0]["poly"] == [[0, "1"]]


def test_json_and_text_agree_on_modules():
    X = tetra_boundary_complex()
    mods = homology_all(X, Q)
    payload = json.loads(render_json_report(mods, Q))
    text = render_text_report(mods, Q)
    for entry in payload["dimensions"]:
        rendered = ["R"] * entry["free_rank"] + [
            f"R/(pi^{m})" for m in entry["torsion"]
        ]
        line = f"H_{entry['n']} = " + (" (+) ".join(rendered) if rendered else "0")
        assert line in text


# label characters json.dumps escapes or passes through: quote, backslash,
# slash, Latin-1, BMP, an astral character (a surrogate pair once escaped),
# DEL and a control character
_LABEL_CHARS = '"\\/\u00e9\u2603\U0001d53d\x7f\x01ab'
_EVERY_CHAR = ['"', "\\", "/", "\u00e9", "\u2603\U0001d53d", "\x7f", "\x01"]
_REPORT_FIELDS = [FieldSpec.from_name(f) for f in ("rational", "gf:2", "gf:3", "gf:32003")]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    labels=st.lists(
        st.text(alphabet=_LABEL_CHARS, min_size=1, max_size=3), min_size=7, max_size=7, unique=True
    ),
    field=st.sampled_from(_REPORT_FIELDS),
    with_generators=st.booleans(),
    n=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)
# seed 0 uses all seven labels and has torsion in three dimensions; n=5
# lies above its dimension 3
@example(seed=0, labels=_EVERY_CHAR, field=_REPORT_FIELDS[3], with_generators=True, n=None)
@example(seed=0, labels=_EVERY_CHAR, field=_REPORT_FIELDS[0], with_generators=True, n=5)
def test_json_report_matches_json_dumps_byte_for_byte(seed, labels, field, with_generators, n):
    base = random_weighted_complex(random.Random(seed))
    X = build_complex(
        (tuple(labels[int(v[1:])] for v in s), base.weight(s)) for s in base.simplices()
    )
    if n is None:
        modules = homology_all(X, field, with_generators=with_generators)
    else:  # n may lie above X.dim, where every list of the module is empty
        modules = [homology(X, n, field, with_generators=with_generators)]
    assert render_json_report(modules, field) == render_json_report_reference(
        modules, field, with_generators
    )


def test_json_report_writes_any_poly_length_as_json_dumps():
    # lift_cycle makes every coordinate one pi-monomial; a chain built by
    # hand may hold longer polys, or none, which take the list writer
    module = homology(glued_triangles_complex(), 1, Q, with_generators=True)
    half, minus_three = Q.div(Q.one(), Q.from_int(2)), Q.from_int(-3)
    chains = [
        WeightedChain(
            1,
            {
                ("b", "c"): ((0, Q.one()), (2, minus_three)),
                ("a", "b"): (),
                ("a", "c"): ((1, half),),
                ("b", "d"): ((0, Q.one()), (1, half), (4, minus_three)),
            },
        ),
        WeightedChain(1, {}),
        WeightedChain(1, {("c", "d"): ((3, minus_three),)}),
    ]
    modules = [HomologyModule(module.n, module.free_rank, module.torsion, module.pairing, chains)]
    text = render_json_report(modules, Q)
    assert text == render_json_report_reference(modules, Q, with_generators=True)
    terms = json.loads(text)["dimensions"][0]["generators"][0]["terms"]
    assert [t["poly"] for t in terms] == [
        [],
        [[1, "1/2"]],
        [[0, "1"], [2, "-3"]],
        [[0, "1"], [1, "1/2"], [4, "-3"]],
    ]
