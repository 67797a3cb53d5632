import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsh.complexes import build_complex, from_maximal
from wsh.errors import EmptyInput, MonotonicityViolation, ParseError
from wsh.fields import FieldSpec
from wsh.fileio import (
    parse_complex_file,
    render_json_report,
    render_text_report,
    serialize_complex,
)
from wsh.homology import homology, homology_all
from .conftest import RATIONALS as Q
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


def test_round_trip_exact():
    for X in (tetra_boundary_complex(), glued_triangles_complex()):
        assert parse_complex_file(serialize_complex(X)) == X


def test_serialize_orders_by_dimension_then_lex():
    X = build_complex([(("b",), 1), (("a",), 1), (("a", "b"), 0)])
    assert serialize_complex(X) == "a ; 1\nb ; 1\na b ; 0\n"


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
    text = render_text_report(mods, Q, with_generators=True)
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
    rich = json.loads(render_json_report(mods, Q, with_generators=True))
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
    # the opposite flag too: chains present but not asked for, or asked for but absent
    for flag in (with_generators, not with_generators):
        assert render_json_report(modules, field, flag) == render_json_report_reference(
            modules, field, flag
        )
