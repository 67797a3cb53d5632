"""Reading and writing weighted complexes, and rendering results.

The file format is line based. Each record is the vertices of a simplex
separated by whitespace, then a semicolon, then a non-negative integer
weight written in at most MAX_WEIGHT_DIGITS ASCII digits:

    a b c ; 2

Full-line comments start with '#', blank lines are skipped. If the first
significant line is '!maximal W', only maximal simplices need to be listed:
each record is then the bare vertices, without ';' or weight, and every
simplex and missing face gets the weight W, whether or not complete=True.
One loop reads both kinds of file; only the record syntax and where the
weight comes from depend on the header. Wherever faces are filled in, a
record may have at most complexes.MAX_CLOSURE_VERTICES vertices. One
leading byte order mark (U+FEFF) is dropped. A vertex label must read back
as itself: one whitespace-free token, without ';', not starting with '#',
'!' or U+FEFF (a U+FEFF may sit inside a label but not lead one);
WeightedComplex refuses any other with InvalidSimplex, which the reader
reports on the first record in the file that holds such a label.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii

from .complexes import MAX_WEIGHT_DIGITS, WeightedComplex, _check_labels, _closed, _completed

# the library builders are not called here; they stay bound for
# perfbench/tracing.py, which looks them up through this module
from .complexes import build_complex, complete_faces, from_maximal  # noqa: F401
from .errors import (
    EmptyInput,
    InvalidSimplex,
    MissingFace,
    MonotonicityViolation,
    ParseError,
    SimplexTooLarge,
)

__all__ = [
    "parse_complex_file",
    "serialize_complex",
    "render_text_report",
    "render_json_report",
    "split_lines",
]


def split_lines(text: str) -> list:
    """Lines as `wc -l` counts them: str.splitlines also breaks at \\v, \\f,
    \\x1c-\\x1e, U+0085, U+2028 and U+2029; this breaks at \\r\\n, \\r, \\n only."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _decorate(err, line_of):
    """Re-raise a construction error with the line of the offending record:
    the listed face of a MonotonicityViolation, the simplex of a MissingFace
    or SimplexTooLarge, and for an InvalidSimplex the first record, in file
    order, holding a label the format cannot read back, named in the message."""
    if isinstance(err, MonotonicityViolation):
        key = err.face
    elif isinstance(err, InvalidSimplex):
        # WeightedComplex refused the first bad label in sorted order; ask
        # the same check of each record in turn
        for key in line_of:
            try:
                _check_labels(zip(key))
            except InvalidSimplex as first:
                err.label, err.args = first.label, first.args
                break
    else:
        key = err.simplex
    err.line = line_of[key]
    err.args = (f"line {err.line}: {err.args[0]}",)
    raise err


def _weight(lineno, text, what):
    # int() alone would also take '1_0', '+3' and non-ASCII digits such as '٣'
    if not (text.isascii() and text.isdigit()):
        raise ParseError(lineno, f"bad {what} {text!r}: expected ASCII digits 0-9")
    limit = MAX_WEIGHT_DIGITS
    if len(text) <= limit:
        try:
            return int(text)
        except ValueError:  # the interpreter's limit was lowered below the cap
            limit = sys.get_int_max_str_digits()
    # too long to echo: the message names the limit, not the digits
    raise ParseError(lineno, f"bad {what}: more than {limit} digits")


def parse_complex_file(text: str, complete: bool = False) -> WeightedComplex:
    """Parse the record format into a validated complex.

    With complete=True, faces missing from the file are filled in with the
    maximum weight among their listed cofaces instead of being an error.
    """
    default = None  # the weight W of a '!maximal W' file, whose records are bare
    weights = {}  # {sorted labels: weight}, the records in file order
    lines = []  # the line of each record, in the same order
    # a byte order mark is not part of the first label or directive
    text = text.removeprefix("\ufeff")
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "!":
            if weights or default is not None:
                raise ParseError(lineno, "directives must precede all records")
            parts = line[1:].split()
            if len(parts) != 2 or parts[0] != "maximal":
                raise ParseError(lineno, f"unknown directive {line!r}")
            default = _weight(lineno, parts[1], "default weight")
            continue
        if default is None:
            left, semicolon, weight = line.partition(";")
            if not semicolon or ";" in weight:
                raise ParseError(lineno, "expected 'v1 v2 ... ; weight'")
            labels = left.split()
            if not labels:
                raise ParseError(lineno, "record has no vertices")
        else:
            if ";" in line:
                raise ParseError(lineno, "maximal mode lists bare simplices, no weights")
            labels, weight = line.split(), default
        if len(set(labels)) != len(labels):
            shown = " ".join(labels) if default is None else line
            raise ParseError(lineno, f"repeated vertex in {shown!r}")
        if default is None:
            weight = _weight(lineno, weight.strip(), "weight")
        key = tuple(sorted(labels))
        weights[key] = weight
        if len(weights) == len(lines):  # key was already there
            first = dict(zip(weights, lines))[key]
            raise ParseError(lineno, f"simplex {' '.join(key)!r} already given on line {first}")
        lines.append(lineno)

    if not weights:
        raise EmptyInput("no simplices in input")
    try:
        # the records are canonical already: sorted, distinct, with valid weights
        return _completed(weights) if complete or default is not None else _closed(weights)
    except (InvalidSimplex, MissingFace, MonotonicityViolation, SimplexTooLarge) as err:
        _decorate(err, dict(zip(weights, lines)))


def serialize_complex(X: WeightedComplex) -> str:
    """Inverse of parse_complex_file up to ordering and formatting."""
    lines = []
    for n in range(X.dim + 1):
        for s in X.n_simplices(n):
            lines.append(f"{' '.join(s)} ; {X.weight(s)}")
    return "\n".join(lines) + "\n"


def _module_text(module) -> str:
    parts = ["R"] * module.free_rank + [f"R/(pi^{m})" for m in module.torsion]
    return " (+) ".join(parts) if parts else "0"


def _chain_text(chain, field) -> str:
    terms = []
    for s in sorted(chain.terms):
        for e, c in chain.terms[s]:
            cs = field.to_str(c)
            terms.append(f"{cs}*pi^{e}*({' '.join(s)})")
    return " + ".join(terms)


def render_text_report(modules, field) -> str:
    """Human-readable summary: a line per module, then any generators it carries."""
    lines = [f"field: {field.name}"]
    for mod in modules:
        lines.append(f"H_{mod.n} = {_module_text(mod)}")
        for chain in mod.generators or ():
            lines.append(f"  generator: {_chain_text(chain, field)}")
    return "\n".join(lines) + "\n"


# "\n" and the indentation json.dumps(indent=2) gives each nesting level of
# the JSON report, which nests nine levels deep (poly pair entries)
_NL = tuple("\n" + "  " * level for level in range(10))
_str = encode_basestring_ascii  # the stdlib's C escaper, ensure_ascii rules
_int = int.__repr__  # what json.dumps writes for an int

# fixed pieces around the encoded values of a pair and of a generator term;
# simplices are never empty, so their label lists always open a line
_PAIR_KAPPA = f',{_NL[4]}{{{_NL[5]}"kappa": [{_NL[6]}'
_PAIR_MU = f'{_NL[5]}],{_NL[5]}"mu": [{_NL[6]}'
_PAIR_M = f'{_NL[5]}],{_NL[5]}"m": '
_TERM_SIMPLEX = f',{_NL[6]}{{{_NL[7]}"simplex": [{_NL[8]}'
_TERM_POLY = f'{_NL[7]}],{_NL[7]}"poly": '
# a poly of one pi-monomial, as every lifted coordinate is: its exponent,
# then its scalar, then the closing brackets of the term
_MONOMIAL_EXP = f"{_TERM_POLY}[{_NL[8]}[{_NL[9]}"
_MONOMIAL_SCALAR = "," + _NL[9]
_MONOMIAL_END = f"{_NL[8]}]{_NL[7]}]{_NL[6]}}}"
_SEP6 = "," + _NL[6]
_SEP8 = "," + _NL[8]


def _json_list(items, level):
    """Encoded items as the list json.dumps(indent=2) writes at this level."""
    if not items:
        return "[]"
    inner = _NL[level + 1]
    return f"[{inner}{(',' + inner).join(items)}{_NL[level]}]"


def _close_list(out, start, level):
    """Bracket the list whose items were appended to out from index start on.

    Every item is appended with a leading ","; the first one's becomes "[".
    """
    if len(out) == start:
        out.append("[]")
    else:
        out[start] = "[" + out[start][1:]
        out.append(_NL[level] + "]")


def render_json_report(modules, field) -> str:
    """Machine-readable summary with a stable key layout.

    The text is exactly json.dumps(report, indent=2) + "\n" of the object
    {"field": ..., "dimensions": [{"n", "free_rank", "torsion", "pairs"
    [, "generators"]}, ...]}, with "generators" present exactly when the
    module's generators are not None. It is written here piece by piece,
    a term whose poly is one pi-monomial, as every lifted coordinate is, in
    one f-string and any other poly through the list writer:
    CPython runs its C encoder only when indent is None, and the pure-Python
    one it falls back to took longer than the homology itself on large
    reports with generators. Strings still go through the stdlib's C
    escaper and ints through int.__repr__, so every value is spelled as
    json.dumps spells it.
    """
    to_str = field.to_str
    out = [f'{{{_NL[1]}"field": {_str(field.name)},{_NL[1]}"dimensions": ']
    append = out.append
    dims = len(out)
    for mod in modules:
        append(
            f',{_NL[2]}{{{_NL[3]}"n": {_int(mod.n)},{_NL[3]}"free_rank": {_int(mod.free_rank)},'
            f'{_NL[3]}"torsion": {_json_list(list(map(_int, mod.torsion)), 3)},{_NL[3]}"pairs": '
        )
        pairs = len(out)
        for p in mod.pairing.pairs:
            append(
                f"{_PAIR_KAPPA}{_SEP6.join(map(_str, p.kappa))}{_PAIR_MU}"
                f"{_SEP6.join(map(_str, p.mu))}{_PAIR_M}{_int(p.m)}{_NL[4]}}}"
            )
        _close_list(out, pairs, 3)
        if mod.generators is not None:
            append(f',{_NL[3]}"generators": ')
            gens = len(out)
            for chain in mod.generators:
                append(f',{_NL[4]}{{{_NL[5]}"terms": ')
                terms = len(out)
                polys = chain.terms
                for s in sorted(polys):
                    poly = polys[s]
                    if len(poly) == 1:
                        [(e, c)] = poly
                        append(
                            f"{_TERM_SIMPLEX}{_SEP8.join(map(_str, s))}{_MONOMIAL_EXP}{_int(e)}"
                            f"{_MONOMIAL_SCALAR}{_str(to_str(c))}{_MONOMIAL_END}"
                        )
                    else:
                        entries = [
                            f"[{_NL[9]}{_int(e)},{_NL[9]}{_str(to_str(c))}{_NL[8]}]"
                            for e, c in poly
                        ]
                        append(
                            f"{_TERM_SIMPLEX}{_SEP8.join(map(_str, s))}{_TERM_POLY}"
                            f"{_json_list(entries, 7)}{_NL[6]}}}"
                        )
                _close_list(out, terms, 5)
                append(_NL[4] + "}")
            _close_list(out, gens, 3)
        append(_NL[2] + "}")
    _close_list(out, dims, 1)
    append("\n}\n")
    return "".join(out)
