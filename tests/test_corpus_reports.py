"""Byte-level pin of the reports on the 500-complex corpus and on a torus.

tests/data/corpus_report_digests.json holds one sha256 per corpus entry,
taken over the JSON report followed by the text report, both rendered
with generators. The digests were recorded once from an earlier engine
and are never rewritten; any change to free ranks, torsion, pairs,
generator chains or their formatting shows up as a mismatch here.
TORUS_30_DIGESTS pin the same payload on a 5,400-simplex torus, well past
the corpus sizes. The rational and gf:2 digests were recorded from the
engine that still kept every rational as a Fraction, the gf:32003 one,
whose coefficients run to five digits, from the renderer that still built
a dict tree for json.dumps.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from wsh.fields import FieldSpec
from wsh.fileio import render_json_report, render_text_report
from wsh.homology import homology_all

from .conftest import torus_grid_complex

DIGESTS = Path(__file__).parent / "data" / "corpus_report_digests.json"
TORUS_30_DIGESTS = {
    "rational": "d86e12d8daa37a407316278de1347b44642f16d43a3d38a5045b46de0bfb6bad",
    "gf:2": "800b0bd2357754e8c1fdb5a77086649743e8fe85dd4f72cfb7821ea79207b761",
    "gf:32003": "920c266f4dde07e26bfab524f8db3e38d54c944b0279e936fb6f4fb8d83da260",
}


def _digest(modules, field):
    payload = render_json_report(modules, field, with_generators=True)
    payload += render_text_report(modules, field, with_generators=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def report_digest(X, field):
    return _digest(homology_all(X, field, with_generators=True), field)


def test_corpus_reports_match_recorded_digests(corpus):
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == len(corpus)
    differing = [
        i for i, (X, field) in enumerate(corpus) if report_digest(X, field) != expected[i]
    ]
    assert not differing, f"{len(differing)} corpus reports changed, first at index {differing[0]}"


@pytest.mark.parametrize("name", sorted(TORUS_30_DIGESTS))
def test_torus_30_reports_match_recorded_digests(name):
    field = FieldSpec.from_name(name)
    modules = homology_all(torus_grid_complex(30, random.Random(30)), field, with_generators=True)
    assert _digest(modules, field) == TORUS_30_DIGESTS[name]
    coefficients = [c for m in modules for g in m.generators for t in g.terms.values() for _, c in t]
    assert coefficients
    if name == "rational":
        # integral rationals stay ints; a fall-back to Fraction would show here
        assert {type(c) for c in coefficients} == {int}
