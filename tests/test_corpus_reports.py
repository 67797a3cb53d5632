"""Byte-level pin of the reports on the 500-complex corpus.

tests/data/corpus_report_digests.json holds one sha256 per corpus entry,
taken over the JSON report followed by the text report, both rendered
with generators. The digests were recorded once from an earlier engine
and are never rewritten; any change to free ranks, torsion, pairs,
generator chains or their formatting shows up as a mismatch here.
"""

import hashlib
import json
from pathlib import Path

from wsh import homology_all, render_json_report, render_text_report

DIGESTS = Path(__file__).parent / "data" / "corpus_report_digests.json"


def report_digest(X, field):
    modules = homology_all(X, field, with_generators=True)
    payload = render_json_report(modules, field, with_generators=True)
    payload += render_text_report(modules, field, with_generators=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_corpus_reports_match_recorded_digests(corpus):
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == len(corpus)
    differing = [
        i for i, (X, field) in enumerate(corpus) if report_digest(X, field) != expected[i]
    ]
    assert not differing, f"{len(differing)} corpus reports changed, first at index {differing[0]}"
