"""End-to-end acceptance checks.

Each test settles one advertised behavior of the package and records a
single PASS or FAIL verdict, echoed in the terminal summary after the
run. Expected values were computed independently with the series oracle
and frozen here or in tests/data before the engine ever ran on them.
"""

import json
import random
import time
from pathlib import Path

from wsh.complexes import build_complex
from wsh.fields import FieldSpec
from wsh.fileio import render_text_report
from wsh.homology import homology_all
from wsh.oracle import homology_via_snf

from .conftest import (
    GF2,
    RATIONALS,
    projective_plane_complex,
    strip_complex,
    tetra_boundary_complex,
    torus_complex,
)
from .invariants import all_structural_violations

GOLDEN = Path(__file__).parent / "data" / "glued_triangles.golden.json"


def _verdict(log, ok, text):
    log(("PASS: " if ok else "FAIL: ") + text)
    assert ok, text


def _shapes(modules):
    return [(m.free_rank, list(m.torsion)) for m in modules]


def test_tetrahedron_torsion_and_runtime(acceptance_log):
    X = tetra_boundary_complex()
    expected = [(1, [1, 3, 3]), (0, [1, 1, 1]), (1, [])]
    shapes = []
    times = []
    for field in (RATIONALS, GF2):
        t0 = time.perf_counter()
        mods = homology_all(X, field)
        times.append(time.perf_counter() - t0)
        shapes.append(_shapes(mods))
    report = render_text_report(homology_all(X, RATIONALS), RATIONALS)
    line_ok = "H_1 = R/(pi^1) (+) R/(pi^1) (+) R/(pi^1)" in report
    ok = shapes == [expected, expected] and max(times) < 0.1 and line_ok
    _verdict(
        acceptance_log,
        ok,
        "tetrahedron boundary: H_1 torsion {1,1,1} over rational and gf:2"
        " in %.3fs and %.3fs (budget 0.1s each)" % tuple(times),
    )


def test_glued_triangles_match_golden(acceptance_log):
    golden = json.loads(GOLDEN.read_text())
    X = build_complex(
        (tuple(name.split()), w) for name, w in golden["records"]
    )
    field = FieldSpec.from_name(golden["field"])
    got = _shapes(homology_all(X, field))
    want = [(d["free_rank"], d["torsion"]) for d in golden["dimensions"]]
    ok = got == want and bool(got[0][1]) and bool(got[1][1])
    _verdict(
        acceptance_log,
        ok,
        "glued triangles: torsion present in dimensions 0 and 1, exponents"
        " match the frozen oracle golden %s" % (want,),
    )


def test_constant_weight_classical_values(acceptance_log):
    t0 = time.perf_counter()
    torus = _shapes(homology_all(torus_complex(), RATIONALS))
    t_torus = time.perf_counter() - t0
    t0 = time.perf_counter()
    rp2_q = _shapes(homology_all(projective_plane_complex(), RATIONALS))
    rp2_2 = _shapes(homology_all(projective_plane_complex(), GF2))
    t_rp2 = time.perf_counter() - t0
    ok = (
        torus == [(1, []), (2, []), (1, [])]
        and [r[0] for r in rp2_q] == [1, 0, 0]
        and [r[0] for r in rp2_2] == [1, 1, 1]
        and all(r[1] == [] for r in rp2_q + rp2_2)
        and t_torus < 1.0
        and t_rp2 < 1.0
    )
    _verdict(
        acceptance_log,
        ok,
        "constant weights: torus ranks (1,2,1), projective plane H_1 rank 0"
        " over rational and 1 over gf:2, in %.3fs and %.3fs (budget 1s each)"
        % (t_torus, t_rp2),
    )


def test_engine_agrees_with_oracle_on_corpus(acceptance_log, corpus):
    mismatches = 0
    for X, field in corpus:
        mods = homology_all(X, field)
        for n, mod in enumerate(mods):
            if (mod.free_rank, mod.torsion) != homology_via_snf(X, n, field):
                mismatches += 1
    ok = mismatches == 0
    _verdict(
        acceptance_log,
        ok,
        "oracle equivalence: %d mismatches across %d random complexes"
        % (mismatches, len(corpus)),
    )


def test_structural_invariants_on_corpus(acceptance_log, corpus):
    rng = random.Random(0xACC)
    bad = []
    for X, field in corpus:
        bad.extend(all_structural_violations(X, field, rng))
    ok = not bad
    _verdict(
        acceptance_log,
        ok,
        "structural invariants: %d violations across %d random complexes"
        % (len(bad), len(corpus)),
    )


def test_fast_path_outruns_full_precision_oracle(acceptance_log):
    X = strip_complex()
    t0 = time.perf_counter()
    mods = homology_all(X, RATIONALS)
    fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = [homology_via_snf(X, n, RATIONALS) for n in range(X.dim + 1)]
    full = time.perf_counter() - t0
    agree = _shapes(mods) == slow
    ok = fast < 1.0 and agree
    _verdict(
        acceptance_log,
        ok,
        "50-simplex max-weight-10 instance: fast path %.4fs (budget 1s),"
        " full-precision oracle %.4fs, ratio %.1fx (recorded, not asserted)"
        % (fast, full, full / fast),
    )
