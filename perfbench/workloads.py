"""Seeded input families and the benchmark's workload table.

Every generator takes a random.Random seeded from the workload name and the
--seed argument, and returns the text of one input file; the same seed
gives byte-identical files. The program under test sees only those files.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

FIELDS = ("rational", "gf:2", "gf:3", "gf:5")


@dataclass(frozen=True)
class Invocation:
    """One `wsh` call: an input file, the flags before it, and what to expect.

    free: expected free rank per reported dimension, or None when only the
    exit code (and, with --check, the oracle agreement) can be checked.
    json: whether the report is JSON (written to a file next to the input)
    rather than text on stdout.
    """

    name: str
    text: str
    flags: tuple
    free: tuple | None
    json: bool
    simplices: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (random.Random) -> list of Invocation


def _torus_vertex(i, j, k):
    return f"t{i % k}_{j % k}"


def _torus_triangles(k):
    for i in range(k):
        for j in range(k):
            a = _torus_vertex(i, j, k)
            b = _torus_vertex(i + 1, j, k)
            c = _torus_vertex(i + 1, j + 1, k)
            d = _torus_vertex(i, j + 1, k)
            yield (a, b, c)
            yield (a, d, c)


def _record(simplex, w):
    return f"{' '.join(simplex)} ; {w}"


def torus_grid(rng: random.Random, k: int) -> str:
    """k x k triangulated torus with random monotone weights, every simplex listed.

    Triangles draw a weight in 0..2; each edge and vertex adds 0..2 to the
    heaviest of its cofaces, so faces are never lighter than their cofaces.
    """
    tri_w = {tuple(sorted(t)): rng.randint(0, 2) for t in _torus_triangles(k)}
    edge_w = {}
    for t, w in tri_w.items():
        for e in itertools.combinations(t, 2):
            edge_w[e] = max(edge_w.get(e, 0), w)
    for e in sorted(edge_w):
        edge_w[e] += rng.randint(0, 2)
    vert_w = {}
    for e, w in edge_w.items():
        for v in e:
            vert_w[v] = max(vert_w.get(v, 0), w)
    for v in sorted(vert_w):
        vert_w[v] += rng.randint(0, 2)
    lines = [_record((v,), w) for v, w in sorted(vert_w.items())]
    lines += [_record(e, w) for e, w in sorted(edge_w.items())]
    lines += [_record(t, w) for t, w in sorted(tri_w.items())]
    return "\n".join(lines) + "\n"


def torus_triangles_only(rng: random.Random, k: int) -> str:
    """k x k torus listing only its triangles, for --complete-faces."""
    tris = sorted(tuple(sorted(t)) for t in _torus_triangles(k))
    return "\n".join(_record(t, rng.randint(0, 5)) for t in tris) + "\n"


def simplex_boundary(rng: random.Random, d: int) -> str:
    """Boundary of the d-simplex in `!maximal 0` form, labels and order from the seed."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    labels = set()
    while len(labels) < d + 1:
        labels.add("".join(rng.choice(letters) for _ in range(3)))
    facets = [list(f) for f in itertools.combinations(sorted(labels), d)]
    rng.shuffle(facets)
    for f in facets:
        rng.shuffle(f)
    return "!maximal 0\n" + "\n".join(" ".join(f) for f in facets) + "\n"


def random_complex(rng: random.Random, vertices, max_dim=3, max_weight=8, max_simplices=60):
    """Random weighted complex on the given vertex count as {simplex: weight}.

    Candidate simplices are taken with probability 0.3 together with their
    faces while the total stays within max_simplices; weights are assigned
    from the top dimension down, each face at least as heavy as its cofaces.
    """
    verts = [f"v{i}" for i in range(vertices)]
    candidates = [
        s for d in range(max_dim + 1) for s in itertools.combinations(verts, d + 1)
    ]
    rng.shuffle(candidates)
    chosen = set()
    for s in candidates:
        if rng.random() >= 0.3:
            continue
        closure = {f for r in range(1, len(s) + 1) for f in itertools.combinations(s, r)}
        closure -= chosen
        if len(chosen) + len(closure) <= max_simplices:
            chosen |= closure
    if not chosen:
        chosen = {(verts[0],)}
    weights = {}
    for s in sorted(chosen, key=lambda s: (-len(s), s)):
        floor = max(
            (weights[t] for t in chosen if len(t) == len(s) + 1 and set(s) <= set(t)),
            default=0,
        )
        weights[s] = min(floor + rng.randint(0, 2), max_weight)
    return weights


def _random_complex_text(rng, vertices):
    weights = random_complex(rng, vertices)
    lines = [_record(s, w) for s, w in sorted(weights.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    return "\n".join(lines) + "\n", len(weights)


def _torus_q(rng):
    """Weighted torus grids over Q with generators, JSON reports.

    The dense span tracker (homology.cycle_basis_s), the q x p pairing
    (homology.pairing_s) and Fraction arithmetic (homology.field_ops) do
    nearly all the work, so they should move wall_s here; generator lifting
    and the JSON rendering show in homology.assemble_s and fileio.render_s.
    """
    return [
        Invocation(
            f"torus{k}.cplx",
            torus_grid(rng, k),
            ("--field", "rational", "--generators"),
            (1, 2, 1),
            True,
            6 * k * k,
        )
        # k = 14 would be closer to real sizes, but its 5 s call leaves room
        # for only two or three passes in a run, too few for a steady median
        for k in (6, 8, 10, 12)
    ]


def _random_check(rng):
    """200 small random complexes under --check, rotating Q, GF(2), GF(3), GF(5).

    The series oracle (oracle.*) does most of the work, and the many tiny
    calls expose per-call cost (cli.self_s, fileio.parse_s), which shows in
    run_p50_s: a fast-path rewrite that is slower on small inputs shows here.
    The oracle layers are zero on every other workload.
    """
    out = []
    for i in range(200):
        # vertex counts cycle through 3..9 rather than being drawn, so that
        # the mix of small and large complexes is the same for every seed
        text, size = _random_complex_text(rng, 3 + i % 7)
        field = FIELDS[i % len(FIELDS)]
        out.append(
            Invocation(
                f"random{i:03d}.cplx",
                text,
                ("--field", field, "--check", "--generators"),
                None,
                True,
                size,
            )
        )
    return out


def _sphere_gf2(rng):
    """Boundaries of the 8-, 9- and 10-simplex, `!maximal 0`, over GF(2).

    Constant weights make every pair zero-length and leave no torsion; the
    reduction runs over seven to nine dimensions, where clearing and bitset
    columns would act (homology.cycle_basis_s, homology.zero_pairs), and
    from_maximal closure is on the ingest path (complexes.build_s).
    """
    return [
        Invocation(
            f"sphere{d}.cplx",
            simplex_boundary(rng, d),
            ("--field", "gf:2"),
            (1,) + (0,) * (d - 2) + (1,),
            False,
            2 ** (d + 1) - 2,
        )
        for d in (8, 9, 10)
    ]


def _faces_gfp(rng):
    """Torus grids listing only their triangles, --complete-faces --dim 0, GF(32003).

    The only workload where the quadratic complete_faces (complexes.build_s)
    takes a large share of wall_s; it also covers the single-dimension
    homology() path and a large prime field.
    """
    return [
        Invocation(
            f"faces{k}.cplx",
            torus_triangles_only(rng, k),
            ("--complete-faces", "--dim", "0", "--field", "gf:32003"),
            (1,),
            False,
            6 * k * k,
        )
        for k in (20, 24)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "torus-q",
            "dense span tracker, q x p pairing and Fraction arithmetic do nearly all"
            " the work; JSON reports with generators",
            _torus_q,
        ),
        Workload(
            "random-check",
            "many tiny calls under --check: the oracle does most of the work and"
            " per-call cost shows",
            _random_check,
        ),
        Workload(
            "sphere-gf2",
            "GF(2) reduction over 7-9 dimensions with only zero-length pairs, and"
            " from_maximal closure on ingest",
            _sphere_gf2,
        ),
        Workload(
            "faces-gfp",
            "the only workload where complexes (quadratic complete_faces) does a"
            " large share; single-dimension homology() in a large prime field",
            _faces_gfp,
        ),
    )
}


def build(workload: str, seed: int) -> list:
    """The invocations of one pass, generated from the workload name and seed."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
