import itertools
import random

import pytest

from wsh.complexes import build_complex, from_maximal
from wsh.fields import FieldSpec

RATIONALS = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
CORPUS_FIELDS = (
    FieldSpec.rationals(),
    FieldSpec.prime_field(2),
    FieldSpec.prime_field(3),
    FieldSpec.prime_field(5),
)
# str.splitlines breaks lines at these too; editors and `wc -l` do not
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def tetra_boundary_complex():
    # hollow tetrahedron: vertices weight 5, edges 2 except AB at 4, faces 1
    pairs = [((v,), 5) for v in "ABCD"]
    for e in itertools.combinations("ABCD", 2):
        pairs.append((e, 4 if e == ("A", "B") else 2))
    for t in itertools.combinations("ABCD", 3):
        pairs.append((t, 1))
    return build_complex(pairs)


def glued_triangles_complex():
    # filled triangle abc sharing edge bc with a hollow triangle bcd
    return build_complex(
        [
            (("a",), 5),
            (("b",), 5),
            (("c",), 5),
            (("d",), 4),
            (("a", "b"), 3),
            (("a", "c"), 3),
            (("b", "c"), 3),
            (("b", "d"), 2),
            (("c", "d"), 2),
            (("a", "b", "c"), 1),
        ]
    )


def torus_complex():
    # vertex-minimal 7-point torus: faces {i,i+1,i+3} and {i,i+2,i+3} mod 7
    faces = []
    for i in range(7):
        faces.append((str(i), str((i + 1) % 7), str((i + 3) % 7)))
        faces.append((str(i), str((i + 2) % 7), str((i + 3) % 7)))
    return from_maximal(faces, 0)


def projective_plane_complex():
    # 6-vertex triangulation of the real projective plane
    faces = [
        "125", "126", "134", "136", "145",
        "234", "235", "246", "356", "456",
    ]
    return from_maximal([tuple(f) for f in faces], 0)


def hollow_triangle_complex():
    return build_complex(
        [
            (("a",), 1),
            (("b",), 1),
            (("c",), 1),
            (("a", "b"), 1),
            (("a", "c"), 1),
            (("b", "c"), 1),
        ]
    )


def filled_triangle_complex():
    # edges heavier than the face, so the face kills its boundary only
    # after one power of pi
    return build_complex(
        [
            (("a",), 1),
            (("b",), 1),
            (("c",), 1),
            (("a", "b"), 1),
            (("a", "c"), 1),
            (("b", "c"), 1),
            (("a", "b", "c"), 0),
        ]
    )


def strip_complex(n_faces=11, extra_vertices=3, v_weight=10, e_weight=5, f_weight=1):
    """Triangle strip plus isolated vertices; 50 simplices by default."""
    pairs = []
    nv = n_faces + 2
    for i in range(nv):
        pairs.append(((f"p{i:02d}",), v_weight))
    for i in range(nv - 1):
        pairs.append(((f"p{i:02d}", f"p{i+1:02d}"), e_weight))
    for i in range(nv - 2):
        pairs.append(((f"p{i:02d}", f"p{i+2:02d}"), e_weight))
        pairs.append(((f"p{i:02d}", f"p{i+1:02d}", f"p{i+2:02d}"), f_weight))
    for i in range(extra_vertices):
        pairs.append(((f"q{i}",), v_weight))
    return build_complex(pairs)


def random_weighted_complex(rng, max_vertices=7, max_dim=3, max_weight=5, max_simplices=30):
    """Random valid weighted complex within the given size bounds.

    Maximal simplices are sampled and closed under faces; weights are
    assigned by decreasing dimension so each face stays at least as heavy
    as its heaviest coface. Ties are visited lexicographically, never in set
    order, so the corpus does not depend on string hash seeding.
    """
    nv = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(nv)]
    candidates = []
    for d in range(max_dim + 1):
        candidates.extend(itertools.combinations(verts, d + 1))
    rng.shuffle(candidates)
    chosen = set()
    for s in candidates:
        if rng.random() >= 0.3:
            continue
        closure = set()
        stack = [s]
        while stack:
            t = stack.pop()
            if t in chosen or t in closure:
                continue
            closure.add(t)
            if len(t) > 1:
                for i in range(len(t)):
                    stack.append(t[:i] + t[i + 1 :])
        if len(chosen) + len(closure) > max_simplices:
            continue
        chosen |= closure
    if not chosen:
        chosen = {(verts[0],)}
    weights = {}
    for s in sorted(chosen, key=lambda t: (-len(t), t)):
        floor = max(
            (weights[t] for t in chosen if len(t) == len(s) + 1 and set(s) <= set(t)),
            default=0,
        )
        weights[s] = min(floor + rng.randint(0, 2), max_weight)
    return build_complex(weights.items())


def simplex_boundary_maximal(d):
    """The boundary of the d-simplex as a `!maximal 0` file: its d + 1 facets."""
    facets = itertools.combinations([f"v{i}" for i in range(d + 1)], d)
    return "!maximal 0\n" + "".join(" ".join(f) + "\n" for f in facets)


def torus_grid_complex(k, rng):
    """k x k triangulated torus (k >= 3) with random monotone weights.

    Each square of the grid is cut along one diagonal into two triangles.
    Triangles draw a weight in 0..2; each edge, then each vertex, adds 0..2
    to the heaviest of its cofaces, so faces are never lighter than them.
    """

    def vertex(i, j):
        return f"t{i % k}_{j % k}"

    weights = {}
    for i in range(k):
        for j in range(k):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            for t in ((a, b, c), (a, d, c)):
                weights[tuple(sorted(t))] = rng.randint(0, 2)
    for size in (2, 1):
        floor = {}
        for s, w in list(weights.items()):
            if len(s) == size + 1:
                for face in itertools.combinations(s, size):
                    floor[face] = max(floor.get(face, 0), w)
        for face in sorted(floor):
            weights[face] = floor[face] + rng.randint(0, 2)
    return build_complex(weights.items())


@pytest.fixture
def rationals():
    return RATIONALS


@pytest.fixture
def gf2():
    return GF2


@pytest.fixture
def tetra_boundary():
    return tetra_boundary_complex()


@pytest.fixture
def glued_triangles():
    return glued_triangles_complex()


@pytest.fixture
def hollow_triangle():
    return hollow_triangle_complex()


@pytest.fixture
def filled_triangle():
    return filled_triangle_complex()


@pytest.fixture(scope="session")
def corpus():
    """500 random complexes with fields, shared by the property suites."""
    rng = random.Random(0x5E)
    out = []
    for _ in range(500):
        X = random_weighted_complex(rng)
        out.append((X, CORPUS_FIELDS[rng.randrange(len(CORPUS_FIELDS))]))
    return out


_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for one-line acceptance verdicts, echoed after the run."""
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
