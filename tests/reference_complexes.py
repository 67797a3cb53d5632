"""Quadratic face completion and closure, kept as differential references.

`complete_faces` and `_closure` are verbatim copies of the implementations
that `wsh.complexes` used before its single top-down pass: the first compares
every pair of listed simplices for monotonicity and every missing face with
every listed simplex, the second grows the closure from a frontier. The
tests compare the library against them on small inputs.
"""

from wsh.complexes import _canonical_labels, _check_weight, build_complex
from wsh.errors import DuplicateSimplex, EmptyInput, MonotonicityViolation


def _closure(label_simplices):
    out = set(label_simplices)
    frontier = list(out)
    while frontier:
        s = frontier.pop()
        if len(s) == 1:
            continue
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face not in out:
                out.add(face)
                frontier.append(face)
    return out


def complete_faces(pairs):
    """Build from an incomplete listing, filling in missing faces.

    A missing face receives the maximum weight among the listed simplices
    that contain it, the least weight that keeps monotonicity possible.
    The listed simplices themselves must already be mutually monotone.
    """
    listed = {}
    for vertices, w in pairs:
        labels = _canonical_labels(vertices)
        _check_weight(labels, w)
        if labels in listed:
            raise DuplicateSimplex(labels)
        listed[labels] = w
    if not listed:
        raise EmptyInput("no simplices given")
    items = sorted(listed.items(), key=lambda kv: len(kv[0]))
    for i, (s, ws) in enumerate(items):
        sset = set(s)
        for t, wt in items[i + 1 :]:
            if len(t) > len(s) and sset.issubset(t) and ws < wt:
                raise MonotonicityViolation(s, t, ws, wt)
    weights = dict(listed)
    for face in _closure(listed):
        if face in weights:
            continue
        fset = set(face)
        weights[face] = max(w for s, w in listed.items() if fset.issubset(s))
    return build_complex(weights.items())
