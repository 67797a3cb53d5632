"""Structural checks shared by the property and acceptance suites.

Every function returns a list of violation descriptions, empty when the
invariant holds, so callers can aggregate or assert as they see fit.
"""

import random

from wsh.complexes import boundary_exponent_matrix, build_complex, signed_faces
from wsh.errors import PrecisionExhausted
from wsh.homology import cycle_basis, homology_all
from wsh.oracle import (
    SeriesMatrix,
    TruncatedSeries,
    choose_precision,
    snf_valuations,
    weighted_boundary_matrix,
)

from .dense import Matrix, rank


def series_identity(field, precision, n):
    one = TruncatedSeries.monomial(field, precision, 0)
    return SeriesMatrix(field, precision, [{i: one} for i in range(n)], n)


def series_mat_vec(matrix, vec):
    """matrix * vec over the truncated series ring, vec a list of series."""
    if len(vec) != matrix.ncols:
        raise ValueError("vector length does not match column count")
    out = []
    for row in matrix.rows:
        acc = TruncatedSeries.zero(matrix.field, matrix.precision)
        for j, a in row.items():
            if not vec[j].is_zero():
                acc = acc + a * vec[j]
        out.append(acc)
    return out


def series_mat_mul(left, right):
    """left * right over the truncated series ring."""
    if left.ncols != right.nrows:
        raise ValueError("inner dimensions do not match")
    rows = []
    for row in left.rows:
        out = {}
        for j, a in row.items():
            for k, b in right.rows[j].items():
                out[k] = out[k] + a * b if k in out else a * b
        rows.append(out)
    return SeriesMatrix(left.field, left.precision, rows, right.ncols)


def chain_to_series(chain, X, field, precision):
    """Coordinate vector of a WeightedChain over the n-simplex basis."""
    basis = X.n_simplices(chain.n)
    pos = {s: i for i, s in enumerate(basis)}
    out = [TruncatedSeries.zero(field, precision) for _ in basis]
    for s, terms in chain.terms.items():
        out[pos[tuple(s)]] = TruncatedSeries(field, precision, dict(terms))
        for e, _c in terms:
            if e >= precision:
                raise PrecisionExhausted(f"exponent {e} at precision {precision}")
    return out


def all_in_column_span(matrix, targets):
    """Whether every target vector lies in the column span over R/pi^N.

    im A lies in im [A | T], and the quotient of (R/pi^N)^m by each image
    has the finite length its invariant factors fix. So the images are equal,
    which is every column of T lying in im A, exactly when the invariant
    factors of [A | T] and of A agree: one elimination answers every target.
    """
    rows = [dict(row) for row in matrix.rows]
    for t, vec in enumerate(targets):
        if len(vec) != matrix.nrows:
            raise ValueError("target length does not match row count")
        for i, x in enumerate(vec):
            if not x.is_zero():
                rows[i][matrix.ncols + t] = x
    augmented = SeriesMatrix(matrix.field, matrix.precision, rows, matrix.ncols + len(targets))
    return snf_valuations(augmented) == snf_valuations(matrix)


def in_column_span(matrix, target):
    """Whether the target vector lies in the column span over R/pi^N."""
    return all_in_column_span(matrix, [target])


def series_matrix_is_zero(matrix):
    return all(x.is_zero() for row in matrix.rows for x in row.values())


def _classical_matrix(X, n, field):
    bm = boundary_exponent_matrix(X, n)
    rows = [[field.zero()] * len(bm.columns) for _ in bm.row_simplices]
    for j, col in enumerate(bm.columns):
        for r, sign, _exp in col:
            rows[r][j] = field.from_int(sign)
    return Matrix(field, rows, ncols=len(bm.columns))


def _boundary_of_chain(X, chain, field):
    """Chain map of the classical boundary, as a simplex -> scalar dict."""
    out = {}
    for s, c in chain.items():
        if field.is_zero(c):
            continue
        for face, sign in signed_faces(s):
            v = field.add(out.get(face, field.zero()), field.mul(field.from_int(sign), c))
            if field.is_zero(v):
                out.pop(face, None)
            else:
                out[face] = v
    return out


def cycle_basis_violations(X, field):
    bad = []
    for n in range(X.dim + 1):
        basis = cycle_basis(X, n, field)
        simplices = X.n_simplices(n)
        if sorted(basis.dependent + basis.independent) != sorted(simplices):
            bad.append(f"n={n}: dependent/independent do not partition")
        for kappa, beta in basis.cycles.items():
            if beta.get(kappa) != field.one():
                bad.append(f"n={n}: owner coefficient of {kappa} is not 1")
            extra = set(beta) - set(basis.independent) - {kappa}
            if extra:
                bad.append(f"n={n}: cycle of {kappa} touches other owners {extra}")
            support = [s for s, c in beta.items() if not field.is_zero(c)]
            if min(X.weight(s) for s in support) != X.weight(kappa):
                bad.append(f"n={n}: {kappa} does not achieve the support minimum")
            if n >= 1 and _boundary_of_chain(X, beta, field):
                bad.append(f"n={n}: cycle of {kappa} has nonzero boundary")
        if n >= 1 and simplices:
            m = _classical_matrix(X, n, field)
            if len(basis.dependent) != m.ncols - rank(m):
                bad.append(f"n={n}: owner count differs from kernel dimension")
            if basis.independent:
                cols = [
                    m.column(m_idx)
                    for m_idx, s in enumerate(X.n_simplices(n))
                    if s in set(basis.independent)
                ]
                sub = Matrix(field, [list(r) for r in zip(*cols)], ncols=len(cols))
                if rank(sub) != len(cols):
                    bad.append(f"n={n}: independent boundaries are dependent")
    return bad


def pairing_violations(X, field):
    bad = []
    for mod in homology_all(X, field):
        n, pairing = mod.n, mod.pairing
        up_rank = 0
        if n + 1 <= X.dim and X.n_simplices(n + 1):
            up_rank = rank(_classical_matrix(X, n + 1, field))
        if len(pairing.pairs) != up_rank:
            bad.append(f"n={n}: {len(pairing.pairs)} pairs vs rank {up_rank}")
        if any(p.m < 0 for p in pairing.pairs):
            bad.append(f"n={n}: negative pairing exponent")
        owners = [p.kappa for p in pairing.pairs] + pairing.unpaired
        if sorted(owners) != sorted(cycle_basis(X, n, field).dependent):
            bad.append(f"n={n}: pairs plus unpaired do not partition the owners")
        images = {p.mu for p in pairing.pairs}
        if len(images) != len(pairing.pairs):
            bad.append(f"n={n}: an image simplex is used twice")
    return bad


def boundary_squared_violations(X, field):
    bad = []
    prec = choose_precision(X)
    for n in range(2, X.dim + 1):
        lower = _classical_matrix(X, n - 1, field)
        upper = _classical_matrix(X, n, field)
        for j in range(upper.ncols):
            if not all(field.is_zero(x) for x in lower.mat_vec(upper.column(j))):
                bad.append(f"n={n}: classical boundary squared is nonzero")
                break
        wl = weighted_boundary_matrix(X, n - 1, field, prec)
        wu = weighted_boundary_matrix(X, n, field, prec)
        if not series_matrix_is_zero(series_mat_mul(wl, wu)):
            bad.append(f"n={n}: weighted boundary squared is nonzero")
    return bad


def _module_shapes(X, field):
    return [(m.free_rank, m.torsion) for m in homology_all(X, field)]


def weight_shift_violations(X, field, shift=3):
    shifted = build_complex(
        [(s, X.weight(s) + shift) for s in X.simplices()]
    )
    if _module_shapes(X, field) != _module_shapes(shifted, field):
        return [f"shift by {shift} changed the homology"]
    return []


def relabel_violations(X, field, rng):
    names = [f"w{i:03d}" for i in range(len(X.labels))]
    rng.shuffle(names)
    mapping = dict(zip(X.labels, names))
    relabeled = build_complex(
        [
            (tuple(mapping[v] for v in s), X.weight(s))
            for s in X.simplices()
        ]
    )
    if _module_shapes(X, field) != _module_shapes(relabeled, field):
        return ["relabeling changed free rank or torsion"]
    return []


def generator_violations(X, field):
    """Generators are weighted cycles, and pi^m times a torsion generator is a boundary.

    The boundary check is one elimination per dimension for all torsion
    generators together; only when it fails is each generator checked alone,
    to name the failing ones.
    """
    bad = []
    prec = choose_precision(X)
    for mod in homology_all(X, field, with_generators=True):
        n = mod.n
        if len(mod.generators) != mod.free_rank + len(mod.torsion):
            bad.append(f"n={n}: generator count mismatch")
            continue
        lower = weighted_boundary_matrix(X, n, field, prec) if n >= 1 else None
        vecs = [chain_to_series(gen, X, field, prec) for gen in mod.generators]
        if lower is not None:
            for vec in vecs:
                if not all(x.is_zero() for x in series_mat_vec(lower, vec)):
                    bad.append(f"n={n}: generator is not a weighted cycle")
        shifted = []
        for vec, m in zip(vecs[mod.free_rank :], mod.torsion):
            pi_m = TruncatedSeries.monomial(field, prec, m)
            shifted.append((m, [x if x.is_zero() else pi_m * x for x in vec]))
        if not shifted:
            continue
        if n + 1 > X.dim or not X.n_simplices(n + 1):
            bad += [
                f"n={n}: torsion exponent {m} with no image"
                for m, vec in shifted
                if not all(x.is_zero() for x in vec)
            ]
            continue
        upper = weighted_boundary_matrix(X, n + 1, field, prec)
        if all_in_column_span(upper, [vec for _m, vec in shifted]):
            continue
        failing = [m for m, vec in shifted if not in_column_span(upper, vec)]
        bad += [f"n={n}: pi^{m} generator is not in the image" for m in failing] or [
            f"n={n}: the pi^m torsion generators together are not in the image"
        ]
    return bad


def all_structural_violations(X, field, rng):
    return (
        cycle_basis_violations(X, field)
        + pairing_violations(X, field)
        + boundary_squared_violations(X, field)
        + weight_shift_violations(X, field)
        + relabel_violations(X, field, rng)
        + generator_violations(X, field)
    )
