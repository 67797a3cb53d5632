"""Structural checks shared by the property and acceptance suites.

Every function returns a list of violation descriptions, empty when the
invariant holds, so callers can aggregate or assert as they see fit.
"""

import random

from wsh.complexes import boundary_exponent_matrix, build_complex
from wsh.homology import cycle_basis, homology_all
from wsh.oracle import SeriesMatrix, snf_valuations, weighted_boundary_matrix

from .dense import Matrix, rank


def signed_faces(simplex):
    """[(face, sign)] with the i-th vertex dropped and sign (-1)^i.

    Vertices have zero boundary, so a 0-simplex yields the empty list.
    """
    if len(simplex) <= 1:
        return []
    out = []
    for i in range(len(simplex)):
        face = simplex[:i] + simplex[i + 1 :]
        out.append((face, 1 if i % 2 == 0 else -1))
    return out


def weighted_product_is_zero(left, right_rows):
    """Whether left * right is zero over F[[pi]].

    right_rows[j] is {column: (exponent, scalar)}, as in SeriesMatrix.rows.
    Products of pi-monomials summed along a row need not share an exponent,
    so the sums are kept per (row, column, exponent).
    """
    F = left.field
    acc = {}
    for i, row in enumerate(left.rows):
        for j, (e1, c1) in row.items():
            for k, (e2, c2) in right_rows[j].items():
                key = (i, k, e1 + e2)
                acc[key] = F.add(acc.get(key, F.zero()), F.mul(c1, c2))
    return all(F.is_zero(c) for c in acc.values())


def chain_to_series(chain, X, field):
    """Coordinates of a WeightedChain over the n-simplex basis, {index: (e, c)}.

    Every coordinate must be one pi-monomial, as lift_cycle makes them.
    """
    pos = {s: i for i, s in enumerate(X.n_simplices(chain.n))}
    out = {}
    for s, terms in chain.terms.items():
        if len(terms) != 1:
            raise ValueError(f"coordinate of {s} has {len(terms)} terms, not one")
        [(e, c)] = terms
        if not field.is_zero(c):
            out[pos[tuple(s)]] = (e, c)
    return out


def times_pi(vec, m):
    """pi^m * vec: every exponent shifts by m."""
    return {i: (e + m, c) for i, (e, c) in vec.items()}


def all_in_column_span(matrix, targets):
    """Whether every target vector, {row: (e, c)}, lies in the column span over F[[pi]].

    im A lies in im [A | T], so R^m / im A maps onto R^m / im [A | T], and
    the invariant factors of each matrix fix its quotient up to isomorphism.
    A finitely generated module maps onto a copy of itself only
    injectively, so the images are equal, which is every column of T lying
    in im A, exactly when the invariant factors of [A | T] and of A agree:
    one elimination answers every target.
    """
    rows = [dict(row) for row in matrix.rows]
    for t, vec in enumerate(targets):
        for i, x in vec.items():
            if not 0 <= i < matrix.nrows:
                raise ValueError(f"target row {i} outside {matrix.nrows} rows")
            rows[i][matrix.ncols + t] = x
    augmented = SeriesMatrix(matrix.field, rows, matrix.ncols + len(targets))
    return snf_valuations(augmented) == snf_valuations(matrix)


def in_column_span(matrix, target):
    """Whether the target vector lies in the column span over F[[pi]]."""
    return all_in_column_span(matrix, [target])


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
    for n in range(2, X.dim + 1):
        lower = _classical_matrix(X, n - 1, field)
        upper = _classical_matrix(X, n, field)
        for j in range(upper.ncols):
            if not all(field.is_zero(x) for x in lower.mat_vec(upper.column(j))):
                bad.append(f"n={n}: classical boundary squared is nonzero")
                break
        wl = weighted_boundary_matrix(X, n - 1, field)
        wu = weighted_boundary_matrix(X, n, field)
        if not weighted_product_is_zero(wl, wu.rows):
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


def reweighting_violations(X, field):
    """The pairs under the reweighting f(w) = w^2 + 5.

    The pairs depend on the weights only through their order (Zomorodian
    and Carlsson, Computing persistent homology, 2005), and f is strictly
    increasing on the non-negative weights a complex holds. So the complex
    with every weight w replaced by f(w) pairs the same simplices, in the
    same order, and leaves the same owners unpaired, with
    m = f(w(kappa)) - f(w(mu)).
    """

    def f(w):
        return w * w + 5

    weight = {s: X.weight(s) for s in X.simplices()}
    Y = build_complex([(s, f(w)) for s, w in weight.items()])
    bad = []
    for before, after in zip(homology_all(X, field), homology_all(Y, field), strict=True):
        n, pairing = before.n, before.pairing
        expected = [(k, mu, f(weight[k]) - f(weight[mu])) for k, mu, _m in pairing.pairs]
        if after.pairing.pairs != expected:
            bad.append(f"n={n}: reweighting changed the pairs or their exponents")
        if after.pairing.unpaired != pairing.unpaired:
            bad.append(f"n={n}: reweighting changed the unpaired owners")
    return bad


def sublevel_betti_violations(X, field):
    """The bars alive at each weight a number the Betti numbers of X_a.

    X_a, the simplices of weight at least a, is a subcomplex, since no face
    is lighter than its cofaces. A bar of H_n is born at w(kappa) and dies
    at w(mu), or never when kappa is unpaired; those born at or above a and
    still alive below it number beta_n(X_a) over the field (Edelsbrunner
    and Harer, Computational Topology, 2010). The engine gives beta_n(X_a)
    as the free rank of X_a at constant weight, where its processing order
    is lexicographic alone.
    """
    weight = {s: X.weight(s) for s in X.simplices()}
    modules = homology_all(X, field)
    bad = []
    for a in sorted(set(weight.values())):
        sub = build_complex([(s, 0) for s, w in weight.items() if w >= a])
        betti = [m.free_rank for m in homology_all(sub, field)]
        for mod in modules:
            alive = sum(weight[k] >= a > weight[mu] for k, mu, _m in mod.pairing.pairs)
            alive += sum(weight[k] >= a for k in mod.pairing.unpaired)
            expected = betti[mod.n] if mod.n < len(betti) else 0
            if alive != expected:
                bad.append(f"a={a}, n={mod.n}: {alive} bars alive, beta_n(X_a) = {expected}")
    return bad


def relabel_violations(X, field, rng):
    labels = sorted({v for s in X.simplices() for v in s})
    names = [f"w{i:03d}" for i in range(len(labels))]
    rng.shuffle(names)
    mapping = dict(zip(labels, names))
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

    Every term must be an n-simplex of X with no zero coefficient: the
    library lifts its chains without filtering them, so a zero written
    into a chain would reach the report. The boundary check is one
    elimination per dimension for all torsion generators together; only
    when it fails is each generator checked alone, to name the failing ones.
    """
    bad = []
    for mod in homology_all(X, field, with_generators=True):
        n = mod.n
        if len(mod.generators) != mod.free_rank + len(mod.torsion):
            bad.append(f"n={n}: generator count mismatch")
            continue
        simplices = set(X.n_simplices(n))
        malformed = []
        for gen in mod.generators:
            for s, poly in gen.terms.items():
                if s not in simplices:
                    malformed.append(f"n={n}: generator term {s} is not an n-simplex of X")
                elif any(field.is_zero(c) for _e, c in poly):
                    malformed.append(f"n={n}: generator term {s} has a zero coefficient")
        if malformed:
            bad += malformed
            continue
        lower = weighted_boundary_matrix(X, n, field) if n >= 1 else None
        vecs = [chain_to_series(gen, X, field) for gen in mod.generators]
        if lower is not None:
            for vec in vecs:
                # vec as a one-column matrix
                column = [{0: vec[j]} if j in vec else {} for j in range(lower.ncols)]
                if not weighted_product_is_zero(lower, column):
                    bad.append(f"n={n}: generator is not a weighted cycle")
        shifted = [
            (m, times_pi(vec, m)) for vec, m in zip(vecs[mod.free_rank :], mod.torsion)
        ]
        if not shifted:
            continue
        if n + 1 > X.dim or not X.n_simplices(n + 1):
            bad += [f"n={n}: torsion exponent {m} with no image" for m, vec in shifted if vec]
            continue
        upper = weighted_boundary_matrix(X, n + 1, field)
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
