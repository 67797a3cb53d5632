"""Fast path as it was when each boundary map was eliminated twice.

A verbatim copy of `wsh.homology` from before the cycle basis and the
simplex pairing became one column reduction: `cycle_basis` column-reduces
each boundary map and `simplex_pairing` row-eliminates the same map again
over the cycle owners. Only the imports are absolute. The differential
tests in `tests/test_homology_reference.py` compare the library against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

from wsh.complexes import WeightedComplex, boundary_exponent_matrix, signed_faces
from wsh.errors import ComplexError, DimensionOutOfRange, MismatchedDimensions, ZeroChain
from wsh.fields import FieldSpec

__all__ = [
    "CycleBasis",
    "WeightedChain",
    "PairedSimplices",
    "SimplexPairing",
    "HomologyModule",
    "cycle_basis",
    "lift_cycle",
    "simplex_pairing",
    "homology",
    "homology_all",
]


@dataclass
class CycleBasis:
    """Split of the n-simplices produced by the boundary column reduction.

    dependent: simplices owning a cycle, in processing order.
    independent: simplices whose boundary columns are linearly independent.
    cycles: owner simplex -> cycle as a {simplex: coefficient} chain; the
    owner has coefficient one and minimal weight within the support.
    """

    n: int
    dependent: list
    independent: list
    cycles: dict


@dataclass
class WeightedChain:
    """Chain with pi-polynomial coefficients, one term list per simplex.

    terms maps a simplex to a tuple of (exponent, field scalar) pairs with
    strictly increasing exponents.
    """

    n: int
    terms: dict


class PairedSimplices(NamedTuple):
    kappa: tuple  # dependent n-simplex owning the cycle
    mu: tuple  # independent (n+1)-simplex
    m: int  # weight(kappa) - weight(mu), never negative


@dataclass
class SimplexPairing:
    """Result of the owner scan in dimension n.

    pairs come in scan order (cycle owners by increasing weight). Each pair
    carries the coefficients the selected row had at pairing time, expressed
    over cycle owners; those drive the torsion generators. unpaired owners
    correspond to free summands.
    """

    n: int
    pairs: list
    unpaired: list
    row_coefficients: list = dataclass_field(default_factory=list)


@dataclass
class HomologyModule:
    """H_n as R^free_rank plus one R/(pi^m) summand per torsion entry.

    torsion is sorted ascending. generators, when requested, line up with
    the rendered module: free generators first, then torsion generators in
    torsion order. All generators are cycles of the weighted boundary map.
    """

    n: int
    free_rank: int
    torsion: list
    pairing: SimplexPairing
    generators: list | None = None


def _add_multiple(target, factor, source, field):
    """target += factor * source on sparse {index: scalar} vectors, dropping zeros."""
    for k, v in source.items():
        x = field.mul(factor, v)
        if k in target:
            x = field.add(target[k], x)
        if field.is_zero(x):
            target.pop(k, None)
        else:
            target[k] = x


def _processing_order(X, n):
    # decreasing weight, ties ascending lexicographic
    return sorted(X.n_simplices(n), key=lambda s: (-X.weight(s), s))


def cycle_basis(X: WeightedComplex, n: int, field: FieldSpec) -> CycleBasis:
    """Kernel basis of the dimension-n boundary map, one cycle per dependent simplex."""
    if n < 0:
        raise DimensionOutOfRange(n)
    if not X.n_simplices(n):
        return CycleBasis(n, [], [], {})
    order = _processing_order(X, n)
    if n == 0:
        # zero boundary: every vertex owns the cycle consisting of itself
        return CycleBasis(0, order, [], {v: {v: field.one()} for v in order})

    bm = boundary_exponent_matrix(X, n)
    col_pos = {s: j for j, s in enumerate(bm.col_simplices)}
    # pivot row -> (reduced column scaled to a unit pivot, chain it bounds);
    # chains are keyed by position in the processing order
    reduced = {}
    dependent, independent, cycles = [], [], {}
    for i, s in enumerate(order):
        column = {row: field.from_int(sign) for row, sign, _exp in bm.columns[col_pos[s]]}
        chain = {i: field.one()}
        while column:
            pivot = max(column)
            if pivot not in reduced:
                break
            f = field.neg(column[pivot])
            pivot_column, pivot_chain = reduced[pivot]
            _add_multiple(column, f, pivot_column, field)
            _add_multiple(chain, f, pivot_chain, field)
        if column:
            inv = field.inv(column[pivot])
            reduced[pivot] = (
                {r: field.mul(inv, c) for r, c in column.items()},
                {k: field.mul(inv, c) for k, c in chain.items()},
            )
            independent.append(s)
        else:
            del chain[i]
            dependent.append(s)
            cycles[s] = {s: field.one(), **{order[k]: chain[k] for k in sorted(chain)}}
    return CycleBasis(n, dependent, independent, cycles)


def lift_cycle(chain: dict, X: WeightedComplex, field: FieldSpec) -> WeightedChain:
    """Scale each simplex by pi^(weight - minimum weight in the support).

    The result is a cycle of the weighted boundary map whenever the input
    is a cycle of the ordinary one, and at least one exponent is zero.
    """
    support = [s for s, c in chain.items() if not field.is_zero(c)]
    if not support:
        raise ZeroChain("cannot lift a zero chain")
    dims = {len(s) for s in support}
    if len(dims) != 1:
        raise MismatchedDimensions("chain mixes simplices of different dimensions")
    wmin = min(X.weight(s) for s in support)
    terms = {s: ((X.weight(s) - wmin, chain[s]),) for s in sorted(support)}
    return WeightedChain(len(support[0]) - 1, terms)


def simplex_pairing(
    X: WeightedComplex,
    n: int,
    basis_n: CycleBasis,
    basis_up: CycleBasis,
    field: FieldSpec,
) -> SimplexPairing:
    """Pair cycle owners in dimension n against independent (n+1)-simplices.

    Owners are scanned by increasing weight (ties lexicographic), image
    rows by decreasing weight. Each owner takes the first live row with a
    nonzero entry on it; that row is retired and eliminated from the other
    live rows that meet the owner, keeping later choices valid. Every
    independent (n+1)-simplex ends up in exactly one pair because their
    boundaries are linearly independent.
    """
    owners = sorted(basis_n.dependent, key=lambda s: (X.weight(s), s))
    images = sorted(basis_up.independent, key=lambda s: (-X.weight(s), s))
    owner_pos = {s: k for k, s in enumerate(owners)}

    # row j is the boundary of images[j] over the cycle basis: owner
    # exclusivity makes each coefficient the raw incidence number of the
    # owner. rows_meeting[k] holds the live rows with a nonzero entry at k.
    rows = []
    rows_meeting = [set() for _ in owners]
    for j, mu in enumerate(images):
        row = {}
        for face, sign in signed_faces(mu):
            k = owner_pos.get(face)
            if k is not None:
                row[k] = field.from_int(sign)
                rows_meeting[k].add(j)
        rows.append(row)

    pairs, unpaired, row_coeffs = [], [], []
    for k, kappa in enumerate(owners):
        live = rows_meeting[k]
        if not live:
            unpaired.append(kappa)
            continue
        j_k = min(live)
        picked = rows[j_k]
        for i in picked:
            rows_meeting[i].discard(j_k)
        mu = images[j_k]
        m = X.weight(kappa) - X.weight(mu)
        if m < 0:
            raise ComplexError(
                f"pair {{{' '.join(kappa)}}} / {{{' '.join(mu)}}} has negative exponent {m}: "
                "weights must not increase from a face to its coface"
            )
        pairs.append(PairedSimplices(kappa, mu, m))
        row_coeffs.append({owners[i]: picked[i] for i in sorted(picked)})
        inv = field.inv(picked[k])
        for j in list(live):
            row = rows[j]
            _add_multiple(row, field.neg(field.mul(row[k], inv)), picked, field)
            for i in picked:
                if i in row:
                    rows_meeting[i].add(j)
                else:
                    rows_meeting[i].discard(j)

    if len(pairs) != len(images):
        raise ComplexError(
            f"{len(images) - len(pairs)} independent {n + 1}-simplices left unpaired: "
            "the cycle bases do not belong to this complex"
        )
    return SimplexPairing(n, pairs, unpaired, row_coeffs)


def _combine_cycles(snapshot, basis: CycleBasis, field):
    acc = {}
    for owner, coeff in snapshot.items():
        for s, c in basis.cycles[owner].items():
            v = field.add(acc.get(s, field.zero()), field.mul(coeff, c))
            if field.is_zero(v):
                acc.pop(s, None)
            else:
                acc[s] = v
    return acc


def _module_from_pairing(X, n, basis_n, pairing, field, with_generators):
    free_rank = len(basis_n.dependent) - len(pairing.pairs)
    torsion_pairs = sorted(
        (i for i in range(len(pairing.pairs)) if pairing.pairs[i].m >= 1),
        key=lambda i: (pairing.pairs[i].m, i),
    )
    torsion = [pairing.pairs[i].m for i in torsion_pairs]
    generators = None
    if with_generators:
        generators = []
        for kappa in pairing.unpaired:
            generators.append(lift_cycle(basis_n.cycles[kappa], X, field))
        for i in torsion_pairs:
            chain = _combine_cycles(pairing.row_coefficients[i], basis_n, field)
            lifted = lift_cycle(chain, X, field)
            # the paired owner keeps the minimal weight in the combination
            kappa = pairing.pairs[i].kappa
            if min(X.weight(s) for s in lifted.terms) != X.weight(kappa):
                raise ComplexError(
                    f"torsion generator of {{{' '.join(kappa)}}} is lighter than its owner: "
                    "weights must not increase from a face to its coface"
                )
            generators.append(lifted)
    return HomologyModule(n, free_rank, torsion, pairing, generators)


def homology(
    X: WeightedComplex, n: int, field: FieldSpec, with_generators: bool = False
) -> HomologyModule:
    """H_n of the weighted complex as a module over F[[pi]]."""
    if n < 0:
        raise DimensionOutOfRange(n)
    basis_n = cycle_basis(X, n, field)
    basis_up = cycle_basis(X, n + 1, field)
    pairing = simplex_pairing(X, n, basis_n, basis_up, field)
    return _module_from_pairing(X, n, basis_n, pairing, field, with_generators)


def homology_all(
    X: WeightedComplex, field: FieldSpec, with_generators: bool = False
) -> list:
    """H_0 through H_dim, computing each cycle basis once."""
    bases = [cycle_basis(X, n, field) for n in range(X.dim + 2)]
    out = []
    for n in range(X.dim + 1):
        pairing = simplex_pairing(X, n, bases[n], bases[n + 1], field)
        out.append(_module_from_pairing(X, n, bases[n], pairing, field, with_generators))
    return out
