"""Homology of weighted complexes over F[[pi]], computed as persistence.

All linear algebra runs over the coefficient field F. The weights are a
filtration read in decreasing order: a simplex enters when the scan
reaches its weight, after its faces, which are at least as heavy. An
R/(pi^m) summand of H_n is then a bar of length m: a class born with its
cycle owner kappa dies when the (n+1)-simplex mu, m weight steps lighter,
makes it a boundary. Bars of length 0 vanish from the module, and owners
that never die give the free summands.

Every boundary map is reduced once, by one sparse column reduction
(_reduce) over {position: scalar} vectors. It takes the boundary columns
of the n-simplices in processing order, decreasing weight with ties in
ascending lexicographic order, keeps only their entries on a given list
of rows, and pivots each column on its smallest position in that list.
A column that reduces to zero marks a dependent simplex, and the chain
whose boundary it was becomes that simplex's cycle: the owner has
coefficient one and minimal weight, and no other dependent simplex
appears in it. The rest keep linearly independent boundary columns.
Cycle coefficients over the independent simplices are unique, so the
cycles depend neither on the rows kept nor on the pivot rule.

cycle_basis keeps every (n-1)-simplex, in descending lexicographic order.
simplex_pairing reduces the boundary of the (n+1)-simplices over the
owners of the dimension-n cycles alone, by increasing weight, and so
gets the pairs and the split of the (n+1)-simplices from one pass;
homology_all walks up the dimensions this way. Keeping only owner rows
is exact: each owner lies in its own cycle alone, so an n-cycle is fixed
by its owner coordinates, and the coordinate of a boundary on a cycle is
the signed incidence number of its owner. An independent (n+1)-simplex
mu whose column pivots on owner kappa is paired with it, and the weight
drop kappa -> mu is the bar length. Its column at pivot time, kept
unscaled, expresses the boundary of a chain ending in mu over the
cycles, and drives the torsion generator of the pair.

These are the pairs and columns of the row elimination that scans the
owners by increasing weight, lets each take the first live image, by
decreasing weight, whose current row meets it, and eliminates that row
from the other live ones. Pivots depend only on the row and column
orders (the pairing lemma). And the row an owner picks has only ever had
rows picked by lighter owners subtracted from it, each time at its
current lightest owner; those rows come earlier in processing order, so
the row is exactly the column this reduction has at pivot time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complexes import WeightedComplex, boundary_exponent_matrix
from .errors import ComplexError, DimensionOutOfRange, MismatchedDimensions, ZeroChain
from .fields import FieldSpec

__all__ = [
    "CycleBasis",
    "WeightedChain",
    "PairedSimplices",
    "SimplexPairing",
    "HomologyModule",
    "cycle_basis",
    "lift_cycle",
    "homology",
    "homology_all",
]


@dataclass
class CycleBasis:
    """Split of the n-simplices produced by the boundary column reduction.

    dependent: simplices owning a cycle, in processing order.
    independent: simplices whose boundary columns are linearly independent.
    cycles: owner simplex -> cycle as a {simplex: coefficient} chain; the
    owner has coefficient one and minimal weight within the support. Left
    empty by a reduction that carries no chains.
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
    """Pairs of dimension n, read off one reduction of the (n+1)-boundary.

    pairs come in owner order (cycle owners by increasing weight). Each
    pair carries its image's boundary column at pivot time, expressed over
    cycle owners; those drive the torsion generators. unpaired owners
    correspond to free summands. up is the split of the (n+1)-simplices
    made by the same reduction.
    """

    n: int
    pairs: list
    unpaired: list
    row_coefficients: list
    up: CycleBasis


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
    weights = X._weights
    return sorted(X.n_simplices(n), key=lambda s: (-weights[s], s))


def _reduce(X, n, rows, field, with_cycles):
    """Reduce the boundary columns of the n-simplices, restricted to rows.

    Columns are taken in processing order and keep only their entries on
    rows; each pivots on its smallest position in rows. Returns the split
    of the n-simplices as a CycleBasis, with cycles only when with_cycles
    is set (no chains are carried otherwise), and a dict mapping each
    pivot position to (independent simplex that took it, its pivot entry,
    the rest of its column and its chain at that moment, negated inverse
    of the pivot entry), the rest as {position: scalar} over positions
    past the pivot. A later column with entry c at that pivot adds c times
    the negated inverse times the stored column, which cancels c exactly:
    the step pops c and adds only the rest.
    """
    if not X.n_simplices(n):
        return CycleBasis(n, [], [], {}), {}
    order = _processing_order(X, n)
    bm = boundary_exponent_matrix(X, n)
    position = {s: k for k, s in enumerate(rows)}
    row_pos = [position.get(s) for s in bm.row_simplices]
    columns = dict(zip(bm.col_simplices, bm.columns))
    scalar = {1: field.from_int(1), -1: field.from_int(-1)}
    mul, add, is_zero = field.mul, field.add, field.is_zero
    # chains are keyed by position in the processing order
    reduced = {}
    dependent, independent, cycles = [], [], {}
    for i, s in enumerate(order):
        column = {}
        for r, sign, _exp in columns[s]:
            if row_pos[r] is not None:
                column[row_pos[r]] = scalar[sign]
        chain = {i: field.one()} if with_cycles else {}
        while column:
            pivot = min(column)
            if pivot not in reduced:
                break
            _s, _c, rest, pivot_chain, g = reduced[pivot]
            f = mul(column.pop(pivot), g)
            # a product of nonzero scalars is nonzero: only a sum can cancel
            for k, v in rest.items():
                if k in column:
                    x = add(column[k], mul(f, v))
                    if is_zero(x):
                        del column[k]
                    else:
                        column[k] = x
                else:
                    column[k] = mul(f, v)
            if with_cycles:
                for k, v in pivot_chain.items():
                    if k in chain:
                        x = add(chain[k], mul(f, v))
                        if is_zero(x):
                            del chain[k]
                        else:
                            chain[k] = x
                    else:
                        chain[k] = mul(f, v)
        if column:
            c = column.pop(pivot)
            reduced[pivot] = (s, c, column, chain, field.neg(field.inv(c)))
            independent.append(s)
        else:
            dependent.append(s)
            if with_cycles:
                del chain[i]
                cycles[s] = {s: field.one(), **{order[k]: chain[k] for k in sorted(chain)}}
    return CycleBasis(n, dependent, independent, cycles), reduced


def cycle_basis(X: WeightedComplex, n: int, field: FieldSpec) -> CycleBasis:
    """Kernel basis of the dimension-n boundary map, one cycle per dependent simplex."""
    if n < 0:
        raise DimensionOutOfRange(n)
    if n == 0:
        # zero boundary: every vertex owns the cycle consisting of itself
        order = _processing_order(X, 0)
        return CycleBasis(0, order, [], {v: {v: field.one()} for v in order})
    # faces in descending lexicographic order: each column pivots on its last face
    basis, _taken = _reduce(X, n, X.n_simplices(n - 1)[::-1], field, with_cycles=True)
    return basis


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
    weight = {s: X.weight(s) for s in support}
    wmin = min(weight.values())
    terms = {s: ((weight[s] - wmin, chain[s]),) for s in sorted(support)}
    return WeightedChain(len(support[0]) - 1, terms)


def simplex_pairing(
    X: WeightedComplex,
    n: int,
    basis_n: CycleBasis,
    field: FieldSpec,
    with_cycles: bool = False,
) -> SimplexPairing:
    """Pair cycle owners in dimension n against independent (n+1)-simplices.

    One reduction of the (n+1)-boundary over the owners of basis_n, by
    increasing weight (ties lexicographic): each independent (n+1)-simplex
    is paired with the owner its column pivots on. The same pass splits
    the (n+1)-simplices, with their cycles when with_cycles is set.
    """
    weights = X._weights
    owners = sorted(basis_n.dependent, key=lambda s: (weights[s], s))
    up, taken = _reduce(X, n + 1, owners, field, with_cycles)
    pairs, unpaired, row_coeffs = [], [], []
    for k, kappa in enumerate(owners):
        if k not in taken:
            unpaired.append(kappa)
            continue
        mu, c, rest, _chain, _g = taken[k]
        m = weights[kappa] - weights[mu]
        if m < 0:
            raise ComplexError(
                f"pair {{{' '.join(kappa)}}} / {{{' '.join(mu)}}} has negative exponent {m}: "
                "weights must not increase from a face to its coface"
            )
        pairs.append(PairedSimplices(kappa, mu, m))
        # the column at pivot time: kappa, then the rest by position
        row_coeffs.append({kappa: c, **{owners[i]: rest[i] for i in sorted(rest)}})
    return SimplexPairing(n, pairs, unpaired, row_coeffs, up)


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
            chain = {}
            for owner, coeff in pairing.row_coefficients[i].items():
                _add_multiple(chain, coeff, basis_n.cycles[owner], field)
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
    pairing = simplex_pairing(X, n, basis_n, field)
    return _module_from_pairing(X, n, basis_n, pairing, field, with_generators)


def homology_all(
    X: WeightedComplex, field: FieldSpec, with_generators: bool = False
) -> list:
    """H_0 through H_dim, bottom up, reducing each boundary map once."""
    basis = cycle_basis(X, 0, field)
    out = []
    for n in range(X.dim + 1):
        pairing = simplex_pairing(X, n, basis, field, with_cycles=with_generators)
        out.append(_module_from_pairing(X, n, basis, pairing, field, with_generators))
        basis = pairing.up
    return out
