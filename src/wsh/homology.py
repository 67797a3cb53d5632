"""Homology of weighted complexes over F[[pi]], computed as persistence.

All linear algebra runs over the coefficient field F. The weights are a
filtration read in decreasing order: a simplex enters when the scan
reaches its weight, after its faces, which are at least as heavy. An
R/(pi^m) summand of H_n is then a bar of length m: a class born with its
cycle owner kappa dies when the (n+1)-simplex mu, m weight steps lighter,
makes it a boundary. Bars of length 0 vanish from the module, and owners
that never die give the free summands.

Every boundary map above the edges' is reduced once, by one sparse
column reduction (_reduce) over {position: scalar} vectors. It takes the
n-simplices in processing order, decreasing weight with ties in
ascending lexicographic order, and reads each boundary column straight
off the simplex's faces, as itertools.combinations yields them, last
vertex dropped first, with one lookup per face in the map of a given
list of rows; faces off the list are dropped, and no boundary matrix is
built. Each column pivots on its smallest position in that list.
A column that reduces to zero marks a dependent simplex, and the chain
whose boundary it was becomes that simplex's cycle: the owner has
coefficient one and minimal weight, and no other dependent simplex
appears in it. The rest keep linearly independent boundary columns.
Cycle coefficients over the independent simplices are unique, so the
cycles depend neither on the rows kept nor on the pivot rule. Without
chains to carry, the reduction stops at its rank bound, one pivot per
row: the columns left would all reduce to zero, so their simplices are
dependent.

The edges never reach _reduce: dimension 0 is a union-find over the
vertices with the elder rule (_edge_forest), as in 0-dimensional
persistence. An edge column has two entries, x and -x, and reducing it
against a stored column moves an entry from that pivot to the stored
partner, a later owner. So an edge is dependent exactly when its ends
already share a tree, and its cycle is the edge plus the path between
its ends in the forest of independent edges; any other edge pivots on
the lighter of the two roots, each its tree's heaviest owner. That is
what _reduce would give, with no field arithmetic. No edge chain is
carried: an edge cycle is fixed by its owner coordinates, and _pusher
builds it from them alone, pushing their vertex demand up the rooted
forest, so its work follows the size of the cycle it returns. Every H_1
generator, and every cycle of cycle_basis(X, 1), comes from that push.

cycle_basis keeps every (n-1)-simplex, in descending lexicographic order;
homology(X, n) reduces over the same rows, carrying the chains (for the
edges, rooting the forest) only for generators. simplex_pairing reduces
the boundary of the (n+1)-simplices over the owners of the dimension-n
cycles alone, by increasing weight, and so gets the pairs and the split
of the (n+1)-simplices from one pass; homology_all walks up the
dimensions this way. Keeping only owner rows is exact: each owner lies
in its own cycle alone, so an n-cycle is fixed by its owner coordinates,
and the coordinate of a boundary on a cycle is the signed incidence
number of its owner. An independent (n+1)-simplex mu whose column
pivots on owner kappa is paired with it, and the weight drop kappa -> mu
is the bar length. Its column at pivot time, kept unscaled, expresses
the boundary of a chain ending in mu over the cycles. The pairing keeps
it as the reduction stored it, the pivot entry and the rest keyed by
owner position, and only a torsion generator reads it, mapping the
positions to owners as it builds its chain.

These are the pairs and columns of the row elimination that scans the
owners by increasing weight, lets each take the first live image, by
decreasing weight, whose current row meets it, and eliminates that row
from the other live ones. Pivots depend only on the row and column
orders (the pairing lemma). And the row an owner picks has only ever had
rows picked by lighter owners subtracted from it, each time at its
current lightest owner; those rows come earlier in processing order, so
the row is exactly the column this reduction has at pivot time.

The result types are named tuples, as PairedSimplices and BoundaryMatrix
are: each equals the plain tuple of its fields, unpacks, and has _fields
and _asdict(). The fields cannot be reassigned, though the lists and dicts
they hold can change, and those keep every result type unhashable.
CycleBasis and SimplexPairing subclass theirs to carry private state,
_forest and _columns, as instance attributes set where the state is made:
==, repr and hash see the fields alone, and copy and pickle keep both.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .complexes import WeightedComplex, _canonical_labels

# boundary_exponent_matrix is not called here; it stays bound for
# perfbench/tracing.py, which looks it up through this module
from .complexes import boundary_exponent_matrix  # noqa: F401
from .errors import (
    ComplexError,
    DimensionOutOfRange,
    DuplicateSimplex,
    MismatchedDimensions,
    ZeroChain,
)
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


class CycleBasis(namedtuple("CycleBasis", ["n", "dependent", "independent", "cycles"])):
    """Split of the n-simplices produced by the boundary column reduction.

    dependent: simplices owning a cycle, in processing order.
    independent: simplices whose boundary columns are linearly independent.
    cycles: owner simplex -> cycle as a {simplex: coefficient} chain; the
    owner has coefficient one and minimal weight within the support. Left
    empty by a reduction that carries no chains, and by the edge pass
    (_edge_forest), which roots the forest of independent edges instead
    and sets it as _forest (an attribute, None unless asked for): each
    edge cycle is pushed out of it from its owner coordinates when it is
    needed (_pusher), as cycle_basis(X, 1) does for every dependent edge.
    """

    _forest = None


WeightedChain = namedtuple("WeightedChain", ["n", "terms"])
WeightedChain.__doc__ = """Chain with pi-polynomial coefficients, one term list per simplex.

terms maps a simplex to a tuple of (exponent, field scalar) pairs with
strictly increasing exponents.
"""


# kappa: the dependent n-simplex owning the cycle; mu: the independent
# (n+1)-simplex; m: weight(kappa) - weight(mu), never negative
PairedSimplices = namedtuple("PairedSimplices", ["kappa", "mu", "m"])


class SimplexPairing(namedtuple("SimplexPairing", ["n", "pairs", "unpaired", "up"])):
    """Pairs of dimension n, read off one reduction of the (n+1)-boundary.

    pairs come in owner order (cycle owners by increasing weight). unpaired
    owners correspond to free summands. up is the split of the
    (n+1)-simplices made by the same reduction. simplex_pairing sets
    _columns, an attribute, to (owners, columns): the cycle owners by
    increasing weight, and for each pair its image's boundary column at
    pivot time, as the reduction stored it, the pivot entry c and the rest
    as {owner position: scalar}, in whatever key order the reduction left;
    a torsion generator reads its pair's.
    """

    _columns = None


HomologyModule = namedtuple(
    "HomologyModule", ["n", "free_rank", "torsion", "pairing", "generators"], defaults=(None,)
)
HomologyModule.__doc__ = """H_n as R^free_rank plus one R/(pi^m) summand per torsion entry.

torsion is sorted ascending. generators, when requested, line up with
the rendered module: free generators first, then torsion generators in
torsion order. All generators are cycles of the weighted boundary map.
"""


def _add_multiple(target, factor, source, field):
    """target += factor * source on sparse {index: scalar} vectors, dropping zeros.

    factor and every stored scalar are nonzero, and a product of nonzero
    scalars in a field is nonzero: only a sum can cancel, so only sums are
    zero-checked, and a key whose sum cancels is deleted. A new key goes
    last, so target keeps its insertion order.
    """
    mul, add = field.mul, field.add
    for k, v in source.items():
        if k in target:
            x = add(target[k], mul(factor, v))
            if field.is_zero(x):
                del target[k]
            else:
                target[k] = x
        else:
            target[k] = mul(factor, v)


def _processing_order(X, n):
    # decreasing weight, ties ascending lexicographic: n_simplices is
    # lexicographic, and a reversed sort is still stable
    return sorted(X.n_simplices(n), key=X._weights.__getitem__, reverse=True)


def _reduce(X, n, rows, field, with_cycles):
    """Reduce the boundary columns of the n-simplices, restricted to rows.

    Columns are taken in processing order. Each is read off its simplex s
    in one C-level pass: every face itertools.combinations yields is looked
    up in the {row simplex: position} map of rows and signed by the vertex
    it drops, and the faces not found there, all keyed None, are dropped.
    Every face must be in the complex, as WeightedComplex assumes: a face
    missing from it would be read as one off the rows. Each column pivots
    on its smallest position in rows. Without chains, the loop stops once
    the pivots reach the rank bound, len(rows); the simplices left are
    dependent. The edges (n = 1) go to _edge_forest instead.

    Returns the split of the n-simplices as a CycleBasis, with cycles only
    when with_cycles is set (no chains are carried otherwise), and a dict
    mapping each pivot position to (independent simplex that took it, its
    pivot entry, the rest of its column and its chain at that moment,
    negated inverse of the pivot entry, computed as -1 / entry), the rest
    as {position: scalar} over positions past the pivot. A later column
    with entry c at that pivot adds f = c times the negated inverse times
    the stored column, which cancels c exactly: each step pops c and is
    one _add_multiple of f times the rest onto the column and, with
    chains, one of f times the stored chain onto the chain. For n = 0 the
    boundary is zero, and every vertex is dependent and owns the one-term
    cycle of itself.
    """
    if not X.n_simplices(n):
        return CycleBasis(n, [], [], {}), {}
    order = _processing_order(X, n)
    if n == 0:
        cycles = {v: {v: field.one()} for v in order} if with_cycles else {}
        return CycleBasis(0, order, [], cycles), {}
    position = {s: k for k, s in enumerate(rows)}
    # combinations drops the last vertex first: the j-th face it yields
    # drops the (n - j)-th smallest vertex and has sign (-1)^(n - j)
    plus, minus = field.from_int(1), field.from_int(-1)
    signs = [plus if (n - j) % 2 == 0 else minus for j in range(n + 1)]
    # once the bound is met every later column reduces to zero; only its
    # chain, when carried, is left to compute
    bound = None if with_cycles else len(rows)
    # chains are keyed by position in the processing order
    reduced = {}
    dependent, independent, cycles = [], [], {}
    for i, s in enumerate(order):
        if len(reduced) == bound:
            dependent += order[i:]
            break
        column = dict(zip(map(position.get, combinations(s, n)), signs))
        # every face off the rows was keyed None
        column.pop(None, None)
        chain = {i: field.one()} if with_cycles else {}
        while column:
            pivot = min(column)
            if pivot not in reduced:
                break
            _s, _c, rest, pivot_chain, g = reduced[pivot]
            f = field.mul(column.pop(pivot), g)
            _add_multiple(column, f, rest, field)
            if with_cycles:
                _add_multiple(chain, f, pivot_chain, field)
        if column:
            c = column.pop(pivot)
            reduced[pivot] = (s, c, column, chain, field.div(minus, c))
            independent.append(s)
        else:
            dependent.append(s)
            if with_cycles:
                del chain[i]
                cycles[s] = {s: field.one(), **{order[k]: chain[k] for k in sorted(chain)}}
    return CycleBasis(n, dependent, independent, cycles), reduced


def _edge_forest(X, owners, field, rooted):
    """Split the edges and pair the vertices by union-find: the elder rule.

    owners must be every vertex, by increasing weight with ties
    lexicographic, so each tree's root, its largest position, is its
    heaviest owner. Edges come in processing order. One whose ends find
    the same root is dependent; any other pivots on kappa, the smaller
    root, and is stored as {kappa: c, y: -c}. y is the first vertex past
    kappa on the walk up the stored partners from the other end, and c is
    -1 when the end from the edge's first vertex reaches kappa, else +1.
    Each step of _reduce(X, 1, owners, ...) moves the entry at the
    lightest pivot to that pivot's partner, so this is its column at pivot
    time. Only find compresses paths. Once all but one vertex are pivots,
    the edges left are dependent. Returns what _reduce does, with
    (edge, c, {y: -c}) at each pivot position, but never cycles: when
    rooted is set, the basis's _forest is the forest of independent edges
    instead, each tree rooted at its lightest vertex, and _pusher builds any
    edge cycle from it. The forest is (order, rank, link): the edges in
    processing order; vertex label -> rank, every vertex ranked after its
    parent; and by rank, None at a root, else the parent's rank, the
    position in order of the edge to it and that edge's coefficient going
    up (+1 when the vertex is the edge's first).
    """
    order = _processing_order(X, 1)
    position = {v: k for k, (v,) in enumerate(owners)}
    plus, minus = field.from_int(1), field.from_int(-1)
    parent = list(range(len(owners)))
    partner, taken, tree = {}, {}, []
    dependent, independent = [], []

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, s in enumerate(order):
        if len(taken) == len(owners) - 1:
            dependent += order[i:]
            break
        a, b = position[s[0]], position[s[1]]
        ra, rb = find(a), find(b)
        if ra == rb:
            dependent.append(s)
            continue
        if ra < rb:
            kappa, root, y, c, d = ra, rb, b, minus, plus
        else:
            kappa, root, y, c, d = rb, ra, a, plus, minus
        while y < kappa:
            y = partner[y]
        partner[kappa] = y
        parent[kappa] = root
        taken[kappa] = (s, c, {y: d})
        independent.append(s)
        tree.append((i, a, b))
    basis = CycleBasis(1, dependent, independent, {})
    if rooted:
        # rank each tree from its first owner outwards; a vertex reached
        # from its edge's first vertex is that edge's second, so goes up -1
        adjacent = [[] for _ in owners]
        for i, a, b in tree:
            adjacent[a].append((b, i, minus))
            adjacent[b].append((a, i, plus))
        rank, link = [None] * len(owners), []
        for top in range(len(owners)):
            if rank[top] is not None:
                continue
            rank[top] = len(link)
            link.append(None)
            stack = [top]
            while stack:
                v = stack.pop()
                for w, i, up in adjacent[v]:
                    if rank[w] is None:
                        rank[w] = len(link)
                        link.append((rank[v], i, up))
                        stack.append(w)
        basis._forest = (order, {v: rank[k] for v, k in position.items()}, link)
    return basis, taken


def _pusher(forest, field):
    """The map from owner coordinates, {dependent edge: scalar}, to their edge cycle.

    Each owner edge (a, b) with coefficient c puts its boundary on the
    vertices: demand c at b and -c at a. Vertices are taken children first,
    by decreasing rank. One with demand d gives the edge to its parent the
    coefficient up * d, which cancels d, and adds d to its parent's demand;
    a demand that is zero stops there. A chain of tree edges is fixed by its
    boundary, so this is the cycle, and the work follows its size. The
    cycle lists the owner part first, then the tree edges as the push
    reaches them; lifting sorts by simplex, and cycle_basis(X, 1) puts the
    tree edges in processing order itself.
    """
    from heapq import heapify, heappop, heappush  # only generators need a heap

    order, rank, link = forest
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero

    def push(part):
        demand = {}
        for (a, b), c in part.items():
            for v, d in ((rank[b], c), (rank[a], neg(c))):
                demand[v] = add(demand[v], d) if v in demand else d
        # ranks negated: heapq pops the smallest
        heap = [-v for v in demand]
        heapify(heap)
        cycle = dict(part)
        while heap:
            v = -heappop(heap)
            d = demand.pop(v)
            if is_zero(d):
                continue
            up_rank, i, up = link[v]
            cycle[order[i]] = mul(up, d)
            if up_rank in demand:
                demand[up_rank] = add(demand[up_rank], d)
            else:
                demand[up_rank] = d
                heappush(heap, -up_rank)
        return cycle

    return push


def _split(X, n, field, with_cycles):
    """Split of the n-simplices over all their faces.

    For the edges, with_cycles roots the forest rather than building cycles.
    """
    if n == 1:
        vertices = sorted(X.n_simplices(0), key=X._weights.__getitem__)
        return _edge_forest(X, vertices, field, with_cycles)[0]
    # faces in descending lexicographic order: each column pivots on its last face
    return _reduce(X, n, X.n_simplices(n - 1)[::-1], field, with_cycles)[0]


def cycle_basis(X: WeightedComplex, n: int, field: FieldSpec) -> CycleBasis:
    """Kernel basis of the dimension-n boundary map, one cycle per dependent simplex."""
    if n < 0:
        raise DimensionOutOfRange(n)
    basis = _split(X, n, field, with_cycles=True)
    if n == 1:
        # the owner first, then the tree edges in processing order, as _reduce lists them
        order = basis._forest[0]
        position = {s: i for i, s in enumerate(order)}
        push, one = _pusher(basis._forest, field), field.one()
        for s in basis.dependent:
            tree = push({s: one})
            del tree[s]
            basis.cycles[s] = {s: one, **{t: tree[t] for t in sorted(tree, key=position.get)}}
    return basis


def _lift(chain, weight_of):
    """lift_cycle without its checks, weighing each simplex by weight_of.

    chain must be nonzero, hold no zero coefficient and simplices of one
    dimension only, and weight_of must take each of its keys. The chains
    the generators lift always do: the stored pivot columns drop cancelled
    entries, the push writes a tree edge only for a nonzero demand, and
    higher cycles are summed by _add_multiple, which deletes
    cancelled keys. The terms come sorted by simplex.
    """
    support = sorted(chain)
    weights = list(map(weight_of, support))
    wmin = min(weights)
    terms = {s: ((w - wmin, chain[s]),) for s, w in zip(support, weights)}
    return WeightedChain._make((len(support[0]) - 1, terms))


def lift_cycle(chain: dict, X: WeightedComplex, field: FieldSpec) -> WeightedChain:
    """Scale each simplex by pi^(weight - minimum weight in the support).

    The result is a cycle of the weighted boundary map whenever the input
    is a cycle of the ordinary one, and at least one exponent is zero.
    Zero coefficients are dropped, and a simplex may list its vertices in
    any order X.weight accepts; the result keeps the keys as given. Raises
    ZeroChain when nothing is left, MismatchedDimensions when the
    simplices differ in dimension, and DuplicateSimplex, naming the sorted
    simplex, when two keys left are spellings of one simplex.
    """
    support = {s: c for s, c in chain.items() if not field.is_zero(c)}
    if not support:
        raise ZeroChain("cannot lift a zero chain")
    if len({len(s) for s in support}) != 1:
        raise MismatchedDimensions("chain mixes simplices of different dimensions")
    seen = set()
    for s in support:
        labels = _canonical_labels(s)
        if labels in seen:
            raise DuplicateSimplex(labels)
        seen.add(labels)
    return _lift(support, X.weight)


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
    basis_n.dependent must come in processing order, as _reduce gives it;
    for n = 0 that is every vertex, and _edge_forest does the reduction;
    with_cycles then roots the forest of independent edges instead of
    carrying cycles.
    """
    if n < 0:
        raise DimensionOutOfRange(n)
    weights = X._weights
    # dependent comes in processing order, so the stable sort by weight
    # alone breaks ties lexicographically
    owners = sorted(basis_n.dependent, key=weights.__getitem__)
    if n == 0:
        up, taken = _edge_forest(X, owners, field, with_cycles)
    else:
        up, taken = _reduce(X, n + 1, owners, field, with_cycles)
    pairs, unpaired, columns = [], [], []
    for k, kappa in enumerate(owners):
        if k not in taken:
            unpaired.append(kappa)
            continue
        mu, c, rest = taken[k][:3]
        m = weights[kappa] - weights[mu]
        if m < 0:
            raise ComplexError(
                f"pair {{{' '.join(kappa)}}} / {{{' '.join(mu)}}} has negative exponent {m}: "
                "weights must not increase from a face to its coface"
            )
        pairs.append(PairedSimplices._make((kappa, mu, m)))
        columns.append((c, rest))
    pairing = SimplexPairing(n, pairs, unpaired, up)
    pairing._columns = (owners, columns)
    return pairing


def _module_from_pairing(X, n, basis_n, pairing, field, with_generators):
    pairs = pairing.pairs
    free_rank = len(basis_n.dependent) - len(pairs)
    torsion_pairs = sorted(
        (i for i, p in enumerate(pairs) if p.m >= 1), key=lambda i: (pairs[i].m, i)
    )
    torsion = [pairs[i].m for i in torsion_pairs]
    generators = None
    if with_generators:
        # the cycle fixed by owner coordinates: a vertex is its own cycle, an
        # edge cycle is pushed out of the forest, and a higher one is summed
        if n == 0:
            chain_of = dict
        elif n == 1:
            chain_of = _pusher(basis_n._forest, field)
        else:
            def chain_of(part):
                chain = {}
                for owner, coeff in part.items():
                    _add_multiple(chain, coeff, basis_n.cycles[owner], field)
                return chain
        one, weight_of = field.one(), X._weights.__getitem__
        generators = [_lift(chain_of({kappa: one}), weight_of) for kappa in pairing.unpaired]
        owners, columns = pairing._columns
        for i in torsion_pairs:
            kappa = pairs[i].kappa
            c, rest = columns[i]
            part = {kappa: c, **{owners[k]: v for k, v in rest.items()}}
            lifted = _lift(chain_of(part), weight_of)
            # the paired owner, in its own cycle alone at the nonzero pivot
            # entry, keeps the minimal weight: its lifted exponent is zero
            if lifted.terms[kappa][0][0] != 0:
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
    basis_n = _split(X, n, field, with_generators)
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
