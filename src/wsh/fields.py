"""Exact linear algebra over the rationals and over prime fields.

Scalars are plain Python values: Fraction for the rationals, ints in
range(p) for GF(p). A FieldSpec bundles the arithmetic so everything
downstream stays field generic. The fast path in wsh.homology works on
sparse vectors of these scalars; the dense Matrix with rank and
row_reduce here is kept as a plain reference that shares no code with
it, for independent checks of its results.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MismatchedDimensions

__all__ = [
    "FieldSpec",
    "Matrix",
    "rank",
    "row_reduce",
]


# The first 13 primes are a deterministic Miller-Rabin witness set for every
# n below this bound (Sorenson and Webster, Math. Comp. 86, 2017), so larger
# field orders are refused rather than tested probabilistically.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_FIELD_ORDER = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < MAX_FIELD_ORDER."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Arithmetic context: the rationals (p is None) or GF(p) for prime p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and p >= MAX_FIELD_ORDER:
            raise ValueError(f"field order must be below {MAX_FIELD_ORDER}, got {p!r}")
        if p is not None and not _is_prime(p):
            raise ValueError(f"field order must be prime, got {p!r}")
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def from_name(cls, name: str) -> "FieldSpec":
        """Parse 'rational' or 'gf:<p>'."""
        if name == "rational":
            return cls(None)
        digits = name[3:]
        if name.startswith("gf:") and digits.isascii() and digits.isdigit():
            return cls(int(digits))
        raise ValueError(f"bad field name {name!r}")

    @property
    def name(self) -> str:
        return "rational" if self.p is None else f"gf:{self.p}"

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_int(self, k: int):
        return Fraction(k) if self.p is None else k % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero field element")
        if self.p is None:
            return a / b
        return (a * pow(b, -1, self.p)) % self.p

    def inv(self, a):
        return self.div(self.one(), a)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_pm_one(self, a) -> bool:
        # unit preference helper for pivot choice
        return a == self.one() or a == self.from_int(-1)

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return f"FieldSpec({self.name})"


class Matrix:
    """Dense matrix with entries in one FieldSpec."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise MismatchedDimensions("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    def column(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        t = Matrix.zeros(self.field, self.ncols, self.nrows)
        for i in range(self.nrows):
            for j in range(self.ncols):
                t.rows[j][i] = self.rows[i][j]
        return t

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise MismatchedDimensions("vector length does not match column count")
        F = self.field
        out = []
        for row in self.rows:
            acc = F.zero()
            for a, b in zip(row, v):
                acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"


def row_reduce(matrix: Matrix):
    """Reduced row echelon form: returns (reduced, pivots), pivots as (row, col) pairs."""
    F = matrix.field
    a = [list(r) for r in matrix.rows]
    nrows, ncols = matrix.nrows, matrix.ncols
    pivots = []
    pr = 0
    for col in range(ncols):
        if pr >= nrows:
            break
        # first nonzero in column order, preferring +-1 to limit growth
        candidates = [i for i in range(pr, nrows) if not F.is_zero(a[i][col])]
        if not candidates:
            continue
        piv = next((i for i in candidates if F.is_pm_one(a[i][col])), candidates[0])
        a[piv], a[pr] = a[pr], a[piv]
        if a[pr][col] != F.one():
            c = F.inv(a[pr][col])
            a[pr] = [F.mul(c, v) for v in a[pr]]
        for i in range(nrows):
            if i != pr and not F.is_zero(a[i][col]):
                c = F.neg(a[i][col])
                a[i] = [F.add(v, F.mul(c, w)) for v, w in zip(a[i], a[pr])]
        pivots.append((pr, col))
        pr += 1
    return Matrix(F, a, ncols=ncols), pivots


def rank(matrix: Matrix) -> int:
    return len(row_reduce(matrix)[1])
