"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values. A rational is an int while it is
integral and a Fraction only when it is not, so eliminations on the +-1
boundary entries build no Fraction until a pivot other than +-1 divides
inexactly; GF(p) scalars are ints in range(p). A FieldSpec bundles the
arithmetic so everything downstream stays field generic. The fast path
in wsh.homology works on sparse vectors of these scalars. The dense
reference algebra that checks it independently lives with the tests.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["FieldSpec"]


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


def _rational(x):
    """A rational result as an int when it is integral, else as a Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class FieldSpec:
    """Arithmetic context: the rationals (p is None) or GF(p) for a prime int p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and type(p) is not int:
            raise ValueError(f"field order must be an int, got {p!r}")
        if p is not None and p >= MAX_FIELD_ORDER:
            raise ValueError(f"field order must be below {MAX_FIELD_ORDER}, got {p!r}")
        if p is not None and not _is_prime(p):
            raise ValueError(f"field order must be prime, got {p!r}")
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

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
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k if self.p is None else k % self.p

    # add and mul run once per entry of every elimination step, so they
    # normalise inline what _rational normalises for the other operations
    def add(self, a, b):
        if self.p is not None:
            return (a + b) % self.p
        x = a + b
        return x if type(x) is int or x.denominator != 1 else x.numerator

    def sub(self, a, b):
        return _rational(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        if self.p is not None:
            return (a * b) % self.p
        x = a * b
        return x if type(x) is int or x.denominator != 1 else x.numerator

    def neg(self, a):
        return _rational(-a) if self.p is None else (-a) % self.p

    def div(self, a, b):
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero field element")
        if self.p is None:
            if type(a) is int and type(b) is int:
                return a // b if a % b == 0 else Fraction(a, b)
            return _rational(a / b)
        return (a * pow(b, -1, self.p)) % self.p

    def inv(self, a):
        return self.div(self.one(), a)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_pm_one(self, a) -> bool:
        # unit preference for pivot choice in dense reference eliminations
        return a == self.one() or a == self.from_int(-1)

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return f"FieldSpec({self.name})"
