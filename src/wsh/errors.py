"""Exception types shared across the package.

Validation errors carry the offending simplices as label tuples so that the
file parser can decorate them with line numbers.
"""


class ComplexError(ValueError):
    """Base class for weighted-complex construction and validation errors."""


class InvalidSimplex(ComplexError):
    """A simplex is empty or repeats a vertex, or a vertex label would not
    read back from the record format as that one vertex; label is then set."""

    def __init__(self, message, label=None):
        self.label = label
        super().__init__(message)


class DuplicateSimplex(ComplexError):
    def __init__(self, simplex):
        self.simplex = tuple(simplex)
        super().__init__(f"simplex {{{' '.join(self.simplex)}}} listed more than once")


class MissingFace(ComplexError):
    def __init__(self, simplex, face):
        self.simplex = tuple(simplex)
        self.face = tuple(face)
        super().__init__(
            f"face {{{' '.join(self.face)}}} of {{{' '.join(self.simplex)}}} is not in the complex"
        )


class MonotonicityViolation(ComplexError):
    def __init__(self, face, coface, face_weight, coface_weight):
        self.face = tuple(face)
        self.coface = tuple(coface)
        self.face_weight = face_weight
        self.coface_weight = coface_weight
        super().__init__(
            "weight of face {{{}}} is {} but its coface {{{}}} has weight {}".format(
                " ".join(self.face), face_weight, " ".join(self.coface), coface_weight
            )
        )


class SimplexTooLarge(ComplexError):
    """A record whose faces would be filled in has too many vertices."""

    def __init__(self, simplex, limit):
        self.simplex = tuple(simplex)
        super().__init__(
            f"simplex with {len(self.simplex)} vertices would have {2 ** len(self.simplex) - 1} "
            f"faces; filling in faces takes at most {limit} vertices ({2 ** limit - 1} faces)"
        )


class EmptyInput(ComplexError):
    """No simplices were supplied."""


class DimensionOutOfRange(ComplexError):
    def __init__(self, n, message=None):
        self.n = n
        super().__init__(message or f"dimension {n} out of range")


class MismatchedDimensions(ValueError):
    """Vector or matrix shapes do not line up."""


class ZeroChain(ValueError):
    """A chain with empty support where a nonzero one is required."""


class PrecisionExhausted(ArithmeticError):
    """The oracle's elimination met a matrix that no weighted boundary map gives.

    Raised by three guards in wsh.oracle: a row operation would leave an
    entry that is not one pi-monomial, an entry is left nonzero below a
    pivot, or the pivot valuations are not ascending.
    """


class ParseError(ValueError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")
