"""Domain errors.

The CLI reports each as a structured JSON failure whose ``code`` is the
error's class name.
"""


class DetlawError(Exception):
    """A detlaw failure; ``witness``, when given, holds the data that shows it."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotPrime(DetlawError):
    pass


class SizeCapExceeded(DetlawError):
    pass


class NoEmbedding(DetlawError):
    pass


class VariableMismatch(DetlawError):
    pass


class BadGroupTable(DetlawError):
    pass


class NotAnIdeal(DetlawError):
    pass


class ShapeMismatch(DetlawError):
    pass


class EnumerationCapExceeded(DetlawError):
    pass


class SearchCapExceeded(DetlawError):
    pass


class NotFoundWithinBound(DetlawError):
    pass


class GmaAxiomFailure(DetlawError):
    pass


class PointCapExceeded(DetlawError):
    pass


class UnknownPseudoRep(DetlawError):
    pass


class NotMultiplicityFree(DetlawError):
    pass


class HypothesisViolation(DetlawError):
    pass


class DimensionUnsupported(DetlawError):
    pass


class SchemaError(DetlawError):
    pass


class InvariantViolation(DetlawError):
    """A checked mathematical claim failed."""
