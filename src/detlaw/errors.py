"""Domain errors.

Every error carries a machine-readable ``code`` so the CLI can emit
structured JSON failures.
"""


class DetlawError(Exception):
    code = "Error"

    def payload(self):
        return {"error": self.code, "message": str(self)}


class NotPrime(DetlawError):
    code = "NotPrime"


class SizeCapExceeded(DetlawError):
    code = "SizeCapExceeded"


class NoEmbedding(DetlawError):
    code = "NoEmbedding"


class VariableMismatch(DetlawError):
    code = "VariableMismatch"


class BadGroupTable(DetlawError):
    code = "BadGroupTable"


class DimensionCapExceeded(DetlawError):
    code = "DimensionCapExceeded"


class NotAnIdeal(DetlawError):
    code = "NotAnIdeal"


class ShapeMismatch(DetlawError):
    code = "ShapeMismatch"


class EnumerationCapExceeded(DetlawError):
    code = "EnumerationCapExceeded"


class SearchCapExceeded(DetlawError):
    code = "SearchCapExceeded"


class NotFoundWithinBound(DetlawError):
    code = "NotFoundWithinBound"


class GmaAxiomFailure(DetlawError):
    code = "GmaAxiomFailure"


class PointCapExceeded(DetlawError):
    code = "PointCapExceeded"


class UnknownPseudoRep(DetlawError):
    code = "UnknownPseudoRep"


class NotMultiplicityFree(DetlawError):
    code = "NotMultiplicityFree"


class HypothesisViolation(DetlawError):
    code = "HypothesisViolation"


class DimensionUnsupported(DetlawError):
    code = "DimensionUnsupported"


class SchemaError(DetlawError):
    code = "SchemaError"


class InvariantViolation(DetlawError):
    """A checked mathematical claim failed; ``witness`` holds the data that
    shows it."""
    code = "InvariantViolation"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
