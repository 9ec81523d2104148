"""Exception types shared across the package.

Errors fall into three groups: malformed inputs (signature mismatches,
out-of-range vertices), resource exhaustion (enumeration budgets, size
caps), and unmet hypotheses of a construction (a class missing a
property the construction requires, a target model too small to hold
the required witnesses).
"""


class FraisseError(Exception):
    """Base class for all package errors."""


class SignatureMismatch(FraisseError):
    """Two objects were combined whose signatures disagree."""


class SignatureOverlap(FraisseError):
    """A union of signatures was requested but relation names collide."""


class UnknownRelation(FraisseError):
    """A relation name is not part of the signature in scope."""


class OutOfRange(FraisseError):
    """A tuple entry or index is outside the structure's universe."""


class NotBijective(FraisseError):
    """A map that must be a bijection is not one."""


class NotAnEmbedding(FraisseError):
    """A map fails to preserve and reflect some relation."""


class TransitivityOnNonBinary(FraisseError):
    """Transitivity was requested for a relation of arity != 2."""


class NonBinarySignature(FraisseError):
    """An operation restricted to binary signatures got a higher arity."""


class BoundExceeded(FraisseError):
    """An enumeration would exceed the requested size bound."""


class BudgetExceeded(FraisseError):
    """A search exceeded its node budget before reaching a verdict."""


class NotAmalgamation(FraisseError):
    """A class failed an amalgamation precondition."""


class NotParameterFree(FraisseError):
    """An interpretation map with parameters was passed where a
    parameter-free one is required."""


class NotReductive(FraisseError):
    """A subclass is not reductive in the ambient class: some member has
    no same-size expansion, up to the searched bound."""

    def __init__(self, message, structure=None):
        super().__init__(message)
        self.structure = structure


class CapacityExceeded(FraisseError):
    """A counting capacity was exceeded: more types than available codes."""


class HypothesisUnmet(FraisseError):
    """A construction's hypothesis on the class does not hold."""


class UnderCertifiedTarget(FraisseError):
    """The target model cannot host the witnesses a construction needs."""


class WitnessMissing(FraisseError):
    """A required witness could not be found in the target."""
