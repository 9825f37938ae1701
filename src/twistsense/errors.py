"""Exception hierarchy for contract violations and numeric failures."""


class TwistsenseError(Exception):
    """Base class for every package-specific error."""


class InvalidDimensionError(TwistsenseError):
    """A dimension or particle count is out of range or nonintegral."""


class DimensionMismatchError(TwistsenseError):
    """Operator and state (or two operators) have incompatible shapes."""


class ContractViolationError(TwistsenseError):
    """A checked numerical invariant failed (hermiticity, norm, variance)."""


class WrongMethodError(TwistsenseError):
    """A scheme was routed to the wrong figure of merit."""


class SingularParameterError(TwistsenseError):
    """A parameter sits on a removable singularity of a closed form."""


class TruncationError(TwistsenseError):
    """A Fock-space simulation leaked population into the truncation edge."""


class PrecisionLossError(TwistsenseError):
    """A result would be dominated by roundoff or overflow the double range."""


class BracketingError(TwistsenseError):
    """A root or threshold search interval does not bracket a sign change."""
