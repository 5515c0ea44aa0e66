"""Exception types shared across the package."""


class CspError(Exception):
    """Base class for all package errors."""


class FormatError(CspError):
    """Malformed table, file, or equation system."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else "line %d: %s" % (line, message))


class WnuInvalid(FormatError):
    """Declared operation fails an identity or does not preserve a relation."""

    def __init__(self, message, witness=None, line=None):
        super().__init__(message, line=line)
        self.witness = witness


class SizeError(CspError):
    """A configured size cap was exceeded."""


class ArgumentError(CspError):
    """Invalid argument to an operation."""


class InvariantError(CspError):
    """A structural invariant did not hold."""


class ReductionError(CspError):
    """Attempted domain reduction is empty or not a subuniverse."""


class InternalError(CspError):
    """Solver invariant breach."""


class PreconditionError(InternalError):
    """Operation precondition violated."""


class EmptyRelationError(CspError):
    """Relation unexpectedly empty; upstream no-solution signal."""


class ConfigError(CspError):
    """A capped search was inconclusive where completeness is required."""


class OracleError(InternalError):
    """Caller-supplied oracle gave an inconsistent answer."""


class AffineStructureViolation(InternalError):
    """Observed memberships contradict the promised affine structure."""


class ClassificationError(CspError):
    """No structural outcome applies to the algebra; carries it for triage."""

    def __init__(self, message, algebra=None):
        super().__init__(message)
        self.algebra = algebra
