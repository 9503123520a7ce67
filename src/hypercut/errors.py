"""Exception hierarchy shared by all hypercut modules."""


class HypercutError(Exception):
    """Base class for all errors raised by this package."""


class InvalidVertex(HypercutError):
    """A vertex id lies outside [0, n_vertices)."""


class InvalidEdge(HypercutError):
    """An edge is empty or repeats a vertex."""


class InvalidCut(HypercutError):
    """A cut does not match the instance it is applied to."""


class InvalidParams(HypercutError):
    """Parameters outside the admissible range of an operation."""


class InvalidArity(HypercutError):
    """An operation requires a specific edge-size profile."""


class InvalidExposure(HypercutError):
    """A partial exposure assigns parts outside its allowed range."""


class InvalidReduction(HypercutError):
    """Input violates a reduction precondition."""


class PlanInvalid(HypercutError):
    """A combination plan violates the disjoint-spread hypothesis."""

    def __init__(self, message, offending_edges=()):
        super().__init__(message)
        self.offending_edges = list(offending_edges)


class SearchFailed(HypercutError):
    """A randomized search exhausted its retry budget."""


class DriverInapplicable(HypercutError):
    """Instance does not meet a driver's structural precondition."""


class OracleInfeasible(HypercutError):
    """Exact enumeration would exceed the configured size limits."""


class CertificateError(HypercutError):
    """A machine-checked size relation failed; indicates a bug, never input."""


class GuaranteeViolation(HypercutError):
    """A deterministic ledger promise was not met; indicates a bug."""
