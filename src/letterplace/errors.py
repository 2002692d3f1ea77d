"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class CycleDetected(ToolkitError):
    """The cover relation contains a directed cycle."""


class IdentifierOutOfRange(ToolkitError):
    """An element identifier falls outside 0..n-1."""


class ExplosionGuard(ToolkitError):
    """An enumeration would exceed its configured cap."""


class MixedPosets(ToolkitError):
    """Maps over different posets were combined."""


class NotIsotone(ToolkitError):
    """A value assignment violates the order relation."""


class NotSquarefree(ToolkitError):
    """An operation restricted to squarefree ideals got a non-squarefree one."""


class NotArtinian(ToolkitError):
    """Exact stability testing requires a power of every variable in the ideal."""


class NotAChain(ToolkitError):
    """The operation is defined over totally ordered posets only."""


class NotStronglyStable(ToolkitError):
    """The ideal fails the exchange-move closure test."""


class NotTerrace(ToolkitError):
    """The sequence violates the terrace step condition."""


class InfiniteIdeal(ToolkitError):
    """A finite-only operation was applied to a cofinite-filter ideal."""


class VariableOutsideSource(ToolkitError):
    """The ideal uses a variable outside the projection source."""


class BudgetExceeded(ToolkitError):
    """A degree or pair budget was hit; results are never silently truncated.

    ``work`` holds the counts of the work done before the cap was hit.
    """

    def __init__(self, message: str, work: dict = None):
        super().__init__(message)
        self.work = dict(work or {})
