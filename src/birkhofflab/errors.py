"""Exception types shared across the package.

Each error derives from :class:`BirkhofflabError` through one category,
which carries the command line's exit code and stderr prefix, and keeps its
builtin base, ``ValueError`` or ``RuntimeError``.
"""


class BirkhofflabError(Exception):
    """Base of the package's errors."""

    exit_code = 2
    prefix = "error"


class UsageError(BirkhofflabError):
    """Malformed input or options (exit 2)."""


class RefusedError(BirkhofflabError):
    """A hypothesis is not met, so no verdict is given (exit 3)."""

    exit_code = 3
    prefix = "refused"


class ComputationError(BirkhofflabError):
    """A computation on admissible input failed (exit 4)."""

    exit_code = 4


class ModelInvalidError(UsageError, ValueError):
    """A metric model violates its admissibility conditions (e.g. K <= 0)."""


class ChartDomainError(UsageError, ValueError):
    """A chart coordinate lies outside its admissible range."""


class PreconditionError(UsageError, ValueError):
    """An operation was called outside its documented preconditions."""


class IntegrationFailure(ComputationError, RuntimeError):
    """Adaptive step size underflowed.  Carries the last good state."""

    def __init__(self, message, t=None, last_state=None):
        super().__init__(message)
        self.t = t
        self.last_state = last_state


class NoConvergenceError(ComputationError, RuntimeError):
    """An iterative refinement (Newton/shooting) failed to converge."""


class ReturnFailure(ComputationError, RuntimeError):
    """An orbit grazed the section or did not return within the horizon."""


class InternalConsistencyError(ComputationError, RuntimeError):
    """A postcondition that should hold for admissible inputs failed."""


class SectionInvalidError(RefusedError, ValueError):
    """The base curve cannot carry a transversal annulus (e.g. not simple)."""


class PinchingViolationError(RefusedError, RuntimeError):
    """Geometric hypotheses behind the lift construction fail numerically
    (e.g. a return arc self-intersects)."""


class NonIntegrableFormError(RefusedError, ValueError):
    """A discrete one-form failed its closure test; the input map does not
    preserve the reference area form."""


class NotGeneratingError(RefusedError, ValueError):
    """A candidate generating function does not define a map on the strip."""


class AuditRefused(RefusedError, RuntimeError):
    """The audit hypotheses are not met; no verdict is produced."""
