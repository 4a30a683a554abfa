"""Exception hierarchy for phsid.

Every error raised by the library derives from :class:`PhsidError`, so
callers (in particular the CLI) can map failure categories to exit codes
without string matching.
"""


class PhsidError(Exception):
    """Base class for all phsid errors."""


class InvalidModelError(PhsidError):
    """A structural invariant (skew-symmetry, symmetry, definiteness) is violated.

    The message names the failed invariant.
    """


class DimensionMismatchError(InvalidModelError):
    """Array shapes of a model, signal or trajectory are inconsistent."""


class MalformedFileError(PhsidError):
    """A model/signal/config/result file could not be parsed."""


class DivergenceError(PhsidError):
    """Non-finite values appeared during time integration.

    Attributes
    ----------
    step : int
        Index of the first step at which a non-finite state was produced.
    """

    def __init__(self, step, detail=""):
        self.step = step
        msg = f"state became non-finite at step {step}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnsupportedDirectionError(PhsidError):
    """A tangent direction with zero or several nonzero blocks was passed
    where a pure (single-block) direction is required."""


class LineSearchError(PhsidError):
    """Armijo backtracking exhausted its halving budget.

    Attributes
    ----------
    last_sigma : float
        The smallest step size that was tried.
    """

    def __init__(self, last_sigma, halvings):
        self.last_sigma = last_sigma
        self.halvings = halvings
        super().__init__(
            f"no admissible step size after {halvings} halvings "
            f"(last tried sigma={last_sigma:g}); the gradient may be wrong or "
            f"the iterate is stationary above the stopping threshold"
        )
