"""Exception types shared across the package."""


class SchedError(Exception):
    """Base class for all scheduling errors."""


class SchemaError(SchedError):
    """Instance or certificate text does not match the documented schema."""


class ProbSumError(SchemaError):
    """Probabilities of a distribution do not sum to one."""


class ZeroMeanError(SchedError):
    """A distribution with zero mean where a positive mean is required."""


class ForbiddenPairError(SchedError):
    """A job was used on a machine that cannot process it."""


class UnschedulableError(SchedError):
    """A job has no machine that can process it."""


class NotAPolicyDistributionError(SchedError):
    """Start-time probabilities that do not sum to one for some job."""


class HorizonTooSmallError(SchedError):
    """The time-indexed horizon cannot hold any feasible schedule."""


class InfeasibleError(SchedError):
    """Linear program has no feasible point."""


class UnboundedError(SchedError):
    """Linear program objective is unbounded."""


class TooLargeError(SchedError):
    """Enumeration or DP limits exceeded; the oracle would not finish."""


class BadMError(SchedError):
    """Machine count not divisible by every h^2 up to k."""


class HypothesisViolatedError(SchedError):
    """A stopping process broke one of its stated hypotheses."""


class RequiresFGeq2Error(SchedError):
    """Speed scaling argument needs f >= 2."""


class SmallMeanWarning(UserWarning):
    """Some expected processing time is below one time unit."""
