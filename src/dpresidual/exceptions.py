"""Exception hierarchy shared across the package.

Numeric failures (rank deficiency, series divergence, singular updates)
are kept distinct from configuration/schema problems so the CLI can map
them to different exit codes.
"""


class NumericError(Exception):
    """Base class for numerical failures."""


class RankDeficiencyError(NumericError):
    """System matrix lacks full column rank where the unregularized path requires it."""


class ConvergenceError(NumericError):
    """An iterative series or search exceeded its term budget without converging."""


class SingularUpdateError(NumericError):
    """A distance-one neighbour's Gram is numerically singular."""


class NoResidualError(NumericError):
    """Residual statistic has zero degrees of freedom; the test is undefined."""


class SchemaError(Exception):
    """Configuration document violates the experiment schema."""


class ValidationFailure(Exception):
    """Monte Carlo validation disagreed with the analytic prediction."""
