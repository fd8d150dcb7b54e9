"""Exception types shared across the library."""


class ValidationError(ValueError):
    """Invalid user input: bad parameter ranges, malformed measures, etc."""


class SpaceMismatchError(ValidationError):
    """Operands live on different metric spaces."""


class BudgetExceededError(RuntimeError):
    """A count would exceed its size limit (`transport._charge`, the one
    place that raises it); `what` names the counted quantity."""

    def __init__(self, size, budget, what):
        self.size = size
        self.budget = budget
        self.what = what
        super().__init__(f"{what} {size} exceeds budget {budget}")


class IncompatibleCurveError(RuntimeError):
    """No multi-coupling with the required optimal 2-D marginals exists."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "compatibility LP infeasible; "
            f"minimal total excess over pairwise optima = {report.max_pair_gap:.3e}"
        )


class NoContinuousLiftError(RuntimeError):
    """The requested family has no lift concentrated on continuous paths."""
