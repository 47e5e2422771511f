"""Exception types raised across the package.

Every error that callers are expected to handle derives from TeleoError, so
CLI-level code can catch one type and turn it into a diagnostic.
"""


class TeleoError(Exception):
    """Base class for all errors raised by this package."""


class ModelStructureError(TeleoError):
    """A model violates a structural invariant (cycle, missing mechanism,
    undeclared edge endpoint, non-total mechanism table, ...)."""


class UnknownVariableError(TeleoError):
    """A named variable does not exist in the model at hand."""


class EmptyTableError(TeleoError):
    """A probability query was asked of an empty world table."""


class TeleologyError(TeleoError):
    """A final-model construction is invalid: intended effects outside the
    action's causal descendants, or arrow reversal would create a cycle."""


class GoalError(TeleoError):
    """A goal predicate is malformed or unsatisfiable over the domains."""


class DatasetError(TeleoError):
    """Observational data could not be parsed or violates a domain."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BindingError(TeleoError):
    """A dataset's columns do not match the model it is confronted with."""


class BudgetError(TeleoError):
    """A size known before any work starts (worlds, domain levels, parent
    combinations, candidates) is over its cap, so nothing that big is built."""

    def __init__(self, message: str, size: int, cap: int):
        self.size, self.cap = size, cap
        super().__init__(message)


class EnumerationBudgetError(BudgetError):
    """Hypothesis enumeration would exceed the configured candidate cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        message = f"hypothesis enumeration needs {required} candidates, cap is {cap}"
        super().__init__(message, required, cap)


class ComparisonError(TeleoError):
    """Two hypotheses built over different base models were compared."""


class ReductionError(TeleoError):
    """A causal reduction cannot be built for this final model."""


class DegenerateReductionError(ReductionError):
    """The goal is not achievable by any action level in any context, so the
    intention variable could never trigger."""


class SpecSyntaxError(TeleoError):
    """A model-spec document failed to parse or validate."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{at}: {message}")
