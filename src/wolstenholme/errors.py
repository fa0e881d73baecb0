"""Exception types shared across the package."""

__all__ = [
    "FactoringBudgetExceeded",
    "DenominatorNotCoprime",
    "PreconditionViolated",
    "BudgetExceeded",
    "ConstructionAssertFailure",
    "AssertionFailure",
    "CheckpointError",
    "VersionMismatch",
    "ParamsMismatch",
    "CorruptFile",
    "PrefixMismatch",
]


class FactoringBudgetExceeded(RuntimeError):
    """A modulus resisted factoring within the configured trial-division budget.

    Carries the partial factorization found so far and the unfactored cofactor.
    """

    def __init__(self, n: int, partial: dict, cofactor: int):
        self.n = n
        self.partial = dict(partial)
        self.cofactor = cofactor
        super().__init__(
            f"could not fully factor {n}: partial={partial}, cofactor={cofactor}"
        )


class DenominatorNotCoprime(ValueError):
    """Numerator valuation is undefined when the prime divides the denominator."""


class PreconditionViolated(ValueError):
    """An operation was called outside its stated domain."""


class BudgetExceeded(RuntimeError):
    """A direct (exact) computation was requested beyond its size budget."""


class ConstructionAssertFailure(RuntimeError):
    """An internal consistency check failed while building a polynomial.

    This signals a defect in the construction, never an expected outcome.
    """


class AssertionFailure(RuntimeError):
    """A verified mathematical claim failed; carries the failing clause."""

    def __init__(self, clause: str, **context):
        self.clause = clause
        self.context = context
        detail = ", ".join(f"{k}={v}" for k, v in context.items())
        super().__init__(f"{clause}" + (f" [{detail}]" if detail else ""))


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class VersionMismatch(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class ParamsMismatch(CheckpointError):
    """Checkpoint belongs to a run with different scan parameters."""


class CorruptFile(CheckpointError):
    """Checkpoint file is unreadable or structurally invalid."""


class PrefixMismatch(CheckpointError):
    """The output to resume does not start with the bytes the checkpoint covers."""
