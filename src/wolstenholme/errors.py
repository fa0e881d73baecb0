"""Exception types shared across the package."""

__all__ = ["FactoringBudgetExceeded", "AssertionFailure", "CheckpointError"]


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


class AssertionFailure(RuntimeError):
    """A verified mathematical claim failed; carries the failing clause."""

    def __init__(self, clause: str, **context):
        self.clause = clause
        self.context = context
        detail = ", ".join(f"{k}={v}" for k, v in context.items())
        super().__init__(f"{clause}" + (f" [{detail}]" if detail else ""))


class CheckpointError(Exception):
    """A checkpoint cannot be resumed: unreadable, malformed, of another
    format version or scan, or not matching the output it covers."""
