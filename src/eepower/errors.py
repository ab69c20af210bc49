"""Exception types shared across the solvers and the CLI."""


class PowerControlError(Exception):
    """Base class for solver-level failures.

    row is the index of the failing instance when a solver or pipeline
    working on many rows or trials at once raised the error, else None.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class InfeasibleError(PowerControlError):
    """The requested allocation problem has no usable solution."""

