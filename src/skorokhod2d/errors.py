"""Exception types shared across the package: each derives from
`SkorokhodError` and from the stdlib class that fits it."""


class SkorokhodError(Exception):
    """Base of every error the package raises on purpose."""


class ExactnessError(SkorokhodError, ArithmeticError):
    """An operation in exact mode would require rounding."""


class UsageError(SkorokhodError, ValueError):
    """Inputs violate an operation's contract (mode mismatch, bad flags, ...)."""


class DomainError(SkorokhodError, ValueError):
    """A query point lies outside a path's time domain."""


class InvalidMatrixError(SkorokhodError, ValueError):
    """A matrix fails the structural requirements (e.g. nonpositive diagonal)."""


class ConstructionError(SkorokhodError, ValueError):
    """A counterexample construction was requested with invalid parameters."""


class StepInfeasibleError(SkorokhodError, RuntimeError):
    """No admissible support set exists for a complementarity step."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class DivergenceError(SkorokhodError, ArithmeticError):
    """The fixed-point sweeps overflowed: the iteration diverges, as it can for
    a matrix that is not completely-S."""

    def __init__(self, round_index: int, sweep: int):
        super().__init__(
            f"fixed-point iteration diverged: overflow in sweep {sweep} (round {round_index})"
        )
        self.round_index = round_index
        self.sweep = sweep
