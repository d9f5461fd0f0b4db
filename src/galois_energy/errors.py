"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Two vector-valued arguments disagree on dimension."""


class InvalidGameError(ValueError):
    """A game graph violates its structural invariants.

    Carries the full list of violations found by ``GameGraph.validate``.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class GameFileError(ValueError):
    """A game or instance file cannot be parsed."""


class IterationCapExceeded(RuntimeError):
    """The solver hit its safety cap before reaching a fixed point.

    Keeps the last two front maps (``ParetoFront`` per position) so the
    divergence can be inspected; when the cap fired before the first pass
    (a cap of 0), ``previous`` maps every position to the empty front.
    ``growing`` maps each position whose front gained rows in the last
    pass to the number of rows it gained; the message names them.
    """

    def __init__(self, cap: int, previous, current, growing):
        still = ", ".join(f"{g} (+{count})" for g, count in growing.items())
        super().__init__(f"no fixed point within {cap} iterations; still growing: {still}")
        self.cap = cap
        self.previous = previous
        self.current = current
        self.growing = growing


class MagnitudeOverflow(OverflowError):
    """A value the solver would compute does not fit its int64 rows.

    Raised before any arithmetic can wrap: for an edge parameter outside
    int64, and for a front value that pulling back over an incoming edge
    could carry past the int64 maximum.
    """


class OracleCapacityError(RuntimeError):
    """The brute-force oracle exceeded its configuration budget, or its clip
    bound lets a move leave the int64 range."""


class StrategyError(RuntimeError):
    """A solved game offered no consistent move; indicates a broken fixed point."""
