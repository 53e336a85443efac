"""Exception types shared across the workbench."""

from __future__ import annotations


class GsosError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicateId(GsosError):
    pass


class DanglingEdge(GsosError):
    pass


class UnknownLabel(GsosError):
    pass


class UnknownState(GsosError):
    pass


class UnknownOperation(GsosError):
    pass


class ShapeUnsupported(GsosError):
    pass


class NonCommutingSquare(GsosError):
    pass


class MalformedProof(GsosError):
    pass


class CellMismatch(GsosError):
    pass


class NotAFunctionalBisim(GsosError):
    pass


class IncompatiblePair(GsosError):
    pass


class FuelTooSmall(GsosError):
    pass


class MalformedSystem(GsosError):
    """An input document is not of the expected form."""


class NestingTooDeep(GsosError):
    """An input is nested deeper than the recursive walks can follow."""


class OutOfMemory(GsosError):
    """An input needs more memory than the process may use."""


class ReplayMismatch(GsosError):
    """Certificate replay diverged; carries the first offending step index."""

    def __init__(self, step_index: int, message: str):
        self.step_index = step_index
        super().__init__(f"step {step_index}: {message}")


class SpecParseError(GsosError):
    """Raised when a specification text fails to parse or validate.

    ``violations`` is a list of Violation records, each carrying the kind
    (e.g. "SyntaxError", "NonGsosSource"), a location and a message.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} violation(s): {lines}{more}")
