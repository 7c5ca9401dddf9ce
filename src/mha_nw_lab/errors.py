"""Exception types shared across the lab.

Every public operation raises one of these instead of a bare ValueError so
batch drivers can tell a usage mistake from a numerical event.
"""

from __future__ import annotations


class LabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(LabError):
    """Operands have incompatible shapes; the message names both."""


class RankDeficient(LabError):
    """A matrix expected to have full column rank does not.

    Carries the detected numerical rank.
    """

    def __init__(self, message: str, detected_rank: int):
        super().__init__(message)
        self.detected_rank = detected_rank


class UnsupportedFamily(LabError):
    """Unknown regression-function family name."""


class DegenerateKernel(LabError):
    """All raw kernel values underflowed to zero."""


class NeedsTwoHeads(LabError):
    """A diversity quantity requires at least two heads."""


class Infeasible(LabError):
    """A requested construction violates its dimension constraint."""


class OptimizationStalled(LabError):
    """The projection optimizer stopped making progress; carries the trace."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


class ReplicateFailure(LabError):
    """A Monte-Carlo replicate produced a non-finite estimate.

    Carries (replicate, head, query) indices of the first offender.
    """

    def __init__(self, message: str, replicate: int, head: int, query: int):
        super().__init__(message)
        self.replicate = replicate
        self.head = head
        self.query = query


class DensityTooSmall(LabError):
    """Projected input density at a query is below the usable floor."""


class EmptySweep(LabError):
    """Every allocation in an architecture sweep was infeasible."""


class WeightFileError(LabError):
    """A head-weight document failed to parse or validate."""


class ConfigError(LabError):
    """A run configuration is malformed; the message names the field."""
