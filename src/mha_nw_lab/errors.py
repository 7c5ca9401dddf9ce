"""Exception types shared across the lab, and the one JSON reader.

Every public operation raises one of these instead of a bare ValueError so
batch drivers can tell a usage mistake from a numerical event.  ``read_json``
reads configs and weight files alike, mapping each way a file can fail onto
one error of the caller's class.
"""

from __future__ import annotations

import json


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


class EmptySweep(LabError):
    """Every allocation in an architecture sweep was infeasible."""


class WeightFileError(LabError):
    """A head-weight document failed to parse or validate."""


class ConfigError(LabError):
    """A run configuration is malformed; the message names the field."""


def read_json(path, error: type[LabError], what: str):
    """The JSON document in the UTF-8 file at ``path``.  A file that cannot be
    read, is not UTF-8, does not parse (the message carries the byte offset,
    counted in the file's bytes: the text is decoded whole, newlines kept) or
    repeats a key within one object raises ``error``, naming ``what`` and the
    path: json keeps a repeated key's last value, so its first would neither
    act nor be rejected."""
    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise error(f"{what} {path}: repeated key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[:exc.pos].encode("utf-8"))
        raise error(f"{what} {path}: parse error at byte offset {offset}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not UTF-8 text: byte offset {exc.start}: "
                    f"{exc.reason}") from exc
    except OSError as exc:
        raise error(f"{what} {path}: {exc}") from exc
