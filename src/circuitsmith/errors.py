"""Exception types shared across the package."""

from __future__ import annotations


class CircuitsmithError(Exception):
    """Base class for all library errors."""


class MalformedInputError(CircuitsmithError):
    """Raw input data violates a basic well-formedness rule."""


class NotFoundError(CircuitsmithError):
    """A referenced simplex or vertex is absent from its complex."""


class StructureError(CircuitsmithError):
    """Dimension or containment constraints of a datum are violated."""


class ContractError(CircuitsmithError):
    """An operation was called on data that fails its precondition."""


class MapError(CircuitsmithError):
    """A vertex assignment does not define a simplicial map (or map of pairs)."""


class OrientationError(CircuitsmithError):
    """Raised for non-orientable input; carries the conflict witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(CircuitsmithError):
    """An instance exceeds the configured simplex cap, or homology would
    build a dense matrix over its cell limit."""


class PipelineError(CircuitsmithError):
    """A certificate pipeline stage failed; later stages were not run."""

    def __init__(self, stage: str, message: str, witnesses=(), unknown: bool = False):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.witnesses = tuple(witnesses)
        self.unknown = unknown
