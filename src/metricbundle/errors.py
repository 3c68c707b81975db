"""Exception hierarchy shared by all metricbundle modules."""

from __future__ import annotations


class MetricBundleError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(MetricBundleError):
    pass


class NotHermitianError(MetricBundleError):
    pass


class NotPositiveDefiniteError(MetricBundleError):
    pass


class SingularMatrixError(MetricBundleError):
    pass


class EigenConvergenceError(MetricBundleError):
    pass


class ProfileSyntaxError(MetricBundleError):
    """Parse failure in a time-profile expression; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(MetricBundleError):
    """Numeric failure in a profile expression (at a node's offset) or an operator (None)."""

    def __init__(self, message: str, offset: int | None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class SchemaError(MetricBundleError):
    """Scenario file violates the schema; carries a JSON pointer, or "" for none."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


class NoPositiveDefiniteSolutionError(MetricBundleError):
    """The stationarity equation has no positive-definite metric solution."""

    def __init__(self, message: str, degenerate: bool = False):
        super().__init__(message)
        self.degenerate = degenerate


class NonFiniteError(MetricBundleError):
    """An integration channel left the finite range (blow-up)."""

    def __init__(self, message: str, node_index: int, time: float, channel: str):
        super().__init__(f"{message} (node {node_index}, t = {time!r}, channel {channel})")
        self.node_index = node_index
        self.time = time
        self.channel = channel


class StepLimitExceededError(MetricBundleError):
    pass
