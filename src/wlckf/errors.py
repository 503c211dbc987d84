"""Exception types shared across the package."""


class WlckfError(ValueError):
    """Base of the package's errors: each means an input the computation cannot take.

    ``index``, when not None, is the position of the offending member in a
    batched call, as a tuple over the batch axes.
    """

    def __init__(self, *args, index: tuple | None = None):
        super().__init__(*args)
        self.index = index


class DimensionError(WlckfError):
    """Inputs have inconsistent or invalid dimensions."""


class ConsistencyError(WlckfError):
    """A structural invariant (conjugate symmetry, block pattern, symmetry) is violated."""


class NotPSDError(WlckfError):
    """A matrix required to be positive semidefinite is not."""


class DegenerateError(WlckfError):
    """A quantity is degenerate (zero variance, zero denominator)."""


class UnsupportedModelError(WlckfError):
    """The model is outside what the requested filter supports."""


class WorkerError(RuntimeError):
    """A worker process ended without sending its results."""
