"""Exception types shared across the package."""


class UsageError(ValueError):
    """A caller violated a precondition (bad index, mismatched resolution, ...)."""


class DataError(ValueError):
    """Input data is unusable (non-finite samples, wrong shape, ...)."""

