"""The one exception type the package defines; every other refusal is a ``ValueError``."""


class ResourceLimitError(RuntimeError):
    """A feasibility guard tripped before an infeasible computation started."""
