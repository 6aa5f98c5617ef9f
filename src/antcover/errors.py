"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid caller-supplied data: malformed graphs, bad ids, bad files."""


class NotBlockGraphError(InputError):
    """A block-graph-only operation received a graph with a non-clique block."""


class SizeLimitError(InputError):
    """The exponential brute-force oracle was asked to exceed its size bound."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee the algorithms rely on failed to hold."""
