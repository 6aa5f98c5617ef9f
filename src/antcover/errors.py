"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid caller-supplied data: malformed graphs, bad ids, bad files."""


class NotBlockGraphError(InputError):
    """A block-graph-only operation received a graph with a non-clique block."""


class SizeLimitError(InputError):
    """An exponential or quadratic fallback (the brute-force oracle, the
    general recogniser behind verify_cover) was asked to exceed its
    configured size bound."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee the algorithms rely on failed to hold."""
