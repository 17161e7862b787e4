"""Set-associative cache model (used as the private per-core LLC)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".cache": ("Cache", "AccessResult"),
        ".replacement": (
            "LRUPolicy",
            "RandomPolicy",
            "ReplacementPolicy",
            "make_policy",
        ),
    },
)
