"""Physical address mapping and page-color extraction."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".address": ("AddressMap", "MemLocation"),
    },
)
