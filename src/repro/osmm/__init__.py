"""OS memory management: page-coloring allocator, page tables, migration."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".allocator": ("ColorAwareAllocator",),
        ".page_table": ("PageTable",),
        ".migration": ("MigrationEngine", "MigrationPlan"),
    },
)
