"""Partitioning policy interface.

A policy decides which bank colors (and channels) each thread may allocate
from. Static policies set constraints once; dynamic policies also receive a
profile snapshot every epoch. The :class:`PartitionContext` wraps the
allocator, page tables, and migration engine so policies can change
constraints and move already-resident pages with one call, with the copy
traffic injected into the real memory system.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, Optional

from ..errors import ConfigError
from ..mapping import AddressMap
from ..memctrl.schedulers.base import ProfileSnapshot
from ..osmm import ColorAwareAllocator, MigrationEngine, MigrationPlan, PageTable


class PartitionContext:
    """Everything a partitioning policy may act on."""

    def __init__(
        self,
        allocator: ColorAwareAllocator,
        address_map: AddressMap,
        page_tables: Dict[int, PageTable],
        migration: Optional[MigrationEngine],
        inject_copy_traffic: Callable[[MigrationPlan], None],
    ) -> None:
        self.allocator = allocator
        self.address_map = address_map
        self.page_tables = page_tables
        self.migration = migration
        self.inject_copy_traffic = inject_copy_traffic

    @property
    def num_threads(self) -> int:
        return len(self.page_tables)

    @property
    def total_bank_colors(self) -> int:
        return self.address_map.bank_colors

    @property
    def total_channels(self) -> int:
        return self.address_map.org.channels

    def apply_bank_colors(
        self, thread_id: int, colors: Iterable[int], migrate: bool = True
    ) -> int:
        """Constrain a thread to ``colors``; returns pages migrated."""
        color_set = frozenset(colors)
        self.allocator.set_thread_colors(thread_id, color_set)
        if migrate and self.migration is not None:
            plan = self.migration.migrate(self.page_tables[thread_id], color_set)
            if plan.moved_pages:
                self.inject_copy_traffic(plan)
            return plan.moved_pages
        return 0

    def apply_channels(
        self, thread_id: int, channels: Iterable[int], migrate: bool = True
    ) -> int:
        """Constrain a thread to ``channels``; returns pages migrated."""
        channel_set = frozenset(channels)
        self.allocator.set_thread_channels(thread_id, channel_set)
        if migrate and self.migration is not None:
            plan = self.migration.migrate(
                self.page_tables[thread_id],
                self.allocator.thread_colors(thread_id),
                channel_set,
            )
            if plan.moved_pages:
                self.inject_copy_traffic(plan)
            return plan.moved_pages
        return 0


class PartitionPolicy(abc.ABC):
    """Base class for partitioning policies."""

    #: Registry / report name; subclasses override.
    name = "base"
    #: Repartitioning period in CPU cycles; None for static policies.
    epoch_cycles: Optional[int] = None

    @abc.abstractmethod
    def initialize(self, context: PartitionContext) -> None:
        """Set the initial constraints (before any instruction runs)."""

    def on_epoch(self, snapshot: ProfileSnapshot, context: PartitionContext) -> None:
        """React to an epoch's profile (dynamic policies only)."""


_REGISTRY: Dict[str, type] = {}


def register_policy(cls: type) -> type:
    """Class decorator adding a policy to the by-name registry."""
    _REGISTRY[cls.name] = cls
    return cls


def policy_registry() -> Dict[str, type]:
    """Name → class, with every built-in policy registered.

    Registration is a side effect of importing a policy's module and no
    package ``__init__`` imports them eagerly, so by-name lookups load the
    built-ins here first.
    """
    from ..core import combined, dbp  # noqa: F401
    from . import equal, fixed, mcp, shared  # noqa: F401

    return _REGISTRY


def make_policy(name: str, **params: object) -> PartitionPolicy:
    """Instantiate a partitioning policy by registry name."""
    try:
        cls = policy_registry()[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(
            f"unknown partition policy {name!r}; known: {known}"
        ) from None
    return cls(**params)


def policy_names() -> list:
    """All registered policy names."""
    return sorted(policy_registry())
