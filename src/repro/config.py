"""Configuration dataclasses for the whole simulated system.

Everything tunable lives here, grouped by subsystem, with validation at
construction time so a bad experiment definition fails before any simulation
work happens. :class:`SystemConfig` is the single object the system builder
consumes.

Defaults model the evaluation configuration (calibrated so the paper's
contention regime is reproduced — see DESIGN.md, "Configuration
calibration"): four 3.2 GHz cores over DDR3-1066 (clock ratio 6), two
channels of one rank with eight banks (8 bank colors, 16 banks total), and
512 KB of private last-level cache per core.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict

from .dram.timing import DRAMTimings, preset, scaled_timings
from .errors import ConfigError
from .utils import ilog2, is_power_of_two


def _check_ints(config: Any) -> None:
    """Reject an int field holding a non-int (``bool`` and floats included)
    or a value below its minimum, as declared in ``config.INT_FIELDS``.

    Runs first in every ``__post_init__``, so the arithmetic checks after it
    only ever see ints, and a ``2.5``-wide core or a ``1.5``-deep queue
    fails here instead of producing float-cycle results.
    """
    for name, minimum in config.INT_FIELDS.items():
        value = getattr(config, name)
        if type(value) is not int:
            raise ConfigError(f"{name} must be an int, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class DRAMOrganization:
    """Physical organization of the memory system.

    ``row_size_bytes`` is the per-bank row-buffer size. Bank partitioning by
    page coloring requires the row buffer to be at least one page, so the
    bank/channel address bits sit above the page offset where the OS can
    steer them.
    """

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    rows_per_bank: int = 8192
    row_size_bytes: int = 8192
    line_size: int = 64

    #: Every int field and its minimum (see :func:`_check_ints`).
    INT_FIELDS: ClassVar[Dict[str, int]] = dict(
        channels=1, ranks_per_channel=1, banks_per_rank=1,
        rows_per_bank=1, row_size_bytes=1, line_size=1,
    )

    def __post_init__(self) -> None:
        _check_ints(self)
        for name in self.INT_FIELDS:
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigError(f"{name} must be a power of two, got {value}")
        if self.row_size_bytes < self.line_size:
            raise ConfigError("row_size_bytes must be >= line_size")

    @property
    def banks_per_channel(self) -> int:
        """Independently schedulable banks in one channel (ranks x banks)."""
        return self.ranks_per_channel * self.banks_per_rank

    @property
    def total_banks(self) -> int:
        """All banks in the system."""
        return self.channels * self.banks_per_channel

    @property
    def capacity_bytes(self) -> int:
        """Total DRAM capacity."""
        return (
            self.channels
            * self.ranks_per_channel
            * self.banks_per_rank
            * self.rows_per_bank
            * self.row_size_bytes
        )


@dataclass(frozen=True)
class CoreConfig:
    """Simplified out-of-order core model parameters.

    The core retires up to ``width`` instructions per cycle, holds up to
    ``rob_size`` instructions in flight, and can have up to ``mshrs``
    outstanding memory requests (its memory-level parallelism cap).
    """

    width: int = 4
    rob_size: int = 128
    mshrs: int = 32

    INT_FIELDS: ClassVar[Dict[str, int]] = dict(width=1, rob_size=1, mshrs=1)

    def __post_init__(self) -> None:
        _check_ints(self)
        if self.rob_size < self.width:
            raise ConfigError("rob_size must be >= width")


@dataclass(frozen=True)
class CacheConfig:
    """Private per-core last-level cache in front of the memory system."""

    size_bytes: int = 512 * 1024
    associativity: int = 8
    line_size: int = 64
    hit_latency: int = 12  # CPU cycles
    writeback: bool = True

    INT_FIELDS: ClassVar[Dict[str, int]] = dict(
        size_bytes=1, associativity=1, line_size=1, hit_latency=1
    )

    def __post_init__(self) -> None:
        _check_ints(self)
        if not is_power_of_two(self.line_size):
            raise ConfigError("cache line_size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ConfigError(
                "cache size must be a multiple of associativity * line_size"
            )
        num_sets = self.size_bytes // (self.associativity * self.line_size)
        if not is_power_of_two(num_sets):
            raise ConfigError("number of cache sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)


@dataclass(frozen=True)
class ControllerConfig:
    """Per-channel memory controller parameters.

    ``scheduler`` names a registered request scheduler (see
    :mod:`repro.memctrl.schedulers`); ``scheduler_params`` is forwarded to
    its constructor. Writes are buffered and drained in bursts between the
    high and low watermarks, the standard write-drain policy.
    """

    read_queue_depth: int = 64
    write_queue_depth: int = 64
    write_high_watermark: int = 48
    write_low_watermark: int = 16
    scheduler: str = "frfcfs"
    scheduler_params: Dict[str, object] = field(default_factory=dict)
    refresh_enabled: bool = True
    #: Row-buffer management: "open" keeps rows open after a CAS (banking
    #: on locality); "closed" precharges a bank as soon as no queued
    #: request targets its open row (banking on conflicts).
    page_policy: str = "open"

    INT_FIELDS: ClassVar[Dict[str, int]] = dict(
        read_queue_depth=1, write_queue_depth=1,
        write_high_watermark=1, write_low_watermark=1,
    )

    def __post_init__(self) -> None:
        # Local import: readers import `repro.config` without ever
        # building a config, and the registry loads every scheduler.
        from .memctrl.schedulers import check_scheduler_params

        _check_ints(self)
        check_scheduler_params(self.scheduler, self.scheduler_params)
        if self.page_policy not in ("open", "closed"):
            raise ConfigError("page_policy must be 'open' or 'closed'")
        if not (
            0 < self.write_low_watermark
            < self.write_high_watermark
            <= self.write_queue_depth
        ):
            raise ConfigError(
                "need 0 < write_low_watermark < write_high_watermark "
                "<= write_queue_depth"
            )


@dataclass(frozen=True)
class OSConfig:
    """OS memory-management parameters (paging and migration)."""

    page_size: int = 4096
    migration_enabled: bool = True
    #: "remap": all misplaced pages move at the epoch boundary, copy traffic
    #: charged for the hottest ``migration_budget_pages`` (steady-state
    #: model); "budget": only that many pages move at all (strict model).
    migration_mode: str = "remap"
    migration_budget_pages: int = 16  # pages whose copy traffic is modelled
    migration_lines_per_page: int = 8  # modelled DRAM traffic per moved page

    INT_FIELDS: ClassVar[Dict[str, int]] = dict(
        page_size=1, migration_budget_pages=0, migration_lines_per_page=0
    )

    def __post_init__(self) -> None:
        _check_ints(self)
        if not is_power_of_two(self.page_size):
            raise ConfigError("page_size must be a power of two")
        if self.migration_mode not in ("remap", "budget"):
            raise ConfigError("migration_mode must be 'remap' or 'budget'")


@dataclass(frozen=True)
class PrefetcherConfig:
    """Per-core stride prefetcher parameters (an extension — off by
    default, matching the paper family's no-prefetching methodology).

    See :class:`repro.cpu.prefetcher.StridePrefetcher` for the mechanism.
    """

    enabled: bool = False
    degree: int = 2  # prefetches issued per trained access
    distance: int = 4  # how far ahead (in strides) the first prefetch lands
    table_entries: int = 16  # tracked regions (LRU replacement)

    INT_FIELDS: ClassVar[Dict[str, int]] = dict(
        degree=1, distance=1, table_entries=1
    )

    def __post_init__(self) -> None:
        _check_ints(self)


@dataclass(frozen=True)
class SystemConfig:
    """Everything the system builder needs to instantiate a simulation."""

    num_cores: int = 4
    clock_ratio: int = 6  # CPU cycles per DRAM bus cycle
    dram_preset: str = "DDR3-1066"
    organization: DRAMOrganization = field(default_factory=DRAMOrganization)
    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    osmm: OSConfig = field(default_factory=OSConfig)
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    #: Permutation-based bank interleaving (bank bits XOR low row bits) —
    #: the hardware alternative to partitioning. Defeats page coloring, so
    #: only meaningful with the shared policy (experiment F12).
    bank_xor_interleave: bool = False
    seed: int = 1

    INT_FIELDS: ClassVar[Dict[str, int]] = dict(
        num_cores=1, clock_ratio=1, seed=0
    )

    def __post_init__(self) -> None:
        _check_ints(self)
        preset(self.dram_preset)  # raises on unknown names
        if self.cache.line_size != self.organization.line_size:
            raise ConfigError(
                "cache line size must match DRAM line size "
                f"({self.cache.line_size} != {self.organization.line_size})"
            )
        if self.osmm.page_size < self.organization.line_size:
            raise ConfigError(
                "page must hold at least one line "
                f"({self.osmm.page_size} < {self.organization.line_size})"
            )
        if self.organization.row_size_bytes < self.osmm.page_size:
            raise ConfigError(
                "row buffer must be at least one page for page-coloring "
                "bank partitioning "
                f"({self.organization.row_size_bytes} < {self.osmm.page_size})"
            )
        if self.num_cores > self.organization.banks_per_channel:
            raise ConfigError(
                "need at least one bank color per core "
                f"({self.num_cores} cores > "
                f"{self.organization.banks_per_channel} colors)"
            )

    @property
    def timings(self) -> DRAMTimings:
        """Device timings scaled to CPU cycles."""
        return scaled_timings(preset(self.dram_preset), self.clock_ratio)

    @property
    def bank_colors(self) -> int:
        """Number of partitionable bank colors (rank x bank, per channel)."""
        return self.organization.banks_per_channel

    @property
    def page_offset_bits(self) -> int:
        return ilog2(self.osmm.page_size)

    def with_scheduler(self, name: str, **params: object) -> "SystemConfig":
        """A copy of this config using a different memory scheduler."""
        controller = replace(
            self.controller, scheduler=name, scheduler_params=dict(params)
        )
        return replace(self, controller=controller)

    def alone(self) -> "SystemConfig":
        """The system every alone-run baseline is measured on: this machine
        with one core and plain FR-FCFS (no policy partitions anything)."""
        return replace(self, num_cores=1).with_scheduler("frfcfs")

    def describe(self) -> str:
        """Human-readable configuration summary (the paper's Table 1)."""
        org = self.organization
        timings = preset(self.dram_preset)
        lines = [
            f"Cores            : {self.num_cores}, {self.core.width}-wide, "
            f"{self.core.rob_size}-entry ROB, {self.core.mshrs} MSHRs",
            f"Clock            : {self.clock_ratio} CPU cycles per DRAM bus cycle",
            f"Private LLC      : {self.cache.size_bytes // 1024} KB per core, "
            f"{self.cache.associativity}-way, {self.cache.line_size} B lines, "
            f"{self.cache.hit_latency}-cycle hit",
            f"DRAM             : {timings.name}, {org.channels} channels x "
            f"{org.ranks_per_channel} ranks x {org.banks_per_rank} banks",
            f"Row buffer       : {org.row_size_bytes} B per bank; "
            f"{org.rows_per_bank} rows per bank; "
            f"{org.capacity_bytes // (1 << 20)} MB total",
            f"Bank colors      : {self.bank_colors} (partitioning unit)",
            f"Controller       : {self.controller.scheduler}, "
            f"{self.controller.read_queue_depth}-entry read queue, "
            f"{self.controller.write_queue_depth}-entry write queue "
            f"(drain {self.controller.write_high_watermark}/"
            f"{self.controller.write_low_watermark})",
            f"OS               : {self.osmm.page_size} B pages, migration "
            f"{'on' if self.osmm.migration_enabled else 'off'} "
            f"(budget {self.osmm.migration_budget_pages} pages)",
        ]
        return "\n".join(lines)
