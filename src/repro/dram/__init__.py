"""DDR3 DRAM device model.

The model is organized the way the real device is: a :class:`~repro.dram.channel.Channel`
owns ranks, a :class:`~repro.dram.rank.Rank` owns banks and rank-wide timing
state (tRRD/tFAW windows, refresh), and a :class:`~repro.dram.bank.Bank` is a
row-buffer state machine. All timing parameters come from
:class:`~repro.dram.timing.DRAMTimings` presets expressed in DRAM bus cycles
and scaled to CPU cycles by the system's clock ratio.

:class:`~repro.dram.validator.ProtocolValidator` is an independent re-check of
the protocol used by the test suite: it replays observed command streams and
raises on any timing violation, so the device model and the validator guard
each other.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".commands": ("Command", "CommandType"),
        ".timing": (
            "DRAMTimings",
            "DDR3_1066",
            "DDR3_1333",
            "DDR3_1600",
            "scaled_timings",
        ),
        ".bank": ("Bank", "BankState"),
        ".rank": ("Rank",),
        ".channel": ("Channel",),
        ".validator": ("ProtocolValidator",),
    },
)
