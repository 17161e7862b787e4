"""DRAM command vocabulary.

The controller drives the device exclusively through :class:`Command`
instances; the validator replays the same objects. Keeping the command a
frozen dataclass makes streams hashable and safe to log.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class CommandType(enum.Enum):
    """The five DDR3 commands the model issues."""

    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    PRECHARGE = "PRE"
    REFRESH = "REF"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Command(NamedTuple):
    """One command as placed on a channel's command bus.

    ``cycle`` is the CPU-cycle timestamp at which the command was issued.
    ``row`` is meaningful only for ACTIVATE; REFRESH is rank-wide so ``bank``
    is -1 for it.

    A NamedTuple rather than a frozen dataclass: commands are created on
    the controller's hot path (one per issued DRAM command), and tuple
    construction is several times cheaper while staying immutable,
    hashable, and safe to log.
    """

    cycle: int
    kind: CommandType
    channel: int
    rank: int
    bank: int
    row: int = -1
    thread_id: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        target = f"ch{self.channel}/rk{self.rank}/bk{self.bank}"
        if self.kind is CommandType.ACTIVATE:
            target += f"/row{self.row}"
        return f"@{self.cycle} {self.kind.value} {target}"
