"""Small shared helpers: integer math, statistics, and deterministic RNG.

Nothing here knows about DRAM or scheduling; these are the generic utilities
the rest of the package builds on.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Sequence

from .errors import ConfigError


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Exact integer log2 of a power of two.

    Raises :class:`ConfigError` for non powers of two, because every caller
    in this package uses it to size address bit-fields.
    """
    if not is_power_of_two(value):
        raise ConfigError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if denominator <= 0:
        raise ConfigError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range [low, high]."""
    if low > high:
        raise ConfigError(f"empty clamp range [{low}, {high}]")
    return max(low, min(high, value))


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Used for summarizing normalized performance numbers; an empty input is a
    caller bug, so it raises.
    """
    items = list(values)
    if not items:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in items):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def largest_remainder_shares(weights: Sequence[float], total: int) -> List[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Uses the largest-remainder method so the shares always sum exactly to
    ``total``. Zero weights receive zero units. Ties are broken by index for
    determinism.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    weight_sum = sum(weights)
    if weight_sum == 0 or total == 0:
        return [0] * len(weights)
    exact = [total * w / weight_sum for w in weights]
    floors = [int(math.floor(x)) for x in exact]
    leftover = total - sum(floors)
    remainders = sorted(
        range(len(weights)), key=lambda i: (-(exact[i] - floors[i]), i)
    )
    for i in remainders[:leftover]:
        floors[i] += 1
    return floors


def make_rng(seed: int, *stream: object) -> random.Random:
    """Create a deterministic RNG for a named stream.

    ``stream`` components (thread ids, phase names, ...) are folded into the
    seed so that independent parts of the simulator draw from independent,
    reproducible streams regardless of call ordering.
    """
    mixed = seed & 0xFFFFFFFF
    for part in stream:
        for ch in repr(part):
            mixed = (mixed * 1000003 + ord(ch)) & 0xFFFFFFFFFFFFFFFF
    return random.Random(mixed)
