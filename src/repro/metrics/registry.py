"""Simulator-wide metrics registry: counters, gauges, histograms with labels.

The registry is a *pull*-model instrument set, in the Prometheus mold but
with a crucial difference: nothing in the simulator's hot path touches it.
Components keep their cheap native ``stat_*`` counters during the run, and
each exposes a ``collect_metrics(registry)`` method that translates those
counters into labelled instruments *after* (or between) runs. That keeps
the disabled-telemetry cost model intact — collection is O(components),
on demand, and fully deterministic.

Two consumable forms:

* :meth:`MetricsRegistry.snapshot` — a deterministic, JSON-safe dict
  (metrics sorted by name, samples sorted by label values) suitable for
  `RunResult.metrics_snapshot` and the result store;
* :func:`prometheus_text` — the Prometheus text exposition format,
  rendered from a *snapshot* (not the live registry), so a stored snapshot
  renders exactly as ``repro-dbp explain --show metrics`` prints a live one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

#: Default bucket upper bounds (CPU cycles) for latency histograms:
#: powers of two, open-ended last bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    float(1 << i) for i in range(4, 13)
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ConfigError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared machinery of one named instrument family."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        self.name = _check_name(name)
        self.help = help
        self._samples: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def _sample_docs(self) -> List[Dict[str, object]]:
        docs = []
        for key in sorted(self._samples):
            docs.append(
                {"labels": dict(key), "value": self._samples[key]}
            )
        return docs

    def to_doc(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "samples": self._sample_docs(),
        }


class Counter(_Metric):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        return self._samples.get(_label_key(labels), 0)


class Gauge(_Metric):
    """Point-in-time value (per label set)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._samples[_label_key(labels)] = value

    def value(self, **labels: str) -> float:
        return self._samples.get(_label_key(labels), 0)


class Histogram(_Metric):
    """Cumulative-bucket histogram (per label set).

    Buckets are upper bounds; an implicit ``+Inf`` bucket always exists.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        state = self._samples.get(key)
        if state is None:
            state = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0}
            self._samples[key] = state
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        state["counts"][index] += 1
        state["sum"] += value

    def _sample_docs(self) -> List[Dict[str, object]]:
        docs = []
        for key in sorted(self._samples):
            state = self._samples[key]
            counts = state["counts"]
            cumulative = []
            running = 0
            for bound, count in zip(self.buckets, counts):
                running += count
                cumulative.append([bound, running])
            total = running + counts[-1]
            docs.append(
                {
                    "labels": dict(key),
                    "buckets": cumulative,
                    "sum": state["sum"],
                    "count": total,
                }
            )
        return docs


class MetricsRegistry:
    """Named instruments, get-or-create, deterministic snapshot."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ConfigError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe, deterministic dump of every instrument."""
        return {
            "metrics": [
                self._metrics[name].to_doc()
                for name in sorted(self._metrics)
            ]
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition (rendered from snapshots, not live registries,
# so stored RunResult.metrics_snapshot dicts export identically).
# ---------------------------------------------------------------------------
def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash first — escaping it last would corrupt the escapes the
    other two replacements just produced.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (but not quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Dict[str, str], extra: Optional[Tuple] = None) -> str:
    pairs = [(k, str(v)) for k, v in sorted(labels.items())]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in pairs
    )
    return "{" + body + "}"


def prometheus_text(snapshot: Dict[str, object]) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, list):
        raise ConfigError("not a metrics snapshot (missing 'metrics' list)")
    lines: List[str] = []
    for doc in metrics:
        name = doc["name"]
        kind = doc.get("kind", "untyped")
        help_text = doc.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in doc.get("samples", []):
            labels = sample.get("labels", {})
            if kind == "histogram":
                running = 0
                for bound, cumulative in sample["buckets"]:
                    running = cumulative
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(labels, ('le', _format_value(float(bound))))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_bucket"
                    f"{_format_labels(labels, ('le', '+Inf'))}"
                    f" {sample['count']}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(sample['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(sample['value'])}"
                )
    return "\n".join(lines) + "\n"
