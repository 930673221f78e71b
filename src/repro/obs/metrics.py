"""Zero-dependency metrics: counters, gauges and bounded histograms.

A :class:`MetricsRegistry` is the session-level aggregation point.  Events
are counted where they happen — per call in
:class:`~repro.relational.stats.ExecutionStats` (merged into the session
totals), on the cache in :class:`~repro.relational.plancache.PlanCacheStats`,
in the statistics catalog, in the pool manager — and the registry series for
them are *read-through views* (:meth:`Counter.set_callback` /
:meth:`Gauge.set_callback`) registered once per session: every collection
reads the one stored count, so nothing is double-counted and nothing is
stale.  Only measurements with no other home (latency histograms, served
query counts) are recorded on the registry directly.

Instruments are get-or-create by ``(name, labels)``; a disabled registry
hands out one shared no-op instrument, so instrumented code paths cost a
single ``enabled`` check when metrics are off.  Snapshots render to JSON and
to the Prometheus text exposition format (the serving front end's
``metrics`` op).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram bounds (seconds) — sub-millisecond operators up to
#: multi-second workload passes, roughly log-spaced like Prometheus defaults.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class _Value:
    """A single number, stored or *read-through*.

    :meth:`set_callback` registers a zero-arg callable evaluated at
    collection time, so every snapshot observes the live value of a count
    that is kept where its events happen (the plan cache, the session
    totals, the pool queues) instead of a copy that is only as fresh as the
    last sync.
    """

    __slots__ = ("name", "help", "labels", "_value", "_callback", "_lock")

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else {}
        self._value = 0.0
        self._callback: Any = None
        self._lock = threading.Lock()

    def set_callback(self, callback) -> None:
        """Make this instrument read-through: ``callback()`` supplies the value.

        Collection falls back to the last stored value if the callback
        raises (a dying pool must not take the whole scrape down with it).
        """
        with self._lock:
            self._callback = callback

    @property
    def value(self) -> float:
        with self._lock:
            callback = self._callback
            stored = self._value
        if callback is None:
            return stored
        try:
            return callback()
        except Exception:  # pragma: no cover - defensive scrape path
            return stored

    def series(self) -> dict[str, Any]:
        return {"labels": dict(self.labels), "value": self.value}


class Counter(_Value):
    """A monotonically-increasing value."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (negative increments raise — counters only go up)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount


class Gauge(_Value):
    """A value that can go up and down (queue depth, cache entries, rates)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount


class Histogram:
    """A bounded-bucket distribution (Prometheus-style cumulative ``le``).

    Memory is fixed: one integer per bucket bound plus sum/count — an
    unbounded serving loop cannot grow a histogram.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else {}
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # +1 = the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left gives the first bound >= value: Prometheus ``le`` is
        # inclusive, so a value equal to a bound lands in that bucket.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def series(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, observed = self._sum, self._count
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = observed
        return {
            "labels": dict(self.labels),
            "buckets": cumulative,
            "sum": total,
            "count": observed,
        }


class _NoopInstrument:
    """Shared stand-in when the registry is disabled (every method no-ops)."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_callback(self, callback) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP = _NoopInstrument()


class MetricsSnapshot:
    """A point-in-time, immutable copy of every instrument in a registry."""

    def __init__(self, data: dict[str, Any], enabled: bool = True):
        #: ``{metric name: {"type", "help", "series": [...]}}``
        self.data = data
        self.enabled = enabled

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(
            {"enabled": self.enabled, "metrics": self.data},
            indent=indent,
            sort_keys=True,
        )

    def to_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in sorted(self.data):
            family = self.data[name]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['type']}")
            for series in family["series"]:
                labels = series["labels"]
                if family["type"] == "histogram":
                    for le, count in series["buckets"].items():
                        le_label = {**labels, "le": le}
                        lines.append(
                            f"{name}_bucket{_label_text(le_label)} {count}"
                        )
                    lines.append(f"{name}_sum{_label_text(labels)} {_number(series['sum'])}")
                    lines.append(f"{name}_count{_label_text(labels)} {series['count']}")
                else:
                    lines.append(f"{name}{_label_text(labels)} {_number(series['value'])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def value(self, name: str, labels: dict[str, str] | None = None) -> Any:
        """One series' value (counters/gauges) or dict (histograms)."""
        family = self.data.get(name)
        if family is None:
            raise KeyError(f"no metric named {name!r}")
        wanted = dict(labels) if labels else {}
        for series in family["series"]:
            if series["labels"] == wanted:
                return series.get("value", series)
        raise KeyError(f"no series of {name!r} with labels {wanted!r}")

    def __contains__(self, name: object) -> bool:
        return name in self.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsSnapshot(metrics={len(self.data)}, enabled={self.enabled})"


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    parts = ", ".join(
        f'{key}="{_escape(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + parts + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _number(value: float) -> str:
    """Render without a trailing ``.0`` on integral values (diff-friendly)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Get-or-create instrument registry with a disabled fast path.

    Instruments are keyed by ``(name, sorted labels)``; asking for an
    existing key returns the same instrument (help text and bucket bounds
    are fixed by the first creation).  Asking for an existing name with a
    different instrument kind raises — one name, one type, as Prometheus
    requires.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    # ------------------------------------------------------------------ #
    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter | _NoopInstrument:
        return self._get(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge | _NoopInstrument:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram | _NoopInstrument:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def _get(self, cls, name, help, labels, **kwargs):
        if not self.enabled:
            return _NOOP
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, help=help, labels=labels, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{instrument.kind}, cannot re-register as {cls.kind}"
                )
        return instrument

    # ------------------------------------------------------------------ #
    def snapshot(self) -> MetricsSnapshot:
        """An immutable snapshot of every instrument (empty when disabled)."""
        with self._lock:
            instruments = list(self._instruments.values())
        data: dict[str, Any] = {}
        for instrument in instruments:
            family = data.setdefault(
                instrument.name,
                {"type": instrument.kind, "help": instrument.help, "series": []},
            )
            family["series"].append(instrument.series())
        for family in data.values():
            family["series"].sort(key=lambda series: sorted(series["labels"].items()))
        return MetricsSnapshot(data, enabled=self.enabled)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({len(self)} instruments, {state})"
