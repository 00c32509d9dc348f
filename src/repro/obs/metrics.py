"""Metrics registry: named counters, gauges, and mergeable histograms.

The runtime's single quantitative surface.  Every layer — sessions (the
windowed ``DissentSession`` included), crypto hot paths, and the
``repro.net`` daemons —
records into a :class:`MetricsRegistry` instead of growing bespoke
attributes, so one snapshot covers the whole process and snapshots from
*different* processes merge into one cross-process view (this is how
:meth:`repro.net.runner.NetworkedSession.metrics` assembles the
paper-style §6 breakdowns from real node processes).

Design constraints, in order:

* **dependency-free** — this module imports only the standard library and
  nothing from ``repro``, so every layer (including ``crypto``) can
  record without import cycles;
* **zero-cost when disabled** — :data:`NULL_REGISTRY` implements the same
  surface as no-ops; hot paths guard with ``registry.enabled`` so the
  disabled cost is one attribute read;
* **mergeable** — counters sum, gauges keep the maximum (the useful
  cross-process semantics for depths and high-water marks), and
  histograms with identical bucket edges add their bucket counts;
  mismatched edges raise instead of silently corrupting;
* **deterministic** — nothing here reads a clock or randomness, so
  recording can never perturb protocol bytes or RNG streams.

Snapshots are plain JSON-able dictionaries (see :meth:`MetricsRegistry.snapshot`),
which is also the body of the ``telemetry`` wire message.  Their readers
are total: :func:`check_snapshot` raises :class:`ValueError` for any
other shape before anything is merged or rendered.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections.abc import Iterable, Mapping

#: Default histogram edges for durations, in seconds: 0.1 ms to 60 s.
LATENCY_EDGES_S: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Histogram edges for sizes and counts: powers of two up to 2**20.
SIZE_EDGES: tuple[int, ...] = tuple(2 ** k for k in range(21))


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A named point-in-time value (queue depth, window size, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def set_max(self, value) -> None:
        """Keep the high-water mark (the cross-process merge semantics)."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram, mergeable across processes.

    Bucket ``i`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]``; one overflow bucket catches values
    above the last edge.  Alongside the buckets it tracks sum, count,
    min, and max, so means stay exact even though quantiles are
    bucket-resolution.  Edges are fixed at creation: two histograms merge
    iff their edges are identical, which is what makes per-process
    snapshots safely summable.
    """

    __slots__ = ("name", "edges", "counts", "sum", "count", "min", "max")

    def __init__(self, name: str, edges: Iterable[float] = LATENCY_EDGES_S) -> None:
        edges = tuple(edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram edges must be strictly increasing")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the upper edge of the q-th bucket.

        Conservative (never under-reports); the overflow bucket reports
        the tracked maximum, the only exact bound available there.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= target and bucket:
                if i < len(self.edges):
                    return self.edges[i]
                return self.max if self.max is not None else self.edges[-1]
        return self.max if self.max is not None else self.edges[-1]

    def merge(self, state: Mapping) -> None:
        """Fold another histogram's snapshot state into this one."""
        if tuple(state["edges"]) != self.edges:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched bucket "
                f"edges {tuple(state['edges'])} into {self.edges}"
            )
        counts = state["counts"]
        if len(counts) != len(self.counts):
            raise ValueError(f"histogram {self.name!r}: malformed bucket counts")
        for i, c in enumerate(counts):
            self.counts[i] += c
        self.sum += state["sum"]
        self.count += state["count"]
        for bound, better in (("min", min), ("max", max)):
            other = state.get(bound)
            if other is None:
                continue
            ours = getattr(self, bound)
            setattr(self, bound, other if ours is None else better(ours, other))

    def state(self) -> dict:
        """JSON-able snapshot of this histogram."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.6g})"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_snapshot(snapshot) -> None:
    """Raise :class:`ValueError` unless ``snapshot`` has the shape
    :meth:`MetricsRegistry.snapshot` writes; absent sections are empty."""
    if not isinstance(snapshot, Mapping):
        raise ValueError(
            f"registry snapshot must be a JSON object, got {type(snapshot).__name__}"
        )
    sections = [snapshot.get(s, {}) for s in ("counters", "gauges", "histograms")]
    if not all(isinstance(section, Mapping) for section in sections):
        raise ValueError("snapshot counters, gauges and histograms must be objects")
    counters, gauges, histograms = sections
    for name, value in [*counters.items(), *gauges.items()]:
        if not _is_number(value):
            raise ValueError(f"metric {name!r}: {value!r} is not a number")
    for name, state in histograms.items():
        if not (
            isinstance(state, Mapping)
            and isinstance(state.get("edges"), list)
            and isinstance(state.get("counts"), list)
            and len(state["counts"]) == len(state["edges"]) + 1
            and all(map(_is_number, state["edges"] + state["counts"]))
            and all(_is_number(state.get(key)) for key in ("sum", "count"))
            and all(state.get(k) is None or _is_number(state[k]) for k in ("min", "max"))
        ):
            raise ValueError(f"histogram {name!r}: malformed state {state!r}")


class MetricsRegistry:
    """Get-or-create home for named counters, gauges, and histograms."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, edges: Iterable[float] = LATENCY_EDGES_S
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, edges)
        return histogram

    # -- snapshots and merging ----------------------------------------

    def snapshot(self) -> dict:
        """One JSON-able dictionary of everything recorded so far."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.state() for n, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold one process's snapshot into this registry.

        Counters and histogram buckets add; gauges keep the maximum.
        An empty mapping (a disabled node's snapshot) merges as a no-op;
        a malformed one raises :class:`ValueError` before anything merges.
        """
        check_snapshot(snapshot)
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(value)
        for name, state in snapshot.get("histograms", {}).items():
            self.histogram(name, tuple(state["edges"])).merge(state)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "MetricsRegistry":
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


# ---------------------------------------------------------------------------
# The disabled surface: same shape, no work, no memory
# ---------------------------------------------------------------------------


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0

    def set(self, value) -> None:
        pass

    def set_max(self, value) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0
    mean = 0.0
    min = None
    max = None

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


class NullRegistry:
    """A disabled registry: every operation is a no-op.

    Sessions and nodes hold one of these until telemetry is enabled, so
    instrumented code never branches on "is telemetry on" — it records
    unconditionally and the null sinks discard.  Hot paths that want to
    skip even argument construction can guard on :attr:`enabled`.
    """

    enabled = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return self._GAUGE

    def histogram(self, name: str, edges=LATENCY_EDGES_S) -> _NullHistogram:
        return self._HISTOGRAM

    def snapshot(self) -> dict:
        return {}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def clear(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()


# ---------------------------------------------------------------------------
# The process-global registry (crypto hot paths record here)
# ---------------------------------------------------------------------------

#: Module-level hook for code with no session to hang a registry on — the
#: crypto hot paths (multiexp sizes, fixed-base table traffic).  Disabled
#: by default; a node process or test installs a real registry with
#: :func:`set_global_registry`.  Read it as ``metrics.GLOBAL`` (attribute
#: access, not a from-import) so rebinding is always observed.
GLOBAL = NULL_REGISTRY


def telemetry_env_enabled() -> bool:
    """Whether the ``DISSENT_TELEMETRY`` environment opt-in is set."""
    return os.environ.get("DISSENT_TELEMETRY", "") not in ("", "0")


def global_registry():
    """The process-global registry (the null registry when disabled)."""
    return GLOBAL


def set_global_registry(registry) -> object:
    """Install ``registry`` as the process-global sink; returns the old one."""
    global GLOBAL
    old = GLOBAL
    GLOBAL = registry
    return old


if telemetry_env_enabled():
    GLOBAL = MetricsRegistry()
