"""Picklable, mergeable metrics primitives for the telemetry layer.

Zero-dependency counters, gauges and fixed-bucket histograms collected in
a :class:`MetricsRegistry`.  Everything here is designed around the
execution model of the rest of the library:

* **picklable / JSON-safe** — worker processes accumulate into their own
  registries and ship plain :meth:`MetricsRegistry.snapshot` dicts back
  to the parent, which merges them;
* **mergeable** — counters and histograms merge by summation (histogram
  merge is associative and commutative, pinned by a hypothesis test; a
  histogram's sum is kept exactly, so even a float-valued one merges to
  the same bits in any grouping), so a campaign-level view aggregates
  identically whatever the chunking, the worker count or the batch
  width;
* **deterministic vs. timing split** — metrics whose values depend on
  wall clocks live under the ``perf.`` prefix; everything else must be a
  pure function of the simulated work (run counts, hazard counts, CAN
  frame counts, memo hits).  :meth:`MetricsRegistry.deterministic_snapshot`
  drops the ``perf.`` namespace, and the determinism tests assert that
  the remainder is identical across sequential / pooled / batched
  execution of the same campaign.

No locks: each registry is owned by exactly one thread of one process
(the simulation loops are single-threaded; cross-process aggregation
happens through snapshot merges, not shared memory).
"""

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from fractions import Fraction

try:  # optional vectorised record_many fast path; bisect fallback below
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-free hosts
    _np = None  # type: ignore[assignment]

#: Metrics under this prefix depend on wall clocks / host speed and are
#: excluded from determinism comparisons.
PERF_PREFIX = "perf."

#: Default nanosecond buckets (1-2-5 decades, 1 µs .. 1 s) for the
#: per-stage and per-cycle latency histograms.
NS_BUCKETS: Tuple[float, ...] = tuple(
    mantissa * 10.0**exponent
    for exponent in range(3, 9)
    for mantissa in (1.0, 2.0, 5.0)
) + (1e9,)

#: Default second buckets (10 ms .. 100 s) for run durations.
SECONDS_BUCKETS: Tuple[float, ...] = tuple(
    mantissa * 10.0**exponent
    for exponent in range(-2, 2)
    for mantissa in (1.0, 2.0, 5.0)
) + (100.0,)


class Counter:
    """A monotonically increasing sum (int or float)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str, value: Union[int, float] = 0):
        self.name = name
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Union[int, float]:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value-wins measurement.

    Merge semantics: the *other* gauge wins when it was ever set, so a
    chain of merges applied in task order reproduces the value the last
    setting task observed.  (``(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`` — the result
    is always the last set value in merge order.)
    """

    __slots__ = ("name", "value", "is_set")
    kind = "gauge"

    def __init__(self, name: str, value: float = 0.0, is_set: bool = False):
        self.name = name
        self.value = value
        self.is_set = is_set

    def set(self, value: float) -> None:
        self.value = value
        self.is_set = True

    def merge(self, other: "Gauge") -> None:
        if other.is_set:
            self.value = other.value
            self.is_set = True

    def to_dict(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


def _fraction(*value) -> "Fraction":
    """An exact :class:`~fractions.Fraction` (imported on first use: only
    float-valued histograms need one)."""
    from fractions import Fraction

    return Fraction(*value)


class Histogram:
    """A fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one implicit overflow bucket catches everything above the
    last bound (Prometheus's ``+Inf`` bucket).  Recording is a C-level
    ``bisect`` plus two adds — cheap enough for sampled per-stage timing
    at full rate.

    The sum is exact: an integer while every sample is one (the
    nanosecond timings), a :class:`~fractions.Fraction` once a float
    arrives (a float is a binary fraction).  Chunk histograms merged in
    any grouping therefore hold the very sum one histogram of every
    sample would, where a float sum would differ in its last bits with
    the chunking.
    """

    __slots__ = ("name", "bounds", "counts", "_sum", "count", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float] = NS_BUCKETS):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(bound) for bound in bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self._sum: Union[int, "Fraction"] = 0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def sum(self) -> float:
        return float(self._sum)

    def record(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self._sum += value if type(value) is int else _fraction(value)
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def record_many(self, values: Sequence[float]) -> None:
        """Record a batch of samples in one pass.

        Equivalent to calling :meth:`record` per value (pinned by a
        hypothesis test) but sorts once and classifies with one bisect
        per bucket edge instead of one per sample — this is how the
        pipeline probe folds a whole run's buffered stage timings without
        paying per-sample bucketing in the hot loop.  Integer numpy
        arrays take a fully vectorised path (``sort`` + one
        ``searchsorted`` over the bucket edges) when the values are small
        enough that the int64 sum and the float64 edge comparisons are
        both exact; anything else falls back to the portable bisect loop.
        """
        count = len(values)
        if not count:
            return
        if (
            _np is not None
            and isinstance(values, _np.ndarray)
            and values.dtype.kind in "iu"
        ):
            ordered_array = _np.sort(values)
            low = int(ordered_array[0])
            high = int(ordered_array[-1])
            if 0 <= low and high < 2**40 and count < 2**22:
                counts = self.counts
                previous = 0
                positions = _np.searchsorted(ordered_array, self.bounds, side="right")
                for index, position in enumerate(positions.tolist()):
                    counts[index] += position - previous
                    previous = position
                counts[len(self.bounds)] += count - previous
                self._sum += int(ordered_array.sum())
                self.count += count
                if self.min is None or low < self.min:
                    self.min = low
                if self.max is None or high > self.max:
                    self.max = high
                return
            values = ordered_array.tolist()
        ordered = sorted(values)
        counts = self.counts
        previous = 0
        for index, bound in enumerate(self.bounds):
            position = bisect_right(ordered, bound)
            counts[index] += position - previous
            previous = position
        counts[len(self.bounds)] += len(ordered) - previous
        if all(type(value) is int for value in ordered):
            self._sum += sum(ordered)
        else:
            self._sum += sum(map(_fraction, ordered))
        self.count += len(ordered)
        if self.min is None or ordered[0] < self.min:
            self.min = ordered[0]
        if self.max is None or ordered[-1] > self.max:
            self.max = ordered[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th sample; the overflow bucket reports the max)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank and count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self._sum += other._sum
        self.count += other.count
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> dict:
        exact = self._sum
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "exact_sum": [exact.numerator, exact.denominator],
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, name: str, payload: dict) -> "Histogram":
        histogram = cls(name, payload["bounds"])
        histogram.counts = [int(count) for count in payload["counts"]]
        exact = payload.get("exact_sum")
        if exact is None:  # written before sums were exact
            histogram._sum = _fraction(payload["sum"])
        elif exact[1] == 1:
            histogram._sum = int(exact[0])
        else:
            histogram._sum = _fraction(*exact)
        histogram.count = int(payload["count"])
        histogram.min = payload["min"]
        histogram.max = payload["max"]
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.1f})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Metric names are dotted lowercase paths (``runs.completed``,
    ``can.frames_sent``, ``perf.stage.sense.ns``).  Accessors create on
    first use and return the existing metric afterwards, so callers can
    hold direct references for hot-loop recording.
    """

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        elif not isinstance(metric, Counter):
            raise TypeError(f"{name!r} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge(name)
        elif not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(self, name: str, bounds: Sequence[float] = NS_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, bounds)
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a {metric.kind}, not a histogram")
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    def __bool__(self) -> bool:
        return bool(self._metrics)

    # -- merging / serialization ------------------------------------------

    def merge(self, other: Union["MetricsRegistry", dict]) -> None:
        """Merge another registry (or a snapshot dict) into this one.

        Counters and histograms add; gauges take the other's value when
        it was set.  Merging is applied in task order by every caller, so
        the merged view is deterministic however the work was scheduled.
        """
        if isinstance(other, dict):
            other = MetricsRegistry.from_snapshot(other)
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(metric, Counter):
                    self.counter(name).merge(metric)
                elif isinstance(metric, Gauge):
                    self.gauge(name).merge(metric)
                else:
                    self.histogram(name, metric.bounds).merge(metric)
            elif mine.kind != metric.kind:
                raise TypeError(
                    f"cannot merge {name!r}: {metric.kind} into {mine.kind}"
                )
            else:
                mine.merge(metric)  # type: ignore[arg-type]

    def snapshot(self) -> dict:
        """A JSON-safe dict of everything recorded (see :meth:`from_snapshot`)."""
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.to_dict()
            elif isinstance(metric, Gauge):
                gauges[name] = metric.to_dict()
            else:
                histograms[name] = metric.to_dict()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def deterministic_snapshot(self) -> dict:
        """The snapshot minus every wall-clock-dependent (``perf.*``) metric.

        This is the view the determinism tests compare across sequential,
        pooled and batched execution of the same campaign.
        """
        full = self.snapshot()
        return {
            section: {
                name: value
                for name, value in full[section].items()
                if not name.startswith(PERF_PREFIX)
            }
            for section in ("counters", "gauges", "histograms")
        }

    @classmethod
    def from_snapshot(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry.counter(name).value = value
        for name, value in payload.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, data in payload.get("histograms", {}).items():
            registry._metrics[name] = Histogram.from_dict(name, data)
        return registry

    def __getstate__(self) -> dict:
        return self.snapshot()

    def __setstate__(self, state: dict) -> None:
        self._metrics = MetricsRegistry.from_snapshot(state)._metrics
