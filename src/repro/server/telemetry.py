"""Metrics registry of the solve server.

Serving a stream of solve requests is only tunable if the server can answer
"what happened": how many requests were admitted or rejected (and why), how
deep the queue is, how long solves took, how many iterations they needed, how
often the artifact cache saved a preconditioner build.  This module provides
the three classic instrument kinds —

* :class:`Counter` — monotonically increasing event count,
* :class:`Gauge` — last-written value (queue depth, in-flight jobs),
* :class:`Histogram` — distribution of observations with quantile estimates
  (latency, iteration counts, batch sizes),

— collected in a thread-safe :class:`MetricsRegistry` whose :meth:`snapshot`
is a plain JSON-serialisable dict (the CI benchmark artifact and the
``repro-serve`` CLI both print it verbatim).

Instruments are created on first use (``registry.counter("x").add(1)``), so
call sites never need registration boilerplate.  Instruments may carry
**labels** (``registry.counter("solve.rejected", reason="queue_full")``):
each distinct label set is its own instrument, stored under the rendered key
``solve.rejected{reason="queue_full"}``.  Unlabeled instruments keep their
plain name as the key, so the snapshot shape is unchanged for existing call
sites.

Histograms keep exact ``count`` / ``sum`` / ``min`` / ``max`` forever and
retain a bounded *reservoir* of raw samples for quantile estimation
(Algorithm R with a per-instrument seeded RNG), so quantiles track the whole
observation stream — not just the first ``max_samples`` values — while memory
stays bounded and repeated runs are deterministic.
"""

from __future__ import annotations

import json
import random
import re
import threading
import zlib

import numpy as np

from repro.exceptions import ParameterError
from repro.obs.prometheus import escape_label_value, unescape_label_value

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "render_label_key", "parse_label_key"]

#: Default cap on retained histogram samples.  Beyond it the histogram keeps
#: exact count / sum / min / max and estimates quantiles from a uniform
#: reservoir over all observations — bounded memory under sustained traffic.
DEFAULT_MAX_SAMPLES = 65_536

_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def render_label_key(name: str, labels: dict[str, str]) -> str:
    """Canonical storage key for an instrument: ``name{k="v",...}``.

    Labels are sorted by name and values escaped exactly as in the Prometheus
    text exposition format, so a key is both stable (one key per label set)
    and human-readable in snapshots.  An empty label set renders as the bare
    name — the pre-label snapshot shape.
    """
    if not labels:
        return name
    inner = ",".join(f'{key}="{escape_label_value(value)}"'
                     for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


_LABEL_ITEM_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"(?:,|\Z)')


def parse_label_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`render_label_key`: ``name{k="v"}`` → name + labels.

    The fleet router uses this to re-key replica snapshot entries with an
    added ``replica`` label while keeping any labels the replica already
    rendered.  Raises :class:`~repro.exceptions.ParameterError` on keys this
    module could not have produced.
    """
    if not (key.endswith("}") and "{" in key):
        return key, {}
    name, _, inner = key.partition("{")
    inner = inner[:-1]
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(inner):
        match = _LABEL_ITEM_RE.match(inner, pos)
        if match is None:
            raise ParameterError(
                f"malformed instrument key {key!r} at offset {pos}")
        labels[match.group("key")] = unescape_label_value(
            match.group("value"))
        pos = match.end()
    return name, labels


def _validate_labels(name: str, labels: dict[str, object]) -> dict[str, str]:
    clean: dict[str, str] = {}
    for key, value in labels.items():
        if not _LABEL_NAME_RE.match(key):
            raise ParameterError(
                f"metric {name}: label name {key!r} is not a valid "
                "identifier ([a-zA-Z_][a-zA-Z0-9_]*)")
        clean[key] = str(value)
    return clean


class Counter:
    """Monotonically increasing event counter."""

    def __init__(self, name: str, *, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.key = render_label_key(name, self.labels)
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be >= 0: counters never go down)."""
        if amount < 0:
            raise ParameterError(
                f"counter {self.name}: increment must be >= 0, got {amount}")
        with self._lock:
            self._value += int(amount)


class Gauge:
    """Last-written value (e.g. current queue depth)."""

    def __init__(self, name: str, *, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.key = render_label_key(name, self.labels)
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """Most recently set value."""
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative)."""
        with self._lock:
            self._value += float(delta)


class Histogram:
    """Distribution of float observations with quantile estimates.

    Keeps exact ``count`` / ``sum`` / ``min`` / ``max`` for every observation
    and a uniform reservoir of up to ``max_samples`` raw values for quantile
    estimation (Algorithm R: observation ``i`` survives with probability
    ``max_samples / i`` once the reservoir is full).  The reservoir RNG is
    seeded from the instrument key, so identical observation streams yield
    identical quantile estimates across runs.
    """

    def __init__(self, name: str, *,
                 max_samples: int = DEFAULT_MAX_SAMPLES,
                 labels: dict[str, str] | None = None) -> None:
        if max_samples < 1:
            raise ParameterError(
                f"histogram {name}: max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.labels = dict(labels or {})
        self.key = render_label_key(name, self.labels)
        self._max_samples = int(max_samples)
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._rng = random.Random(zlib.crc32(self.key.encode("utf-8")))
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observations."""
        with self._lock:
            return self._sum

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                # Algorithm R: keep each observation with probability k/i so
                # the reservoir stays a uniform sample of the whole stream.
                slot = self._rng.randrange(self._count)
                if slot < self._max_samples:
                    self._samples[slot] = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); ``nan`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must lie in [0, 1], got {q}")
        with self._lock:
            if not self._samples:
                return float("nan")
            return float(np.quantile(np.asarray(self._samples), q))

    def summary(self) -> dict[str, float]:
        """count / mean / min / p50 / p95 / p99 / max as a plain dict."""
        with self._lock:
            if self._count == 0:
                return {"count": 0, "mean": float("nan"), "min": float("nan"),
                        "p50": float("nan"), "p95": float("nan"),
                        "p99": float("nan"), "max": float("nan")}
            samples = np.asarray(self._samples)
            return {
                "count": self._count,
                "mean": self._sum / self._count,
                "min": self._min,
                "p50": float(np.quantile(samples, 0.50)),
                "p95": float(np.quantile(samples, 0.95)),
                "p99": float(np.quantile(samples, 0.99)),
                "max": self._max,
            }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able to JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + label set (created when missing)."""
        clean = _validate_labels(name, labels)
        key = render_label_key(name, clean)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter(name, labels=clean)
            return self._counters[key]

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + label set (created when missing)."""
        clean = _validate_labels(name, labels)
        key = render_label_key(name, clean)
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge(name, labels=clean)
            return self._gauges[key]

    def histogram(self, name: str, *,
                  max_samples: int = DEFAULT_MAX_SAMPLES,
                  **labels: object) -> Histogram:
        """The histogram for ``name`` + label set (created when missing)."""
        clean = _validate_labels(name, labels)
        key = render_label_key(name, clean)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram(
                    name, max_samples=max_samples, labels=clean)
            return self._histograms[key]

    def instruments(self) -> dict[str, list]:
        """All registered instruments, by kind, sorted by key.

        The Prometheus renderer walks this to group label sets of the same
        metric name into one family.
        """
        with self._lock:
            return {
                "counters": [self._counters[k] for k in sorted(self._counters)],
                "gauges": [self._gauges[k] for k in sorted(self._gauges)],
                "histograms": [self._histograms[k]
                               for k in sorted(self._histograms)],
            }

    def snapshot(self) -> dict:
        """Every instrument's current state as a JSON-serialisable dict.

        Labeled instruments appear under their rendered key
        (``name{k="v"}``); unlabeled instruments under their plain name, so
        pre-label consumers see the same shape as before.  ``nan`` values
        (empty histograms) are mapped to ``None`` so the result round-trips
        through strict JSON parsers.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)

        def clean(value: float) -> float | None:
            return None if isinstance(value, float) and np.isnan(value) else value

        return {
            "counters": {key: c.value for key, c in sorted(counters.items())},
            "gauges": {key: g.value for key, g in sorted(gauges.items())},
            "histograms": {
                key: {k: clean(v) for k, v in h.summary().items()}
                for key, h in sorted(histograms.items())
            },
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """The snapshot rendered as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent)
