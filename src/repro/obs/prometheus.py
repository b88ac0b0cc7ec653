"""Prometheus text-exposition rendering for the metrics registry.

:func:`render_prometheus` walks a
:class:`~repro.server.telemetry.MetricsRegistry` and emits the classic text
format (version 0.0.4): one ``# TYPE`` line per family followed by its
samples, counters suffixed ``_total``, histograms rendered as Prometheus
*summaries* (``quantile`` label + ``_sum`` / ``_count``).  Metric names are
sanitised (``solve.latency_ms`` → ``repro_solve_latency_ms``) and label
values escaped per the spec, so the output scrapes cleanly.

:func:`parse_prometheus` is the matching reader — enough of the text format
to round-trip our own output.  Tests and the CI trace-smoke step use it to
assert the ``/v1/metrics?format=prometheus`` endpoint stays parseable.
"""

from __future__ import annotations

import math
import re

__all__ = ["render_prometheus", "parse_prometheus", "merge_expositions",
           "PrometheusSample", "escape_label_value", "unescape_label_value"]

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$")

_LABEL_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


def _sanitize(name: str) -> str:
    """A legal Prometheus metric name (dots and dashes become underscores)."""
    clean = _INVALID_NAME_CHARS.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def escape_label_value(value: str) -> str:
    """A label value escaped per the text format (``\\``, ``"``, newline).

    The one escaping rule of the package: the exposition here and the
    instrument keys of :func:`repro.server.telemetry.render_label_key` both
    use it, and :func:`unescape_label_value` inverts it.
    """
    return (value.replace("\\", r"\\")
            .replace('"', r"\"")
            .replace("\n", r"\n"))


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value`; unknown escapes stay verbatim."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample_line(name: str, labels: dict[str, str], value: float,
                 extra: tuple[str, str] | None = None) -> str:
    items = sorted(labels.items())
    if extra is not None:
        items.append(extra)
    if items:
        inner = ",".join(f'{key}="{escape_label_value(val)}"'
                         for key, val in items)
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def render_prometheus(registry, *, namespace: str = "repro",
                      extra_gauges: dict[str, float] | None = None) -> str:
    """The registry's instruments in Prometheus text format 0.0.4.

    ``extra_gauges`` lets the caller merge point-in-time values that live
    outside the registry (queue depth, cache occupancy) into the scrape as
    plain gauges.
    """
    instruments = registry.instruments()
    lines: list[str] = []

    # Counters: family name carries the conventional _total suffix.
    families: dict[str, list] = {}
    for counter in instruments["counters"]:
        families.setdefault(counter.name, []).append(counter)
    for name in sorted(families):
        full = f"{namespace}_{_sanitize(name)}"
        if not full.endswith("_total"):
            full += "_total"
        lines.append(f"# TYPE {full} counter")
        for counter in families[name]:
            lines.append(_sample_line(full, counter.labels, counter.value))

    families = {}
    for gauge in instruments["gauges"]:
        families.setdefault(gauge.name, []).append(gauge)
    extra = dict(extra_gauges or {})
    for name in sorted(set(families) | set(extra)):
        full = f"{namespace}_{_sanitize(name)}"
        lines.append(f"# TYPE {full} gauge")
        for gauge in families.get(name, []):
            lines.append(_sample_line(full, gauge.labels, gauge.value))
        if name in extra:
            lines.append(_sample_line(full, {}, float(extra[name])))

    # Histograms render as Prometheus summaries: pre-computed quantiles plus
    # exact _sum/_count (quantile lines are omitted while empty — NaN there
    # trips many scrapers).
    families = {}
    for histogram in instruments["histograms"]:
        families.setdefault(histogram.name, []).append(histogram)
    for name in sorted(families):
        full = f"{namespace}_{_sanitize(name)}"
        lines.append(f"# TYPE {full} summary")
        for histogram in families[name]:
            summary = histogram.summary()
            if summary["count"] > 0:
                for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"),
                                       ("0.99", "p99")):
                    lines.append(_sample_line(
                        full, histogram.labels, summary[q_key],
                        extra=("quantile", q_label)))
            lines.append(_sample_line(
                f"{full}_sum", histogram.labels, histogram.sum))
            lines.append(_sample_line(
                f"{full}_count", histogram.labels, summary["count"]))

    return "\n".join(lines) + "\n"


def _family_of(name: str, types: dict[str, str]) -> str:
    """The family a sample line belongs to (summaries emit ``_sum``/``_count``
    samples under their base family's ``# TYPE`` line)."""
    if name in types:
        return name
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return name


def merge_expositions(base: str, labeled: dict[str, str], *,
                      label: str = "replica") -> str:
    """Merge several text expositions into one labeled scrape.

    The fleet router's ``/v1/metrics?format=prometheus`` endpoint fetches
    each replica's exposition and merges it with the router's own: every
    sample from ``labeled[source]`` gains ``{label="source"}`` (overriding a
    pre-existing label of the same name), families of the same metric are
    grouped under a *single* ``# TYPE`` line (the spec forbids repeating a
    family), and the ``base`` text's samples pass through unlabeled.  The
    result round-trips :func:`parse_prometheus`.
    """
    family_types: dict[str, str] = {}
    family_order: list[str] = []
    samples_by_family: dict[str, list[tuple[str, dict[str, str], float]]] = {}

    def ingest(text: str, source: str | None) -> None:
        samples, types = parse_prometheus(text)
        for family, family_type in types.items():
            if family not in family_types:
                family_types[family] = family_type
                family_order.append(family)
        for sample in samples:
            labels = dict(sample.labels)
            if source is not None:
                labels[label] = source
            samples_by_family.setdefault(
                _family_of(sample.name, types), []).append(
                    (sample.name, labels, sample.value))

    ingest(base, None)
    for source in sorted(labeled):
        ingest(labeled[source], source)

    lines: list[str] = []
    for family in family_order:
        lines.append(f"# TYPE {family} {family_types[family]}")
        for name, labels, value in samples_by_family.pop(family, []):
            lines.append(_sample_line(name, labels, value))
    # Samples whose family never had a TYPE line (none of our own renderers
    # produce these, but a replica's exposition may) pass through untyped.
    for entries in samples_by_family.values():
        for name, labels, value in entries:
            lines.append(_sample_line(name, labels, value))
    return "\n".join(lines) + "\n"


class PrometheusSample:
    """One parsed sample line: name, labels, value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str], value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrometheusSample({self.name!r}, {self.labels!r}, {self.value!r})"


def _parse_labels(raw: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _LABEL_RE.match(raw, pos)
        if match is None:
            raise ValueError(f"malformed label block: {raw!r} at offset {pos}")
        labels[match.group("key")] = unescape_label_value(
            match.group("value"))
        pos = match.end()
    return labels


def parse_prometheus(text: str) -> tuple[list[PrometheusSample], dict[str, str]]:
    """Parse text-format metrics into samples plus a ``{family: type}`` map.

    Strict about what it accepts: a line that is neither a comment, blank,
    nor a well-formed sample raises ``ValueError``, which is exactly what a
    round-trip test wants.
    """
    samples: list[PrometheusSample] = []
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(stripped)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value {raw_value!r}") from exc
        labels = _parse_labels(match.group("labels") or "")
        samples.append(PrometheusSample(match.group("name"), labels, value))
    return samples, types
