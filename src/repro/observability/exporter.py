"""Prometheus text exposition (format 0.0.4) over stdlib HTTP.

Three pieces, still zero dependencies:

* :func:`render_metrics` turns a :class:`MetricsRegistry` snapshot into
  the Prometheus text format.  The registry stores *non-cumulative*
  histogram buckets; the renderer converts them to the cumulative
  ``_bucket{le=...}`` series (plus ``_sum``/``_count``) the format
  requires, and groups labeled series under one ``# TYPE`` family line.
* :func:`parse_exposition` / :func:`validate_exposition` — a small
  parser for the same format, used by ``repro top``, the tests, and the
  CI scrape-smoke job to type-check every line and verify histogram
  buckets are cumulative, monotone, and capped by ``+Inf == _count``.
* :class:`TelemetryServer` — a ``ThreadingHTTPServer`` on a daemon
  thread serving ``/metrics`` (the exposition), ``/healthz`` (a JSON
  health document, 503 when the writer crashed), and ``/readyz``.

The server takes callables, not a service object, so it composes with
anything: ``AnnotationService.serve_metrics`` wires its own registry,
``health()``, and ``ready()`` in (wrapping each render in a
``service.export`` span), and ``repro serve --metrics-port`` exposes
the result on the wire — the first HTTP surface of the roadmap's
network front-end.
"""

from __future__ import annotations

import re
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from .metrics import MetricsRegistry

if TYPE_CHECKING:
    from ._http import _TelemetryHTTPServer

#: The content type Prometheus scrapers expect.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_KEY_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_VALUE_RE = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|Inf)$|^NaN$")


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _split_key(key: str) -> Tuple[str, str]:
    """``name{k="v"}`` -> (name, 'k="v"'); bare names get ``""``."""
    if key.endswith("}") and "{" in key:
        name, _, labels = key.partition("{")
        return name, labels[:-1]
    return key, ""


def _merge_labels(labels: str, extra: str) -> str:
    if not labels:
        return extra
    return f"{labels},{extra}" if extra else labels


def _fmt(value: float) -> str:
    """Render a sample value: integers stay integral, floats use repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels: str, value: float) -> str:
    if labels:
        return f"{name}{{{labels}}} {_fmt(value)}"
    return f"{name} {_fmt(value)}"


def _families(section: Mapping[str, Any]) -> Dict[str, List[Tuple[str, Any]]]:
    """Group instrument keys by family name, preserving sorted order."""
    families: Dict[str, List[Tuple[str, Any]]] = {}
    for key, value in section.items():
        name, labels = _split_key(key)
        families.setdefault(name, []).append((labels, value))
    return families


def render_metrics(registry: MetricsRegistry) -> str:
    """The whole registry as Prometheus text exposition (format 0.0.4)."""
    return render_snapshot(registry.snapshot())


def render_snapshot(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict (same format)."""
    lines: List[str] = []
    for family, samples in _families(snapshot.get("counters", {})).items():
        lines.append(f"# TYPE {family} counter")
        for labels, value in samples:
            lines.append(_sample(family, labels, float(value)))
    for family, samples in _families(snapshot.get("gauges", {})).items():
        lines.append(f"# TYPE {family} gauge")
        for labels, value in samples:
            lines.append(_sample(family, labels, float(value)))
    for family, samples in _families(snapshot.get("histograms", {})).items():
        lines.append(f"# TYPE {family} histogram")
        for labels, dump in samples:
            buckets: Mapping[str, Any] = dump.get("buckets", {})
            bounds = sorted(float(b) for b in buckets if b != "+Inf")
            cumulative = 0
            for bound in bounds:
                cumulative += int(buckets.get(str(bound), 0))
                lines.append(
                    _sample(
                        f"{family}_bucket",
                        _merge_labels(labels, f'le="{bound:g}"'),
                        cumulative,
                    )
                )
            cumulative += int(buckets.get("+Inf", 0))
            lines.append(
                _sample(
                    f"{family}_bucket",
                    _merge_labels(labels, 'le="+Inf"'),
                    cumulative,
                )
            )
            lines.append(_sample(f"{family}_sum", labels, float(dump.get("sum", 0.0))))
            lines.append(_sample(f"{family}_count", labels, int(dump.get("count", 0))))
    return "\n".join(lines) + "\n"


def render_health_gauges(health: Mapping[str, Any]) -> str:
    """Service health as synthetic gauges appended to the exposition.

    ``nebula_service_info`` is a constant-1 info gauge carrying the
    textual states as labels; the numeric probes get their own gauges.
    """
    status = str(health.get("status", "unknown"))
    backend = str(health.get("backend", "unknown"))
    lines = [
        "# TYPE nebula_service_info gauge",
        f'nebula_service_info{{backend="{backend}",status="{status}"}} 1',
        "# TYPE nebula_service_up gauge",
        f"nebula_service_up {0 if status in ('crashed', 'stopped') else 1}",
        "# TYPE nebula_service_ready gauge",
        f"nebula_service_ready {1 if health.get('ready') else 0}",
    ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Parsing / validation (the scrape-smoke contract)
# ----------------------------------------------------------------------


class ExpositionError(ValueError):
    """A line of exposition text violated the format."""


def _parse_labels(body: str, lineno: int) -> Dict[str, str]:
    """Parse 'k1="v1",k2="v2"' with escaped quotes/backslashes."""
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq]
        if not _LABEL_KEY_RE.match(key):
            raise ExpositionError(f"line {lineno}: bad label name {key!r}")
        if eq + 1 >= len(body) or body[eq + 1] != '"':
            raise ExpositionError(f"line {lineno}: unquoted label value")
        j = eq + 2
        value: List[str] = []
        while j < len(body):
            ch = body[j]
            if ch == "\\" and j + 1 < len(body):
                value.append(body[j + 1])
                j += 2
                continue
            if ch == '"':
                break
            value.append(ch)
            j += 1
        else:
            raise ExpositionError(f"line {lineno}: unterminated label value")
        labels[key] = "".join(value)
        i = j + 1
        if i < len(body):
            if body[i] != ",":
                raise ExpositionError(f"line {lineno}: expected ',' in labels")
            i += 1
    return labels


class MetricFamily:
    """One parsed family: declared type plus its samples."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        #: sample name -> list of (labels dict, value)
        self.samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}

    def values(self, sample: Optional[str] = None) -> List[float]:
        return [v for _, v in self.samples.get(sample or self.name, [])]

    def value(self, labels: Optional[Mapping[str, str]] = None) -> Optional[float]:
        """The single sample matching ``labels`` exactly (None if absent)."""
        wanted = dict(labels or {})
        for have, value in self.samples.get(self.name, []):
            if have == wanted:
                return value
        return None


def parse_exposition(text: str) -> Dict[str, MetricFamily]:
    """Parse exposition text into families; raises on malformed lines."""
    families: Dict[str, MetricFamily] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ExpositionError(f"line {lineno}: malformed TYPE line")
                _, _, name, kind = parts
                if not _NAME_RE.match(name):
                    raise ExpositionError(f"line {lineno}: bad family name {name!r}")
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ExpositionError(f"line {lineno}: bad family type {kind!r}")
                if name in families:
                    raise ExpositionError(f"line {lineno}: duplicate TYPE for {name}")
                families[name] = MetricFamily(name, kind)
            continue  # other comments (HELP etc.) are legal and ignored
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$", line)
        if not match:
            raise ExpositionError(f"line {lineno}: malformed sample: {raw!r}")
        sample_name, _, label_body, value_text = match.groups()
        if not _VALUE_RE.match(value_text):
            raise ExpositionError(f"line {lineno}: malformed value {value_text!r}")
        labels = _parse_labels(label_body, lineno) if label_body else {}
        family = _family_of(families, sample_name)
        if family is None:
            raise ExpositionError(
                f"line {lineno}: sample {sample_name!r} precedes its TYPE line"
            )
        if family.kind != "histogram" and sample_name != family.name:
            raise ExpositionError(
                f"line {lineno}: sample {sample_name!r} does not match "
                f"family {family.name!r}"
            )
        if family.kind == "histogram" and sample_name not in (
            f"{family.name}_bucket",
            f"{family.name}_sum",
            f"{family.name}_count",
        ):
            raise ExpositionError(
                f"line {lineno}: {sample_name!r} is not a histogram series "
                f"of {family.name!r}"
            )
        if sample_name.endswith("_bucket") and "le" not in labels:
            raise ExpositionError(f"line {lineno}: bucket sample without le label")
        family.samples.setdefault(sample_name, []).append(
            (labels, float(value_text))
        )
    return families


def _family_of(
    families: Mapping[str, MetricFamily], sample_name: str
) -> Optional[MetricFamily]:
    if sample_name in families:
        return families[sample_name]
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            family = families.get(base)
            if family is not None and family.kind == "histogram":
                return family
    return None


def validate_exposition(text: str) -> Dict[str, MetricFamily]:
    """Parse *and* enforce the semantic invariants scrapers depend on.

    Beyond :func:`parse_exposition`'s line grammar: counters are
    non-negative, and every histogram label-set has cumulative monotone
    non-decreasing buckets, a ``+Inf`` bucket, and ``+Inf`` equal to its
    ``_count``.  Returns the parsed families; raises
    :class:`ExpositionError` on any violation.
    """
    families = parse_exposition(text)
    for family in families.values():
        if family.kind == "counter":
            for labels, value in family.samples.get(family.name, []):
                if value < 0:
                    raise ExpositionError(
                        f"counter {family.name}{labels} is negative"
                    )
        if family.kind != "histogram":
            continue
        grouped: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        for labels, value in family.samples.get(f"{family.name}_bucket", []):
            le = labels["le"]
            rest = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            bound = float("inf") if le == "+Inf" else float(le)
            grouped.setdefault(rest, []).append((bound, value))
        counts = {
            tuple(sorted(labels.items())): value
            for labels, value in family.samples.get(f"{family.name}_count", [])
        }
        for rest, buckets in grouped.items():
            buckets.sort()
            previous = -1.0
            for bound, value in buckets:
                if value < previous:
                    raise ExpositionError(
                        f"histogram {family.name}{dict(rest)} buckets are "
                        "not cumulative/monotone"
                    )
                previous = value
            if not buckets or buckets[-1][0] != float("inf"):
                raise ExpositionError(
                    f"histogram {family.name}{dict(rest)} lacks a +Inf bucket"
                )
            count = counts.get(rest)
            if count is None:
                raise ExpositionError(
                    f"histogram {family.name}{dict(rest)} lacks a _count series"
                )
            if buckets[-1][1] != count:
                raise ExpositionError(
                    f"histogram {family.name}{dict(rest)}: +Inf bucket "
                    f"{buckets[-1][1]:g} != count {count:g}"
                )
    return families


# ----------------------------------------------------------------------
# The HTTP server
# ----------------------------------------------------------------------


class TelemetryServer:
    """The metrics/health endpoint: ``/metrics``, ``/healthz``, ``/readyz``.

    ::

        server = TelemetryServer(lambda: "nebula_up 1\\n").start()
        scrape(server.url + "metrics")   # -> "nebula_up 1\\n"
        server.stop()

    ``port=0`` binds an ephemeral port (tests and parallel CI jobs);
    the bound port is available as :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        metrics_fn: Callable[[], str],
        health_fn: Optional[Callable[[], Mapping[str, Any]]] = None,
        ready_fn: Optional[Callable[[], bool]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.host = host
        self._requested_port = port
        self._metrics_fn = metrics_fn
        self._health_fn = health_fn or (lambda: {"status": "ok", "ready": True})
        self._ready_fn = ready_fn or (lambda: True)
        self._server: Optional[_TelemetryHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "TelemetryServer":
        if self._server is not None:
            return self
        # Imported here: http.server loads http.client and ssl, which
        # every process importing the package would otherwise pay for.
        from ._http import _TelemetryHTTPServer

        self._server = _TelemetryHTTPServer(
            (self.host, self._requested_port),
            self._metrics_fn,
            self._health_fn,
            self._ready_fn,
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="nebula-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("telemetry server is not running")
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def stop(self) -> None:
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()


def scrape(url: str, timeout: float = 5.0) -> str:
    """GET one telemetry endpoint; returns the body text.

    Stdlib-only HTTP client shared by ``repro top``, the tests, and the
    scrape-smoke driver.  Raises ``urllib.error`` exceptions on failure
    (including HTTP error statuses).
    """
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:
        return str(response.read().decode("utf-8"))
