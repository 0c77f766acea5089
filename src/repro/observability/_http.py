"""The stdlib HTTP server behind :class:`~repro.observability.exporter.TelemetryServer`.

Kept apart from the exporter because ``http.server`` imports
``http.client`` and ``ssl``: only a process that starts the telemetry
endpoint loads this module.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Tuple

from .exporter import EXPOSITION_CONTENT_TYPE


class _TelemetryHandler(BaseHTTPRequestHandler):
    def _telemetry(self) -> "_TelemetryHTTPServer":
        server = self.server
        assert isinstance(server, _TelemetryHTTPServer)
        return server

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = self._telemetry().render_metrics().encode("utf-8")
                self._respond(200, EXPOSITION_CONTENT_TYPE, body)
            elif path == "/healthz":
                health = self._telemetry().render_health()
                code = 503 if health.get("status") == "crashed" else 200
                body = json.dumps(health, default=str).encode("utf-8")
                self._respond(code, "application/json", body)
            elif path == "/readyz":
                ready = self._telemetry().render_ready()
                self._respond(
                    200 if ready else 503,
                    "text/plain; charset=utf-8",
                    b"ready\n" if ready else b"not ready\n",
                )
            else:
                self._respond(404, "text/plain; charset=utf-8", b"not found\n")
        except Exception as error:  # pragma: no cover - defensive
            self._respond(
                500, "text/plain; charset=utf-8", f"error: {error}\n".encode()
            )

    def _respond(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Scrape traffic must not spam stderr."""


class _TelemetryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        metrics_fn: Callable[[], str],
        health_fn: Callable[[], Mapping[str, Any]],
        ready_fn: Callable[[], bool],
    ) -> None:
        super().__init__(address, _TelemetryHandler)
        self._metrics_fn = metrics_fn
        self._health_fn = health_fn
        self._ready_fn = ready_fn

    def render_metrics(self) -> str:
        return self._metrics_fn()

    def render_health(self) -> Dict[str, Any]:
        return dict(self._health_fn())

    def render_ready(self) -> bool:
        return bool(self._ready_fn())
