"""Stdlib HTTP front end for the job-queue service.

``http.server``-based (no dependencies), threaded, JSON in/out.  The
wire format is exactly the frozen v1 :mod:`repro.api` payloads — they
round-trip losslessly through JSON, so a client posts
``request.to_payload()`` and rehydrates the fetched result with
``api.result_from_payload``.

Endpoints:

========================  ============================================
``POST /v1/jobs``         submit a Profile/Run/SiteReport/Suite/Sweep
                          request payload; replies ``{"id", "state",
                          "deduped"}`` (202 accepted, 200 when deduped
                          onto an existing job, 400 malformed, 429
                          queue full).  ``?priority=<int>`` orders the
                          queue: higher claims first, age breaking
                          ties (default 0)
``GET /v1/jobs/<id>``     job status (state/attempts/agent/error/trace/
                          priority)
``DELETE /v1/jobs/<id>``  cancel: a queued job flips straight to
                          ``cancelled``; an active one is flagged and
                          stops at the agent's next check-in (replies
                          ``{"id", "state"}`` with ``cancelled`` |
                          ``cancelling``; 404 unknown id, 409 already
                          ``done``/``failed``/``lost``)
``GET /v1/results/<id>``  the result payload once ``done`` (409 while
                          pending, 410 when cancelled, 500 body with
                          the error when the job ended
                          ``failed``/``lost``)
``GET /v1/jobs/<id>/events``  the job's telemetry span stream as
                          NDJSON: a finished job replays its full
                          journal (byte-identical across reads); an
                          in-flight job streams live via chunked
                          transfer encoding until it reaches a
                          terminal state or ``?timeout=`` lapses
                          (404 when telemetry is disabled)
``GET /healthz``          liveness + queue depth
``GET /metrics``          Prometheus text exposition (version 0.0.4):
                          queue depth by state, merged controller+agent
                          counters (cache hit ratio, retries, …) and
                          histograms (claim latency, job seconds,
                          span latencies) with p50/p90/p99 gauges
========================  ============================================

Access logging: with ``access_log=True`` every request is logged as one
JSON object (method, path, status, duration_ms) at INFO on the
``repro.serve.http`` logger; otherwise requests log at DEBUG only.
"""

from __future__ import annotations

import json
import logging
import re
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional

from repro.obs.telemetry import JournalTail, _record_key, render_records
from repro.service.metrics import MetricsRegistry, snapshot_quantile
from repro.serve.queue import TERMINAL_STATES, JobQueue, QueueFull

logger = logging.getLogger("repro.serve.http")

_MAX_BODY = 8 * 1024 * 1024  # a request payload is small; 8 MiB is ample

#: Prometheus text-exposition format version (the content type clients
#: key parsing off).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantile gauges rendered per histogram.
_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))

#: Streaming-endpoint pacing: journal poll interval and the default /
#: maximum time an in-flight stream stays open.
_EVENTS_POLL_INTERVAL = 0.1
_EVENTS_DEFAULT_TIMEOUT = 30.0
_EVENTS_MAX_TIMEOUT = 300.0


def _sanitize(name: str) -> str:
    """Metric name -> Prometheus-legal identifier."""
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)


def render_metrics_text(
    registry: MetricsRegistry, queue_stats: Optional[dict] = None
) -> str:
    """Prometheus text-exposition rendering of a merged registry.

    Every family gets a ``# TYPE`` line; each histogram additionally
    renders interpolated p50/p90/p99 estimates as sibling gauges
    (``<name>_p50`` …) so latency percentiles are scrapeable without
    PromQL.
    """
    lines: list[str] = []
    if queue_stats is not None:
        lines.append("# TYPE repro_queue_jobs gauge")
        for state, count in sorted(queue_stats["by_state"].items()):
            lines.append(f'repro_queue_jobs{{state="{state}"}} {count}')
        lines.append("# TYPE repro_queue_depth gauge")
        lines.append(f"repro_queue_depth {queue_stats['depth']}")
    snapshot = registry.to_dict()
    counters = snapshot["counters"]
    for name, value in counters.items():
        base = f"repro_{_sanitize(name)}"
        lines.append(f"# TYPE {base}_total counter")
        lines.append(f"{base}_total {value}")
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    if hits + misses:
        lines.append("# TYPE repro_cache_hit_ratio gauge")
        lines.append(
            f"repro_cache_hit_ratio {hits / (hits + misses):.6f}"
        )
    for name, data in snapshot["histograms"].items():
        base = f"repro_{_sanitize(name)}"
        lines.append(f"# TYPE {base} histogram")
        cumulative = 0
        for bound, count in data["buckets"].items():
            cumulative += count
            lines.append(f'{base}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f"{base}_count {data['count']}")
        lines.append(f"{base}_sum {data['sum']:.6f}")
        for q, label in _QUANTILES:
            value = snapshot_quantile(data, q)
            if value is not None:
                lines.append(f"# TYPE {base}_{label} gauge")
                lines.append(f"{base}_{label} {value:.6f}")
    return "\n".join(lines) + "\n"


class ServeHTTPServer(ThreadingHTTPServer):
    """The HTTP server plus its service wiring (queue + callbacks)."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        queue: JobQueue,
        *,
        dedup_key_fn: Callable[[object], str],
        metrics_fn: Optional[Callable[[], MetricsRegistry]] = None,
        health_fn: Optional[Callable[[], dict]] = None,
        telemetry_dir: Optional[str | Path] = None,
        access_log: bool = False,
    ) -> None:
        super().__init__(address, ServeHandler)
        self.queue = queue
        self.dedup_key_fn = dedup_key_fn
        self.metrics_fn = metrics_fn
        self.health_fn = health_fn
        #: Where span journals live; ``None`` disables ``/events``.
        self.telemetry_dir = (
            Path(telemetry_dir) if telemetry_dir is not None else None
        )
        self.access_log = bool(access_log)


class ServeHandler(BaseHTTPRequestHandler):
    server: ServeHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s %s", self.address_string(), format % args)

    def log_request(self, code="-", size="-"):
        """Structured JSON access line (INFO) when enabled, else the
        stdlib's per-request line routed to DEBUG via log_message."""
        if getattr(self.server, "access_log", False):
            try:
                status = int(code)
            except (TypeError, ValueError):
                status = str(code)
            started = getattr(self, "_request_started", None)
            duration_ms = (
                round((time.perf_counter() - started) * 1000.0, 3)
                if started is not None
                else None
            )
            logger.info(json.dumps(
                {
                    "method": self.command,
                    "path": self.path,
                    "status": status,
                    "duration_ms": duration_ms,
                    "client": self.address_string(),
                },
                sort_keys=True,
            ))
        else:
            super().log_request(code, size)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[dict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0 or length > _MAX_BODY:
            self._send_json(
                400, {"error": f"bad Content-Length (max {_MAX_BODY})"}
            )
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError as error:
            self._send_json(400, {"error": f"invalid JSON: {error}"})
            return None
        if not isinstance(body, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return body

    # ------------------------------------------------------------------
    # Routes.
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._request_started = time.perf_counter()
        path, _, query = self.path.partition("?")
        if path.rstrip("/") != "/v1/jobs":
            self._send_json(404, {"error": f"no such path {self.path!r}"})
            return
        try:
            priority = int(
                urllib.parse.parse_qs(query).get("priority", ["0"])[0]
            )
        except ValueError:
            self._send_json(
                400, {"error": "priority must be an integer"}
            )
            return
        body = self._read_body()
        if body is None:
            return
        from repro import api as api_v1

        try:
            request = api_v1.request_from_payload(body)
            dedup_key = self.server.dedup_key_fn(request)
        except ValueError as error:
            self._send_json(400, {"error": str(error)})
            return
        try:
            record, deduped = self.server.queue.submit(
                type(request).__name__,
                request.to_payload(),
                dedup_key=dedup_key,
                trace_id=getattr(request, "trace", None),
                priority=priority,
            )
        except QueueFull as error:
            self._send_json(429, {"error": str(error)})
            return
        self._send_json(
            200 if deduped else 202,
            {"id": record.id, "state": record.state, "deduped": deduped,
             "trace": record.trace_id},
        )

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._request_started = time.perf_counter()
        path = self.path.partition("?")[0].rstrip("/")
        match = re.fullmatch(r"/v1/jobs/([A-Za-z0-9_.-]+)", path)
        if match is None:
            self._send_json(404, {"error": f"no such path {self.path!r}"})
            return
        job_id = match.group(1)
        state = self.server.queue.cancel(job_id)
        if state is None:
            self._send_json(404, {"error": f"no such job {job_id!r}"})
        elif state in ("cancelled", "cancelling"):
            self._send_json(200, {"id": job_id, "state": state})
        else:
            self._send_json(
                409,
                {"id": job_id, "state": state,
                 "error": f"job already terminal ({state})"},
            )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._request_started = time.perf_counter()
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            stats = self.server.queue.stats()
            payload = {"ok": True, "queue": stats}
            if self.server.health_fn is not None:
                payload.update(self.server.health_fn())
            self._send_json(200, payload)
            return
        if path == "/metrics":
            registry = (
                self.server.metrics_fn()
                if self.server.metrics_fn is not None
                else self.server.queue.metrics
            )
            self._send_text(
                200,
                render_metrics_text(registry, self.server.queue.stats()),
                content_type=METRICS_CONTENT_TYPE,
            )
            return
        events = re.fullmatch(r"/v1/jobs/([A-Za-z0-9_.-]+)/events", path)
        if events is not None:
            self._serve_events(events.group(1), query)
            return
        match = re.fullmatch(r"/v1/(jobs|results)/([A-Za-z0-9_.-]+)", path)
        if match is None:
            self._send_json(404, {"error": f"no such path {self.path!r}"})
            return
        view, job_id = match.groups()
        record = self.server.queue.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"no such job {job_id!r}"})
            return
        if view == "jobs":
            self._send_json(200, record.as_dict())
            return
        if record.state == "done":
            # complete() stored json.dumps(payload, sort_keys=True), the
            # bytes _send_json would make of it again: serve them as is.
            self._send_text(200, record.result_text, "application/json")
        elif record.state == "cancelled":
            self._send_json(
                410,
                {"id": record.id, "state": record.state,
                 "error": record.error or "cancelled"},
            )
        elif record.state in ("failed", "lost"):
            self._send_json(
                500,
                {"id": record.id, "state": record.state,
                 "error": record.error},
            )
        else:
            self._send_json(
                409,
                {"id": record.id, "state": record.state,
                 "error": "result not ready"},
            )

    # ------------------------------------------------------------------
    # Streaming span events (GET /v1/jobs/<id>/events).
    # ------------------------------------------------------------------
    def _serve_events(self, job_id: str, query: str) -> None:
        """NDJSON span stream for one job.

        Terminal job: the full merged journal in one fixed-length
        response — deterministic rendering, so two reads are
        byte-identical.  Live job: chunked transfer encoding, tailing
        the journals until the job reaches a terminal state (the final
        poll drains everything, including the closing spans) or the
        requested timeout lapses.
        """
        directory = self.server.telemetry_dir
        if directory is None:
            self._send_json(404, {"error": "telemetry disabled"})
            return
        record = self.server.queue.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"no such job {job_id!r}"})
            return
        params = urllib.parse.parse_qs(query)
        try:
            timeout = float(params.get("timeout", [_EVENTS_DEFAULT_TIMEOUT])[0])
        except ValueError:
            timeout = _EVENTS_DEFAULT_TIMEOUT
        timeout = min(max(0.0, timeout), _EVENTS_MAX_TIMEOUT)
        tail = JournalTail(directory, job=job_id)
        if record.state in TERMINAL_STATES:
            # The queue journals a terminal transition's closing spans
            # *after* the commit that made the state visible, so an
            # immediate read could catch the gap; wait briefly for the
            # root-span close so replays are complete (and therefore
            # byte-identical across reads).
            records = tail.poll()
            settle = time.monotonic() + 2.0
            while records and not any(
                r.get("ev") == "close" and r.get("span") == job_id
                for r in records
            ) and time.monotonic() < settle:
                time.sleep(0.05)
                records.extend(tail.poll())
            records.sort(key=_record_key)
            self._send_text(
                200, render_records(records),
                content_type="application/x-ndjson",
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        deadline = time.monotonic() + timeout
        try:
            while True:
                record = self.server.queue.get(job_id)
                done = record is None or record.state in TERMINAL_STATES
                # Poll *after* the state check: a terminal state is
                # journaled before it is visible, so this final drain
                # includes the closing spans.
                batch = tail.poll()
                if batch:
                    self._write_chunk(render_records(batch).encode("utf-8"))
                if done or time.monotonic() >= deadline:
                    break
                time.sleep(_EVENTS_POLL_INTERVAL)
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()
