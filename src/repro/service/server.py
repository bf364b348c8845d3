"""Stdlib HTTP front-end for the planner service, plus its client.

``repro serve`` is this module: a :class:`ThreadingHTTPServer` (one
thread per connection — coalescing in :class:`PlannerService` is what
makes that safe under duplicate bursts) over four endpoints:

=============  ====  ==================================================
``/plan``      POST  a :class:`PlanRequest` doc → plan summary + envelope
``/simulate``  POST  a :class:`SimulateRequest` doc → per-plan what-if
                     profiles (batched columnar simulation, cached)
``/stats``     GET   service counters, cache stats, latency p50/p99
``/health``    GET   liveness probe
``/shutdown``  POST  graceful stop: drain, close the fleet, exit serve()
=============  ====  ==================================================

Errors map to status codes a retrying client can act on: 400 for a bad
request (unknown preset, malformed doc, unknown plan label, a negative
or non-numeric ``Content-Length``), 413 for a body over
:data:`MAX_BODY_BYTES` (refused unread), 429 when admission control
sheds load, 500 for a failed search.
:class:`PlannerClient` is the matching urllib-only client used by
``repro plan --remote`` and ``repro simulate --remote``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .planner import PlannerService, ServiceError, ServiceOverloadedError
from .requests import PlanRequest, SimulateRequest

__all__ = ["PlannerClient", "PlannerServer", "serve"]

#: Largest request body the server reads; request documents are well
#: under 1 kB, so anything bigger is refused before it is read.
MAX_BODY_BYTES = 1 << 20


class _BodyTooLarge(Exception):
    """The declared request body exceeds :data:`MAX_BODY_BYTES`."""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-planner"
    protocol_version = "HTTP/1.1"

    # The driving process reports through the service's own stats; the
    # default per-request stderr lines would just interleave with them.
    def log_message(self, fmt, *args) -> None:
        pass

    @property
    def service(self) -> PlannerService:
        return self.server.service  # type: ignore[attr-defined]

    def _reply(self, status: int, doc: Dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_doc(self) -> Dict:
        declared = self.headers.get("Content-Length") or "0"
        length = int(declared) if declared.strip().isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request: reply, then close it.
            self.close_connection = True
            if length < 0:
                raise ValueError(f"invalid Content-Length: {declared!r}")
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/health":
            self._reply(200, {"status": "ok"})
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/shutdown":
            self._reply(200, {"status": "shutting down"})
            threading.Thread(
                target=self.server.shutdown, daemon=True  # type: ignore[attr-defined]
            ).start()
            return
        if self.path not in ("/plan", "/simulate"):
            self._reply(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            doc = self._read_doc()
            if self.path == "/simulate":
                response = self.service.simulate(SimulateRequest.from_doc(doc))
            else:
                response = self.service.plan(PlanRequest.from_doc(doc))
        except _BodyTooLarge as exc:
            self._reply(413, {"error": str(exc)})
            return
        except ServiceOverloadedError as exc:
            self._reply(429, {"error": str(exc)})
            return
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        except ServiceError as exc:
            self._reply(500, {"error": str(exc)})
            return
        env = response.envelope
        body = {
            "key": response.key,
            "source": response.source,
            "cached": response.cached,
            "latency_seconds": response.latency_seconds,
            "label": response.label,
            "engine": env.engine,
            "timings": env.timings,
            "envelope": json.loads(env.to_json()),
        }
        if self.path == "/simulate":
            body["profiles"] = env.profiles
        else:
            body["cost"] = response.cost
        self._reply(200, body)


class PlannerServer:
    """Bind a :class:`PlannerService` to a host:port."""

    def __init__(
        self, service: PlannerService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block until ``/shutdown`` (or ``shutdown()``); then close."""
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def start_background(self) -> "PlannerServer":
        # Run the same blocking entry point so a remote /shutdown also
        # reaches close(): the listening socket must go away, or probes
        # hang in the dead server's accept backlog.
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.close()

    def close(self) -> None:
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "PlannerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(
    host: str = "127.0.0.1",
    port: int = 8090,
    *,
    cache_dir=None,
    workers: Optional[int] = None,
    lru_capacity: int = 128,
    queue_limit: int = 32,
) -> PlannerServer:
    """Build service + server (not yet running); the CLI entry point."""
    service = PlannerService(
        cache_dir,
        workers=workers,
        lru_capacity=lru_capacity,
        queue_limit=queue_limit,
    )
    return PlannerServer(service, host, port)


class PlannerClient:
    """urllib-only client for a running planner daemon."""

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _call(
        self, path: str, doc: Optional[Dict] = None, timeout: Optional[float] = None
    ) -> Dict:
        url = f"{self.base_url}{path}"
        data = json.dumps(doc).encode("utf-8") if doc is not None else None
        req = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout or self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                message = exc.reason
            if exc.code == 429:
                raise ServiceOverloadedError(0, 0) from exc
            raise ServiceError(f"{path} failed ({exc.code}): {message}") from exc

    def plan(self, request: PlanRequest) -> Dict:
        return self._call("/plan", request.to_doc())

    def simulate(self, request: SimulateRequest) -> Dict:
        return self._call("/simulate", request.to_doc())

    def stats(self) -> Dict:
        return self._call("/stats")

    def health(self, timeout: float = 5.0) -> bool:
        try:
            return self._call("/health", timeout=timeout).get("status") == "ok"
        except (ServiceError, urllib.error.URLError, OSError):
            return False

    def shutdown(self) -> Dict:
        return self._call("/shutdown", {})
