"""The async front door: JSON-over-HTTP on one persistent runner.

A hand-rolled ``asyncio.start_server`` HTTP/1.1 loop — no web framework, no
new dependency — whose every request is answered by :class:`SolverService`
against a single warm :class:`~repro.runtime.runner.ExperimentRunner`.  The
event loop never executes solver work: submissions go through the runner's
non-blocking :meth:`~repro.runtime.runner.ExperimentRunner.submit_jobs`
(answered from memo/cache or queued for the runner's background drain
thread), so the loop's own work per request is parsing, hashing and small
disk reads.

Endpoints (all JSON; ``Connection: close`` per request)
-------------------------------------------------------
``GET  /v1/healthz``
    Liveness + protocol version.
``POST /v1/submit``
    Body ``{"protocol": 1, "client": id, "jobs": [spec, ...]}`` (specs per
    :mod:`repro.service.protocol`).  Answers ``{"tickets": [...]}``; HTTP 429
    with ``Retry-After`` when the client's token bucket or the runner's
    submit queue pushes back.
``GET  /v1/tickets/<id>`` (``?result=1`` to include the result payload)
    Ticket state.  On a restarted server, finished tickets are answered
    straight from the content-addressed cache — the ticket id *is* the job
    hash, so results survive the process that computed them.
``GET  /v1/stats``
    Runner counters (jobs run, cache hits, coalescing, submit queue depth,
    drain-thread liveness) + admission counters.
``GET  /metrics`` (also ``/v1/metrics``)
    JSON snapshot of the process-global metrics spine
    (:mod:`repro.obs.metrics`): counters, gauges, and timing histograms from
    every instrumented seam, plus the runner counters.
``GET  /v1/campaigns`` and ``GET /v1/campaigns/<run_id>``
    Campaign runs and per-run stage states, projected from the run ledger.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import get_metrics
from repro.runtime.runner import TICKET_DONE, ExperimentRunner, SubmitQueueFull
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    build_jobs,
    encode_ticket,
)
from repro.service.ratelimit import DEFAULT_BURST, DEFAULT_RATE, RateLimiter
from repro.service.state import ServiceState

#: Largest accepted request body (a submit batch of job specs is small).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted request-line/header line.
MAX_LINE_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: (status, payload, extra headers) — what every route handler returns.
Response = Tuple[int, Dict[str, Any], Dict[str, str]]


class SolverService:
    """Request handling against one persistent runner (transport-agnostic).

    The HTTP loop below is one transport; tests drive :meth:`handle`
    directly, which keeps the protocol logic synchronous and deterministic.
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        cache_root: Union[str, Path],
        rate: float = DEFAULT_RATE,
        burst: float = DEFAULT_BURST,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.runner = runner
        self.cache_root = Path(cache_root)
        self.state = ServiceState(self.cache_root)
        limiter_kwargs: Dict[str, Any] = {"rate": rate, "burst": burst}
        if clock is not None:
            limiter_kwargs["clock"] = clock
        self.limiter = RateLimiter(**limiter_kwargs)
        self.requests = 0
        self.rejected_rate = 0
        self.rejected_backpressure = 0
        # Tickets issued by previous incarnations of this service (their
        # results, if finished, live in the content-addressed cache).
        self.recovered_tickets = self.state.load_tickets()

    # ------------------------------------------------------------------
    def handle(self, method: str, target: str, body: Optional[Dict[str, Any]]) -> Response:
        """Dispatch one request; never raises (errors become responses)."""
        self.requests += 1
        path, _, query_text = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_text.split("&"):
            key, _, value = pair.partition("=")
            if key:
                query[key] = value
        metrics = get_metrics()
        metrics.inc("service.requests")
        try:
            with metrics.timer("service.request_seconds"):
                return self._route(method, path, query, body)
        except ProtocolError as exc:
            return 400, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    def _route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ) -> Response:
        if path == "/v1/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, {"ok": True, "protocol": PROTOCOL_VERSION}, {}
        if path == "/v1/submit":
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            return self._handle_submit(body)
        if path.startswith("/v1/tickets/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            ticket_id = path[len("/v1/tickets/"):]
            include_result = query.get("result", "") not in ("", "0")
            return self._handle_ticket(ticket_id, include_result)
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return self._handle_stats()
        if path in ("/metrics", "/v1/metrics"):
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return self._handle_metrics()
        if path == "/v1/campaigns":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return self._handle_campaigns(None)
        if path.startswith("/v1/campaigns/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return self._handle_campaigns(path[len("/v1/campaigns/"):])
        return 404, {"error": f"unknown path {path!r}"}, {}

    # ------------------------------------------------------------------
    def _handle_submit(self, body: Optional[Dict[str, Any]]) -> Response:
        if not isinstance(body, dict):
            raise ProtocolError("submit body must be a JSON object")
        protocol = body.get("protocol", PROTOCOL_VERSION)
        if protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol {protocol!r} not supported (server speaks {PROTOCOL_VERSION})"
            )
        client = body.get("client", "anonymous")
        if not isinstance(client, str) or not client:
            raise ProtocolError("submit key 'client' must be a non-empty string")
        specs = body.get("jobs")
        if not isinstance(specs, list):
            raise ProtocolError("submit key 'jobs' must be a list of job specs")
        jobs = build_jobs(specs)

        allowed, retry_after = self.limiter.try_acquire(client, tokens=float(len(jobs)))
        if not allowed:
            self.rejected_rate += 1
            seconds = 1 if not math.isfinite(retry_after) else max(1, math.ceil(retry_after))
            return (
                429,
                {
                    "error": "rate limited",
                    "client": client,
                    "retry_after": retry_after,
                },
                {"Retry-After": str(seconds)},
            )
        try:
            tickets = self.runner.submit_jobs(jobs)
        except SubmitQueueFull as exc:
            self.rejected_backpressure += 1
            return (
                429,
                {
                    "error": "submit queue full",
                    "depth": exc.depth,
                    "limit": exc.limit,
                    "retry_after": 1.0,
                },
                {"Retry-After": "1"},
            )
        self.state.record_tickets(tickets, client)
        return (
            200,
            {
                "protocol": PROTOCOL_VERSION,
                "tickets": [encode_ticket(ticket) for ticket in tickets],
            },
            {},
        )

    def _handle_ticket(self, ticket_id: str, include_result: bool) -> Response:
        ticket = self.runner.poll(ticket_id)
        if ticket is not None:
            if ticket.finished:
                self.state.record_tickets([ticket], client="anonymous")
            return 200, encode_ticket(ticket, include_result=include_result), {}
        # Not issued by this incarnation: the cache is the durable store, and
        # the ticket id is the job hash.
        if self.runner.cache is not None:
            envelope = self.runner.cache.load_envelope(ticket_id)
            if envelope is not None:
                payload: Dict[str, Any] = {
                    "ticket_id": ticket_id,
                    "state": TICKET_DONE,
                    "source": "cache",
                    "coalesced": 0,
                }
                if include_result:
                    payload["result"] = envelope["result"]
                return 200, payload, {}
        recovered = self.recovered_tickets.get(ticket_id)
        if recovered is not None:
            return (
                200,
                {
                    "ticket_id": ticket_id,
                    "state": recovered["state"],
                    "source": recovered.get("source", "computed"),
                    "coalesced": 0,
                    "recovered": True,
                },
                {},
            )
        return 404, {"error": f"unknown ticket {ticket_id!r}"}, {}

    def _handle_stats(self) -> Response:
        return (
            200,
            {
                "protocol": PROTOCOL_VERSION,
                "runner": self.runner.stats(),
                "ratelimit": self.limiter.stats(),
                "service": {
                    "requests": self.requests,
                    "rejected_rate": self.rejected_rate,
                    "rejected_backpressure": self.rejected_backpressure,
                },
            },
            {},
        )

    def _handle_metrics(self) -> Response:
        """The metrics spine's JSON snapshot plus the runner counters."""
        return (
            200,
            {
                "protocol": PROTOCOL_VERSION,
                "metrics": get_metrics().snapshot(),
                "runner": self.runner.stats(),
            },
            {},
        )

    def _handle_campaigns(self, run_id: Optional[str]) -> Response:
        from repro.campaigns import RunLedger, ledger_root

        ledger = RunLedger(ledger_root(self.cache_root))
        if run_id is None:
            runs = [
                {
                    "run_id": state.run_id,
                    "campaign": state.campaign,
                    "finished": state.finished,
                    "stages_passed": sum(
                        1 for value in state.stage_states.values() if value == "passed"
                    ),
                    "jobs_recorded": state.num_finished_jobs,
                }
                for state in ledger.list_runs()
            ]
            return 200, {"runs": runs}, {}
        try:
            state = ledger.replay(run_id)
        except Exception as exc:  # noqa: BLE001 - unknown/corrupt run → 404
            return 404, {"error": f"unknown run {run_id!r}: {exc}"}, {}
        return (
            200,
            {
                "run_id": state.run_id,
                "campaign": state.campaign,
                "finished": state.finished,
                "stage_states": {
                    name: state.stage_states[name]
                    for name in sorted(state.stage_states)
                },
                "jobs_recorded": state.num_finished_jobs,
            },
            {},
        )


# ----------------------------------------------------------------------
# The asyncio HTTP transport.
# ----------------------------------------------------------------------
async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Optional[Dict[str, Any]]]]:
    """Parse one HTTP request; ``None`` on EOF, raises ``ProtocolError`` on junk."""
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProtocolError(f"oversized request line: {exc}") from exc
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError("malformed request line")
    method, target = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("oversized header line")
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise ProtocolError("malformed Content-Length") from exc
    if content_length > MAX_BODY_BYTES:
        raise ProtocolError(f"request body exceeds {MAX_BODY_BYTES} bytes")
    body: Optional[Dict[str, Any]] = None
    if content_length:
        raw = await reader.readexactly(content_length)
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ProtocolError("request body must be a JSON object")
        body = decoded
    return method, target, body


def _encode_response(
    status: int, payload: Dict[str, Any], extra_headers: Dict[str, str]
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name in sorted(extra_headers):
        lines.append(f"{name}: {extra_headers[name]}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _handle_connection(
    service: SolverService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            request = await _read_request(reader)
        except ProtocolError as exc:
            writer.write(_encode_response(400, {"error": str(exc)}, {}))
            await writer.drain()
            return
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return
        if request is None:
            return
        method, target, body = request
        status, payload, extra = service.handle(method, target, body)
        writer.write(_encode_response(status, payload, extra))
        await writer.drain()
    except (ConnectionError, OSError):  # pragma: no cover - client went away
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def serve(
    service: SolverService,
    host: str = "127.0.0.1",
    port: int = 0,
    log: Optional[Callable[[str], None]] = None,
) -> None:
    """Bind, publish the endpoint record, and serve until cancelled."""
    server = await asyncio.start_server(
        lambda reader, writer: _handle_connection(service, reader, writer),
        host=host,
        port=port,
        limit=MAX_LINE_BYTES,
    )
    sockets = server.sockets or []
    bound_port = sockets[0].getsockname()[1] if sockets else port
    service.state.write_endpoint(host, bound_port, PROTOCOL_VERSION)
    if log is not None:
        log(f"msropm service listening on http://{host}:{bound_port} (protocol {PROTOCOL_VERSION})")
        log(f"endpoint record: {service.state.endpoint_path}")
    loop = asyncio.get_running_loop()
    serving = asyncio.ensure_future(server.serve_forever())
    stopped_by: List[int] = []

    def stop(signum: int) -> None:
        if log is not None:
            log(f"msropm service: {signal.Signals(signum).name}, shutting down")
        stopped_by.append(signum)
        serving.cancel()

    stop_signals = _install_stop_handlers(loop, stop)
    try:
        async with server:
            await serving
    except asyncio.CancelledError:
        if not stopped_by:
            raise
    finally:
        for signum in stop_signals:
            loop.remove_signal_handler(signum)
        service.state.clear_endpoint()


def _install_stop_handlers(
    loop: asyncio.AbstractEventLoop, stop: Callable[[int], None]
) -> Tuple[int, ...]:
    """Route SIGINT and SIGTERM to ``stop(signum)``; returns the signals handled.

    Installed explicitly rather than relying on ``KeyboardInterrupt``: a
    server started as a non-interactive shell's background job inherits
    SIGINT as ignored, and a default SIGTERM would kill it before the
    endpoint record is removed.  Only the main thread may own signal
    handlers, so a loop run elsewhere (tests, embedders) gets none.
    """
    if threading.current_thread() is not threading.main_thread():
        return ()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop, int(signum))
        except (NotImplementedError, RuntimeError, ValueError):  # pragma: no cover
            continue  # a platform without loop signal support
        installed.append(int(signum))
    return tuple(installed)


def run_server(
    runner: ExperimentRunner,
    cache_root: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    rate: float = DEFAULT_RATE,
    burst: float = DEFAULT_BURST,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Blocking entry point of ``msropm serve`` (returns the exit code).

    SIGINT and SIGTERM stop it gracefully: exit code 0, endpoint record
    removed.
    """
    service = SolverService(runner, cache_root, rate=rate, burst=burst)
    try:
        asyncio.run(serve(service, host=host, port=port, log=log))
    except KeyboardInterrupt:
        if log is not None:
            log("msropm service: interrupted, shutting down")
    return 0
