"""The service's HTTP surface (stdlib ``http.server``, JSON bodies).

Endpoints::

    POST /jobs            submit a job        -> 201 {id, state, ...}
                          invalid payload     -> 400 {"error": ...}
                          queue saturated     -> 429 + Retry-After
                          draining            -> 503
    GET  /jobs            recent jobs         -> 200 {"jobs": [...]}
                          (?state=, ?limit=)
    GET  /jobs/<id>       lifecycle record    -> 200 / 404
    GET  /jobs/<id>/rows  result rows so far  -> 200 {"rows": [...]}
                          (?start=N for incremental polling)
    GET  /jobs/<id>/live  live telemetry      -> 200 SSE stream
                          (?since=N -> one long-poll JSON batch)
    GET  /jobs/<id>/profile
                          span cost breakdown -> 200 {"spans": [...]}
                          (profiled jobs only; empty list otherwise)
    GET  /healthz         liveness + counts   -> 200
    GET  /metrics         Prometheus text     -> 200

The server is a ``ThreadingHTTPServer`` (one daemon thread per
connection), so slow readers never block job submission; the sqlite
store underneath runs in WAL mode precisely so these reader threads
can stream a job's rows while a worker is still appending them.

``/jobs/<id>/live`` is the streaming half of the telemetry vertical
(see EXPERIMENTS.md, "Observability"): by default it speaks
Server-Sent Events -- one ``event: snapshot`` frame per persisted
engine snapshot, ``id:`` carrying the store's dense per-job seq, a
terminal ``event: done`` when the job leaves ``running`` -- so
``curl -N`` and ``EventSource`` both just work.  Passing ``?since=N``
switches the same route to a single long-poll JSON batch (snapshots
with ``seq > N``, waiting up to ``LIVE_POLL_MAX_WAIT_S`` for the first
new one), the fallback for clients that cannot hold a stream open.

Responses go out with ``TCP_NODELAY`` set (``disable_nagle_algorithm``
on :class:`ServeHandler`).  Each response is two writes -- the headers,
then the body -- and with Nagle's algorithm on, the small body segment
waits for the client's delayed ACK of the headers, a ~40 ms stall on
every keep-alive request.  The SSE loop likewise gathers each poll's
frames into one write, so a batch of snapshots goes out in one send.
"""

from __future__ import annotations

import json
import logging
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.serve.jobs import JobValidationError
from repro.serve.supervisor import QueueSaturated, ServiceDraining, Supervisor

log = logging.getLogger("repro.serve")

#: Largest request body we will read (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[0-9a-f]{1,32})$")
_ROWS_PATH = re.compile(r"^/jobs/(?P<id>[0-9a-f]{1,32})/rows$")
_LIVE_PATH = re.compile(r"^/jobs/(?P<id>[0-9a-f]{1,32})/live$")
_PROFILE_PATH = re.compile(r"^/jobs/(?P<id>[0-9a-f]{1,32})/profile$")

#: How often the SSE loop re-reads the store for new snapshots.
LIVE_SSE_POLL_S = 0.25
#: SSE keep-alive comment cadence while a job emits nothing.
LIVE_SSE_PING_S = 5.0
#: Long-poll (?since=N) maximum wait for the first new snapshot.
LIVE_POLL_MAX_WAIT_S = 20.0


class ServeHandler(BaseHTTPRequestHandler):
    """Routes requests onto the supervisor + store."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  A response leaves in
    # two writes (headers at end_headers(), then the body); with Nagle
    # on, the body waits for the client's delayed ACK of the headers,
    # about 40 ms on every keep-alive request.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    @property
    def supervisor(self) -> Supervisor:
        return self.server.supervisor  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:
        log.debug("%s %s", self.address_string(), fmt % args)

    def _send(self, status: int, body: bytes, content_type: str,
              extra: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, doc: Any,
              extra: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json", extra)

    def _error(self, status: int, message: str,
               extra: Optional[Dict[str, str]] = None) -> None:
        self._json(status, {"error": message}, extra)

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._get()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response (e.g. dropped an SSE)
        except Exception as exc:  # lint: allow[broad-except] -- 500 response, never a dead handler thread
            log.exception("GET %s failed", self.path)
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._post()
        except BrokenPipeError:
            pass
        except Exception as exc:  # lint: allow[broad-except] -- 500 response, never a dead handler thread
            log.exception("POST %s failed", self.path)
            self._error(500, f"{type(exc).__name__}: {exc}")

    # -- GET routes ----------------------------------------------------
    def _get(self) -> None:
        parsed = urlparse(self.path)
        path, query = parsed.path.rstrip("/") or "/", parse_qs(parsed.query)
        if path == "/healthz":
            self._json(200, self.supervisor.health())
            return
        if path == "/metrics":
            self._send(
                200, self.supervisor.metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
            return
        if path == "/jobs":
            self._list_jobs(query)
            return
        match = _JOB_PATH.match(path)
        if match:
            self._get_job(match.group("id"))
            return
        match = _ROWS_PATH.match(path)
        if match:
            self._get_rows(match.group("id"), query)
            return
        match = _LIVE_PATH.match(path)
        if match:
            self._get_live(match.group("id"), query)
            return
        match = _PROFILE_PATH.match(path)
        if match:
            self._get_profile(match.group("id"))
            return
        self._error(404, f"no route for {path!r}")

    def _list_jobs(self, query: Dict) -> None:
        state = query.get("state", [None])[0]
        limit = self._int_param(query, "limit", 100)
        records = self.supervisor.store.list_jobs(state=state, limit=limit)
        self._json(200, {"jobs": [record.as_dict() for record in records]})

    def _get_job(self, job_id: str) -> None:
        record = self.supervisor.store.get(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        count = self.supervisor.store.row_count(job_id)
        doc = record.as_dict(row_count=count)
        if record.state == "running":
            beat = record.heartbeat_at or record.started_at
            doc["heartbeat_age_s"] = (
                round(max(0.0, time.time() - beat), 3) if beat else None
            )
        self._json(200, doc)

    def _get_rows(self, job_id: str, query: Dict) -> None:
        store = self.supervisor.store
        record = store.get(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        start = self._int_param(query, "start", 0)
        rows = store.rows(job_id, start=start)
        self._json(200, {
            "job": job_id,
            "state": record.state,
            "start": start,
            "count": len(rows),
            "rows": [{"index": index, "row": row} for index, row in rows],
        })

    def _get_profile(self, job_id: str) -> None:
        """A profiled job's span breakdown, hottest self-time first.

        Written once by the worker when the job finishes, so a running
        (or unprofiled) job answers with an empty list -- the ``state``
        field tells the client whether to keep polling.
        """
        store = self.supervisor.store
        record = store.get(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        spans = store.profile(job_id)
        self._json(200, {
            "job": job_id,
            "state": record.state,
            "profiled": bool(record.spec.get("profile", False)),
            "spans": spans,
        })

    # -- live telemetry ------------------------------------------------
    def _get_live(self, job_id: str, query: Dict) -> None:
        store = self.supervisor.store
        record = store.get(job_id)
        if record is None:
            self._error(404, f"no job {job_id!r}")
            return
        if "since" in query:
            try:
                # -1 means "from the beginning" (seqs start at 0), so
                # this cursor is not _int_param's clamped-at-zero kind.
                since = max(-1, int(query["since"][0]))
            except ValueError:
                since = -1
            self._live_poll(job_id, since)
        else:
            self._live_sse(job_id)

    def _live_poll(self, job_id: str, since: int) -> None:
        """Long-poll fallback: one JSON batch of snapshots past ``since``.

        Waits up to :data:`LIVE_POLL_MAX_WAIT_S` for the first snapshot
        newer than ``since`` (or the job leaving ``running``), so a
        poll loop costs one request per batch instead of one per probe.
        ``next_since`` is the cursor for the follow-up request.
        """
        store = self.supervisor.store
        deadline = time.monotonic() + LIVE_POLL_MAX_WAIT_S
        while True:
            record = store.get(job_id)
            done = record is None or record.state not in ("queued", "running")
            snaps = store.snapshots(job_id, after=since)
            if snaps or done or time.monotonic() >= deadline:
                break
            time.sleep(LIVE_SSE_POLL_S)
        next_since = snaps[-1][0] if snaps else since
        self._json(200, {
            "job": job_id,
            "state": record.state if record is not None else None,
            "since": since,
            "next_since": next_since,
            "done": done,
            "snapshots": [
                {"seq": seq, "snapshot": doc} for seq, doc in snaps
            ],
        })

    def _live_sse(self, job_id: str) -> None:
        """Stream a running job's snapshots as Server-Sent Events.

        Headers are written by hand because :meth:`_send` speaks
        Content-Length, and an SSE body has none: the stream ends when
        the job does (terminal ``event: done`` frame), closing the
        connection (HTTP/1.1 read-until-close framing).
        """
        store = self.supervisor.store
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        last_seq = -1
        next_ping = time.monotonic() + LIVE_SSE_PING_S
        while True:
            record = store.get(job_id)
            done = record is None or record.state not in ("queued", "running")
            # One write per poll: with Nagle off every write leaves as
            # its own send, so the iteration's frames are joined first.
            frames = []
            for seq, doc in store.snapshots(job_id, after=last_seq):
                last_seq = seq
                payload = json.dumps(doc, sort_keys=True)
                frames.append(f"id: {seq}\nevent: snapshot\ndata: {payload}\n\n")
            now = time.monotonic()
            if done:
                state = record.state if record is not None else "deleted"
                payload = json.dumps(
                    {"job": job_id, "state": state, "last_seq": last_seq},
                    sort_keys=True,
                )
                frames.append(f"event: done\ndata: {payload}\n\n")
            elif frames:
                next_ping = now + LIVE_SSE_PING_S
            elif now >= next_ping:
                # Keep-alive comment: lets proxies and the client's TCP
                # stack notice a dead peer during quiet stretches.
                frames.append(": ping\n\n")
                next_ping = now + LIVE_SSE_PING_S
            if frames:
                self.wfile.write("".join(frames).encode("utf-8"))
                self.wfile.flush()
            if done:
                return
            time.sleep(LIVE_SSE_POLL_S)

    @staticmethod
    def _int_param(query: Dict, key: str, default: int) -> int:
        raw = query.get(key, [None])[0]
        if raw is None:
            return default
        try:
            return max(0, int(raw))
        except ValueError:
            return default

    # -- POST routes ---------------------------------------------------
    def _post(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path != "/jobs":
            self._error(404, f"no route for {path!r}")
            return
        payload, problem = self._read_json()
        if problem is not None:
            self._error(400, problem)
            return
        try:
            record = self.supervisor.submit(payload)
        except JobValidationError as exc:
            self._error(400, str(exc))
        except QueueSaturated as exc:
            self._error(
                429, str(exc),
                extra={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except ServiceDraining as exc:
            # A drain is transient by design (the next start picks the
            # queue back up), so tell well-behaved clients when to retry.
            retry = self.supervisor.retry_after
            self._error(
                503, str(exc),
                extra={"Retry-After": f"{max(1, round(retry))}"},
            )
        else:
            self._json(201, record.as_dict(row_count=0))

    def _read_json(self) -> Tuple[Any, Optional[str]]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None, "bad Content-Length"
        if length <= 0:
            return None, "request body required (a JSON job spec)"
        if length > MAX_BODY_BYTES:
            return None, f"request body over {MAX_BODY_BYTES} bytes"
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"request body is not valid JSON: {exc}"


def make_server(supervisor: Supervisor, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Bind the HTTP server (``port=0`` -> ephemeral) around a supervisor.

    The caller owns the lifecycle: ``serve_forever()`` in some thread,
    ``shutdown()`` to stop accepting, and :meth:`Supervisor.drain` for
    the jobs themselves.
    """
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.daemon_threads = True
    server.supervisor = supervisor  # type: ignore[attr-defined]
    return server
