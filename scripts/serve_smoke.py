#!/usr/bin/env python
"""``make serve-smoke`` -- end-to-end drill of ``python -m repro serve``.

Boots the service on an ephemeral port with a throwaway data dir,
then walks the whole lifecycle the ISSUE acceptance demands:

1. ``GET /healthz`` answers ``ok``;
2. ``POST /jobs`` submits a small catalog job with an injected
   ``crash@0`` fault (the first point's first attempt hard-kills its
   worker process -- the supervisor must absorb the
   ``BrokenProcessPool``, rebuild, and retry);
3. ``GET /jobs/<id>/live`` is attached mid-job and must stream at
   least one ``event: snapshot`` SSE frame (gap-free seqs, terminal
   frame matching the persisted row) before the ``event: done``;
4. the job is polled to ``succeeded`` over one keep-alive connection,
   whose median poll round trip must stay under 20 ms (a missing
   ``TCP_NODELAY`` costs ~40 ms of delayed ACK per request), and its
   rows are served back;
5. ``GET /metrics`` exposes the Prometheus counters;
6. SIGTERM drains the service, which must exit 0 within the drain
   timeout.

Stdlib only; exits non-zero (with the service log) on any violation.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

POLL_TIMEOUT_S = 180.0
DRAIN_TIMEOUT_S = 20.0
#: Status-poll period.  It must stay well under ~50 ms: after a longer
#: idle gap the client ACKs at once and a Nagle stall cannot show.
POLL_PERIOD_S = 0.02
POLL_RTT_LIMIT_S = 0.020

JOB = {
    "scenarios": ["flash-crowd"],
    "defenses": ["Null", "ERGO"],
    "n0_scale": 0.05,
    "jobs": 2,               # crash faults need worker *processes*
    "max_retries": 2,
    "fault_spec": "crash@0",  # first point's first attempt dies hard
    "snapshot_interval": 1.0,  # live telemetry for the /live drill
}


def fail(message: str, output: str = "") -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    if output:
        print("---- service output ----", file=sys.stderr)
        print(output, file=sys.stderr)
    sys.exit(1)


def request(method: str, url: str, payload=None, timeout: float = 15.0):
    body = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def poll_job(url: str, job_id: str):
    """Poll ``GET /jobs/<id>`` on one keep-alive connection until the job
    finishes; return (record, per-poll round trips, connection reused)."""
    conn = http.client.HTTPConnection(url[len("http://"):], timeout=15.0)
    conn.connect()  # time request round trips, not the TCP handshake
    deadline = time.time() + POLL_TIMEOUT_S
    record: dict = {}
    rtts: list = []
    socks: set = set()
    try:
        while time.time() < deadline:
            started = time.perf_counter()
            conn.request("GET", f"/jobs/{job_id}")
            resp = conn.getresponse()
            body = resp.read().decode("utf-8")
            rtts.append(time.perf_counter() - started)
            socks.add(conn.sock)  # None once the server closed it
            record = json.loads(body)
            if resp.status == 200 and record["state"] in ("succeeded", "failed"):
                break
            time.sleep(POLL_PERIOD_S)
    finally:
        conn.close()
    return record, rtts, len(socks) == 1


def read_live(url: str, job_id: str, frames: list) -> None:
    """Collect SSE frames from /jobs/<id>/live until the done event."""
    try:
        resp = urllib.request.urlopen(
            f"{url}/jobs/{job_id}/live", timeout=POLL_TIMEOUT_S
        )
        buf = b""
        while True:
            chunk = resp.read(1)
            if not chunk:
                return
            buf += chunk
            if buf.endswith(b"\n\n"):
                frames.append(buf.decode("utf-8"))
                if buf.startswith(b"event: done"):
                    return
                buf = b""
    except Exception as exc:  # lint: allow[broad-except] -- reader errors surface through the frames assertion
        frames.append(f"READER-ERROR: {exc}")


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         "--port", "0", "--data-dir", data_dir,
         "--max-workers", "1", "--drain-timeout", str(DRAIN_TIMEOUT_S)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines: list = []
    banner = threading.Event()
    base = [""]

    def pump() -> None:
        for line in proc.stdout:  # type: ignore[union-attr]
            lines.append(line)
            match = re.search(r"listening on (http://[\w.:]+)", line)
            if match:
                base[0] = match.group(1)
                banner.set()

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()

    try:
        if not banner.wait(timeout=60.0):
            fail("service never printed its listen banner", "".join(lines))
        url = base[0]

        status, body = request("GET", f"{url}/healthz")
        if status != 200 or json.loads(body)["status"] != "ok":
            fail(f"healthz: {status} {body}", "".join(lines))

        status, body = request("POST", f"{url}/jobs", JOB)
        if status != 201:
            fail(f"submit: {status} {body}", "".join(lines))
        job_id = json.loads(body)["id"]
        print(f"serve-smoke: submitted job {job_id} (crash@0 injected)")

        frames: list = []
        live_reader = threading.Thread(
            target=read_live, args=(url, job_id, frames), daemon=True
        )
        live_reader.start()

        record, rtts, reused = poll_job(url, job_id)
        if record.get("state") != "succeeded":
            fail(f"job did not succeed: {record}", "".join(lines))
        if not reused:
            fail("status polls did not share one keep-alive connection",
                 "".join(lines))
        median_rtt = statistics.median(rtts)
        if median_rtt >= POLL_RTT_LIMIT_S:
            fail(f"median keep-alive poll round trip {median_rtt * 1e3:.1f} ms"
                 f" >= {POLL_RTT_LIMIT_S * 1e3:.0f} ms over {len(rtts)} polls",
                 "".join(lines))
        print(f"serve-smoke: {len(rtts)} status polls on one keep-alive "
              f"connection, median round trip {median_rtt * 1e3:.1f} ms")
        summary = record["summary"]
        if summary["pool_rebuilds"] + summary["retries"] < 1:
            fail(f"injected crash left no recovery trace: {summary}",
                 "".join(lines))
        print(f"serve-smoke: job succeeded "
              f"(retries={summary['retries']}, "
              f"pool_rebuilds={summary['pool_rebuilds']})")

        status, body = request("GET", f"{url}/jobs/{job_id}/rows")
        rows = json.loads(body)
        if status != 200 or rows["count"] != len(JOB["defenses"]):
            fail(f"rows: {status} {body}", "".join(lines))

        live_reader.join(timeout=30.0)
        errors = [f for f in frames if f.startswith("READER-ERROR")]
        if errors:
            fail(f"live reader: {errors[0]}", "".join(lines))
        snaps = [f for f in frames if "event: snapshot" in f]
        dones = [f for f in frames if f.startswith("event: done")]
        if not snaps:
            fail(f"/live streamed no snapshot frames ({len(frames)} frames)",
                 "".join(lines))
        if not dones:
            fail("/live never sent the terminal done frame", "".join(lines))
        seqs = [int(f.split("id: ")[1].split("\n")[0]) for f in snaps]
        if seqs != list(range(seqs[0], seqs[0] + len(seqs))):
            fail(f"/live seqs are not gap-free monotone: {seqs}",
                 "".join(lines))
        last = [
            json.loads(f.split("data: ")[1].strip())
            for f in snaps
            if json.loads(f.split("data: ")[1].strip()).get("last")
        ]
        row_by_idx = {r["index"]: r["row"] for r in rows["rows"]}
        for snap in last:
            row = row_by_idx[snap["point"]]
            if abs(snap["good_spend"] - row["good_spend"]) > 1e-9:
                fail(f"terminal snapshot disagrees with row: {snap}",
                     "".join(lines))
        print(f"serve-smoke: /live streamed {len(snaps)} snapshot(s), "
              f"{len(last)} terminal, all matching persisted rows")

        status, body = request("GET", f"{url}/metrics")
        if status != 200 or "repro_serve_jobs" not in body:
            fail(f"metrics: {status} {body[:200]}", "".join(lines))

        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=DRAIN_TIMEOUT_S + 30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("service did not exit after SIGTERM + drain timeout",
                 "".join(lines))
        if code != 0:
            fail(f"service exited {code} after SIGTERM", "".join(lines))
        print("serve-smoke: SIGTERM drained cleanly (exit 0)")
        print("serve-smoke: PASS")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)


if __name__ == "__main__":
    main()
