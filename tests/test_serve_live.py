"""Live telemetry over the service: snapshot store, SSE, long-poll.

Same in-process-over-a-real-socket style as ``test_serve_api``: the
SSE stream is read through actual HTTP/1.1 read-until-close framing,
so the wire format (``id:`` / ``event:`` / ``data:`` frames, terminal
``done``) is what a ``curl -N`` client would see.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.api import make_server
from repro.serve.store import JobStore
from repro.serve.supervisor import Supervisor

SPEC = {"scenarios": ["flash-crowd"], "defenses": ["Null"]}

LIVE_JOB = {
    "scenarios": ["flash-crowd"], "defenses": ["Null"],
    "seed": 7, "n0_scale": 0.05, "snapshot_interval": 1.0,
}


def _store(tmp_path) -> JobStore:
    return JobStore(tmp_path / "jobs.sqlite3")


@pytest.fixture()
def service(tmp_path):
    """A live server whose workers are NOT started: jobs stay queued,
    so snapshots can be staged by hand and reads are deterministic."""
    store = JobStore(tmp_path / "jobs.sqlite3")
    supervisor = Supervisor(
        store, tmp_path / "checkpoints", max_workers=1, max_queued=4,
    )
    server = make_server(supervisor, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, supervisor
    finally:
        server.shutdown()
        server.server_close()
        store.close()


def request(base, path, payload=None, method=None):
    """Return (status, headers, parsed-JSON-or-text body)."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        base + path, data=data, headers=headers, method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw, status, info = resp.read(), resp.status, resp.headers
    except urllib.error.HTTPError as exc:
        with exc:  # an HTTPError owns the response socket
            raw, status, info = exc.read(), exc.code, exc.headers
    if info.get_content_type() == "application/json":
        return status, info, json.loads(raw)
    return status, info, raw.decode()


def parse_sse(body: str):
    """SSE body -> list of (event, id-or-None, parsed-data) frames."""
    frames = []
    for chunk in body.split("\n\n"):
        if not chunk.strip() or chunk.startswith(":"):
            continue  # keep-alive comment
        event = frame_id = data = None
        for line in chunk.splitlines():
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("id: "):
                frame_id = int(line[len("id: "):])
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        frames.append((event, frame_id, data))
    return frames


class TestSnapshotStore:
    def test_put_assigns_dense_seqs_per_job(self, tmp_path):
        store = _store(tmp_path)
        store.submit("j1", SPEC)
        store.submit("j2", SPEC)
        assert store.put_snapshot("j1", {"sim_time": 1.0}) == 0
        assert store.put_snapshot("j1", {"sim_time": 2.0}) == 1
        # Seq spaces are per job, not global.
        assert store.put_snapshot("j2", {"sim_time": 1.0}) == 0
        assert store.put_snapshot("j1", {"sim_time": 3.0}) == 2
        assert store.snapshot_count("j1") == 3
        assert store.snapshot_count("j2") == 1

    def test_snapshots_cursor_and_latest(self, tmp_path):
        store = _store(tmp_path)
        store.submit("j1", SPEC)
        for i in range(4):
            store.put_snapshot("j1", {"sim_time": float(i)})
        all_snaps = store.snapshots("j1")
        assert [seq for seq, _ in all_snaps] == [0, 1, 2, 3]
        assert all_snaps[2][1] == {"sim_time": 2.0}
        tail = store.snapshots("j1", after=1)
        assert [seq for seq, _ in tail] == [2, 3]
        assert store.snapshots("j1", after=3) == []
        assert store.latest_snapshot("j1") == (3, {"sim_time": 3.0})
        assert store.latest_snapshot("missing") is None
        assert store.snapshots("missing") == []

    def test_job_ids_and_prune(self, tmp_path):
        store = _store(tmp_path)
        store.submit("j1", SPEC)
        store.submit("j2", SPEC)
        store.put_snapshot("j1", {"sim_time": 1.0})
        store.put_snapshot("j2", {"sim_time": 1.0})
        assert sorted(store.snapshot_job_ids()) == ["j1", "j2"]
        assert store.prune_snapshots("j1") == 1
        assert store.snapshot_count("j1") == 0
        assert store.snapshot_job_ids() == ["j2"]
        assert store.prune_snapshots("j1") == 0

    def test_readers_see_dense_prefixes_under_write_load(self, tmp_path):
        """WAL regression net, snapshot edition (see test_serve_store)."""
        snaps = 200
        store = JobStore(tmp_path / "jobs.sqlite3")
        store.submit("j1", SPEC)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for i in range(snaps):
                    store.put_snapshot("j1", {"index": i})
            except Exception as exc:  # noqa: BLE001
                errors.append(("writer", exc))
            finally:
                done.set()

        def reader():
            try:
                last = 0
                while not done.is_set() or last < snaps:
                    rows = store.snapshots("j1")
                    seqs = [seq for seq, _ in rows]
                    assert seqs == list(range(len(seqs)))
                    assert len(seqs) >= last  # monotone progress
                    last = len(seqs)
                    if last >= snaps:
                        break
            except Exception as exc:  # noqa: BLE001
                errors.append(("reader", exc))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == []
        assert store.snapshot_count("j1") == snaps


class TestLongPoll:
    def test_unknown_job_is_404(self, service):
        base, _ = service
        assert request(base, "/jobs/feedfacecafe/live?since=-1")[0] == 404

    def test_batch_from_beginning_and_cursor(self, service):
        base, supervisor = service
        _, _, created = request(base, "/jobs", LIVE_JOB)
        job_id = created["id"]
        for i in range(3):
            supervisor.store.put_snapshot(job_id, {"sim_time": float(i)})
        status, _, doc = request(base, f"/jobs/{job_id}/live?since=-1")
        assert status == 200
        assert doc["job"] == job_id
        assert doc["state"] == "queued"
        assert doc["done"] is False
        assert [s["seq"] for s in doc["snapshots"]] == [0, 1, 2]
        assert doc["snapshots"][1]["snapshot"] == {"sim_time": 1.0}
        assert doc["next_since"] == 2
        # Follow-up from the returned cursor sees only what's new.
        supervisor.store.put_snapshot(job_id, {"sim_time": 3.0})
        _, _, tail = request(base, f"/jobs/{job_id}/live?since=2")
        assert [s["seq"] for s in tail["snapshots"]] == [3]
        assert tail["next_since"] == 3

    def test_terminal_job_returns_done_immediately(self, service):
        base, supervisor = service
        _, _, created = request(base, "/jobs", LIVE_JOB)
        job_id = created["id"]
        supervisor.store.put_snapshot(job_id, {"sim_time": 0.0})
        supervisor.store.mark_running(job_id)
        supervisor.store.finish(job_id, "succeeded")
        status, _, doc = request(base, f"/jobs/{job_id}/live?since=0")
        assert status == 200
        assert doc["done"] is True
        assert doc["state"] == "succeeded"
        assert doc["snapshots"] == []
        assert doc["next_since"] == 0

    def test_malformed_since_falls_back_to_beginning(self, service):
        base, supervisor = service
        _, _, created = request(base, "/jobs", LIVE_JOB)
        job_id = created["id"]
        supervisor.store.put_snapshot(job_id, {"sim_time": 0.0})
        _, _, doc = request(base, f"/jobs/{job_id}/live?since=bogus")
        assert doc["since"] == -1
        assert [s["seq"] for s in doc["snapshots"]] == [0]


class TestJobReadExtensions:
    def test_running_job_reports_heartbeat_age(self, service):
        base, supervisor = service
        _, _, created = request(base, "/jobs", LIVE_JOB)
        job_id = created["id"]
        assert "heartbeat_age_s" not in created  # queued: no heartbeat
        supervisor.store.mark_running(job_id)
        supervisor.store.heartbeat(job_id)
        _, _, doc = request(base, f"/jobs/{job_id}")
        assert doc["state"] == "running"
        assert doc["heartbeat_age_s"] >= 0.0
        assert doc["heartbeat_at"] is not None
        assert doc["resume"] is False
        assert doc["attempts"] == 1

    def test_draining_503_carries_retry_after(self, service):
        base, supervisor = service
        supervisor.drain(1.0)
        status, headers, doc = request(base, "/jobs", LIVE_JOB)
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert "draining" in doc["error"]


class TestMetricsSurface:
    def test_saturation_and_persistence_counters(self, service):
        base, supervisor = service
        request(base, "/jobs", LIVE_JOB)
        _, _, text = request(base, "/metrics")
        assert "repro_serve_queue_saturation 0.25" in text  # 1 of 4
        assert "repro_serve_rows_persisted_total 0" in text
        assert "repro_serve_snapshots_persisted_total 0" in text

    def test_running_job_exports_latest_snapshot_gauges(self, service):
        base, supervisor = service
        _, _, created = request(base, "/jobs", LIVE_JOB)
        job_id = created["id"]
        supervisor.store.mark_running(job_id)
        supervisor.store.heartbeat(job_id)
        supervisor.store.put_snapshot(job_id, {
            "sim_time": 42.0, "events_per_sec": 1000.0, "system_size": 99,
            "bad_fraction": 0.125, "good_spend_rate": 3.5,
            "adversary_spend_rate": 64.0,
        })
        _, _, text = request(base, "/metrics")
        assert f'repro_serve_job_heartbeat_age_seconds{{job="{job_id}"}}' in text
        assert f'repro_serve_job_sim_time{{job="{job_id}"}} 42' in text
        assert f'repro_serve_job_system_size{{job="{job_id}"}} 99' in text
        assert f'repro_serve_job_bad_fraction{{job="{job_id}"}} 0.125' in text


class TestSnapshotLinger:
    def test_maintenance_prunes_terminal_jobs_after_linger(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        supervisor = Supervisor(
            store, tmp_path / "checkpoints", snapshot_linger_s=0.0,
        )
        record = supervisor.submit(LIVE_JOB)
        store.put_snapshot(record.id, {"sim_time": 1.0})
        store.mark_running(record.id)
        # Running (and freshly queued) jobs are never pruned.
        supervisor.maintain()
        assert store.snapshot_count(record.id) == 1
        store.finish(record.id, "succeeded")
        time.sleep(0.01)  # move past the zero-linger cutoff
        actions = supervisor.maintain()
        assert actions["pruned"] == 1
        assert store.snapshot_count(record.id) == 0
        store.close()

    def test_fresh_terminal_jobs_linger_for_attached_readers(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite3")
        supervisor = Supervisor(
            store, tmp_path / "checkpoints", snapshot_linger_s=3600.0,
        )
        record = supervisor.submit(LIVE_JOB)
        store.put_snapshot(record.id, {"sim_time": 1.0})
        store.mark_running(record.id)
        store.finish(record.id, "succeeded")
        supervisor.maintain()
        assert store.snapshot_count(record.id) == 1
        store.close()


class TestEndToEndStreaming:
    def test_sse_streams_snapshots_then_done(self, service):
        base, supervisor = service
        supervisor.start()  # actually run the job
        _, _, created = request(base, "/jobs", LIVE_JOB)
        job_id = created["id"]
        # read() returns when the server closes after the done frame.
        with urllib.request.urlopen(
            base + f"/jobs/{job_id}/live", timeout=120
        ) as resp:
            assert resp.status == 200
            assert resp.headers.get_content_type() == "text/event-stream"
            body = resp.read().decode("utf-8")
        frames = parse_sse(body)
        assert frames[-1][0] == "done"
        done = frames[-1][2]
        assert done["state"] == "succeeded"
        snaps = [(fid, data) for ev, fid, data in frames if ev == "snapshot"]
        assert snaps, "stream carried no snapshot frames"
        seqs = [fid for fid, _ in snaps]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert done["last_seq"] == seqs[-1]
        # The terminal snapshot's cumulative spend matches its row.
        terminal = [data for _, data in snaps if data.get("last")]
        assert terminal
        _, _, rows = request(base, f"/jobs/{job_id}/rows")
        by_point = {r["index"]: r["row"] for r in rows["rows"]}
        for data in terminal:
            row = by_point[data["point"]]
            assert abs(data["good_spend"] - row["good_spend"]) < 1e-9
        supervisor.drain(10.0)
