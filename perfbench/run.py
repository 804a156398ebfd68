"""The repository's benchmark: three workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload flash-crowd-attack --seed 1 --seconds 30 --trace 0

Workloads (``README.md`` in this directory says why each was chosen):

* ``flash-crowd-attack`` -- the catalog flash crowd at 30x population
  under ERGO and its sustained adversary, through ``run_spec_point``;
* ``trace-replay`` -- the 10^6-event ``synthetic-flap-xl`` trace
  streamed under the Null defense, through ``run_spec_point``;
* ``catalog-serve`` -- ``python -m repro serve`` in its own process, and
  one closed-loop client submitting the 45 catalog points (9 scenarios
  x 5 defenses) as single-point jobs, one at a time.

Every repetition runs in a fresh process and repetitions repeat until
``--seconds`` have passed; each metric is the median over them.  With
``--trace 0`` nothing is traced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced repetitions alternate
and the per-layer metrics, from the traced ones, are reported with the
tracing overhead.  Every run checks its simulated output: rows hash
the same in every repetition and match ``reference.json`` where it has
the seed, ``validate_run`` passes, and served rows equal in-process
rows.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

This process imports nothing from ``src``; the simulating processes are
``worker.py`` and (traced) ``serve_traced.py`` with ``PYTHONPATH=src``.
Scratch files (trace cache, service data, spans) go to ``.work/`` here.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from worker import vm_kb

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKER = BENCH / "worker.py"
SERVE_TRACED = BENCH / "serve_traced.py"

WORKLOADS = ("flash-crowd-attack", "trace-replay", "catalog-serve")
DEFAULT_SEED = 1

#: Synthetic trace each workload needs in the cache before timing.
TRACE_FOR = {"trace-replay": "synthetic-flap-xl", "catalog-serve": "synthetic-flap-ci"}

#: A replayed trace must carry at least this many events.
MIN_REPLAY_EVENTS = 1_000_000

#: Client poll period while a served job runs.
POLL_S = 0.005

#: Caps on one child process, one service boot and one served job.
CHILD_TIMEOUT_S = 150.0
BOOT_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0

#: In-process runs of the catalog per catalog-serve run.
IN_PROCESS_RUNS = 2

#: Latency recorded for a refused, failed or mismatched job.
MISS_S = 1.0e9



# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_TRACE_DIR"] = str(WORK / "traces")
    return env


def run_worker(args: List[str]) -> Dict:
    """Run ``worker.py`` to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKER)] + args,
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: List[float]) -> float:
    return statistics.median(values)


def load_reference(workload: str, seed: int) -> Optional[str]:
    doc = json.loads((BENCH / "reference.json").read_text())
    return doc.get(workload, {}).get(str(seed))


def say(text: str) -> None:
    print(text, flush=True)


# ----------------------------------------------------------------------
# simulation workloads: one fresh worker process per repetition
# ----------------------------------------------------------------------
def point_rep(workload: str, seed: int, traced: bool, counts: Dict,
              reference: Optional[str]) -> Dict:
    args = ["point", workload, str(seed)]
    if traced:
        args.append(str(WORK / f"spans-{workload}.bin"))
    spawn = time.time()
    out = run_worker(args)
    problems = [f"{name} {verdict}" for name, verdict in out["verdicts"].items()
                if verdict == "failed"]
    row = out["row"]
    if workload == "trace-replay":
        if row["good_joins"] != counts["joins"]:
            problems.append(
                f"replayed {row['good_joins']} joins, trace has {counts['joins']}"
            )
        if row["good_departures"] < counts["departures"]:
            problems.append("replay lost trace departures")
    if reference is not None and out["hash"] != reference:
        problems.append(f"row hash {out['hash'][:12]} != reference {reference[:12]}")
    if traced:
        problems += tree_problems(out["layers"])
    checked = time.time()
    return {
        "traced": traced,
        "hash": out["hash"],
        "problems": problems,
        "setup_s": out["run_entered"] - spawn,
        "wall_s": checked - spawn,
        "latency_s": out["row_done"] - spawn,
        "sim_events_per_s": out["sim_events"] / out["run_s"],
        "peak_rss_mb": out["vmhwm_kb"] / 1024.0,
        "import_s": out["imported"] - spawn,
        "queue_pops": out["queue_pops"],
        "verdicts": out["verdicts"],
        "ergo_bound_ratio": out["ergo_bound_ratio"],
        "layers": out.get("layers"),
    }


def tree_problems(layers: Dict) -> List[str]:
    """The span tree must nest, and self times must sum to the root."""
    problems = []
    if not layers["nesting_ok"]:
        problems.append("spans do not nest")
    if abs(layers["self_sum_s"] - layers["root_s"]) > 1e-6 * layers["root_s"]:
        problems.append(
            f"span self times sum to {layers['self_sum_s']:.6f}s, "
            f"root is {layers['root_s']:.6f}s"
        )
    return problems


# ----------------------------------------------------------------------
# catalog-serve: the service in its own process, one closed-loop client
# ----------------------------------------------------------------------
class Client:
    """One keep-alive HTTP connection; records each route's latency."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.times: Dict[str, List[float]] = {}

    def call(self, route: str, method: str, path: str, body=None):
        began = time.perf_counter()
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        self.times.setdefault(route, []).append(time.perf_counter() - began)
        return response.status, data

    def close(self) -> None:
        self.conn.close()


def read_port(proc: subprocess.Popen) -> int:
    """Parse the port from the service's ``listening on`` line."""
    ready, _, _ = select.select([proc.stdout], [], [], BOOT_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    match = re.search(r"http://[0-9.]+:(\d+)", line)
    if not match:
        raise RuntimeError(f"service did not report a port: {line!r}")
    return int(match.group(1))


def parse_counters(text: str) -> Dict[str, float]:
    counters = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.split()
            counters[name] = float(value)
    return counters


def serve_session(seed: int, ref_rows: List[Dict], traced: bool,
                  index: int) -> Dict:
    """Boot the service, run every catalog point as a job, drain it."""
    data_dir = WORK / f"serve-{index}"
    shutil.rmtree(data_dir, ignore_errors=True)
    serve_args = ["serve", "--port", "0", "--data-dir", str(data_dir)]
    summary_path = WORK / "serve-summary.json"
    if traced:
        summary_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(SERVE_TRACED),
               str(WORK / "spans-catalog-serve.bin"), str(summary_path)]
    else:
        cmd = [sys.executable, "-m", "repro"]
    log = open(WORK / "serve.log", "wb")  # lint: allow[atomic-write] -- the service's stderr stream, last session only
    spawn = time.time()
    proc = subprocess.Popen(cmd + serve_args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=log, text=True)
    problems: List[str] = []
    failed_jobs = 0
    latencies, queue_waits, job_runs, rss_mb = [], [], [], []
    client = None
    try:
        client = Client(read_port(proc))
        while True:
            try:
                status, _ = client.call("healthz", "GET", "/healthz")
            except ConnectionError:
                status = 0
            if status == 200:
                break
            if time.time() - spawn > BOOT_TIMEOUT_S:
                raise RuntimeError("service never became healthy")
            time.sleep(POLL_S)
        ready = time.time()
        for expected in ref_rows:
            job = {"scenarios": [expected["scenario"]],
                   "defenses": [expected["defense"]], "seed": seed}
            where = f"{expected['scenario']}/{expected['defense']}"
            sent = time.time()
            status, data = client.call("post", "POST", "/jobs", job)
            if status != 201:
                problems.append(f"{where}: POST answered {status}")
                failed_jobs += 1
                latencies.append(MISS_S)
                continue
            job_id = json.loads(data)["id"]
            while True:
                status, data = client.call("get_job", "GET", f"/jobs/{job_id}")
                record = json.loads(data)
                if record["state"] not in ("queued", "running"):
                    break
                if time.time() - sent > JOB_TIMEOUT_S:
                    break
                time.sleep(POLL_S)
            status, data = client.call("get_rows", "GET", f"/jobs/{job_id}/rows")
            rows = [item["row"] for item in json.loads(data)["rows"]]
            if record["state"] != "succeeded" or rows != [expected]:
                problems.append(f"{where}: job {record['state']}, "
                                f"rows {'equal' if rows == [expected] else 'differ'}")
                failed_jobs += 1
                latencies.append(MISS_S)
                continue
            latencies.append(record["finished_at"] - sent)
            queue_waits.append(record["started_at"] - record["submitted_at"])
            job_runs.append(record["finished_at"] - record["started_at"])
            rss_mb.append(vm_kb("VmRSS", proc.pid) / 1024.0)
        checked = time.time()
        _, data = client.call("metrics", "GET", "/metrics")
        counters = parse_counters(data.decode("utf-8"))
        hwm_mb = vm_kb("VmHWM", proc.pid) / 1024.0
    finally:
        if client is not None:
            client.close()
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=BOOT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
        log.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    if code != 0:
        problems.append(f"service exited {code} after SIGTERM")
    session = {
        "traced": traced,
        "problems": problems,
        "failed_jobs": failed_jobs,
        "jobs": len(ref_rows),
        "setup_s": ready - spawn,
        "wall_s": checked - spawn,
        "latencies": latencies,
        "queue_waits": queue_waits,
        "job_runs": job_runs,
        "rss_mb": rss_mb,
        "peak_rss_mb": hwm_mb,
        "counters": counters,
        "route_s": {k: median(v) for k, v in client.times.items()},
    }
    if traced:
        summary = json.loads(summary_path.read_text())
        session["import_s"] = summary["imported"] - spawn
        session["summary"] = summary
        problems += tree_problems(summary["layers"])
    return session


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def span_layers(spans: Dict, queue_pops: int) -> Dict[str, float]:
    """Per-layer metrics from one traced repetition's span totals."""

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(rows: float, calls: float) -> float:
        return rows / calls if calls else 0.0

    def both(suffix: str, key: str) -> float:
        return get("core." + suffix, key) + get("baselines." + suffix, key)

    baselines = [v for k, v in spans.items() if k.startswith("baselines.")]
    out = {
        "scenarios.compile_s": get("scenarios.compile", "self_s"),
        "scenarios.summary_s": get("scenarios.summary", "self_s"),
        "traces.next_block_s": get("traces.next_block", "self_s"),
        "traces.blocks": get("traces.next_block", "calls"),
        "traces.rows_per_block": ratio(get("traces.next_block", "rows"),
                                       get("traces.next_block", "calls")),
        "sim.run_self_s": get("sim.run", "self_s"),
        "sim.queue_pops": queue_pops,
        "sim.join_batches": both("join_batch", "calls"),
        "sim.rows_per_join_batch": ratio(both("join_batch", "rows"),
                                         both("join_batch", "calls")),
        "sim.departure_batches": both("departure", "calls"),
        "sim.rows_per_departure_batch": ratio(both("departure", "rows"),
                                              both("departure", "calls")),
        "point.self_s": get("point", "self_s"),
        "baselines.hooks_self_s": sum(v["self_s"] for v in baselines),
        "baselines.hook_calls": sum(v["calls"] for v in baselines),
        "identity.add_self_s": get("identity.add", "self_s"),
        "identity.add_rows": get("identity.add", "rows"),
        "identity.remove_self_s": get("identity.remove", "self_s"),
        "identity.remove_rows": get("identity.remove", "rows"),
        "identity.random_good_self_s": get("identity.random_good", "self_s"),
        "identity.random_good_calls": get("identity.random_good", "calls"),
        "adversary.act_self_s": get("adversary.act", "self_s"),
        "adversary.act_calls": get("adversary.act", "calls"),
        "core.bootstrap_self_s": get("core.bootstrap", "self_s"),
        "core.bad_departure_self_s": get("core.bad_departure", "self_s"),
    }
    for hook in ("join_batch", "bad_join", "departure", "tick"):
        out[f"core.{hook}_self_s"] = get(f"core.{hook}", "self_s")
        out[f"core.{hook}_calls"] = get(f"core.{hook}", "calls")
    return out


def median_layers(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: median([s[key] for s in samples]) for key in samples[0]}


# ----------------------------------------------------------------------
# workload runs
# ----------------------------------------------------------------------
def prepare(workload: str) -> Dict:
    """Generate the workload's trace into the cache (never timed)."""
    WORK.mkdir(exist_ok=True)
    (WORK / "traces").mkdir(exist_ok=True)
    name = TRACE_FOR.get(workload)
    if name is None:
        return {}
    counts = run_worker(["prepare", name])
    say(f"trace {name}: {counts['joins'] + counts['departures']} events "
        f"(prepared in {counts['prepare_s']:.2f}s, untimed)")
    return counts


def schedule(seconds: float, traced: bool):
    """Yield repetition kinds (``True`` = traced) for about ``seconds``.

    A repetition starts only if half the median length so far still
    fits, so a run overshoots ``seconds`` by at most about half a
    repetition.  A traced run alternates untraced and traced
    repetitions and has at least one of each.
    """
    began = time.monotonic()
    lengths: List[float] = []
    while True:
        elapsed = time.monotonic() - began
        enough = len(lengths) >= (2 if traced else 1)
        if enough and elapsed + median(lengths) / 2 > seconds:
            return
        start = time.monotonic()
        yield traced and len(lengths) % 2 == 1
        lengths.append(time.monotonic() - start)


def run_points(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    counts = prepare(workload)
    problems: List[str] = []
    if workload == "trace-replay":
        events = counts["joins"] + counts["departures"]
        if events < MIN_REPLAY_EVENTS:
            problems.append(f"trace has {events} events < {MIN_REPLAY_EVENTS}")
    reference = load_reference(workload, seed)
    reps = []
    for traced_rep in schedule(seconds, traced):
        rep = point_rep(workload, seed, traced_rep, counts, reference)
        reps.append(rep)
        say(f"rep {len(reps)} {'traced' if traced_rep else 'untraced'}: "
            f"wall {rep['wall_s']:.3f}s setup {rep['setup_s']:.3f}s "
            f"events/s {rep['sim_events_per_s']:.0f} rss {rep['peak_rss_mb']:.1f}MB "
            f"verdicts {rep['verdicts']}"
            + (f" PROBLEMS {rep['problems']}" if rep["problems"] else ""))
    if len({rep["hash"] for rep in reps}) != 1:
        problems.append("row hashes differ between repetitions")
    say(f"row hash {reps[0]['hash']} "
        f"({'matches reference' if reference else 'no reference for this seed'})")
    if workload == "flash-crowd-attack":
        say(f"ergo_bound_ratio {reps[0]['ergo_bound_ratio']:.6f}")
    plain = [rep for rep in reps if not rep["traced"]]
    # Operations: every repetition and the run-level hash check.
    failed = sum(1 for rep in reps if rep["problems"]) + bool(problems)
    result = {"problems": problems, "attempted": len(reps) + 1, "failed": failed}
    if not traced:
        result["metrics"] = {
            "setup_s": median([rep["setup_s"] for rep in plain]),
            "wall_s": median([rep["wall_s"] for rep in plain]),
            "sim_events_per_s": median([rep["sim_events_per_s"] for rep in plain]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in plain]),
            "job_latency_p50_s": median([rep["latency_s"] for rep in plain]),
        }
        return result
    traced_reps = [rep for rep in reps if rep["traced"]]
    layers = median_layers([
        dict(span_layers(rep["layers"]["spans"], rep["queue_pops"]),
             **{"startup.import_s": rep["import_s"]})
        for rep in traced_reps
    ])
    layers["core.ergo_bound_ratio"] = reps[0]["ergo_bound_ratio"]
    layers.update(overhead(plain, traced_reps))
    result["metrics"] = layers
    return result


def overhead(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    untraced_wall = median([s["wall_s"] for s in plain])
    traced_wall = median([s["wall_s"] for s in traced])
    return {
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
    }


def run_serve(seed: int, seconds: float, traced: bool) -> Dict:
    prepare("catalog-serve")
    reference = load_reference("catalog-serve", seed)
    # Two in-process runs of the 45 points, in fresh processes: the
    # served rows are checked against them, and they give the engine's
    # throughput and the in-process wall that serve.overhead_s subtracts.
    refs = [run_worker(["catalog", str(seed)]) for _ in range(IN_PROCESS_RUNS)]
    ref = refs[0]
    problems: List[str] = []
    if len({r["hash"] for r in refs}) != 1:
        problems.append("in-process rows differ between runs")
    if reference is not None and ref["hash"] != reference:
        problems.append(f"in-process rows hash {ref['hash'][:12]} != reference")
    in_process_s = median([sum(r["point_walls"]) for r in refs])
    say(f"in-process catalog: {len(ref['rows'])} points in "
        f"{in_process_s:.3f}s (median of {len(refs)}), row hash {ref['hash']} "
        f"({'matches reference' if reference else 'no reference for this seed'})")
    sessions = []
    for traced_session in schedule(seconds, traced):
        session = serve_session(seed, ref["rows"], traced_session, len(sessions))
        sessions.append(session)
        say(f"session {len(sessions)} {'traced' if traced_session else 'untraced'}: "
            f"wall {session['wall_s']:.3f}s setup {session['setup_s']:.3f}s "
            f"job p50 {median(session['latencies']):.4f}s "
            f"rss {session['rss_mb'][0]:.1f}->{session['rss_mb'][-1]:.1f}MB"
            + (f" PROBLEMS {session['problems']}" if session["problems"] else ""))
    plain = [s for s in sessions if not s["traced"]]
    # Operations: every job, every session's boot-and-drain, and the
    # run-level reference check.
    attempted = sum(s["jobs"] + 1 for s in sessions) + 1
    failed = sum(
        s["failed_jobs"] + (len(s["problems"]) > s["failed_jobs"])
        for s in sessions
    ) + bool(problems)
    result = {"problems": problems, "attempted": attempted, "failed": failed}
    if not traced:
        latencies = [x for s in plain for x in s["latencies"]]
        result["metrics"] = {
            "setup_s": median([s["setup_s"] for s in plain]),
            "wall_s": median([s["wall_s"] for s in plain]),
            "sim_events_per_s": median([r["sim_events"] / r["run_s"] for r in refs]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
            "job_latency_p50_s": median(latencies),
        }
        say(f"job latency: p75 {percentile(latencies, 0.75)} s "
            f"over {len(latencies)} jobs")
        return result
    traced_sessions = [s for s in sessions if s["traced"]]
    layers = median_layers([
        dict(span_layers(s["summary"]["layers"]["spans"], s["summary"]["queue_pops"]),
             **{"startup.import_s": s["import_s"],
                "serve.boot_s": s["setup_s"] - s["import_s"]})
        for s in traced_sessions
    ])
    layers["core.ergo_bound_ratio"] = ref["ergo_bound_ratio"]
    layers.update(median_layers([
        {
            "serve.queue_wait_s": median(s["queue_waits"]),
            "serve.job_run_s": median(s["job_runs"]),
            "serve.post_s": s["route_s"]["post"],
            "serve.get_job_s": s["route_s"]["get_job"],
            "serve.get_rows_s": s["route_s"]["get_rows"],
            "serve.overhead_s": sum(s["job_runs"]) - in_process_s,
            "serve.rows_persisted": s["counters"]["repro_serve_rows_persisted_total"],
            "serve.snapshots_persisted": s["counters"]["repro_serve_snapshots_persisted_total"],
            "serve.admission_rejects": s["counters"]["repro_serve_admission_rejects_total"],
            "serve.rss_growth_mb_per_job": (
                (s["rss_mb"][-1] - s["rss_mb"][0]) / max(len(s["rss_mb"]) - 1, 1)
            ),
        }
        for s in plain
    ]))
    layers["serve.job_latency_p75_s"] = percentile(
        [x for s in plain for x in s["latencies"]], 0.75
    )
    layers.update(overhead(plain, traced_sessions))
    result["metrics"] = layers
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    if args.workload == "catalog-serve":
        result = run_serve(args.seed, args.seconds, traced)
    else:
        result = run_points(args.workload, args.seed, args.seconds, traced)
    for problem in result["problems"]:
        say(f"PROBLEM: {problem}")
    # BENCHMARK.json names every metric a run reports, with its unit.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if traced else "end_to_end"]}
    # A layer that does no work on this workload reports 0.
    reported = result["metrics"]
    metrics = {name: float(reported.get(name, 0.0) if traced else reported[name])
               for name in units}
    for name, value in metrics.items():
        say(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
