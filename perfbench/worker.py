"""One benchmark process: a simulated point, the catalog, or set-up.

``run.py`` starts this file in a fresh interpreter for every repetition,
so each one pays start-up and imports the way a user's command does::

    python perfbench/worker.py point <workload> <seed> [spans_path]
    python perfbench/worker.py catalog <seed>
    python perfbench/worker.py prepare <trace-name>

``point`` runs flash-crowd-attack or trace-replay through
``run_spec_point``; given ``spans_path`` it is the traced pass and
writes its spans there.  ``catalog`` runs the 45 catalog points
in-process, the reference the served rows are checked against.
``prepare`` generates a synthetic trace into the cache and counts its
events.  Each mode prints one JSON object as its last stdout line.
Needs ``PYTHONPATH=src``; ``run.py`` sets it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from tracer import Tracer, install, layer_metrics

#: Population scale of flash-crowd-attack: 30k initial members, a 90k
#: flash crowd, a standing membership set above 10^5.
FLASH_SCALE = 30.0

#: The streamed trace behind trace-replay (~10^6 relay flap events).
REPLAY_TRACE = "synthetic-flap-xl"


def row_hash(rows) -> str:
    """SHA-256 of metrics rows (no wall-clock or profile keys exist)."""
    doc = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def vm_kb(field: str, pid="self") -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def capture_runs(sim_cls) -> list:
    """Record entry time, duration and result of every ``Simulation.run``."""
    runs: list = []
    plain = sim_cls.run

    def run(sim):
        entered = time.time()
        began = time.perf_counter()
        result = plain(sim)
        runs.append({
            "entered": entered,
            "run_s": time.perf_counter() - began,
            "result": result,
            "defense": sim.defense.name,
        })
        return result

    sim_cls.run = run
    return runs


def sim_events(result) -> int:
    """Heap pops plus block-path churn rows: one run's engine events."""
    counters = result.counters
    return counters["queue_pops"] + counters["churn_events_fast"]


def ergo_bound_ratio(result) -> float:
    """Steady good spend rate over Theorem 1's bound at the run's (T, J)."""
    from repro.analysis.bounds import ergo_spend_rate_bound

    horizon = result.horizon
    init = result.metrics.good.by_category().get("init", 0.0)
    steady = max(result.good_spend - init, 0.0) / horizon
    joins = result.counters.get("good_join_events", 0) / horizon
    return steady / ergo_spend_rate_bound(result.adversary_spend_rate, joins)


def verdicts(result) -> dict:
    """``validate_run`` checks as passed / failed / skipped."""
    from repro.analysis.validation import validate_run
    from repro.experiments.config import KAPPA

    out = {}
    for check in validate_run(result, kappa=KAPPA).checks:
        if check.detail.startswith("skipped"):
            out[check.name] = "skipped"
        else:
            out[check.name] = "passed" if check.passed else "failed"
    return out


def point_inputs(workload: str, seed: int):
    """The (spec, point) a simulation workload runs for ``seed``."""
    from repro.experiments.parallel import derive_seed
    from repro.scenarios.catalog import get_scenario
    from repro.scenarios.run import ScenarioPointSpec, build_points
    from repro.scenarios.spec import (
        AttackSchedule,
        ScenarioSpec,
        SessionSpec,
        TraceReplay,
    )
    from repro.traces.source import get_trace_source

    if workload == "flash-crowd-attack":
        point = build_points(
            ["flash-crowd"], ["ERGO"], seed, n0_scale=FLASH_SCALE
        )[0]
        return get_scenario("flash-crowd"), point
    if workload == "trace-replay":
        duration = get_trace_source(REPLAY_TRACE).synthetic.duration
        spec = ScenarioSpec(
            name="bench-trace-replay",
            description="10^6-event synthetic consensus flap, streamed",
            phases=(TraceReplay(path=REPLAY_TRACE, duration=duration),),
            n0=2000,
            sessions=SessionSpec(kind="exponential", mean=3_000.0),
            attack=AttackSchedule(profile="off"),
        )
        point = ScenarioPointSpec(
            scenario=spec.name,
            defense="Null",
            seed=derive_seed(seed, spec.name, "Null", 0.0),
            t_rate=0.0,
        )
        return spec, point
    raise SystemExit(f"unknown simulation workload {workload!r}")


def do_point(workload: str, seed: int, spans_path=None) -> dict:
    tracer = Tracer() if spans_path else None
    if tracer is not None:
        imports = tracer.open(tracer.name_id("startup.import"))
    from repro.scenarios import run as scen_run
    from repro.sim.engine import Simulation

    if tracer is not None:
        tracer.close(imports)
    imported = time.time()
    if tracer is not None:
        install(tracer)
    runs = capture_runs(Simulation)
    spec, point = point_inputs(workload, seed)
    row = scen_run.run_spec_point(spec, point)
    row_done = time.time()
    (run,) = runs
    result = run["result"]
    out = {
        "imported": imported,
        "run_entered": run["entered"],
        "run_s": run["run_s"],
        "sim_events": sim_events(result),
        "queue_pops": result.counters["queue_pops"],
        "row_done": row_done,
        "row": row,
        "hash": row_hash(row),
        "verdicts": verdicts(result),
        "ergo_bound_ratio": (
            ergo_bound_ratio(result) if run["defense"] == "ERGO" else 0.0
        ),
        "vmhwm_kb": vm_kb("VmHWM"),
    }
    if tracer is not None:
        tracer.close_root()
        out["layers"] = layer_metrics(tracer)
        tracer.dump(spans_path)
    return out


def do_catalog(seed: int) -> dict:
    from repro.scenarios.catalog import get_scenario, scenario_names
    from repro.scenarios.run import (
        SCENARIO_DEFENSES,
        build_points,
        run_spec_point,
    )
    from repro.sim.engine import Simulation

    runs = capture_runs(Simulation)
    rows, walls = [], []
    for point in build_points(scenario_names(), SCENARIO_DEFENSES, seed):
        began = time.perf_counter()
        rows.append(run_spec_point(get_scenario(point.scenario), point))
        walls.append(time.perf_counter() - began)
    ergo = [ergo_bound_ratio(r["result"]) for r in runs if r["defense"] == "ERGO"]
    return {
        "rows": rows,
        "hash": row_hash(rows),
        "point_walls": walls,
        "run_s": sum(r["run_s"] for r in runs),
        "sim_events": sum(sim_events(r["result"]) for r in runs),
        "ergo_bound_ratio": max(ergo),
    }


def do_prepare(name: str) -> dict:
    """Generate a synthetic trace into the cache; count its events once.

    The count is kept beside the file, keyed by the file's SHA-256, so
    later runs re-hash the file (milliseconds) instead of re-reading it.
    """
    from repro.churn.traces import trace_stats
    from repro.traces.io import file_sha256
    from repro.traces.reader import stream_trace_blocks
    from repro.traces.source import fetch_trace

    began = time.perf_counter()
    path = fetch_trace(name)
    digest = file_sha256(path)
    sidecar = Path(str(path) + ".counts.json")
    counts = None
    if sidecar.exists():
        counts = json.loads(sidecar.read_text())
        if counts.get("sha256") != digest:
            counts = None
    if counts is None:
        stats = trace_stats(stream_trace_blocks(path))
        counts = {
            "sha256": digest,
            "joins": stats.joins,
            "departures": stats.departures,
        }
        sidecar.write_text(json.dumps(counts))
    counts["prepare_s"] = time.perf_counter() - began
    return counts


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "point":
        spans = rest[2] if len(rest) > 2 else None
        out = do_point(rest[0], int(rest[1]), spans)
    elif mode == "catalog":
        out = do_catalog(int(rest[0]))
    elif mode == "prepare":
        out = do_prepare(rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
