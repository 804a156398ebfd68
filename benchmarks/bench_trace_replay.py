"""Tor-scale trace replay benchmark: 10^6 flap events, bounded memory.

The ``repro.traces`` subsystem exists so that multi-month relay
consensus flap traces (Winter et al. scale) can drive the simulation
without ever materializing per-event objects.  This benchmark proves
the property end-to-end through the *scenario* machinery -- the same
``run_spec_point`` path ``python -m repro scenarios run`` uses:

1. the ``synthetic-flap-xl`` registry entry (~10^6 events, 5000
   relays, heavy-tailed uptimes, diurnal flap rate) is generated into
   the trace cache if absent (deterministic, offline);
2. a ``TraceReplay`` scenario streams it -- gzip CSV -> streaming
   reader -> ``ChurnBlock`` batches -> the engine's zero-heap fast
   path -- against each benchmarked defense;
3. every run must keep >= 95% of good joins on the fast path and stay
   inside its wall budget;
4. one extra run executes under :mod:`tracemalloc` and must keep peak
   Python allocations under ``MEM_BUDGET_MB`` -- the eager path's
   per-event objects alone would be several times that, so the bound
   fails loudly if anyone reintroduces materialization.

Results merge into ``BENCH_scale.json`` under ``runs_trace`` (plus a
``trace_replay`` meta block carrying the span-attribution buckets of
one profiled ERGO replay; see :mod:`repro.profiling`), which
``perf_trend.py`` tracks against the committed snapshot::

    PYTHONPATH=src python benchmarks/bench_trace_replay.py --json BENCH_scale.json
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from typing import List

from repro.profiling import ProfilePolicy, span_shares
from repro.resilience import atomic_write_text
from repro.scenarios.run import ScenarioPointSpec, run_spec_point
from repro.scenarios.spec import AttackSchedule, ScenarioSpec, SessionSpec, TraceReplay
from repro.traces.source import fetch_trace, get_trace_source

#: The registry entry this benchmark replays.
TRACE_NAME = "synthetic-flap-xl"

#: Minimum events the generated trace must deliver (the "Tor-scale" bar).
MIN_TRACE_EVENTS = 1_000_000

#: Wall budget per defense run (generous for CI; single-digit seconds
#: on a developer box, dominated by the engine's one streaming CSV pass,
#: which the workload summary rides).
BUDGET_S = 180.0

#: Peak tracemalloc budget for the memory-instrumented run.  A fully
#: materialized 10^6-event trace costs >300 MB in event objects alone;
#: the streaming path peaks at single-digit MB (membership state for
#: the standing relays + one block in flight), so this bound fails
#: loudly on any reintroduced materialization while leaving >10x
#: headroom for allocator noise.
MEM_BUDGET_MB = 64.0

#: Minimum fraction of good joins on the zero-heap fast path.
MIN_FAST_FRACTION = 0.95

#: Report-name -> scenario-suite defense name.
DEFENSES = {"null": "Null", "sybilcontrol": "SybilControl", "ergo": "ERGO"}


def replay_spec(duration: float) -> ScenarioSpec:
    """The benchmark scenario: a pure streamed replay, no adversary."""
    return ScenarioSpec(
        name="bench-trace-replay",
        description="10^6-event synthetic consensus flap, streamed",
        phases=(TraceReplay(path=TRACE_NAME, duration=duration),),
        n0=2000,
        sessions=SessionSpec(kind="exponential", mean=3_000.0),
        attack=AttackSchedule(profile="off"),
    )


def run_defense(name: str, duration: float) -> dict:
    spec = replay_spec(duration)
    point = ScenarioPointSpec(
        scenario=spec.name, defense=DEFENSES[name], seed=7, t_rate=0.0
    )
    start = time.perf_counter()
    row = run_spec_point(spec, point)
    wall_s = time.perf_counter() - start
    trace_events = row["good_joins"] + row["good_departures"]
    events = row["churn_events_fast"] + row["churn_events_heap"]
    return {
        "defense": name,
        "wall_s": round(wall_s, 3),
        "within_budget": wall_s <= BUDGET_S,
        "events": events,
        "events_per_sec": round(events / wall_s) if wall_s else None,
        "trace_events": trace_events,
        "good_joins": row["good_joins"],
        "fast_fraction": round(row["fast_join_fraction"], 4),
        "peak_join_rate": row["peak_join_rate"],
        "final_size": row["final_size"],
        "queue_max_size": row["queue_max_size"],
    }


def measure_span_shares(duration: float) -> dict:
    """Span-attribution buckets for one profiled ERGO replay.

    One extra run with the profiler on (never the timed run: its wall
    must not carry instrumentation).  Tells the trend where replay
    time goes -- heap ops vs defense pricing vs dispatch -- at trace
    scale, next to the flash-crowd tier's equivalents.
    """
    spec = replay_spec(duration)
    point = ScenarioPointSpec(
        scenario=spec.name, defense="ERGO", seed=7, t_rate=0.0
    )
    row = run_spec_point(spec, point, profile=ProfilePolicy())
    return span_shares(row["profile"])


def measure_peak_memory(duration: float) -> float:
    """Peak tracemalloc MB for one streamed Null-defense replay."""
    spec = replay_spec(duration)
    point = ScenarioPointSpec(
        scenario=spec.name, defense="Null", seed=7, t_rate=0.0
    )
    tracemalloc.start()
    try:
        run_spec_point(spec, point)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024.0 * 1024.0)


def main(argv: List[str] = None) -> dict:
    args = list(argv if argv is not None else sys.argv[1:])
    source = get_trace_source(TRACE_NAME)
    cached = source.cached_path().exists()
    gen_start = time.perf_counter()
    fetch_trace(TRACE_NAME)
    generate_s = time.perf_counter() - gen_start
    duration = source.synthetic.duration

    ok = True
    rows = []
    for name in DEFENSES:
        row = run_defense(name, duration)
        rows.append(row)
        if not row["within_budget"]:
            ok = False
            print(
                f"!! trace/{name}: {row['wall_s']}s exceeds the "
                f"{BUDGET_S}s budget",
                file=sys.stderr,
            )
        if row["fast_fraction"] < MIN_FAST_FRACTION:
            ok = False
            print(
                f"!! trace/{name}: fast path carried only "
                f"{row['fast_fraction']:.1%} of joins",
                file=sys.stderr,
            )
        if row["trace_events"] < MIN_TRACE_EVENTS:
            ok = False
            print(
                f"!! trace/{name}: only {row['trace_events']} trace events "
                f"replayed (< {MIN_TRACE_EVENTS})",
                file=sys.stderr,
            )
    peak_mb = measure_peak_memory(duration)
    if peak_mb > MEM_BUDGET_MB:
        ok = False
        print(
            f"!! trace replay peaked at {peak_mb:.1f} MB of Python "
            f"allocations (> {MEM_BUDGET_MB} MB): the streaming path is "
            "materializing",
            file=sys.stderr,
        )

    meta = {
        "trace": TRACE_NAME,
        "trace_cached": cached,
        "generate_s": round(generate_s, 3),
        "budget_s": BUDGET_S,
        "mem_budget_mb": MEM_BUDGET_MB,
        "peak_tracemalloc_mb": round(peak_mb, 1),
        "ok": ok,
    }
    meta.update(measure_span_shares(duration))

    # Merge into the scale snapshot rather than clobbering it: the
    # trace tier is one more set of regression-tracked rows alongside
    # ``runs`` and ``runs_xl``.
    report = {}
    json_path = None
    for i, arg in enumerate(args):
        if arg == "--json" and i + 1 < len(args):
            json_path = args[i + 1]
        elif arg.startswith("--json="):
            json_path = arg.split("=", 1)[1]
    if json_path:
        try:
            with open(json_path) as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError):
            report = {}
    report["runs_trace"] = rows
    report["trace_replay"] = meta
    text = json.dumps(
        {"runs_trace": rows, "trace_replay": meta}, indent=2, sort_keys=True
    )
    print(text)
    if json_path:
        atomic_write_text(
            json_path, json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if not ok:
        sys.exit(1)
    return report


if __name__ == "__main__":
    main()
