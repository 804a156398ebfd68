"""``python -m repro serve`` with the traced pass's spans installed.

Used only by catalog-serve's traced sessions::

    python perfbench/serve_traced.py <spans_path> <summary_path> serve [serve options]

Imports the same entry point ``python -m repro`` does, wraps the layer
calls the service's job runner reaches (see ``tracer.install``), then
serves until SIGTERM.  On a clean exit it writes the span columns to
``spans_path`` and a JSON summary (import time, per-layer totals,
engine event counts) to ``summary_path``.  Needs ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer, install, layer_metrics
from worker import capture_runs, sim_events


def main(argv) -> int:
    spans_path, summary_path, serve_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    imports = tracer.open(tracer.name_id("startup.import"))
    from repro.__main__ import main as repro_main
    from repro.sim.engine import Simulation

    tracer.close(imports)
    imported = time.time()
    install(tracer)
    runs = capture_runs(Simulation)
    code = repro_main(serve_args)
    tracer.close_root()
    summary = {
        "imported": imported,
        "layers": layer_metrics(tracer),
        "runs": len(runs),
        "queue_pops": sum(r["result"].counters["queue_pops"] for r in runs),
        "sim_events": sum(sim_events(r["result"]) for r in runs),
    }
    Path(summary_path).write_text(json.dumps(summary, sort_keys=True))
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
