"""In-memory span recorder for the benchmark's traced pass.

Spans are taken around calls *into* each layer's public functions, from
the benchmark's own files; nothing under ``src/`` changes.  A span is
``(name, start, end, parent, run id)``: ``run id`` numbers the
simulated points (one per ``run_spec_point`` call), so every span of
one point shares it.  Spans live in flat ``array`` columns while the
process runs and are written out once, by :meth:`Tracer.dump`, when it
ends.

A span's *self* time is its duration minus the durations of its child
spans.  Self times telescope, so over a closed, properly nested tree
they sum to the root's duration; :func:`layer_metrics` checks that and
the nesting itself.

Calls and rows are counted only for a span whose parent is another
layer: a batch hook that falls back to its per-row hook, or an
``add_batch`` of one row that calls ``add``, is one call, not two.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from typing import Callable, Dict, Optional

#: Defense hook -> (layer suffix, rows counted for one call).
DEFENSE_HOOKS = {
    "process_good_join_batch": ("join_batch", lambda a: len(a[0])),
    "process_good_join": ("join_batch", lambda a: 1),
    "process_good_departure_batch": ("departure", lambda a: len(a[0])),
    "process_good_departure": ("departure", lambda a: 1),
    "process_bad_join_batch": ("bad_join", lambda a: 0),
    "process_bad_departure": ("bad_departure", lambda a: 1),
    "process_bad_departure_batch": ("bad_departure", lambda a: a[0]),
    "on_tick": ("tick", lambda a: 0),
    "bootstrap": ("bootstrap", lambda a: 0),
}

#: ``ArenaMembershipSet`` method -> (span name, rows for one call).
MEMBERSHIP_METHODS = {
    "add": ("identity.add", lambda a: 1),
    "add_batch": ("identity.add", lambda a: len(a[0])),
    "remove": ("identity.remove", lambda a: 1),
    "discard": ("identity.remove", lambda a: 1),
    "remove_batch": ("identity.remove", lambda a: len(a[0])),
    "random_good": ("identity.random_good", lambda a: 0),
}


class Tracer:
    """Span columns plus one call stack per thread."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rows = array("q")
        self.run = array("i")
        self.run_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root = -1
        self.root = self.open(self.name_id("root"))

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            # Spans opened on a worker thread hang off the root.
            stack = self._local.stack = [self.root]
            return stack

    def current(self) -> int:
        """Name id of the innermost open span on this thread."""
        return self.name[self._stack()[-1]]

    def open(self, nid: int, rows: int = 0) -> int:
        stack = self._stack()
        parent = stack[-1]
        with self._lock:
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            nested = parent >= 0 and self.name[parent] == nid
            self.rows.append(-1 if nested else rows)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str,
             rows: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(nid, rows(args) if rows is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def close_root(self) -> None:
        self.close(self.root)

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw columns."""
        columns = ("name", "start", "end", "parent", "rows", "run")
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        partial = f"{path}.partial"
        with open(partial, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns:
                getattr(self, column).tofile(out)
        os.replace(partial, path)


class _TimedBlocks:
    """Times each ``next()`` on a churn block stream as one span."""

    def __init__(self, tracer: Tracer, blocks) -> None:
        self._tracer = tracer
        self._blocks = blocks
        self._nid = tracer.name_id("traces.next_block")

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        index = tracer.open(self._nid)
        try:
            block = next(self._blocks)
        except StopIteration:
            tracer.rows[index] = -1  # the exhausted probe is no block
            raise
        finally:
            tracer.close(index)
        tracer.rows[index] = len(block)
        return block


def _wrap_defense(tracer: Tracer, defense) -> None:
    layer = "core" if defense.name == "ERGO" else "baselines"
    for method, (suffix, rows) in DEFENSE_HOOKS.items():
        bound = getattr(defense, method)
        setattr(defense, method, tracer.wrap(bound, f"{layer}.{suffix}", rows))
    members = defense.population.good
    for method, (name, rows) in MEMBERSHIP_METHODS.items():
        setattr(members, method, tracer.wrap(getattr(members, method), name, rows))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points that ``run_spec_point`` reaches.

    Patches are made on the names ``repro.scenarios.run`` resolves at
    call time, so callers must go through that module (as the service's
    job runner does) to be traced.
    """
    from repro.scenarios import run as scen_run
    from repro.scenarios.compile import CompiledScenario
    from repro.sim.engine import Simulation

    Simulation.run = tracer.wrap(Simulation.run, "sim.run")
    scen_run.compile_scenario = tracer.wrap(
        scen_run.compile_scenario, "scenarios.compile"
    )
    CompiledScenario.summary = tracer.wrap(
        CompiledScenario.summary, "scenarios.summary"
    )
    summary_id = tracer.name_id("scenarios.summary")
    plain_iter_blocks = CompiledScenario.iter_blocks

    def iter_blocks(compiled):
        blocks = plain_iter_blocks(compiled)
        if tracer.current() == summary_id:
            return blocks  # the summary's own pass is scenarios time
        return _TimedBlocks(tracer, blocks)

    CompiledScenario.iter_blocks = iter_blocks

    plain_defense = scen_run.build_defense

    def build_defense(name):
        defense = plain_defense(name)
        _wrap_defense(tracer, defense)
        return defense

    scen_run.build_defense = build_defense
    plain_adversary = scen_run.build_adversary

    def build_adversary(*args, **kwargs):
        adversary = plain_adversary(*args, **kwargs)
        if adversary is not None:
            adversary.act = tracer.wrap(adversary.act, "adversary.act")
        return adversary

    scen_run.build_adversary = build_adversary
    point = tracer.wrap(scen_run.run_spec_point, "point")

    def run_spec_point(*args, **kwargs):
        tracer.run_id += 1
        return point(*args, **kwargs)

    scen_run.run_spec_point = run_spec_point


def layer_metrics(tracer: Tracer) -> Dict:
    """Self time, calls and rows per span name, plus the tree checks.

    Returns ``{"spans": {name: {"self_s", "calls", "rows"}},
    "root_s", "self_sum_s", "nesting_ok"}``.  ``root_s`` is the closed
    root span's duration and ``self_sum_s`` the sum of every span's self
    time; they agree when the tree is closed and properly nested.
    """
    import numpy as np

    names = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start)
    end = np.frombuffer(tracer.end)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    rows = np.frombuffer(tracer.rows, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    up = parent[has_parent]
    child = np.bincount(up, weights=duration[has_parent], minlength=len(start))
    own = duration - child
    nesting_ok = bool(
        np.all(end >= start)
        and np.all(start[has_parent] >= start[up])
        and np.all(end[has_parent] <= end[up])
    )
    counted = rows >= 0
    width = len(tracer.names)
    self_s = np.bincount(names, weights=own, minlength=width)
    calls = np.bincount(names[counted], minlength=width)
    row_sums = np.bincount(names[counted], weights=rows[counted], minlength=width)
    spans = {
        name: {
            "self_s": float(self_s[i]),
            "calls": int(calls[i]),
            "rows": int(row_sums[i]),
        }
        for i, name in enumerate(tracer.names)
    }
    return {
        "spans": spans,
        "root_s": float(duration[tracer.root]),
        "self_sum_s": float(own.sum()),
        "nesting_ok": nesting_ok,
    }
