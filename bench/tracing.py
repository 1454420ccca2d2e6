"""Per-layer spans and counts, recorded from outside the program.

The tracer rebinds each layer's public entry point at the name its caller
looks up, so the program itself carries no instrumentation. Spans are kept
in memory (name, start, end, parent, under one id per scenario run) and
written out when the benchmark ends. A span's self time is its duration
minus the durations of its direct children; calls are strictly nested
because the engine is single-threaded.

``world.euclidean`` is deliberately not wrapped: it runs millions of times
per pass and a wrapper would dominate what it measures.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import swarmplan.cata
import swarmplan.engine
import swarmplan.negotiation
import swarmplan.selection
from swarmplan.engine import Engine
from swarmplan.formation import DistanceMatrix

from workloads import Api

#: (module, attribute, span name) for every rebound function entry point.
BINDINGS = [
    (swarmplan.engine, "build_graph", "comms.build_graph"),
    (swarmplan.engine, "gossip", "comms.gossip.knowledge"),
    (swarmplan.engine, "negotiate", "negotiation.negotiate"),
    (swarmplan.engine, "select", "selection.select"),
    (swarmplan.engine, "formation_assign", "formation.formation_assign"),
    (swarmplan.engine, "next_step", "routing.next_step"),
    (swarmplan.engine, "detect_conflicts", "routing.detect_conflicts"),
    (swarmplan.engine, "cluster_conflicts", "routing.cluster_conflicts"),
    (swarmplan.engine, "sort_queue", "priority.sort_queue"),
    (swarmplan.negotiation, "gossip", "comms.gossip.proposals"),
    (swarmplan.negotiation, "canonical", "negotiation.canonical"),
    (swarmplan.cata, "cata_select", "cata.cata_select"),
    (swarmplan.selection, "sort_queue", "priority.sort_queue"),
    (swarmplan.cata, "sort_queue", "priority.sort_queue"),
]


class Tracer:
    """Spans and counts for the passes run inside :meth:`installed`."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (run, id, parent, name, start, end)
        self._stack: list[list] = []  # [span id, child seconds]
        self._run_id: int | None = None
        self._next_run = 0
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------- spans

    def wrap(self, name: str, fn, observe=None, new_run: bool = False):
        """``fn`` timed as span ``name``; ``observe(args, result)`` counts.

        ``new_run`` starts a fresh scenario-run id for the call's spans.
        """
        def traced(*args, **kwargs):
            outer_run = self._run_id
            if new_run:
                self._run_id = self._next_run
                self._next_run += 1
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.spans[span_id] = (self._run_id, span_id, parent, name,
                                       start - self._epoch, end - self._epoch)
                if new_run:
                    self._run_id = outer_run
            if observe is not None:
                observe(args, result)
            return result
        return traced

    # ----------------------------------------------------------- counters

    def _count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _negotiate(self, negotiate):
        """Wrap the planner each negotiation receives, counting its inputs."""
        def observed(phase, group, graph, order, planner, knowledge):
            inputs: set = set()

            def counted(member, know, depth):
                inputs.add((know, depth))
                return planner(member, know, depth)

            result = negotiate(phase, group, graph, order,
                               self.wrap("negotiation.planner", counted), knowledge)
            self._count("negotiation.iterations", result.iterations)
            self._count("negotiation.retries", result.iterations - 1)
            self._count("negotiation.distinct_planner_inputs", len(inputs))
            return result
        return observed

    def _observers(self) -> dict:
        def pairs(args, result):
            n = len(args[1])
            self._count("routing.pairs_checked", n * (n - 1) // 2)
            self._count("routing.pairs_flagged", len(result))
        return {
            "routing.detect_conflicts": pairs,
            "routing.cluster_conflicts":
                lambda args, result: self._count("routing.clusters", len(result)),
            "comms.build_graph": lambda args, result: self._count(
                "comms.edges", sum(map(len, result.adjacency.values())) // 2),
            "comms.gossip.knowledge": lambda args, result: self._count(
                "comms.gossip.knowledge.rounds", result[1]),
            "comms.gossip.proposals": lambda args, result: self._count(
                "comms.gossip.proposals.rounds", result[1]),
        }

    # ---------------------------------------------------------- rebinding

    @contextmanager
    def installed(self):
        """Rebind every entry point for the duration; yields the pass Api."""
        observers = self._observers()
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in BINDINGS]
        saved.append((Engine, "tick", Engine.tick))
        saved.append((DistanceMatrix, "build", DistanceMatrix.__dict__["build"]))
        try:
            for module, attr, name in BINDINGS:
                fn = getattr(module, attr)
                if name == "negotiation.negotiate":
                    fn = self._negotiate(fn)
                setattr(module, attr, self.wrap(name, fn, observers.get(name)))
            Engine.tick = self.wrap("engine.tick", Engine.tick)
            DistanceMatrix.build = classmethod(self.wrap(
                "formation.DistanceMatrix.build",
                DistanceMatrix.__dict__["build"].__func__))
            api = Api()
            yield Api(run_sweep=self.wrap("sweep.run_sweep", api.run_sweep),
                      generate=self.wrap("scenario.generate", api.generate),
                      run=self.wrap("engine.run", api.run, new_run=True))
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass layer metrics from everything recorded so far.

        Times are milliseconds summed over the spans recorded; counts are
        exact. Call once per traced pass on a fresh tracer.
        """
        def self_ms(name: str) -> float:
            return 1000.0 * self.self_s[name]

        ticks = self.calls["engine.tick"]
        checked = self.counts["routing.pairs_checked"]
        out = {
            "engine.tick.calls": ticks,
            "engine.tick.ms_per_tick": 1000.0 * self.total_s["engine.tick"] / max(ticks, 1),
            "engine.self_ms_per_tick": self_ms("engine.tick") / max(ticks, 1),
            "routing.pairs_checked": checked,
            "routing.pairs_flagged": self.counts["routing.pairs_flagged"],
            "routing.flag_ratio": self.counts["routing.pairs_flagged"] / max(checked, 1),
            "routing.clusters": self.counts["routing.clusters"],
            "routing.cluster_conflicts.self_ms": self_ms("routing.cluster_conflicts"),
            "routing.next_step.self_ms": self_ms("routing.next_step"),
            "comms.build_graph.self_ms": self_ms("comms.build_graph"),
            "comms.edges": self.counts["comms.edges"],
            "negotiation.iterations": self.counts["negotiation.iterations"],
            "negotiation.retries": self.counts["negotiation.retries"],
            "negotiation.planner_calls": self.calls["negotiation.planner"],
            "negotiation.planner_ms": 1000.0 * self.total_s["negotiation.planner"],
            "negotiation.distinct_planner_inputs":
                self.counts["negotiation.distinct_planner_inputs"],
            "scenario.generate.ms": 1000.0 * self.total_s["scenario.generate"],
            "sweep.run_sweep.ms": 1000.0 * self.total_s["sweep.run_sweep"],
        }
        for name in ("routing.detect_conflicts", "comms.gossip.knowledge",
                     "comms.gossip.proposals", "negotiation.negotiate",
                     "negotiation.canonical", "selection.select", "cata.cata_select",
                     "formation.formation_assign", "formation.DistanceMatrix.build",
                     "priority.sort_queue"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self_ms(name)
        for name in ("comms.gossip.knowledge", "comms.gossip.proposals"):
            out[f"{name}.rounds"] = self.counts[f"{name}.rounds"]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for run, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": run, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
