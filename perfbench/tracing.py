"""Spans around qurdlab's public functions, recorded from outside the package.

Each wrapped function is patched where its caller looks it up (for example
``qurdlab.cli.build_net`` rather than ``qurdlab.catalog.build_net``), so the
package itself is untouched.  Spans are kept in memory: every span feeds the
per-layer totals, and the first ``KEEP_SPANS`` are also kept as records and
written out once, when the run ends.  A layer's self time is its spans'
durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

KEEP_SPANS = 50_000


def _count_markings(counts, args, g):
    counts["markings"] += g.n_states
    nbytes = getattr(getattr(g, "matrix", None), "nbytes", 0)
    counts["graph_bytes_max"] = max(counts["graph_bytes_max"], nbytes)


def _count_timed(counts, args, g):
    counts["timed_states"] += g.n_states
    counts["timed_new"] += g.n_states - 1


def _count_successors(counts, args, succs):
    counts["successors_calls"] += 1
    counts["successors_returned"] += len(succs)


def _count_sim(counts, args, result):
    counts["sim_events"] += len(result.trace)


def _count_replay(counts, args, report):
    counts["replay_events"] += len(args[0])


def _count_fire(counts, args, marking):
    counts["fire_calls"] += 1


# (module, attribute path, layer, counter).  Each attribute is the name the
# calling code resolves at call time.
PATCHES = (
    ("cli", "main", "cli", None),
    ("cli", "parse_scenario", "scenario.parse", None),
    ("cli", "build_net", "catalog.build_net", None),
    ("analysis", "explore_markings", "analysis.explore_markings",
     _count_markings),
    ("analysis", "explore", "analysis.explore", _count_timed),
    ("analysis", "check_invariant_vector", "analysis.check", None),
    ("analysis", "check_reachable", "analysis.check", None),
    ("analysis", "completion_skip", "analysis.check", None),
    ("analysis", "find_deadlocks", "analysis.check", None),
    ("analysis", "pending_deadlocks", "analysis.check", None),
    ("analysis", "MarkingGraph.path_labels", "analysis.witness", None),
    ("analysis", "ReachGraph.path_labels", "analysis.witness", None),
    ("analysis", "timed_witness", "analysis.witness", None),
    ("tpn", "TimedState.successors", "tpn.successors", _count_successors),
    ("conformance", "fuzz_conformance", "conformance.fuzz", None),
    ("conformance", "check_run", "conformance.check_run", None),
    ("conformance", "run", "simulator.run", _count_sim),
    ("conformance", "conformance_net", "conformance.net", None),
    ("conformance", "build_colored", "catalog.build_colored", None),
    ("conformance", "project", "conformance.project", None),
    ("conformance", "replay", "conformance.replay", _count_replay),
    ("colored", "colored_fire", "colored.fire", _count_fire),
)


class Tracer:
    """Span recorder; ``install`` patches the wrappers in, ``uninstall``
    restores the originals."""

    def __init__(self, q):
        self.q = q
        self.stack = []      # open spans: [layer, start, child, id, parent]
        self.calls = Counter()
        self.total = defaultdict(float)      # inclusive seconds per layer
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []                      # (id, parent, layer, op, start, end)
        self.dropped = 0
        self.op = 0
        self._ids = itertools.count()
        self._saved = []
        self.missing = set()

    def _wrap(self, layer, fn, counter):
        stack, spans, ids = self.stack, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, perf_counter(), 0.0, next(ids),
                     stack[-1][3] if stack else None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                self.calls[layer] += 1
                self.total[layer] += dur
                self.self_time[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(spans) < KEEP_SPANS:
                    spans.append((frame[3], frame[4], layer, self.op,
                                  frame[1], end))
                else:
                    self.dropped += 1
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every wrapper in.  A target the package no longer has is
        skipped and listed in ``missing``; its layer then reads 0."""
        for module, path, layer, counter in PATCHES:
            owner = getattr(self.q, module)
            *outer, name = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except AttributeError:
                self.missing.add("%s.%s" % (module, path))
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, counter))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def next_op(self):
        """Mark the start of one benchmark operation; its spans share the id."""
        self.op += 1

    def layer_metrics(self, rounds):
        """Per-layer figures for one traced round (totals / rounds)."""
        s, c = self.self_time, self.counts

        def rate(n, seconds):
            return n / seconds if seconds else 0.0

        r = float(rounds)
        return {
            "analysis.explore_markings_s": s["analysis.explore_markings"] / r,
            "analysis.markings": c["markings"] / r,
            "analysis.markings_per_s": rate(
                c["markings"], self.total["analysis.explore_markings"]),
            "analysis.graph_mb": c["graph_bytes_max"] / 1e6,
            "analysis.check_s": s["analysis.check"] / r,
            "analysis.witness_s": s["analysis.witness"] / r,
            "catalog.build_net_s": s["catalog.build_net"] / r,
            "scenario.parse_s": s["scenario.parse"] / r,
            "cli.self_s": s["cli"] / r,
            "tpn.successors_calls": c["successors_calls"] / r,
            "tpn.successors_s": s["tpn.successors"] / r,
            "tpn.successors_per_s": rate(
                c["successors_calls"], self.total["tpn.successors"]),
            "analysis.explore_s": s["analysis.explore"] / r,
            "analysis.timed_states": c["timed_states"] / r,
            "analysis.timed_states_per_s": rate(
                c["timed_states"], self.total["analysis.explore"]),
            "analysis.timed_dedup_ratio": rate(
                c["timed_new"], c["successors_returned"]),
            "simulator.run_s": s["simulator.run"] / r,
            "simulator.events": c["sim_events"] / r,
            "simulator.events_per_s": rate(
                c["sim_events"], self.total["simulator.run"]),
            "conformance.replay_s": s["conformance.replay"] / r,
            "conformance.replay_events_per_s": rate(
                c["replay_events"], self.total["conformance.replay"]),
            "colored.fire_calls": c["fire_calls"] / r,
            "colored.fire_s": s["colored.fire"] / r,
            "conformance.project_s": s["conformance.project"] / r,
            "conformance.net_s": s["conformance.net"] / r,
            "catalog.build_colored_s": s["catalog.build_colored"] / r,
        }

    def write(self, path, rounds):
        layers = {name: {"calls": self.calls[name],
                         "total_s": self.total[name],
                         "self_s": self.self_time[name]}
                  for name in sorted(self.calls)}
        with open(path, "w") as fh:
            json.dump({"rounds": rounds, "layers": layers,
                       "counts": dict(self.counts),
                       "fields": ["id", "parent", "layer", "op", "start",
                                  "end"],
                       "spans": self.spans, "dropped": self.dropped,
                       "missing": sorted(self.missing)}, fh)
