"""Trace conformance: every protocol run must be a firing sequence of the
colored reservation net.

Protocol events are projected onto colored transitions through
``DEFAULT_MAPPING`` (events without a net counterpart, like KO replies and
bus notifications, are declared internal in ``DEFAULT_INTERNAL``); the
projection is then replayed untimed from the net's initial marking,
checking enabling only.  A run conforms when every projected event fires
and the final number of job_done tokens equals the number of completed
jobs in the trace.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial

from . import colored as cpn
from .catalog import (DEFAULT_TIMEOUT, FAIL, WAIT, CatalogParams,
                      build_colored)
from .simulator import SimConfig, run


class UnknownEvent(Exception):
    """A trace event kind that is neither mapped nor declared internal."""


DEFAULT_MAPPING = {
    "job-submitted": "start_job",
    "ok-sent": "t1",
    "launch": "launch",
    "job-accepted": "t2",
    "process-finished": "t3",
    "done-sent": "t4",
    "job-done": "t5",
    "canceled": "cancel",
    "crashed": "crash",
    "restarted": "continue",
}

DEFAULT_INTERNAL = frozenset({
    "published", "unpublished", "reserve-sent", "ko-sent", "released",
    "suspected", "failed", "crashed-idle", "restart-waiting", "killed",
})


class _BuiltOnRead:
    """A field whose ``partial`` value is called on its first read: a clean
    replay's final marking is built only if someone asks for it."""

    def __get__(self, report, owner=None):
        if report is not None and type(report._final) is partial:
            report._final = report._final()
        return report and report._final    # no report: the field's default

    def __set__(self, report, value):
        report._final = value


@dataclass
class ReplayReport:
    ok: bool
    index: int = None               # first diverging step
    label: tuple = None             # (transition, binding) that failed
    marking: dict = None            # blocking marking
    final_marking: dict = _BuiltOnRead()
    reason: str = None              # why the step or the run diverged

    def __str__(self):
        if self.ok:
            return "replay ok"
        what = self.reason
        if self.label is not None:
            what = f"{self.label[0]} {self.label[1]} {what}"
        return f"divergence at step {self.index}: {what}"


def project(trace):
    """Order-preserving projection of a trace onto (transition, binding)
    pairs, dropping internal events; the two tables are read at call
    time."""
    mapping, internal = DEFAULT_MAPPING, DEFAULT_INTERNAL
    out = []
    for ev in trace:
        if ev.kind in mapping:
            out.append((mapping[ev.kind], cpn.Binding(ev.machine, ev.job)))
        elif ev.kind not in internal:
            raise UnknownEvent(ev.kind)
    return out


def replay(projected, cnet):
    """Fire the projected sequence from the initial colored marking,
    untimed; divergences, including a transition or job the net lacks,
    are reported, not raised.  The marking is kept as one flat
    {(place, token): count} dict that each step's firing (``cnet.arcs``)
    tests and updates in place, as ``colored_fire`` would."""
    held = _initial(cnet)
    return _fire(cnet, held, projected) or _replayed(cnet.places, held)


def _initial(cnet):
    held = {}
    for p, toks in cnet.initial.items():
        for tok in toks:
            held[p, tok] = held.get((p, tok), 0) + 1
    return held


def _fire(cnet, held, steps, first=0):
    """Fire ``steps`` in place on ``held``; the report of the first one
    that diverges, numbered from ``first``, or None.  Each step reads the
    firing table under ``cnet.arcs``' key; only a firing new to it is
    compiled, which finds a transition or job the net lacks."""
    get, places, table = held.get, cnet.places, cnet.firings
    demand, semantics = cnet.universe.demand, cnet.universe.semantics
    for i, (t, b) in enumerate(steps, first):
        m, j = b
        key = t, m, j, demand.get(j), semantics.get(j)
        firing = table.get(key)
        if firing is None:
            try:
                firing = cnet.compile(key)
            except ValueError as missing:
                return ReplayReport(False, i, (t, b), _marking(places, held),
                                    reason=str(missing))
        consumed, produced = firing
        for pt, n in consumed:
            if get(pt, 0) < n:
                return ReplayReport(False, i, (t, b), _marking(places, held),
                                    reason="not enabled")
        for pt, n in consumed:
            held[pt] -= n
        for pt, n in produced:
            held[pt] = get(pt, 0) + n
    return None


def _replay_run(result, cnet):
    """Project and replay a run: the report, the number of projected steps
    and the number of job-done events.  A run that ended in a loop is
    replayed from the events it simulated, never from ``result.trace``: its
    block fires once per period up to one that brings the marking back,
    from where every later period and the cut one, a prefix of the block,
    fire alike."""
    events = result.events
    if result.cycle is None:
        steps = project(events)
        return replay(steps, cnet), len(steps), _done(events)
    start = result.cycle[0]
    full, cut = result.periods()
    parts = events[:start], events[start:], events[start:start + cut]
    prefix, block, tail = (project(part) for part in parts)
    n_steps = len(prefix) + full * len(block) + len(tail)
    done = _done(parts[0]) + full * _done(parts[1]) + _done(parts[2])
    held = _initial(cnet)
    diverged = _fire(cnet, held, prefix)
    for n in range(full):
        looped = held.copy()
        diverged = diverged or _fire(cnet, held, block,
                                     len(prefix) + n * len(block))
        if diverged or Counter(held) == Counter(looped):  # zero equals none
            break
    diverged = diverged or _fire(cnet, held, tail, n_steps - len(tail))
    return diverged or _replayed(cnet.places, held), n_steps, done


def _done(events):
    return sum(e.kind == "job-done" for e in events)


def _replayed(places, held):
    return ReplayReport(True, final_marking=partial(_marking, places, held))


def _marking(places, held):
    """The colored marking, place -> sorted tuple, of flat token counts."""
    toks = {p: [] for p in places}
    for (p, tok), n in held.items():
        toks.setdefault(p, []).extend([tok] * n)
    return {p: tuple(sorted(v)) for p, v in toks.items()}


def conformance_net(params, crashes=()):
    """Colored net matching a scenario for replay purposes.

    The failure-detector layer is present whenever the schedule can crash
    a machine, since crash events then appear in traces.  The cancel
    transition is present whenever a fail-semantics job exists even with
    the timeout off: giving machines back on failure maps to cancel, and
    untimed replay ignores the interval anyway.
    """
    any_fail = any(params.semantics_of(i) == FAIL
                   for i in range(len(params.job_demands)))
    timeout = params.timeout
    if timeout is None and any_fail:
        timeout = DEFAULT_TIMEOUT
    return build_colored(params, (timeout, params.zeroconf,
                                  params.failure_detector or bool(crashes)))


def check_run(params, config):
    """Simulate, project, replay; returns (SimResult, ReplayReport).

    On a clean replay the job_done count is also required to match the
    number of completed jobs in the trace."""
    result = run(params, config)
    report, n_steps, done_events = _replay_run(
        result, conformance_net(params, config.crashes))
    if report.ok:
        held = report._final.args[1]        # flat counts, not yet built
        done_tokens = sum(n for (p, _), n in held.items() if p == "job_done")
        if done_tokens != done_events:
            report = ReplayReport(
                False, index=n_steps, marking=report.final_marking,
                reason=f"{done_tokens} job_done tokens for {done_events} "
                       "job-done events")
    return result, report


@dataclass
class FuzzSummary:
    passed: int
    failures: list                  # (case seed, description, report)

    @property
    def failed(self):
        return len(self.failures)

    def __str__(self):
        total = self.passed + self.failed
        if not self.failed:
            return f"{self.passed}/{total} traces conform"
        lines = [f"{self.passed}/{total} traces conform; failures:"]
        lines += [f"  seed {s}: {d}: {r}" for s, d, r in self.failures]
        return "\n".join(lines)


def random_case(rng):
    """One random scenario from the default fuzz space: 1-4 machines,
    1-2 jobs with demands 1-3, mixed semantics, optional timeout, crash
    and extensions, small latencies."""
    machines = rng.randint(1, 4)
    jobs = rng.randint(1, 2)
    demands = [rng.randint(1, 3) for _ in range(jobs)]
    semantics = [rng.choice((FAIL, WAIT)) for _ in range(jobs)]
    timeout = rng.choice((None, 3))
    crashes = []
    if rng.random() < 0.5:
        crashes.append((f"M{rng.randint(1, machines)}", rng.randint(0, 8)))
    params = CatalogParams(
        machine_count=machines,
        job_demands=demands,
        semantics=semantics,
        timeout=timeout,
        zeroconf=rng.random() < 0.3,
        failure_detector=bool(crashes) and rng.random() < 0.7,
    )
    config = SimConfig(
        bus_latency=rng.randint(0, 2),
        msg_latency=rng.randint(0, 2),
        timeout=timeout,
        job_duration=rng.randint(1, 3),
        crashes=crashes,
        seed=rng.randint(0, 2**32 - 1),
    )
    return params, config


def fuzz_conformance(count, seed=0):
    """Replay ``count`` randomized scenarios; failing case seeds are
    reported so a case can be reproduced with random_case(Random(s))."""
    passed, failures = 0, []
    for k in range(count):
        case_seed = seed * 1_000_003 + k
        rng = random.Random(case_seed)
        params, config = random_case(rng)
        _, report = check_run(params, config)
        if report.ok:
            passed += 1
        else:
            desc = (f"{params.machine_count}m demands={params.job_demands} "
                    f"sem={params.semantics} timeout={params.timeout} "
                    f"crashes={config.crashes} fd={params.failure_detector} "
                    f"lat=({config.bus_latency},{config.msg_latency}) "
                    f"dur={config.job_duration}")
            failures.append((case_seed, desc, report))
    return FuzzSummary(passed, failures)
