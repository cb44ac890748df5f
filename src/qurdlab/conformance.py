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
from dataclasses import dataclass, field, replace
from functools import cached_property

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
    "suspected", "failed", "crashed-idle", "restart-waiting",
})


@dataclass
class ReplayReport:
    """Where a replay stopped: ``final_marking`` is the marking in which
    step ``index`` could not fire, or the one after the last step, built
    from the replay's flat counts ``held`` on its first read."""

    ok: bool
    index: int = None               # first diverging step
    label: tuple = None             # (transition, binding) that failed
    reason: str = None              # why the step or the run diverged
    # the replay's flat {(place, token): count} marking and the net's
    # places, both left out of comparisons and the repr
    held: dict = field(default_factory=dict, compare=False, repr=False)
    places: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def final_marking(self):
        """The colored marking, place -> sorted tuple, of ``held``."""
        toks = {p: [] for p in self.places}
        for (p, tok), n in self.held.items():
            toks.setdefault(p, []).extend([tok] * n)
        return {p: tuple(sorted(v)) for p, v in toks.items()}

    def tokens(self, place):
        """How many tokens the replay leaves in ``place``, counted on its
        flat counts."""
        return sum(n for (p, _), n in self.held.items() if p == place)

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
    {(place, token): count} dict that each step tests and updates in
    place, firing as ``cnet.arcs`` says, as ``colored_fire`` does; the
    report keeps that dict and the net's places, not the net."""
    held = {}
    for p, toks in cnet.initial.items():
        for tok in toks:
            held[p, tok] = held.get((p, tok), 0) + 1
    get, arcs, places = held.get, cnet.arcs, cnet.places
    for i, (t, b) in enumerate(projected):
        try:
            consumed, produced = arcs(t, b)
        except ValueError as missing:
            return ReplayReport(False, i, (t, b), str(missing), held, places)
        for pt, n in consumed:
            if get(pt, 0) < n:
                return ReplayReport(False, i, (t, b), "not enabled", held,
                                    places)
        for pt, n in consumed:
            held[pt] -= n
        for pt, n in produced:
            held[pt] = get(pt, 0) + n
    return ReplayReport(True, held=held, places=places)


def _moves(cnet, steps):
    """Whether ``steps``, fired in full, change the marking: whether what
    they consume differs from what they produce.  A step the net lacks
    diverges where it fires, whatever the answer."""
    change = {}
    try:
        for t, b in steps:
            consumed, produced = cnet.arcs(t, b)
            for pt, n in consumed:
                change[pt] = change.get(pt, 0) - n
            for pt, n in produced:
                change[pt] = change.get(pt, 0) + n
    except ValueError:
        return True
    return any(change.values())


def _done(events):
    return [e.kind for e in events].count("job-done")


def conformance_net(params, crashes=()):
    """Colored net matching a scenario for replay purposes: the model's own
    net, or a wider one when the run needs it.

    The failure-detector layer is present whenever the schedule can crash
    a machine, since crash events then appear in traces.  The cancel
    transition is present whenever a fail-semantics job exists even with
    the timeout off: giving machines back on failure maps to cancel, and
    untimed replay ignores the interval anyway.
    """
    if params.timeout is None and any(
            params.semantics_of(i) == FAIL
            for i in range(len(params.job_demands))):
        params = replace(params, timeout=DEFAULT_TIMEOUT)
    if crashes and not params.failure_detector:
        params = replace(params, failure_detector=True)
    return build_colored(params)


def check_run(params, config):
    """Simulate, project, replay; returns (SimResult, ReplayReport).

    The run is replayed as ``result.layout()`` lays it out, its steps and
    job-done events counted over every period up to the horizon.  A
    looping run's block fires in every period only if it moves the
    marking: one that brings the marking back fires alike in every later
    period, so it fires once, and the cut period after it, a prefix of
    the block fired from the same marking, cannot diverge.  On a clean
    replay the job_done count must match the number of completed jobs in
    the trace."""
    result = run(params, config)
    cnet = conformance_net(params, config.crashes)
    prefix, block, full, cut = result.layout()
    steps, looped, tail = project(prefix), project(block), project(cut)
    n_steps = len(steps) + full * len(looped) + len(tail)
    steps += looped * (full if _moves(cnet, looped) else 1) + tail
    report = replay(steps, cnet)
    if not report.ok:
        return result, report
    done_events = _done(prefix) + full * _done(block) + _done(cut)
    done_tokens = report.tokens("job_done")
    if done_tokens != done_events:
        report = replace(
            report, ok=False, index=n_steps,
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
