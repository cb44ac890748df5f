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

    def tokens(self, place):
        """How many tokens a clean replay leaves in ``place``, counted on
        its flat counts while its final marking is not built."""
        if type(self._final) is partial:
            held = self._final.args[1]
            return sum(n for (p, _), n in held.items() if p == place)
        return len(self._final[place])

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
    place, firing as ``cnet.arcs`` says, as ``colored_fire`` does."""
    held = {}
    for p, toks in cnet.initial.items():
        for tok in toks:
            held[p, tok] = held.get((p, tok), 0) + 1
    get, places, arcs = held.get, cnet.places, cnet.arcs
    for i, (t, b) in enumerate(projected):
        try:
            consumed, produced = arcs(t, b)
        except ValueError as missing:
            return ReplayReport(False, i, (t, b), _marking(places, held),
                                reason=str(missing))
        for pt, n in consumed:
            if get(pt, 0) < n:
                return ReplayReport(False, i, (t, b), _marking(places, held),
                                    reason="not enabled")
        for pt, n in consumed:
            held[pt] -= n
        for pt, n in produced:
            held[pt] = get(pt, 0) + n
    return ReplayReport(True, final_marking=partial(_marking, places, held))


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
