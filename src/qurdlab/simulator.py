"""Discrete-event simulation of the reservation protocol.

One launcher actor per job runs the reservation algorithm (fail or wait
semantics); one daemon actor per machine runs the resource side.  They
discover each other through a virtual service bus: daemons publish and
unpublish themselves, subscribers hear about it one bus latency later.

Each queued event names the method that handles it, messages included: a
message over the reliable FIFO links is a call to the receiver's method
one link latency after sending.  RESERVE, JOB and RELEASE are
``Daemon.reserve``, ``start`` and ``release``; OK, KO and DONE are
``Launcher.ok``, ``ko`` and ``done`` (``ok`` and ``ko`` then step).  A
crashed daemon sends nothing but keeps its reservation, as the net's crash
consumes only running: the reservation's own deadline cancels it, or else
the JOB for it lands, starts there and is lost with the machine.  A
RESERVE to a crashed daemon gets a suspected KO from the failure-detector
oracle ``DETECT_DELAY + msg_latency`` after it arrives; any other JOB or
RELEASE vanishes without a trace event.  An optional failure detector
restarts a lost process, after a detection delay, on the lowest-id
available daemon (queueing the request if none is free).

The whole simulation is a pure function of (parameters, config), and the
seed only shuffles job submission order.  Events at equal times are
ordered crash < timer < delivery, then by scheduling sequence number.
All launchers share one bus view, ``Simulation.bus``: the machines
announced as published, in arrival order, updated once per bus event
before each discovering launcher hears it.  A launcher reads an empty
view until its submit notice joins it.  This is exact: every job is
submitted at t=0, after the crashes at t=0, and the notices announce the
same machines at consecutive sequence numbers.  No publish precedes them
(freeing a machine needs a reservation); an unpublish can, by a crash at
t=0 with bus latency 0, and a fail launcher stepping on it must see
nothing.  One step per join contacts what a step per announced
machine would: no reply arrives during a notice, and a fail launcher does
not give up with a RESERVE pending.  A launcher stops discovering only by
an irreversible step, which clears the snapshots, so no snapshot needs
its frozen view, and drops it from the launchers a bus event walks.  The
result is an outcome per job plus the protocol trace consumed by the
conformance checker.

A run whose whole state comes back at a later tick would loop forever, so
``run`` stops there, keeping the events of one period since that tick:
``SimResult.cycle`` is (start, period), the block running from event
start to the end of the events.  ``SimResult.layout`` alone works out how
that period repeats up to the horizon (the prefix before it, its block,
the full periods and the cut one); ``SimResult.trace`` copies the block by
it on its first read, which the conformance check, reading the layout
itself, never makes.
Snapshots (queued events, times relative to now, and every actor) start
after a quiet stretch with no irreversible step; timer epochs are kept
relative to their counters and ``oks`` only under fail semantics, which
alone reads it, as absolute values would never repeat.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import cached_property

from .catalog import DEFAULT_TIMEOUT, int_issues

CRASH_PRIO = 0
TIMER_PRIO = 1
DELIVER_PRIO = 2

DETECT_DELAY = 1    # failure-detector reaction time

DISCOVERING = "discovering"
LAUNCHING = "launching"
DONE = "done"
FAILED = "failed"


class InvalidScenario(ValueError):
    pass


@dataclass
class SimConfig:
    """What a scenario sets for one simulation run, plus the horizon."""

    bus_latency: int = 1
    msg_latency: int = 1
    timeout: object = DEFAULT_TIMEOUT  # reservation timeout, None = no timers
    job_duration: int = 2
    crashes: list = field(default_factory=list)        # (machine id, time)
    seed: int = 0
    horizon: int = 1000              # hard stop for the event loop

    def validate(self, params):
        """Problems with simulating ``params`` under this config, the
        params' own first, each message once; empty when the run can
        start."""
        issues = params.validate()
        # the clock counts whole ticks, and a negative delay or event time
        # would move it backwards
        for label, v in (("bus-latency", self.bus_latency),
                         ("msg-latency", self.msg_latency),
                         ("horizon", self.horizon)):
            issues += int_issues(label, v, 0)
        issues += int_issues("job duration", self.job_duration, 1)
        if self.timeout != params.timeout or \
                type(self.timeout) is not type(params.timeout):
            # daemons cancel on the run's timeout, the replay net on the model's
            issues.append(f"run timeout {self.timeout} differs from the "
                          f"model timeout {params.timeout}")
        # no machine ids to check a crash against where the count is not
        # an int, which params.validate reports
        machines = (set(params.machines())
                    if isinstance(params.machine_count, int) else None)
        for m, t in self.crashes:
            if machines is not None and m not in machines:
                issues.append(f"unknown machine {m} in crash")
            issues += int_issues("crash time", t, 0)
        # repeated crash entries repeat their problem: report it once
        return list(dict.fromkeys(issues))


@dataclass(slots=True)
class TraceEvent:
    time: int
    actor: str
    kind: str
    machine: str = None
    job: str = None

    def line(self):
        head = f"t={self.time} {self.actor} {self.kind}"
        if self.machine is None:
            return head if self.job is None else f"{head} job={self.job}"
        if self.job is None:
            return f"{head} machine={self.machine}"
        return f"{head} machine={self.machine} job={self.job}"


@dataclass
class SimResult:
    # job id -> completed|failed, or for an unfinished job
    # horizon (the run was cut with events still queued) or stalled (the
    # event queue emptied first)
    outcomes: dict
    # the simulated events: the whole trace, or for a looping run the
    # events up to the end of its first period
    events: list
    # (start, period) when the run ended in a loop: the events from index
    # start to the end repeat every period ticks
    cycle: tuple = None
    horizon: int = None

    def layout(self):
        """The run up to the horizon as (prefix, block, full, cut): the
        events before the loop, the block that repeats every period, how
        many times it occurs in full (its simulated first period
        included), and its first events that occur once more before the
        horizon cuts it.  A run that did not loop is all prefix."""
        if self.cycle is None:
            return self.events, [], 0, []
        start, period = self.cycle
        block = self.events[start:]
        # a block spans less than its period, so one copy at most is cut
        last = block[-1].time if block else self.horizon
        full = (self.horizon - last) // period + 1
        cut = [e for e in block if e.time + full * period <= self.horizon]
        return self.events[:start], block, full, cut

    @cached_property
    def trace(self):
        """Every event up to the horizon.  A looping run's later periods
        are copies of its first, built on the first read, which
        ``check_run`` and ``fuzz_conformance`` never make."""
        if self.cycle is None:
            return self.events
        _, block, full, cut = self.layout()
        period = self.cycle[1]
        trace = self.events.copy()
        for n in range(1, full + 1):
            trace += [TraceEvent(e.time + n * period, e.actor, e.kind,
                                 e.machine, e.job)
                      for e in (block if n < full else cut)]
        return trace

    def trace_text(self):
        return "\n".join([*map(TraceEvent.line, self.trace), ""])


class Daemon:
    """Per-machine resource daemon: available -> reserved -> running.  It
    is published on the bus while it is available and not crashed."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.state = "available"
        self.client = None          # reserving/running job id
        self.crashed = False
        self.epoch = 0              # bumped on every state change

    def reserve(self, launcher):
        sim = self.sim
        job = launcher.job
        if self.crashed:
            # the eventually-perfect detector answers for the dead machine
            # so the launcher is not stuck forever
            sim.schedule(sim.now + DETECT_DELAY + sim.config.msg_latency,
                         DELIVER_PRIO, launcher.ko, self.name, True)
        elif self.state == "available":
            self.state = "reserved"
            self.client = job
            self.epoch += 1
            sim.announce(self, False)
            sim.emit(self.name, "ok-sent", self.name, job)
            sim.send(launcher.ok, self.name)
            if sim.expiry is not None:
                sim.schedule(sim.now + sim.expiry, TIMER_PRIO, self.expire,
                             self.epoch)
        else:
            sim.emit(self.name, "ko-sent", self.name, job)
            sim.send(launcher.ko, self.name, False)

    def start(self, job):
        sim = self.sim
        if self.state == "reserved" and job == self.client:
            self.state = "running"
            self.epoch += 1
            sim.emit(self.name, "job-accepted", self.name, job)
            if self.crashed:
                # the JOB consumes the reservation the crash left in
                # place: the job starts on the dead machine and is lost
                sim.lose_job(self.name, job)
            else:
                sim.schedule(sim.now + sim.config.job_duration, TIMER_PRIO,
                             self.complete, self.epoch)

    def release(self, job):
        # only the reserving client may free the machine; a stale
        # RELEASE after re-reservation must not evict a third party
        if not self.crashed and self.state == "reserved" and job == self.client:
            self.cancel()

    def expire(self, epoch):
        # a crashed daemon loses its reservation at the same deadline
        if self.state == "reserved" and epoch == self.epoch:
            self.cancel()

    def cancel(self):
        # cancel first: becoming available may immediately hand the
        # machine to a failure-detector restart
        self.sim.emit(self.name, "canceled", self.name, self.client)
        self.become_available()

    def complete(self, epoch):
        if self.crashed or self.state != "running" or epoch != self.epoch:
            return
        sim = self.sim
        job = self.client
        sim.emit(self.name, "process-finished", self.name, job)
        sim.emit(self.name, "done-sent", self.name, job)
        sim.send(sim.launchers[job].done)
        self.become_available()

    def become_available(self):
        self.state = "available"
        self.client = None
        self.epoch += 1
        if not self.crashed:
            self.sim.announce(self, True)
            self.sim.detector_offer(self)


class Launcher:
    """Per-job reservation actor (Algorithm 2 fail / Algorithm 3 wait style)."""

    def __init__(self, sim, job, needed, semantics):
        self.sim = sim
        self.job = job
        self.needed = needed
        self.semantics = semantics
        self.phase = DISCOVERING
        self.view = ()              # the bus view, once its notice joins it
        self.contacted = set()
        self.pending = set()        # machines with a RESERVE awaiting reply
        self.machines = []          # reserved machines
        self.res_epoch = {}         # machine -> reservation generation
        self.oks = 0                # positive answers ever received
        self.done_count = 0

    def ok(self, machine):
        sim = self.sim
        self.pending.discard(machine)
        if self.phase != DISCOVERING:
            return
        self.oks += 1
        self.machines.append(machine)
        self.res_epoch[machine] = self.res_epoch.get(machine, 0) + 1
        if sim.config.timeout is not None:
            sim.schedule(sim.now + sim.config.timeout, TIMER_PRIO,
                         self.unbook, machine, self.res_epoch[machine])
        if len(self.machines) == self.needed:
            self.phase = LAUNCHING
            sim.progress(self)
            sim.emit(self.job, "launch", None, self.job)
            for m in self.machines:
                sim.send(sim.daemons[m].start, self.job)
        self.step()

    def ko(self, machine, suspected):
        if suspected:
            self.sim.emit(self.job, "suspected", machine, self.job)
        self.pending.discard(machine)
        self.step()

    def done(self):
        if self.phase != LAUNCHING:
            return
        self.done_count += 1
        if self.done_count == self.needed:
            self.phase = DONE
            self.sim.progress()
            self.sim.emit(self.job, "job-done", None, self.job)

    def unbook(self, machine, epoch):
        """Reservation timer: give the machine up if the job has not
        launched by now (the daemon side expires simultaneously)."""
        if self.phase != DISCOVERING:
            return
        if machine not in self.machines or self.res_epoch.get(machine) != epoch:
            return
        self.machines.remove(machine)
        self.sim.emit(self.job, "released", machine, self.job)
        self.sim.send(self.sim.daemons[machine].release, self.job)
        self.step()

    def step(self):
        """Contact candidate machines, keeping as many RESERVEs in flight as
        reservations are still missing, so positive answers never exceed
        the demand.  Under fail semantics the budget counts every OK ever
        received (a reservation given up to the timeout is not replaced:
        the single-pass algorithm fails instead); fail semantics gives up
        once discovery is exhausted."""
        if self.phase != DISCOVERING:
            return
        if self.semantics == "fail":
            window = self.needed - self.oks - len(self.pending)
        else:
            window = self.needed - len(self.machines) - len(self.pending)
        for m in self.view:
            if window <= 0:
                break
            if m not in self.contacted and m not in self.machines:
                self.contacted.add(m)
                self.pending.add(m)
                window -= 1
                self.sim.emit(self.job, "reserve-sent", m, self.job)
                self.sim.send(self.sim.daemons[m].reserve, self)
        if self.pending or len(self.machines) >= self.needed \
                or self.semantics != "fail":
            return
        if self.needed > self.oks and not self.sim.all_discovered_by(self):
            return      # discovery may still bring a machine
        for m in self.machines:
            self.sim.emit(self.job, "released", m, self.job)
            self.sim.send(self.sim.daemons[m].release, self.job)
        self.machines.clear()
        self.phase = FAILED
        self.sim.progress(self)
        self.sim.emit(self.job, "failed", None, self.job)


class Simulation:
    def __init__(self, params, config):
        self.params = params
        self.config = config
        self.now = 0
        self.seq = 0
        self.heap = []
        self.trace = []
        issues = config.validate(params)
        if issues:
            raise InvalidScenario("; ".join(issues))
        self.latency = config.msg_latency
        # the launcher-side timer runs at ok-receipt + timeout; the daemon
        # allows one more hop so a JOB sent just before that deadline
        # still lands before it gives up
        self.expiry = (None if config.timeout is None
                       else config.timeout + 2 * config.msg_latency)
        self.daemons = {m: Daemon(self, m) for m in params.machines()}
        self.launchers = {}
        for i, (j, d) in enumerate(zip(params.jobs(), params.job_demands)):
            self.launchers[j] = Launcher(self, j, d, params.semantics_of(i))
        self.bus = dict.fromkeys(self.daemons)  # all start published
        self.discovering = dict.fromkeys(self.launchers.values())  # in order
        self.restart_queue = []      # jobs waiting for a machine to restart on
        # snapshots start this long after the last irreversible step
        self.quiet = 2 * max(config.bus_latency, config.job_duration,
                             DETECT_DELAY + self.latency,
                             self.expiry or 0)
        self.progressed = 0          # time of the last irreversible step
        self.snapshots = {}          # state -> (tick, trace length) since then

    # -- plumbing ---------------------------------------------------------

    def schedule(self, time, prio, handler, *args):
        heapq.heappush(self.heap, (time, prio, self.seq, handler, args))
        self.seq += 1

    def send(self, handler, *args):
        """Send a message: the receiver runs ``handler(*args)`` one link
        latency from now."""
        heapq.heappush(self.heap, (self.now + self.latency, DELIVER_PRIO,
                                   self.seq, handler, args))
        self.seq += 1

    def emit(self, actor, kind, machine=None, job=None):
        self.trace.append(TraceEvent(self.now, actor, kind, machine, job))

    def announce(self, daemon, published):
        """Publish or unpublish a daemon on the bus; every launcher hears
        of it one bus latency later."""
        self.emit(daemon.name, "published" if published else "unpublished",
                  daemon.name)
        self.schedule(self.now + self.config.bus_latency, DELIVER_PRIO,
                      self.notify, daemon.name, published)

    def notify(self, machine, published):
        """Apply one bus event to the shared view, then let each
        discovering subscriber hear it in turn.  Each has stepped since its
        own state last changed, so a wait launcher re-opens a published
        machine and steps only with a free slot; a fail one, which never
        re-contacts, always steps: it reads every daemon's state."""
        if published:
            self.bus[machine] = None
        else:
            del self.bus[machine]
        for launcher in [*self.discovering]:    # a step may drop its own
            if launcher.semantics == "fail":
                launcher.step()
            elif published:
                launcher.contacted.discard(machine)
                if launcher.needed > len(launcher.machines) + len(
                        launcher.pending):
                    launcher.step()

    def join(self, launcher):
        """A submit notice: what it announces is the shared view by now."""
        launcher.view = self.bus
        launcher.step()

    def progress(self, launcher=None):
        """An irreversible step: no state before it can come back, and a
        launcher that took it stops discovering."""
        self.progressed = self.now
        self.snapshots.clear()
        self.discovering.pop(launcher, None)

    def snapshot(self, time, prio, handler, args):
        """The state at a tick boundary, popped event included, equal at two
        ticks iff the runs from them agree up to the shift; actors by id."""
        now = self.now
        return (tuple((t - now, p, h, _relative(h, a)) for t, p, _, h, a
                      in [(time, prio, 0, handler, args), *sorted(self.heap)]),
                tuple((d.state, d.client, d.crashed)
                      for d in self.daemons.values()),
                tuple((lr.phase, lr.view is self.bus,
                       frozenset(lr.contacted), frozenset(lr.pending),
                       tuple(lr.machines), lr.done_count,
                       lr.oks if lr.semantics == "fail" else None)
                      for lr in self.launchers.values()),
                tuple(self.restart_queue), tuple(self.bus))

    def all_discovered_by(self, launcher):
        """No published machine remains unknown to the launcher, so fail
        semantics cannot hope for a further discovery."""
        return all(d.state != "available" or d.crashed
                   or d.name in launcher.view for d in self.daemons.values())

    # -- failure detector ---------------------------------------------------

    def detect(self, job):
        self.progress()
        for d in self.daemons.values():
            if not d.crashed and d.state == "available":
                self.restart_on(d, job)
                return
        self.restart_queue.append(job)
        self.emit("detector", "restart-waiting", None, job)

    def restart_on(self, daemon, job):
        self.progress()
        daemon.state = "running"
        daemon.client = job
        daemon.epoch += 1
        self.announce(daemon, False)
        self.emit("detector", "restarted", daemon.name, job)
        self.schedule(self.now + self.config.job_duration, TIMER_PRIO,
                      daemon.complete, daemon.epoch)

    def detector_offer(self, daemon):
        """A machine just became available; serve a queued restart if any."""
        if self.restart_queue and not daemon.crashed:
            self.restart_on(daemon, self.restart_queue.pop(0))

    # -- event handlers -----------------------------------------------------

    def submit(self, job):
        self.progress()
        self.emit(job, "job-submitted", None, job)
        launcher = self.launchers[job]
        if any(d.state == "available" and not d.crashed
               for d in self.daemons.values()):
            self.schedule(self.now + self.config.bus_latency, DELIVER_PRIO,
                          self.join, launcher)
        launcher.step()

    def crash(self, name):
        d = self.daemons[name]
        if d.crashed:
            return
        self.progress()
        d.crashed = True
        if d.state == "available":      # it was published until now
            self.announce(d, False)
        if d.state == "running":
            self.lose_job(name, d.client)
        else:
            self.emit(name, "crashed-idle", name)

    def lose_job(self, name, job):
        """Crashed machine ``name`` was running ``job``; the detector, if
        on, restarts the job."""
        self.emit(name, "crashed", name, job)
        if self.params.failure_detector:
            self.schedule(self.now + DETECT_DELAY, TIMER_PRIO,
                          self.detect, job)

    def run(self):
        order = list(self.launchers)
        if len(order) > 1:      # one job draws nothing: build no Random
            random.Random(self.config.seed).shuffle(order)
        for j in order:
            self.schedule(0, DELIVER_PRIO, self.submit, j)
        for m, t in self.config.crashes:
            self.schedule(t, CRASH_PRIO, self.crash, m)
        unfinished, cycle, now = "stalled", None, self.now
        heap, pop, horizon = self.heap, heapq.heappop, self.config.horizon
        while heap:
            time, prio, _, handler, args = pop(heap)
            if time != now:
                # only a new tick can pass the horizon or repeat a state,
                # so a same-tick event pays for neither test
                if time > horizon:
                    unfinished = "horizon"
                    break
                now = self.now = time
                if now - self.progressed >= self.quiet:
                    key = self.snapshot(time, prio, handler, args)
                    if key in self.snapshots:
                        unfinished = "horizon"
                        tick, start = self.snapshots[key]
                        cycle = start, now - tick
                        break
                    self.snapshots[key] = now, len(self.trace)
            handler(*args)
        ends = {DONE: "completed", FAILED: "failed"}
        outcomes = {j: ends.get(lr.phase, unfinished)
                    for j, lr in self.launchers.items()}
        # cut every link back to the simulation: reference counting frees it
        heap.clear()
        self.snapshots.clear()
        for actor in (*self.daemons.values(), *self.launchers.values()):
            actor.sim = None
        return SimResult(outcomes, self.trace, cycle, horizon)


def _relative(handler, args):
    """A queued event's arguments, epochs relative to the counter they meet."""
    name = handler.__name__
    if name in ("expire", "complete"):
        return args[0] - handler.__self__.epoch
    if name == "unbook":
        return args[0], args[1] - handler.__self__.res_epoch[args[0]]
    return args


def run(params, config=None):
    """Simulate the protocol for a model configuration; deterministic for
    fixed (params, config)."""
    if config is None:
        config = SimConfig(timeout=params.timeout)
    return Simulation(params, config).run()
