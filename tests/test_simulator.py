"""Protocol simulator: outcomes, trace shape, determinism, failure paths.

Several assertions scan the emitted trace instead of poking simulator
internals, because the trace is the module's actual contract.
"""

import gc
import hashlib
import random
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qurdlab import simulator
from qurdlab.catalog import CatalogParams
from qurdlab.conformance import check_run, random_case
from qurdlab.simulator import (DISCOVERING, InvalidScenario, SimConfig,
                               Simulation, TraceEvent, run)


def events(result, kind, machine=None, job=None):
    return [e for e in result.trace
            if e.kind == kind
            and (machine is None or e.machine == machine)
            and (job is None or e.job == job)]


# -- outcomes -----------------------------------------------------------------

def test_happy_path_four_daemons():
    r = run(CatalogParams())
    assert r.outcomes == {"J1": "completed"}
    done = [e.kind for e in r.trace if e.kind in ("done-sent", "job-done")]
    assert done == ["done-sent"] * 4 + ["job-done"]


def test_run_without_config_simulates_timeout_off():
    off = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None)
    r = run(off)
    assert r.outcomes == {"J1": "completed", "J2": "completed"}
    assert r.trace == run(off, SimConfig(timeout=None)).trace


def test_run_without_config_simulates_timeout_5():
    # demand 3 on 2 machines never launches: M1 is given up at
    # ok + timeout + 2 link latencies
    five = CatalogParams(machine_count=2, job_demands=[3], timeout=5)
    r = run(five)
    assert r.trace == run(five, SimConfig(timeout=5)).trace
    ok = events(r, "ok-sent", machine="M1")[0]
    assert events(r, "canceled", machine="M1")[0].time == ok.time + 5 + 2


def test_fail_semantics_gives_up():
    p = CatalogParams(machine_count=1, job_demands=[2], semantics="fail")
    r = run(p)
    assert r.outcomes == {"J1": "failed"}
    assert events(r, "released", machine="M1")
    # the daemon frees the reservation and republishes
    assert events(r, "canceled", machine="M1")
    assert r.trace[-1].time <= 20


def test_wait_semantics_shares_one_daemon():
    p = CatalogParams(machine_count=1, job_demands=[1, 1], semantics="wait")
    for seed in range(4):
        r = run(p, SimConfig(seed=seed))
        assert r.outcomes == {"J1": "completed", "J2": "completed"}, seed
        accepted = events(r, "job-accepted")
        assert len(accepted) == 2
        # second acceptance only after the first run finished
        finished = events(r, "process-finished")
        assert finished[0].time <= accepted[1].time


def test_oversubscribed_wait_times_out():
    # the waiting launcher keeps re-reserving the one machine until cut off
    p = CatalogParams(machine_count=1, job_demands=[2], semantics="wait")
    r = run(p, SimConfig(horizon=60))
    assert r.outcomes == {"J1": "horizon"}


# -- trace grammar ---------------------------------------------------------------

def test_trace_line_format():
    r = run(CatalogParams(machine_count=1, job_demands=[1]))
    text = r.trace_text()
    assert text.splitlines()[0] == "t=0 J1 job-submitted job=J1"
    for line in text.splitlines():
        assert line.startswith("t=")
        fields = line.split()
        assert int(fields[0][2:]) >= 0
        assert all("=" in f for f in fields[3:])


def test_determinism_byte_for_byte():
    p = CatalogParams(machine_count=3, job_demands=[2, 1],
                      semantics=["wait", "fail"])
    c = SimConfig(seed=9, crashes=[("M2", 4)])
    p2 = CatalogParams(machine_count=3, job_demands=[2, 1],
                       semantics=["wait", "fail"])
    a = run(p, c).trace_text()
    b = run(p2, SimConfig(seed=9, crashes=[("M2", 4)])).trace_text()
    assert a == b


# Traces pinned byte for byte: any reordering of same-time events shows here.
# Only the last one loops; the others make progress until they end, so
# they take no snapshot of the state.
PINNED_TRACES = [
    # 64 machines with the failure detector: a restart, suspected KOs and
    # reservations of crashed machines canceled at their deadline
    (CatalogParams(machine_count=64, job_demands=[4] * 16, timeout=3,
                   failure_detector=True),
     SimConfig(crashes=[("M%d" % i, 2 + i % 7) for i in range(3, 65, 5)],
               seed=11),
     "1fdc5ca4aa99c3a334ffa6220c736aee72bafcce1260790eb82feb6fcf4a4c61"),
    # zero latencies: replies and bus events land at their sending time
    (CatalogParams(machine_count=3, job_demands=[2, 1],
                   semantics=["wait", "fail"]),
     SimConfig(bus_latency=0, msg_latency=0, seed=5),
     "059c98cb9f6444c46342966858142ef167d9440bd6a683dd495f41fb6bb1c9ad"),
    # J1 is killed holding reservations; J2 must still hear their
    # republication, which the bus delivers to the dead J1 first
    (CatalogParams(machine_count=3, job_demands=[2, 2]),
     SimConfig(launcher_kills=[("J1", 3)], seed=0),
     "2fa7aadd90abd4dd86bc393f838cf87db7e45cdae133b5c7d490b002f90ddfca"),
    # M1 crashes while reserved and still cancels at its deadline, before
    # M2 in reservation order
    (CatalogParams(machine_count=2, job_demands=[3]),
     SimConfig(crashes=[("M1", 3)], horizon=40),
     "5b740cfbf84fcefc513c519fc6d61fe26973129cad8d539cd290fce88ee0b4bb"),
]


def late(launcher):
    return not launcher.dead and launcher.phase != DISCOVERING


class Notices(Simulation):
    """Records the machines each submit notice announces, the daemons
    published when its job is submitted, and checks that each bus event
    walks exactly the live, discovering launchers, in job order."""

    def __init__(self, params, config):
        super().__init__(params, config)
        self.notices = {}

    def submit(self, job):
        self.notices[self.launchers[job]] = tuple(
            m for m, d in self.daemons.items()
            if d.state == "available" and not d.crashed)
        super().submit(job)

    def notify(self, machine, published):
        assert list(self.discovering) == [
            lr for lr in self.launchers.values()
            if not lr.dead and lr.phase == DISCOVERING]
        super().notify(machine, published)


class CountingSimulation(Notices):
    """Counts the (launcher, machine) pairs of the bus that reach a live
    launcher which is no longer discovering (one per such subscriber of a
    publish or unpublish, one per announced machine of such a launcher's
    submit notice), and the snapshots of the state taken."""

    late = taken = 0

    def notify(self, machine, published):
        self.late += sum(map(late, self.launchers.values()))
        super().notify(machine, published)

    def join(self, launcher):
        self.late += len(self.notices[launcher]) * late(launcher)
        super().join(launcher)

    def snapshot(self, *entry):
        self.taken += 1
        return super().snapshot(*entry)


class NoCycleSimulation(Simulation):
    """The simulator without loop detection: no snapshot ever repeats, so
    every run is simulated to its end."""

    def snapshot(self, *entry):
        return object()


@pytest.mark.parametrize("params, config, digest", PINNED_TRACES)
def test_pinned_trace_digests(params, config, digest):
    sim = CountingSimulation(params, config)
    r = sim.run()
    assert hashlib.sha256(r.trace_text().encode()).hexdigest() == digest
    loops = config.horizon == 40
    assert (r.cycle is not None) == loops
    assert (sim.taken > 0) == loops


# 16 launchers of both semantics hear every bus event of 64 machines
MANY_LAUNCHERS = (
    CatalogParams(machine_count=64, job_demands=[4] * 16,
                  semantics=["wait", "fail"] * 8, timeout=3,
                  failure_detector=True, zeroconf=True),
    SimConfig(timeout=3, crashes=[(f"M{i}", i) for i in range(3, 64, 5)],
              seed=7))


def test_many_launcher_trace_pinned():
    # 1,232 of the 3,280 (launcher, machine) pairs the bus delivers reach
    # a launcher no longer discovering
    sim = CountingSimulation(*MANY_LAUNCHERS)
    r = sim.run()
    assert len(r.trace) == 1513
    assert set(r.outcomes.values()) == {"completed"}
    assert len(r.outcomes) == 16
    assert sim.late == 1232
    assert sim.taken == 0
    assert hashlib.sha256(r.trace_text().encode()).hexdigest() == \
        "c834838f5533dab5b769de32c99916fc0336f92b0b3b00b50e82b896273b1b54"


def test_fuzz_space_traces_pinned():
    # the first 1,000 fuzz cases reach every path a crashed daemon takes,
    # so any change in what they emit or when shows here; the outcome
    # tally says whether such a change moves any outcome
    h = hashlib.sha256()
    tally = Counter()
    for k in range(1000):
        r = run(*random_case(random.Random(k)))
        h.update(r.trace_text().encode())
        tally.update(r.outcomes.values())
    assert tally == {"completed": 857, "failed": 343, "stalled": 223,
                     "horizon": 82}
    assert h.hexdigest() == \
        "5ba2bbd3f13fa085ce77956e5ca243b59ae9b823ad3ff79f7fa49375a3ad3a86"


class PerLauncherBus(Notices):
    """The bus copied into every launcher, with no step skipped: each
    launcher keeps its own ``discovered`` dict (its ``view``), which
    ``on_bus`` updates pair by pair, and every live, discovering launcher
    steps after every (launcher, machine) pair it hears.  Its snapshots
    hold every launcher's own view."""

    def __init__(self, params, config):
        super().__init__(params, config)
        for launcher in self.launchers.values():
            launcher.view = {}          # discovered machines, arrival order

    def on_bus(self, launcher, machine, published):
        if published:
            launcher.view.setdefault(machine)
            if launcher.semantics == "wait":
                launcher.contacted.discard(machine)
        else:
            launcher.view.pop(machine, None)

    def deliver(self, launchers, machines, published):
        for launcher in launchers:
            if launcher.dead or launcher.phase != DISCOVERING:
                continue
            for m in machines:
                self.on_bus(launcher, m, published)
                launcher.step()

    def notify(self, machine, published):
        self.deliver(self.launchers.values(), (machine,), published)

    def join(self, launcher):
        self.deliver((launcher,), self.notices[launcher], True)

    def snapshot(self, *entry):
        return (super().snapshot(*entry),
                tuple(tuple(lr.view) for lr in self.launchers.values()))


def wide_case(rng):
    """A scenario wider than the fuzz space: 1-8 machines, 1-6 jobs of
    both semantics, up to 3 crashes and a kill (at t=0 too), latencies and
    detect delay down to 0."""
    machines, jobs = rng.randint(1, 8), rng.randint(1, 6)
    timeout = rng.choice((None, 1, 3))
    params = CatalogParams(
        machine_count=machines,
        job_demands=[rng.randint(1, 3) for _ in range(jobs)],
        semantics=[rng.choice(("fail", "wait")) for _ in range(jobs)],
        timeout=timeout, failure_detector=rng.random() < 0.6)

    def at():
        return rng.choice((0, rng.randint(0, 8)))

    config = SimConfig(
        bus_latency=rng.randint(0, 2), msg_latency=rng.randint(0, 2),
        timeout=timeout, job_duration=rng.randint(1, 3),
        crashes=[(f"M{rng.randint(1, machines)}", at())
                 for _ in range(rng.randint(0, 3))],
        launcher_kills=([(f"J{rng.randint(1, jobs)}", at())]
                        if rng.random() < 0.4 else []),
        seed=rng.randrange(2**32), detect_delay=rng.randint(0, 2),
        horizon=200)
    return params, config


def oracle_cases():
    """Fuzz cases 0-299, the pinned 64-machine case, a 48-machine mixed
    case and 2,000 wide runs."""
    yield from (random_case(random.Random(k)) for k in range(300))
    yield MANY_LAUNCHERS
    yield (CatalogParams(machine_count=48, job_demands=[4] * 16,
                         semantics=["wait", "fail"] * 8,
                         failure_detector=True, zeroconf=True),
           SimConfig(crashes=[(f"M{i}", i) for i in range(3, 48, 5)], seed=3))
    yield from (wide_case(random.Random(k)) for k in range(2000))


def test_skipped_bus_steps_change_nothing():
    # one shared bus view, a wait launcher stepped only on a publish with a
    # free slot and one step per submit notice must give the trace of a
    # bus copied into each launcher that steps on every pair
    loops = 0
    for params, config in oracle_cases():
        expected = PerLauncherBus(params, config).run()
        r = Simulation(params, config).run()
        assert r.trace_text() == expected.trace_text(), (params, config)
        assert (r.outcomes, r.cycle) == (expected.outcomes, expected.cycle)
        loops += r.cycle is not None
    assert loops == 349


class JoinCheckingSimulation(Notices):
    """Checks that every submit notice finds the shared view holding
    exactly the machines it announces, in its order."""

    joins = 0

    def join(self, launcher):
        assert tuple(self.bus) == self.notices[launcher]
        self.joins += 1
        super().join(launcher)


def test_every_join_finds_its_own_view():
    # the shared view is exact only while every notice announces what the
    # bus holds when it arrives: a change to when jobs are submitted
    # shows here rather than as a silent divergence
    joins = 0
    for params, config in oracle_cases():
        sim = JoinCheckingSimulation(params, config)
        sim.run()
        joins += sim.joins
    assert joins == 6910


def test_loops_copied_exactly():
    # a run that stops at a repeated state has the trace and outcomes of
    # the same run simulated to the horizon; fuzz cases 0-999 are pinned
    # above, so these are further cases
    cycles = 0
    for k in range(1000, 3000):
        params, config = random_case(random.Random(k))
        r = run(params, config)
        full = NoCycleSimulation(params, config).run()
        assert (r.trace_text(), r.outcomes) == \
            (full.trace_text(), full.outcomes), k
        assert full.cycle is None
        # every run the horizon cuts short is caught looping
        assert (r.cycle is not None) == ("horizon" in r.outcomes.values())
        cycles += r.cycle is not None
    assert cycles == 139


def test_check_run_builds_no_copied_event(monkeypatch):
    # a looping run keeps only the events it simulated, and check_run
    # replays from those: the copies up to the horizon are built when the
    # trace is first read, and then equal the trace simulated in full
    made = 0

    def counting(*fields):
        nonlocal made
        made += 1
        return TraceEvent(*fields)

    monkeypatch.setattr(simulator, "TraceEvent", counting)
    cycles = 0
    for k in range(200):
        params, config = random_case(random.Random(k))
        made = 0
        result, report = check_run(params, config)
        assert report.ok and made == len(result.events), k
        if result.cycle is not None:
            cycles += 1
            start, period = result.cycle
            assert 0 <= start <= len(result.events) and period > 0
            assert "trace" not in vars(result)
            full = NoCycleSimulation(params, config).run()
            assert result.trace == full.trace, k
            assert made > len(result.events)
    assert cycles == 15


@pytest.mark.parametrize("case, cycle, since", [
    # M1 crashes idle; the wait job holds M2+M3, then M4, then M2+M3
    (148, (30, 18, 10), 18),
    # the fail job completes; the wait job of demand 2 reserves, lets go
    # and reserves again
    (935, (49, 24, 14), 26),
])
def test_timing_locks_end_in_a_cycle(case, cycle, since):
    # cycle: the block's first event, its length and its period
    params, config = random_case(random.Random(case))
    r = run(params, config)
    start, length, period = cycle
    assert r.cycle == (start, period)
    assert len(r.events) - start == length
    assert r.trace[start].time == since
    assert "horizon" in r.outcomes.values()
    # the block repeats, shifted by the period, until the horizon
    tail = r.trace[start:]
    assert all(e.time == tail[i - length].time + period
               for i, e in enumerate(tail) if i >= length)
    assert tail[-1].time <= config.horizon < tail[-1].time + period


def test_cluster_takes_no_snapshot():
    # a busy 512-machine cluster makes progress every few ticks until its
    # last job is done
    params = CatalogParams(machine_count=512, job_demands=[4] * 128,
                           timeout=3, failure_detector=True)
    config = SimConfig(crashes=[(f"M{i}", (37 * i) % 256)
                                for i in range(7, 513, 7)], seed=3)
    sim = CountingSimulation(params, config)
    r = sim.run()
    assert set(r.outcomes.values()) == {"completed"}
    assert (sim.taken, r.cycle) == (0, None)


@pytest.mark.parametrize("case", [148, 0])
def test_finished_simulation_freed_without_collector(case):
    # nothing a finished run leaves refers back to the simulation, so
    # reference counting alone frees it, loop or no loop
    sim = Simulation(*random_case(random.Random(case)))
    gc.disable()
    try:
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=300, deadline=None)
@given(case=st.integers(0, 2**32 - 1), kill=st.none() | st.integers(0, 8))
def test_random_runs_keep_the_protocol_invariants(case, kill):
    params, config = random_case(random.Random(case))
    if kill is not None:
        config = replace(config, launcher_kills=[(params.jobs()[0], kill)])
    r = run(params, config)
    full = NoCycleSimulation(params, config).run()
    assert (r.trace, r.outcomes) == (full.trace, full.outcomes), case
    # a machine never has two clients: ok-sent and restarted open a
    # reservation or run, canceled and done-sent close it
    holder = {}
    for e in r.trace:
        if e.kind in ("ok-sent", "restarted"):
            assert holder.get(e.machine) is None, (case, e.line())
            holder[e.machine] = e.job
        elif e.kind in ("canceled", "done-sent"):
            assert holder.pop(e.machine) == e.job, (case, e.line())
    # a job is done only once every machine it needs has reported done
    demand = dict(zip(params.jobs(), params.job_demands))
    done_sent = dict.fromkeys(demand, 0)
    for e in r.trace:
        if e.kind == "done-sent":
            done_sent[e.job] += 1
        elif e.kind == "job-done":
            assert done_sent[e.job] >= demand[e.job], (case, e.line())


def test_seed_changes_submission_order():
    p = CatalogParams(machine_count=2, job_demands=[1, 1])
    texts = {run(p, SimConfig(seed=s)).trace_text() for s in range(6)}
    assert len(texts) > 1


# -- daemon behavior ------------------------------------------------------------

def test_ok_unique_between_availability_windows():
    p = CatalogParams(machine_count=2, job_demands=[1, 1, 1],
                      job_ids=["Ja", "Jb", "Jc"])
    r = run(p, SimConfig(seed=3))
    for m in ("M1", "M2"):
        window = 0
        for e in r.trace:
            if e.machine != m:
                continue
            if e.kind == "ok-sent":
                window += 1
                assert window == 1, "second OK without becoming available"
            elif e.kind in ("canceled", "done-sent"):
                window = 0


def test_daemon_serves_one_job_at_a_time():
    p = CatalogParams(machine_count=2, job_demands=[1, 1])
    r = run(p, SimConfig(seed=1))
    holder = {}
    for e in r.trace:
        if e.kind == "ok-sent":
            assert holder.get(e.machine) is None
            holder[e.machine] = e.job
        elif e.kind in ("canceled", "done-sent") and e.machine in holder:
            holder[e.machine] = None


def test_reserved_daemon_answers_ko():
    p = CatalogParams(machine_count=1, job_demands=[1, 1])
    r = run(p)
    assert events(r, "ko-sent")


# -- crashes ---------------------------------------------------------------------

def test_crash_running_machine_recovers_on_spare():
    p = CatalogParams(machine_count=2, job_demands=[1],
                      failure_detector=True)
    r = run(p, SimConfig(crashes=[("M1", 5)]))
    assert r.outcomes == {"J1": "completed"}
    assert events(r, "crashed", machine="M1")
    assert events(r, "restarted", machine="M2")


def test_crash_idle_daemon_harmless():
    p = CatalogParams(machine_count=2, job_demands=[1],
                      failure_detector=True)
    r = run(p, SimConfig(crashes=[("M2", 1)]))
    assert r.outcomes == {"J1": "completed"}
    assert events(r, "crashed-idle", machine="M2")


def test_crash_without_detector_strands_job():
    p = CatalogParams(machine_count=2, job_demands=[1])
    r = run(p, SimConfig(crashes=[("M1", 5)], horizon=80))
    assert r.outcomes == {"J1": "stalled"}


def test_crash_while_reserved_cancels_at_deadline():
    # demand 3 on 2 machines never launches, so the machine that crashes
    # while reserved still loses the reservation at
    # reserve + timeout + 2 * msg latency
    p = CatalogParams(machine_count=2, job_demands=[3])
    c = SimConfig(crashes=[("M1", 3)], horizon=40)
    r = run(p, c)
    ok = events(r, "ok-sent", machine="M1")[0]
    cancel = events(r, "canceled", machine="M1")
    assert cancel and cancel[0].time == ok.time + 3 + 2


def test_crash_while_reserved_with_job_in_flight_keeps_reservation():
    # both answers arrive and the launch goes out before the deadline, so
    # the dead machine's reservation is consumed, never canceled
    p = CatalogParams(machine_count=2, job_demands=[2])
    c = SimConfig(crashes=[("M1", 3)], horizon=40)
    r = run(p, c)
    assert events(r, "launch")
    assert not events(r, "canceled", machine="M1")
    assert r.outcomes == {"J1": "stalled"}


def test_job_reaching_machine_crashed_while_reserved_is_restarted():
    # the launch consumes the dead machine's reservation: the job starts
    # there and is lost with it, so the detector restarts it on M2
    p = CatalogParams(machine_count=2, job_demands=[2],
                      failure_detector=True)
    c = SimConfig(crashes=[("M1", 3)], horizon=40)
    r, report = check_run(p, c)
    assert r.outcomes == {"J1": "completed"}
    assert [e.kind for e in r.trace if e.machine == "M1"][-2:] == \
        ["job-accepted", "crashed"]
    assert events(r, "restarted", machine="M2", job="J1")
    assert report.ok, report


# A crashed daemon sends nothing itself but keeps its reservation.
# random_case seeds 16, 12, 24 and 18 are the first fuzz cases to reach
# its RESERVE rule, its JOB rule with the timeout on and off, and its
# RELEASE rule; the scenarios below reach each on one machine, where J1
# hears of M1 at t=1 and its RESERVE lands at t=2.

def daemon_events(result, machine):
    return [(e.time, e.kind) for e in result.trace if e.actor == machine]


def test_reserve_to_crashed_daemon_gets_suspected_ko():
    p = CatalogParams(machine_count=1, job_demands=[1])
    c = SimConfig(crashes=[("M1", 2)], detect_delay=2)
    r = run(p, c)
    arrival = events(r, "reserve-sent", machine="M1")[0].time + c.msg_latency
    assert arrival == 2
    suspected = events(r, "suspected", machine="M1", job="J1")
    assert [e.time for e in suspected] == \
        [arrival + c.detect_delay + c.msg_latency]
    assert daemon_events(r, "M1") == [(2, "unpublished"), (2, "crashed-idle")]


def test_job_for_doomed_reservation_starts_and_is_lost():
    # M1 crashes holding J1's reservation just as J1's JOB lands: the job
    # is accepted, lost with the machine, and the reservation never canceled
    p = CatalogParams(machine_count=1, job_demands=[1])
    r = run(p, SimConfig(crashes=[("M1", 4)]))
    assert daemon_events(r, "M1") == [
        (2, "unpublished"), (2, "ok-sent"), (4, "crashed-idle"),
        (4, "job-accepted"), (4, "crashed")]
    assert r.outcomes == {"J1": "stalled"}


def test_job_for_kept_reservation_without_deadline_starts_and_is_lost():
    # with the timeout off nothing cancels the reservation, so the JOB
    # still consumes it: the job starts on the dead machine and is lost
    p = CatalogParams(machine_count=1, job_demands=[1], timeout=None)
    r = run(p, SimConfig(timeout=None, crashes=[("M1", 4)]))
    assert events(r, "launch")
    assert daemon_events(r, "M1") == [
        (2, "unpublished"), (2, "ok-sent"), (4, "crashed-idle"),
        (4, "job-accepted"), (4, "crashed")]
    assert r.outcomes == {"J1": "stalled"}


def test_job_lost_without_deadline_is_restarted():
    p = CatalogParams(machine_count=2, job_demands=[1],
                      failure_detector=True, timeout=None)
    c = SimConfig(timeout=None, crashes=[("M1", 4)], horizon=60)
    r, report = check_run(p, c)
    assert r.outcomes == {"J1": "completed"}
    assert events(r, "restarted", machine="M2", job="J1")
    assert report.ok, report


def test_stray_job_emits_nothing():
    # no run sends a JOB to a daemon that is not reserved for it (the
    # launcher always gives a machine up before the daemon's deadline),
    # so the handler is driven directly, on a crashed and a live daemon
    sim = Simulation(CatalogParams(machine_count=2, job_demands=[1]),
                     SimConfig())
    sim.crash("M1")
    sim.daemons["M1"].start("J1")
    sim.daemons["M2"].start("J1")
    assert [(e.actor, e.kind) for e in sim.trace] == [
        ("M1", "unpublished"), ("M1", "crashed-idle")]
    assert [d.state for d in sim.daemons.values()] == ["available"] * 2


@pytest.mark.parametrize("params, config, m1_events", [
    # fail semantics gives M1 up as the OK lands, just after the crash
    (CatalogParams(machine_count=1, job_demands=[2], semantics="fail",
                   timeout=None),
     SimConfig(timeout=None, crashes=[("M1", 3)]),
     [(2, "unpublished"), (2, "ok-sent"), (3, "crashed-idle")]),
    # the launcher's timer gives M1 up; its RELEASE lands on the crashed
    # daemon at the reservation's deadline, and only that deadline cancels
    (CatalogParams(machine_count=1, job_demands=[2]),
     SimConfig(crashes=[("M1", 4)], horizon=40),
     [(2, "unpublished"), (2, "ok-sent"), (4, "crashed-idle"),
      (7, "canceled")]),
], ids=["fail-timeout-off", "wait-timeout-3"])
def test_release_to_crashed_daemon_vanishes(params, config, m1_events):
    r = run(params, config)
    assert events(r, "released", machine="M1", job="J1")
    assert daemon_events(r, "M1") == m1_events


def test_restart_waits_for_available_machine():
    p = CatalogParams(machine_count=1, job_demands=[1],
                      failure_detector=True)
    r = run(p, SimConfig(crashes=[("M1", 5)], horizon=60))
    assert r.outcomes == {"J1": "stalled"}
    assert events(r, "restart-waiting")


# -- launcher volatility -----------------------------------------------------------

def test_killed_launcher_reservations_expire():
    p = CatalogParams(machine_count=3, job_demands=[3])
    c = SimConfig(launcher_kills=[("J1", 3)])
    r = run(p, c)
    assert r.outcomes == {"J1": "killed"}
    oks = events(r, "ok-sent")
    assert oks
    deadline = 3 + c.timeout + 2 * c.msg_latency
    for ok in oks:
        cancels = events(r, "canceled", machine=ok.machine)
        assert cancels and cancels[0].time <= deadline
        assert cancels[0].time == ok.time + c.timeout + 2 * c.msg_latency


# -- liveness --------------------------------------------------------------------

def test_desk_scale_liveness():
    for mc, demands in ((2, [2]), (3, [2, 1]), (4, [2, 2])):
        p = CatalogParams(machine_count=mc, job_demands=demands)
        r = run(p, SimConfig(horizon=200))
        assert all(o == "completed" for o in r.outcomes.values()), (mc, demands)
        assert max(e.time for e in r.trace) <= 60


# -- scenario validation ------------------------------------------------------------

def test_a_time_that_is_not_an_int_is_rejected():
    # the clock counts whole ticks: no event may happen at t=0.5
    good = CatalogParams(machine_count=1, job_demands=[1])
    for config, message in (
            (SimConfig(bus_latency=0.5), "bus-latency"),
            (SimConfig(msg_latency=1.5), "msg-latency"),
            (SimConfig(job_duration=2.0), "job duration"),
            (SimConfig(detect_delay=0.5), "detect-delay"),
            (SimConfig(horizon=100.0), "horizon"),
            (SimConfig(crashes=[("M1", 2.5)]), "crash time"),
            (SimConfig(launcher_kills=[("J1", 0.5)]), "kill time")):
        assert config.validate(good) == [message + " must be an integer"]
        with pytest.raises(InvalidScenario, match=message):
            run(good, config)
    assert SimConfig(timeout=3.0).validate(good) == [
        "run timeout 3.0 differs from the model timeout 3"]
    # a machine count that is not an int is reported, not raised on
    assert SimConfig(crashes=[("M1", 1)]).validate(
        CatalogParams(machine_count=1.0, job_demands=[1])) == [
        "machines must be an integer"]


def test_invalid_scenarios_rejected():
    good = CatalogParams(machine_count=1, job_demands=[1])
    with pytest.raises(InvalidScenario):
        run(good, SimConfig(bus_latency=-1))
    with pytest.raises(InvalidScenario):
        run(good, SimConfig(job_duration=0))
    with pytest.raises(InvalidScenario):
        run(good, SimConfig(crashes=[("M9", 1)]))
    with pytest.raises(InvalidScenario):
        run(good, SimConfig(launcher_kills=[("J9", 1)]))
    with pytest.raises(InvalidScenario, match="kill time must be >= 0"):
        run(good, SimConfig(launcher_kills=[("J1", -4)]))
    with pytest.raises(InvalidScenario, match="detect-delay must be >= 0"):
        run(good, SimConfig(detect_delay=-3))
    # the run must time reservations out as the model does
    with pytest.raises(InvalidScenario, match="run timeout None differs "
                       "from the model timeout 3"):
        run(good, SimConfig(timeout=None))
    with pytest.raises(InvalidScenario, match="run timeout 0 differs"):
        run(good, SimConfig(timeout=0))
    with pytest.raises(InvalidScenario):
        run(CatalogParams(machine_count=1, job_demands=[1],
                          job_ids=["M1"]))
    with pytest.raises(InvalidScenario):
        run(CatalogParams(machine_count=1, job_demands=[1, 1],
                          job_ids=["J1", "J1"]))
    with pytest.raises(InvalidScenario):
        run(CatalogParams(machine_count=0, job_demands=[1]))


def test_simulation_checks_params():
    # a semantics list shorter than the jobs is refused up front instead of
    # failing with an IndexError while the launchers are set up
    p = CatalogParams(machine_count=2, job_demands=[1, 1], semantics=["wait"])
    with pytest.raises(InvalidScenario, match="1 semantics for 2 jobs"):
        Simulation(p, SimConfig())
