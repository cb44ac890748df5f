"""The benchmark's three workloads, their inputs and their answer checks.

Every workload is a closed loop in one thread: each call into qurdlab
starts when the previous one has returned.  A workload has a large and a
small group of cases, which ``run.py`` times pass by pass.  Inputs come
from the workload seed, which renames and reorders the jobs (analysis and
timed cases) or draws the fuzz cases and the crash schedule (replay); none
of this changes a verdict.

The checks gate answers, never state counts: verdict lines, exit codes,
witnesses that replay, traces that conform.  State counts, dead-state
counts, trace digests and job outcomes are recorded in ``counts`` only,
because the optimisations the benchmark exists to measure shrink them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

PROPERTIES = ("deadlock", "mutex", "machine-invariant", "job-done-reachable")
DEAD_COUNT = re.compile(r" \(\d+ dead states\)$")
MAX_PROBLEMS = 20


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, what, op, attempted=1):
        """Run one checked operation covering ``attempted`` answers.

        ``op`` returns a list of problems, one per failed answer; an
        exception fails every answer of the operation.
        """
        try:
            problems = op()
            failed = min(len(problems), attempted)
        except Exception as exc:    # any crash of the program is a failure
            problems = [f"{type(exc).__name__}: {exc}"]
            failed = attempted
        self.attempted += attempted
        self.failed += failed
        for p in problems:
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{what}: {p}")


def seeded_jobs(seed, case, demands, semantics=None):
    """Job ids and listing order drawn from the seed; demands and
    semantics stay attached to their job."""
    rng = random.Random(f"{seed}:{case}")
    ids = ["J%d" % n for n in rng.sample(range(1, 100), len(demands))]
    semantics = semantics or ["wait"] * len(demands)
    jobs = list(zip(ids, demands, semantics))
    rng.shuffle(jobs)
    return jobs


class Workload:
    """A seeded set of cases; ``check(case, ...)`` runs one case and
    returns its problems."""

    large_cases = small_cases = ()
    # share of an untraced run spent on the small group; the rest times
    # the large group
    small_share = 0.3

    def __init__(self, q, seed, workdir):
        self.q = q
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.reference = None       # runs before calls, when set
        self.spans = []             # (start, end) of each call
        self.counts = {}

    def _op(self, tally, what, op, attempted=1):
        if self.tracer is not None:
            self.tracer.next_op()
        if self.reference is not None:
            self.reference.before_call()
        t0 = perf_counter()
        tally.run(what, op, attempted)
        self.spans.append((t0, perf_counter()))

    def large(self, tally):
        for prepared in self.large_cases:
            self._op(tally, prepared[0].name, lambda: self.check(*prepared))

    def small(self, tally):
        for prepared in self.small_cases:
            self._op(tally, prepared[0].name, lambda: self.check(*prepared))

    def named_metrics(self, large_s, small_s):
        """The group timings under the names the workload's users know."""
        return {}


# -- analyze-sweep ----------------------------------------------------------

@dataclass(frozen=True)
class AnalyzeCase:
    name: str
    machines: int
    demands: tuple
    semantics: tuple
    directives: str
    deadlock: bool              # expected: deadlock FOUND, exit 1
    standoff: bool = False      # the witness must show the 2+1 split


LARGE_ANALYZE = (
    AnalyzeCase("6m-2-2-2-t3", 6, (2, 2, 2), ("wait",) * 3, "timeout 3",
                deadlock=False),
    AnalyzeCase("6m-3-3-off", 6, (3, 3), ("wait", "wait"), "timeout off",
                deadlock=False),
    AnalyzeCase("4m-2w-2f-zc-fd", 4, (2, 2), ("wait", "fail"),
                "zeroconf on\nfailure-detector on", deadlock=True),
)
SMALL_ANALYZE = (
    AnalyzeCase("contention-off", 3, (3, 2), ("wait", "wait"), "timeout off",
                deadlock=True, standoff=True),
    AnalyzeCase("contention-t3", 3, (3, 2), ("wait", "wait"), "timeout 3",
                deadlock=False),
    AnalyzeCase("crash-recovery", 2, (1,), ("wait",),
                "failure-detector on\ncrash M1 at 2\nbus-latency 0\n"
                "msg-latency 0", deadlock=True),
)


def expected_verdicts(case):
    return {
        "deadlock": "deadlock: FOUND" if case.deadlock else "deadlock: none",
        "mutex": "mutex: holds",
        "machine-invariant": "machine-invariant: holds",
        "job-done-reachable": "job-done-reachable: holds",
    }


def parse_witness(text):
    """{property: (labels, recorded marking)} from a CLI witness file."""
    blocks = {}
    labels = marking = None
    for line in text.splitlines():
        if line.startswith("property: "):
            labels, marking = [], {}
            blocks[line[len("property: "):]] = (labels, marking)
        elif line.startswith("# "):
            place, _, n = line[2:].rpartition("=")
            marking[place] = int(n)
        elif line.strip():
            delay, transition = line.split(" ", 1)
            labels.append((int(delay), transition))
    return blocks


class AnalyzeSweep(Workload):
    """``qurdlab analyze`` with all four properties, through ``cli.main``."""

    # A small pass takes about 0.05 s and a large one about 15 s.  With 30%
    # of a 40 s run on small passes a second large pass fits only on a fast
    # machine; with 10% it fits on a slow one too, and the small group still
    # gets some eighty samples.
    small_share = 0.1

    def __init__(self, q, seed, workdir, large=LARGE_ANALYZE,
                 small=SMALL_ANALYZE):
        super().__init__(q, seed, workdir)
        self.large_cases = [self._prepare(c) for c in large]
        self.small_cases = [self._prepare(c) for c in small]

    def _prepare(self, case):
        jobs = seeded_jobs(self.seed, case.name, case.demands, case.semantics)
        text = "machines %d\n%s%s\n" % (
            case.machines,
            "".join("job %s demand %d semantics %s\n" % j for j in jobs),
            case.directives)
        path = os.path.join(self.workdir, case.name + ".scn")
        with open(path, "w") as fh:
            fh.write(text)
        sc = self.q.scenario.parse_scenario(text)
        net = self.q.catalog.build_net(sc.params())
        demand = {j: d for j, d, _ in jobs}
        return case, path, net, demand

    def check(self, case, path, net, demand):
        witness = path + ".witness"
        if os.path.exists(witness):
            os.remove(witness)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.q.cli.main(["analyze", path])
        verdicts = {}
        for line in out.getvalue().splitlines():
            key, _, value = line.partition(": ")
            if key in PROPERTIES:
                verdicts[key] = DEAD_COUNT.sub("", line)
            elif key == "states explored":
                self.counts["states[%s]" % case.name] = int(value)
        problems = ["expected %r, got %r" % (line, verdicts.get(prop))
                    for prop, line in expected_verdicts(case).items()
                    if verdicts.get(prop) != line]
        if code != (1 if case.deadlock else 0):
            problems.append("exit code %d" % code)
        if case.deadlock:
            problems += self._check_witness(case, witness, net, demand)
        elif os.path.exists(witness):
            problems.append("unexpected witness file")
        return problems

    def _check_witness(self, case, path, net, demand):
        """The deadlock witness replays on a freshly built net and ends in
        its recorded dead marking."""
        if not os.path.exists(path):
            return ["no witness file"]
        with open(path) as fh:
            blocks = parse_witness(fh.read())
        if set(blocks) != {"deadlock"}:
            return ["witness properties %s" % sorted(blocks)]
        labels, recorded = blocks["deadlock"]
        final = self.q.analysis.replay_labels(net, labels).marking
        problems = []
        if final != recorded:
            problems.append("witness does not end in its recorded marking")
        if net.enabled(final):
            problems.append("witness marking is not dead")
        if case.standoff and not standoff(self.q, final, demand):
            problems.append("deadlock is not the 2+1 standoff")
        return problems

    def named_metrics(self, large_s, small_s):
        return {"analyze_large_s": large_s, "analyze_small_s": small_s}


def standoff(q, marking, demand):
    """The demand-3 job holds 2 machines and the demand-2 job holds 1."""
    held = {d: marking.get(q.catalog.jname("answered", j), 0)
            for j, d in demand.items()}
    return held == {3: 2, 2: 1}


# -- timed-verdicts ---------------------------------------------------------

@dataclass(frozen=True)
class TimedCase:
    name: str
    machines: int
    demands: tuple
    timeout: object
    failure_detector: bool
    pending: bool               # expected: pending deadlocks exist
    standoff: bool = False


# The paper's cure question is 3 machines [3,2] with timeout 3; it takes
# about 28 s per exploration, so 3 machines [2,1] asks it instead.  With
# timeout 3 that is one 13 s call, two samples in a 40 s run, and their
# median swung by 27% from run to run on a shared 2-core host; timeout 1
# (5,535 timed states, about 3 s) gives a run about nine samples.
LARGE_TIMED = (
    TimedCase("3m-2-1-t1", 3, (2, 1), 1, False, pending=False),
)
SMALL_TIMED = (
    TimedCase("contention-off", 3, (3, 2), None, False, pending=True,
              standoff=True),
    TimedCase("2m-2-1-t3", 2, (2, 1), 3, False, pending=False),
    TimedCase("2m-1-1-t3-fd", 2, (1, 1), 3, True, pending=True),
)


class TimedVerdicts(Workload):
    """``analysis.explore`` plus ``pending_deadlocks`` on prebuilt nets."""

    def __init__(self, q, seed, workdir, large=LARGE_TIMED,
                 small=SMALL_TIMED):
        super().__init__(q, seed, workdir)
        self.large_cases = [self._prepare(c) for c in large]
        self.small_cases = [self._prepare(c) for c in small]

    def _prepare(self, case):
        jobs = seeded_jobs(self.seed, case.name, case.demands)
        params = self.q.catalog.CatalogParams(
            machine_count=case.machines, job_demands=[d for _, d, _ in jobs],
            timeout=case.timeout, failure_detector=case.failure_detector,
            job_ids=[j for j, _, _ in jobs])
        return case, self.q.catalog.build_net(params), \
            {j: d for j, d, _ in jobs}

    def check(self, case, net, demand):
        a = self.q.analysis
        g = a.explore(net)
        pending = a.pending_deadlocks(g)
        self.counts["states[%s]" % case.name] = g.n_states
        self.counts["pending[%s]" % case.name] = len(pending)
        problems = []
        if bool(pending) != case.pending:
            problems.append("pending deadlocks: expected %s, got %d"
                            % ("some" if case.pending else "none",
                               len(pending)))
        skip = a.completion_skip(g)
        ids = [i for i in g.dead_ids() if not skip(g.marking(i))]
        if len(ids) != len(pending):
            problems.append("dead states disagree with pending_deadlocks")
        for i in ids:
            if a.replay_labels(net, g.path_labels(i)) != g.state(i):
                problems.append("witness of state %d does not replay" % i)
            if case.standoff and not standoff(self.q, g.marking(i), demand):
                problems.append("state %d is not the 2+1 standoff" % i)
        return problems

    def named_metrics(self, large_s, small_s):
        return {"timed_verdict_s": large_s + small_s}


# -- protocol-replay --------------------------------------------------------

class ProtocolReplay(Workload):
    """``fuzz_conformance`` (large group) and ``check_run`` on one large
    cluster (small group)."""

    # traces per fuzz_conformance call: a pass makes several calls, so that
    # the reference runs between them follow the host's speed through it
    fuzz_batch = 1000

    def __init__(self, q, seed, workdir, fuzz_count=3000, machines=512,
                 jobs=128):
        super().__init__(q, seed, workdir)
        self.fuzz_count = fuzz_count
        self.fuzz_batches = 0
        rng = random.Random(f"{seed}:cluster")
        # every 7th machine crashes once, at a time inside the ~260 ticks a
        # crash-free run of this cluster takes
        crashes = [("M%d" % i, rng.randint(0, 255))
                   for i in range(7, machines + 1, 7)]
        self.params = q.catalog.CatalogParams(
            machine_count=machines, job_demands=[4] * jobs, timeout=3,
            failure_detector=True)
        self.config = q.simulator.SimConfig(
            timeout=3, crashes=crashes, seed=rng.randrange(2 ** 32))

    def large(self, tally):
        left = self.fuzz_count
        while left:
            n = min(left, self.fuzz_batch)
            self._op(tally, "fuzz", lambda: self._fuzz(n), attempted=n)
            left -= n

    def small(self, tally):
        self._op(tally, "cluster", self._cluster)

    def _fuzz(self, count):
        # A few percent of fuzz cases loop until the simulator's horizon and
        # take half the time, so one batch's cost depends on its seed.  Each
        # call draws a fresh batch (the first from the workload seed itself)
        # so that a run's median covers many batches.
        seed = self.seed + self.fuzz_batches * 1_000_000
        self.fuzz_batches += 1
        summary = self.q.conformance.fuzz_conformance(count, seed=seed)
        self.counts["fuzz_passed"] = (self.counts.get("fuzz_passed", 0)
                                      + summary.passed)
        problems = ["case seed %d (%s): %s" % f for f in summary.failures]
        missing = count - summary.passed - summary.failed
        return problems + ["trace not checked"] * max(missing, 0)

    def _cluster(self):
        result, report = self.q.conformance.check_run(self.params, self.config)
        outcomes = Counter(result.outcomes.values())
        self.counts.update({
            "cluster_events": len(result.trace),
            "cluster_trace_sha256": hashlib.sha256(
                result.trace_text().encode()).hexdigest(),
            "cluster_outcomes": dict(outcomes),
            "cluster_jobs_completed_ratio":
                outcomes["completed"] / len(result.outcomes),
        })
        if not report.ok:
            return ["trace does not conform: %s" % report]
        done_events = sum(1 for e in result.trace if e.kind == "job-done")
        done_tokens = len(report.final_marking.get("job_done", ()))
        if done_tokens != done_events:
            return ["%d job_done tokens for %d job-done events"
                    % (done_tokens, done_events)]
        return []

    def named_metrics(self, large_s, small_s):
        return {"fuzz_traces_per_s": self.fuzz_count / large_s,
                "cluster_wall_s": small_s}


WORKLOADS = {
    "analyze-sweep": AnalyzeSweep,
    "timed-verdicts": TimedVerdicts,
    "protocol-replay": ProtocolReplay,
}
