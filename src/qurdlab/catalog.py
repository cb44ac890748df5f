"""The reservation model: model parameters, the colored net of launchers
and machine daemons, and its unfolding into a plain net.

The model is defined once, as a colored net: ``build_colored(params)``
takes a ``CatalogParams``, builds the color universe from the params'
machines, jobs, demands and semantics, and shares the structure of the
params' layers, built once per process.  ``build_net`` validates the
params and unfolds that net.  The CLI analyses the unfolding of the net's
machine-folded copy (``colored.fold_machines``), whose size does not grow
with the machine count; witnesses are always paths of ``build_net``.
Trace conformance replays on the colored net.  The Zeroconf and
failure-detector layers are optional parts of the same net.  Unfolded
per-job places/transitions carry ``@J``, per-machine ones ``@M`` and
per-pair ones ``@(M,J)``.  ``build_machine`` cuts one machine's daemon out
of the same colored net and keeps the plain names.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .colored import (FAIL, JOB, MACHINE, PAIR, WAIT, Binding, ColoredNet,
                      ColorUniverse, Inscription, color_name, unfold)
from .tpn import Net

DEFAULT_TIMEOUT = 3

# the model's inscriptions, built once for every net; PJ is P'(j), WJ W'(j)
M_, J_, MJ = Inscription("m"), Inscription("j"), Inscription("mj")
PJ, WJ = Inscription("j", per_demand=True), Inscription("j", per_wait=True)


@dataclass
class CatalogParams:
    """Shape of a model instance: how many machines, which job demands,
    reservation semantics, timeout and optional extensions."""

    machine_count: int = 4
    job_demands: list = field(default_factory=lambda: [4])
    semantics: object = WAIT            # "fail" | "wait" | one per job
    timeout: object = DEFAULT_TIMEOUT   # None disables cancel entirely
    zeroconf: bool = False
    failure_detector: bool = False
    job_ids: list = None

    def machines(self):
        return [f"M{i + 1}" for i in range(self.machine_count)]

    def jobs(self):
        if self.job_ids is not None:
            return list(self.job_ids)
        return [f"J{i + 1}" for i in range(len(self.job_demands))]

    def semantics_of(self, index):
        if isinstance(self.semantics, str):
            return self.semantics
        return self.semantics[index]

    def validate(self):
        """Problems with these parameters, one message each; empty when
        they describe a model that can be built and simulated."""
        jobs = self.jobs()
        n_jobs = len(self.job_demands)
        issues = int_issues("machines", self.machine_count, 1)
        if not n_jobs:
            issues.append("at least one job is required")
        if len(jobs) != n_jobs:
            issues.append(f"{len(jobs)} job ids for {n_jobs} jobs")
        semantics = [self.semantics] * n_jobs \
            if isinstance(self.semantics, str) else list(self.semantics)
        if len(semantics) != n_jobs:
            issues.append(f"{len(semantics)} semantics for {n_jobs} jobs")
        for j, demand, sem in zip(jobs, self.job_demands, semantics):
            issues += int_issues(f"job {j}: demand", demand, 1)
            if sem not in (FAIL, WAIT):
                issues.append(f"job {j}: semantics must be fail or wait")
        issues += [f"duplicate job {j}"
                   for j, n in Counter(jobs).items() if n > 1]
        if isinstance(self.machine_count, int):
            machines = set(self.machines())
            issues += [f"job id {j} collides with a machine id"
                       for j in jobs if j in machines]
        if self.timeout is not None:
            issues += [issue + " or off"
                       for issue in int_issues("timeout", self.timeout, 1)]
        return issues


def int_issues(what, value, low):
    """What is wrong with ``value`` for a parameter that must be an int of
    at least ``low``: a list of at most one message."""
    if not isinstance(value, int):
        return [f"{what} must be an integer"]
    return [f"{what} must be >= {low}"] if value < low else []


def jname(base, j):
    """Name of the per-job place or transition ``base`` of job j in
    ``build_net``'s unfolding."""
    return color_name(base, j)


def build_machine(timeout=DEFAULT_TIMEOUT):
    """One machine daemon cut from the colored model, with plain names: the
    transitions that bind a machine, at machine M1 and job J1 (no cancel
    with the timeout off).  The job places they touch follow the machine's
    places, unmarked, so nothing is enabled until a client marking is
    supplied."""
    cnet = build_colored(CatalogParams(machine_count=1, job_demands=[1],
                                       timeout=timeout))
    arcs = {t: cnet.arcs(t, Binding("M1", "J1"))
            for t in cnet.transitions if cnet.variables_of(t)[0]}
    touched = {p for sides in arcs.values() for side in sides
               for (p, _), _ in side}
    net = Net("machine")
    for p in sorted(cnet.places, key=lambda p: cnet.sort[p] == JOB):
        if cnet.sort[p] != JOB:
            net.add_place(p, tokens=len(cnet.initial.get(p, ())))
        elif p in touched:
            net.add_place(p)
    for t, sides in arcs.items():
        pre, post = ({p: n for (p, _), n in side} for side in sides)
        net.add_transition(t, pre=pre, post=post, interval=cnet.interval[t])
    return net


def build_net(params):
    """The reservation model for ``params`` as a plain net: the colored
    model unfolded over the params' machines and jobs."""
    issues = params.validate()
    if issues:
        raise ValueError("; ".join(issues))
    return unfold(build_colored(params))


def build_colored(params):
    """The colored model for ``params``: the structure of the params'
    layers (timeout, Zeroconf, failure detector) over their machines and
    jobs, with each job's demand and semantics.  The params are not
    validated here (``build_net`` does that).
    """
    jobs = params.jobs()
    universe = ColorUniverse(
        params.machines(), jobs, dict(zip(jobs, params.job_demands)),
        {j: params.semantics_of(i) for i, j in enumerate(jobs)})
    structure = _structure(params.timeout, params.zeroconf,
                           params.failure_detector)
    return structure.instance(universe, {"begin": universe.jobs,
                                         "available": universe.machines})


# typed: a timeout of 3.0 keeps its interval, which validate reports
@lru_cache(maxsize=16, typed=True)
def _structure(timeout, zeroconf, failure_detector):
    """The model's structure for one layer set, built once per process.
    cancel returns the job's token to get_nodes with multiplicity W'(j): a
    wait job asks again, a fail job does not.  The continue transition
    produces a pair token in running (the only sort-correct reading)."""
    cnet = ColoredNet(None, name="composed")

    cnet.add_place("begin", JOB)
    cnet.add_place("get_nodes", JOB)
    cnet.add_place("answered", JOB)
    cnet.add_place("launching_job", JOB)
    cnet.add_place("job_finished", JOB)
    cnet.add_place("job_done", JOB)
    cnet.add_place("available", MACHINE)
    if zeroconf:
        cnet.add_place("not_available", MACHINE)
    cnet.add_place("reserved", PAIR)
    cnet.add_place("running", PAIR)
    cnet.add_place("finished", PAIR)
    if failure_detector:
        cnet.add_place("dead", MACHINE)
        cnet.add_place("failure_detector", JOB)

    cnet.add_transition("start_job", pre={"begin": J_}, post={"get_nodes": PJ})
    cnet.add_transition("launch", pre={"answered": PJ}, post={"launching_job": PJ})
    cnet.add_transition("t5", pre={"job_finished": PJ}, post={"job_done": J_})
    cnet.add_transition("t1", pre={"available": M_, "get_nodes": J_},
                        post={"reserved": MJ, "answered": J_})
    cnet.add_transition("t2", pre={"reserved": MJ, "launching_job": J_},
                        post={"running": MJ})
    cnet.add_transition("t3", pre={"running": MJ}, post={"finished": MJ})
    cnet.add_transition("t4", pre={"finished": MJ},
                        post={"available": M_, "job_finished": J_})
    if timeout is not None:
        cnet.add_transition("cancel", pre={"reserved": MJ, "answered": J_},
                            post={"available": M_, "get_nodes": WJ},
                            interval=(timeout, None))
    if zeroconf:
        cnet.add_transition("publish", pre={"not_available": M_},
                            post={"available": M_})
        cnet.add_transition("unpublish", pre={"available": M_},
                            post={"not_available": M_})
    if failure_detector:
        cnet.add_transition("crash", pre={"running": MJ},
                            post={"dead": M_, "failure_detector": J_})
        cnet.add_transition("continue", pre={"available": M_, "failure_detector": J_},
                            post={"running": MJ})
    return cnet

