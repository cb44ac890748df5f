"""Colored Petri nets over machine/job color domains, plus unfolding.

Places are typed by token sort: job tokens ``j``, machine tokens ``m`` or
pairs ``(m, j)``.  Arcs carry one inscription each: a pattern over the
variables m and j, optionally with a per-job multiplicity: P'(j), the
job's demand, or W'(j), 1 for a job with wait semantics and 0 for one
with fail semantics.  Only variable matching is supported; the
reservation model needs no guards.  A net is a structure, read-only and
shared by every net of it (``ColoredNet.instance``), plus its own universe
and initial marking (Jensen & Kristensen, Coloured Petri Nets, 2009).
``ColoredNet.arcs`` is the one definition of a firing: the tokens it
consumes and produces, compiled once per structure into one bounded table.
``colored_fire``, the conformance replay and ``unfold`` all fire through
it, and a binding is enabled exactly when every token it consumes is
there.  ``unfold`` expands a colored net over its finite universe into
an ordinary place/transition net with one place per (place, color) and
one transition per (transition, binding), named ``base@J``, ``base@M`` and
``base@(M,J)`` (``binding_name``).  The universe is not checked here (the
reservation model builds it from ``CatalogParams``, whose ``validate``
checks the parameters); ``ColoredNet.validate`` checks names, sorts,
inscriptions, intervals and initial tokens.

``fold_machines`` merges every machine into the one color ``*``, so that
its unfolding counts the machines in each local state (counter
abstraction, Pnueli, Xu & Zuck 2002): ``available@*`` holds N tokens for N
machines, and ``t1@(*,J)`` moves one of them.  ``fold_refusal`` says when
that net would not behave as the original up to machine names, or when a
machine is not proved to hold one token in every reachable marking, and
``lift_machines`` turns a firing sequence of the folded unfolding back into
one of the original net's, binding concrete machines, and returns the
colored marking it reaches.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import NamedTuple

from .tpn import Net, NotFireable, interval_issues

JOB = "job"
MACHINE = "machine"
PAIR = "pair"

FAIL = "fail"
WAIT = "wait"

FOLDED = "*"                # the one machine color of a folded net

# Firings a structure's table keeps: each of the fuzz space's structures
# fires at most 319, a 512-machine cluster about 2,434, each about once.
FIRINGS = 1024


class ColorUniverse:
    """Finite color domains: machine ids, job ids, and each job's demand and
    reservation semantics (``WAIT`` unless ``semantics`` names it)."""

    def __init__(self, machines, jobs, demand, semantics=None):
        self.machines = tuple(machines)
        self.jobs = tuple(jobs)
        self.demand = dict(demand)
        self.semantics = {j: WAIT for j in self.jobs}
        self.semantics.update(semantics or {})

    def __repr__(self):
        return (f"ColorUniverse(machines={list(self.machines)}, "
                f"jobs={list(self.jobs)}, demand={self.demand}, "
                f"semantics={self.semantics})")


class Inscription(NamedTuple):
    """Arc inscription: a variable pattern and an optional per-job
    multiplicity, P'(j) (``per_demand``) or W'(j) (``per_wait``)."""

    pattern: str            # "m", "j" or "mj"
    per_demand: bool = False
    per_wait: bool = False

    def tokens(self, m, j, demand, semantics):
        """The token for m and job j of that demand and semantics, and how
        many of it the arc carries, as (token, count)."""
        if self.pattern == "m":
            return m, 1
        if self.pattern == "j":
            if self.per_demand:
                return j, demand
            if self.per_wait:
                return j, int(semantics == WAIT)
            return j, 1
        return (m, j), 1


class Binding(NamedTuple):
    m: object
    j: object

    def __repr__(self):
        parts = []
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.j is not None:
            parts.append(f"j={self.j}")
        return f"Binding({', '.join(parts)})"


SORT_OF_PATTERN = {"m": MACHINE, "j": JOB, "mj": PAIR}


class ColoredNet:
    """A structure of places (``sort``: place -> JOB, MACHINE or PAIR) and
    transitions (``pre``, ``post``: -> {place: Inscription}, ``interval``),
    plus the net's own universe and ``initial`` marking (place -> tuple of
    tokens).  Every net ``instance`` makes shares the structure, read-only:
    ``add_place`` extends a copy, ``add_transition`` one with a new table."""

    def __init__(self, universe, name="colored"):
        self.name = name
        self.universe = universe
        self.initial = {}
        self.places = self.transitions = ()
        self.sort = self.pre = self.post = self.interval = \
            MappingProxyType({})
        self.firings = {}           # ``arcs``' key -> (consumed, produced)

    def add_place(self, name, sort):
        self.places += (name,)
        self.sort = MappingProxyType({**self.sort, name: sort})
        return name

    def add_transition(self, name, pre, post, interval=(0, None)):
        self.transitions += (name,)
        self.pre = MappingProxyType({**self.pre,
                                     name: MappingProxyType(dict(pre))})
        self.post = MappingProxyType({**self.post,
                                      name: MappingProxyType(dict(post))})
        self.interval = MappingProxyType({**self.interval,
                                          name: tuple(interval)})
        self.firings = {}
        return name

    def instance(self, universe, initial):
        """A net of this structure, sharing it and its firing table, over
        ``universe`` with its own ``initial`` marking."""
        net = object.__new__(ColoredNet)
        net.__dict__.update(self.__dict__, universe=universe,
                            initial=dict(initial))
        return net

    def validate(self):
        issues = [f"{kind} {name!r} declared twice"
                  for kind, names in (("place", self.places),
                                      ("transition", self.transitions))
                  for name, n in Counter(names).items() if n > 1]
        pset = set(self.places)
        for t in self.transitions:
            for side, arcs in (("pre", self.pre[t]), ("post", self.post[t])):
                for p, ins in arcs.items():
                    if p not in pset:
                        issues.append(f"unknown place {p!r} on {side} arc of {t}")
                        continue
                    if ins.pattern not in SORT_OF_PATTERN:
                        issues.append(f"unknown inscription pattern "
                                      f"{ins.pattern!r} on {t}->{p}")
                    elif SORT_OF_PATTERN[ins.pattern] != self.sort[p]:
                        issues.append(
                            f"inscription {ins.pattern!r} does not match sort "
                            f"of place {p} on {t}")
                    if (ins.per_demand or ins.per_wait) and ins.pattern != "j":
                        issues.append(f"P'(j) or W'(j) multiplicity needs "
                                      f"pattern j on {t}->{p}")
            issues += interval_issues(t, *self.interval[t])
        machines, jobs = set(self.universe.machines), set(self.universe.jobs)
        colors = {MACHINE: machines, JOB: jobs}
        for p, toks in self.initial.items():
            sort = self.sort[p]
            issues += [f"initial token {tok!r} has wrong sort for {p}"
                       for tok in toks if not (
                           tok in colors[sort] if sort in colors else
                           isinstance(tok, tuple) and len(tok) == 2
                           and tok[0] in machines and tok[1] in jobs)]
        return issues

    def variables_of(self, t):
        """Which of m, j the transition's inscriptions mention."""
        needs_m = needs_j = False
        for arcs in (self.pre[t], self.post[t]):
            for ins in arcs.values():
                if ins.pattern in ("m", "mj"):
                    needs_m = True
                if ins.pattern in ("j", "mj"):
                    needs_j = True
        return needs_m, needs_j

    def bindings_of(self, t):
        """All bindings of t over the universe, (machine, job) lexicographic."""
        needs_m, needs_j = self.variables_of(t)
        ms = self.universe.machines if needs_m else (None,)
        js = self.universe.jobs if needs_j else (None,)
        return [Binding(m, j) for m in ms for j in js]

    def arcs(self, t, binding):
        """What firing t under binding consumes and produces: two tuples of
        ((place, token), count) pairs in arc order, zero counts left out.
        ValueError, with the reason, for a transition the net lacks or one
        that binds a job with no demand, outside the universe."""
        m, j = binding
        u = self.universe
        key = t, m, j, u.demand.get(j), u.semantics.get(j)
        return self.firings.get(key) or self._compile(key)

    def _compile(self, key):
        """``arcs``' miss path: the firing keyed on (transition, machine,
        job, demand, semantics), compiled into the table, which drops its
        oldest firing when full."""
        t, m, j, demand, semantics = key
        if t not in self.pre:
            raise ValueError("not in the net")
        if demand is None and self.variables_of(t)[1]:
            raise ValueError(f"job {j} not in the net")
        firing = []
        for arcs in (self.pre[t], self.post[t]):
            side = []
            for p, ins in arcs.items():
                tok, n = ins.tokens(m, j, demand, semantics)
                if n:
                    side.append(((p, tok), n))
            firing.append(tuple(side))
        if len(self.firings) >= FIRINGS:
            del self.firings[next(iter(self.firings))]
        self.firings[key] = firing = tuple(firing)
        return firing

    def initial_marking(self):
        return {p: tuple(sorted(self.initial.get(p, ()))) for p in self.places}


def colored_fire(cnet, marking, t, binding):
    """Fire t under binding: remove the tokens ``cnet.arcs`` says it
    consumes (NotFireable when one is missing), then add those it
    produces.  Only the places holding them are copied and re-sorted, so
    the marking's values must be sorted tuples, as ``initial_marking`` and
    this function make them."""
    consumed, produced = cnet.arcs(t, binding)
    changed = {}
    for (p, tok), n in consumed:
        toks = changed.setdefault(p, list(marking.get(p, ())))
        if toks.count(tok) < n:
            raise NotFireable((t, binding))
        for _ in range(n):
            toks.remove(tok)
    for (p, tok), n in produced:
        changed.setdefault(p, list(marking.get(p, ()))).extend([tok] * n)
    out = dict(marking)
    for p, toks in changed.items():
        out[p] = tuple(sorted(toks))
    return out


def token_name(tok):
    if isinstance(tok, tuple):
        return f"({tok[0]},{tok[1]})"
    return str(tok)


def color_name(base, color):
    """Unfolded name of place or transition ``base`` at a color (a token or
    a binding's machine, job or pair): ``base@J``, ``base@M``,
    ``base@(M,J)``."""
    return f"{base}@{token_name(color)}"


def binding_name(t, b):
    """Unfolded name of transition t under binding b: ``t`` when b binds
    nothing, else ``t@J``, ``t@M`` or ``t@(M,J)``."""
    if b.m is None and b.j is None:
        return t
    if b.m is None or b.j is None:
        return color_name(t, b.j if b.m is None else b.m)
    return color_name(t, b)


def unfold(cnet):
    """Expand over the net's (finite) universe into a plain timed net.

    Each colored place becomes one place per color of its sort, and each
    transition one copy per binding, named ``base@J``, ``base@M`` or
    ``base@(M,J)`` after the color or binding.  Per-job multiplicities
    become integer arc weights, and an arc of multiplicity 0 disappears.
    Intervals carry over unchanged.  ``net.machine_of`` records the index
    in the universe of each place's and transition's machine, or None;
    every machine's places and transitions come in the same order of roles.
    """
    universe = cnet.universe
    net = Net(cnet.name)
    machines = [(m, k) for k, m in enumerate(universe.machines)]
    domains = {                 # sort -> (token, machine index) pairs
        JOB: [(j, None) for j in universe.jobs],
        MACHINE: machines,
        PAIR: [((m, j), k) for m, k in machines for j in universe.jobs],
    }
    index = dict(machines)
    place_of = {}               # (colored place, token) -> plain place
    owners = ([], [])           # machine_of's two lists
    for p in cnet.places:
        initial = Counter(cnet.initial.get(p, ()))
        for tok, k in domains[cnet.sort[p]]:
            name = place_of[p, tok] = color_name(p, tok)
            net.add_place(name, tokens=initial[tok])
            owners[0].append(k)
    for t in cnet.transitions:
        for b in cnet.bindings_of(t):
            consumed, produced = cnet.arcs(t, b)
            net.add_transition(binding_name(t, b), interval=cnet.interval[t],
                               pre={place_of[pt]: n for pt, n in consumed},
                               post={place_of[pt]: n for pt, n in produced})
            owners[1].append(index.get(b.m))
    net.machine_of = tuple(map(tuple, owners))
    return net


def machine_arcs(arcs):
    """How many of the arcs carry a machine token (pattern m or mj)."""
    return sum(ins.pattern != "j" for ins in arcs.values())


def fold_refusal(cnet):
    """Why the unfolding of ``fold_machines(cnet)`` would not behave as
    cnet's own up to machine names, or None when it would; None also proves
    ``mutex`` and ``machine-invariant`` in every reachable marking.

    The fold is exact when cnet is sort-correct, every transition consumes
    at most one machine-carrying token, and each MACHINE- and PAIR-sort
    place initially holds every machine (per job, for pairs) equally often.
    A binding's enabling then depends on one machine's local state only,
    every machine starts alike, and mapping each marking to its per-state
    machine counts is a bisimulation onto the folded net: a folded firing
    is enabled exactly when some machine can take it.

    The machine proof is a colored P-invariant whose weight projects a pair
    (m, j) to m (Jensen, Coloured Petri Nets vol. 2; Murata 1989).  Every
    arc of pattern m or mj carries one token of the binding's machine, so
    a transition with as many such post arcs as pre arcs keeps each
    machine's count, and a machine that starts with one token is in
    exactly one state, so reserved, running or finished for at most one
    job, in every reachable marking."""
    if cnet.validate():
        return "colored net does not validate"
    if any(machine_arcs(cnet.pre[t]) > 1 for t in cnet.transitions):
        return "a transition consumes two machine tokens"
    machines, jobs = cnet.universe.machines, cnet.universe.jobs
    carried = 0                 # initial machine-carrying tokens, split
                                # evenly by the symmetry check
    for p, toks in cnet.initial.items():
        sort = cnet.sort[p]
        if sort == JOB:
            continue
        held = Counter(toks)
        for j in (None,) if sort == MACHINE else jobs:
            if len({held[m if j is None else (m, j)] for m in machines}) > 1:
                return "initial marking not machine-symmetric"
        carried += len(toks)
    if any(machine_arcs(cnet.pre[t]) != machine_arcs(cnet.post[t])
           for t in cnet.transitions):
        return "a transition creates or destroys a machine token"
    if carried != len(machines):
        return "a machine does not start with exactly one token"
    return None


def _fold_token(sort, tok):
    if sort == MACHINE:
        return FOLDED
    if sort == PAIR:
        return (FOLDED, tok[1])
    return tok


def fold_machines(cnet):
    """cnet's structure over the single machine color ``*``, with every
    machine in a MACHINE- or PAIR-sort initial token replaced by it; exact
    only where ``fold_refusal(cnet)`` is None."""
    u = cnet.universe
    return cnet.instance(
        ColorUniverse((FOLDED,), u.jobs, u.demand, u.semantics),
        {p: tuple(_fold_token(cnet.sort[p], tok) for tok in toks)
         for p, toks in cnet.initial.items()})


def lift_machines(cnet, names):
    """Lift a firing sequence of ``unfold(fold_machines(cnet))``, given by
    transition names, to cnet: each step binds the lowest-indexed machine
    for which it is enabled.  Returns the steps' names in ``unfold(cnet)``
    and the colored marking they reach.

    Where ``fold_refusal(cnet)`` is None some machine is always enabled,
    and that marking's machine counts are the folded marking; NotFireable
    is raised otherwise.  A step's machine holds the token of its
    transition's one machine-carrying input, so only the machines that
    hold it are tried."""
    folded = fold_machines(cnet)
    step_of = {binding_name(t, b): (t, b) for t in folded.transitions
               for b in folded.bindings_of(t)}
    source = {t: (p, ins.pattern) for t in cnet.transitions
              for p, ins in cnet.pre[t].items() if ins.pattern != "j"}
    marking = cnet.initial_marking()
    lifted = []
    for name in names:
        t, b = step_of[name]
        machines = (None,)
        if b.m == FOLDED:
            p, pattern = source[t]
            held = set(marking[p]) if pattern == "m" else {
                m for m, j in marking[p] if j == b.j}
            machines = (m for m in cnet.universe.machines if m in held)
        for m in machines:
            try:
                marking = colored_fire(cnet, marking, t, Binding(m, b.j))
            except NotFireable:
                continue
            lifted.append(binding_name(t, Binding(m, b.j)))
            break
        else:
            raise NotFireable((t, b))
    return lifted, marking
