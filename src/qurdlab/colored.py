"""Colored Petri nets over machine/job color domains, plus unfolding.

Places are typed by token sort: job tokens ``j``, machine tokens ``m`` or
pairs ``(m, j)``.  Arcs carry one inscription each: a pattern over the
variables m and j, optionally with a per-job multiplicity: P'(j), the
job's demand, or W'(j), 1 for a job with wait semantics and 0 for one
with fail semantics.  Only variable matching is supported; the
reservation model needs no guards.  ``colored_fire`` is the one firing
rule and the one enabling test: a binding is enabled exactly when firing
it finds every input token.  ``unfold`` expands a colored net over its
finite universe into an ordinary place/transition net with one place per
(place, color) and one transition per (transition, binding), named
``base@J``, ``base@M`` and ``base@(M,J)``; ``machine_places`` builds the
unfolded names of one machine's places.  The universe is not checked
here (the reservation model builds it from ``CatalogParams``, whose
``validate`` checks the parameters); ``ColoredNet.validate`` checks sorts,
inscriptions, intervals and initial tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .tpn import Net, NotFireable

JOB = "job"
MACHINE = "machine"
PAIR = "pair"

FAIL = "fail"
WAIT = "wait"


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


@dataclass(frozen=True)
class Inscription:
    """Arc inscription: a variable pattern and an optional per-job
    multiplicity, P'(j) (``per_demand``) or W'(j) (``per_wait``)."""

    pattern: str            # "m", "j" or "mj"
    per_demand: bool = False
    per_wait: bool = False

    def tokens(self, m, j, universe):
        """Instantiated token multiset for a binding, as a list."""
        if self.pattern == "m":
            return [m]
        if self.pattern == "j":
            if self.per_demand:
                return [j] * universe.demand[j]
            if self.per_wait:
                return [j] if universe.semantics[j] == WAIT else []
            return [j]
        return [(m, j)]


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
    """Colored net structure; immutable after construction by convention."""

    def __init__(self, universe, name="colored"):
        self.name = name
        self.universe = universe
        self.places = []
        self.sort = {}              # place -> JOB | MACHINE | PAIR
        self.transitions = []
        self.pre = {}               # transition -> {place: Inscription}
        self.post = {}
        self.interval = {}
        self.initial = {}           # place -> tuple of tokens

    def add_place(self, name, sort, tokens=()):
        self.places.append(name)
        self.sort[name] = sort
        if tokens:
            self.initial[name] = tuple(tokens)
        return name

    def add_transition(self, name, pre, post, interval=(0, None)):
        self.transitions.append(name)
        self.pre[name] = dict(pre)
        self.post[name] = dict(post)
        self.interval[name] = tuple(interval)
        return name

    def validate(self):
        issues = []
        pset = set(self.places)
        for t in self.transitions:
            for side, arcs in (("pre", self.pre[t]), ("post", self.post[t])):
                for p, ins in arcs.items():
                    if p not in pset:
                        issues.append(f"unknown place {p!r} on {side} arc of {t}")
                        continue
                    if SORT_OF_PATTERN[ins.pattern] != self.sort[p]:
                        issues.append(
                            f"inscription {ins.pattern!r} does not match sort "
                            f"of place {p} on {t}")
                    if (ins.per_demand or ins.per_wait) and ins.pattern != "j":
                        issues.append(f"P'(j) or W'(j) multiplicity needs "
                                      f"pattern j on {t}->{p}")
            efd, lfd = self.interval[t]
            if efd < 0 or (lfd is not None and efd > lfd):
                issues.append(f"bad interval on {t}")
        for p, toks in self.initial.items():
            for tok in toks:
                if not self._token_ok(p, tok):
                    issues.append(f"initial token {tok!r} has wrong sort for {p}")
        return issues

    def _token_ok(self, place, tok):
        sort = self.sort[place]
        if sort == MACHINE:
            return tok in self.universe.machines
        if sort == JOB:
            return tok in self.universe.jobs
        return (isinstance(tok, tuple) and len(tok) == 2
                and tok[0] in self.universe.machines and tok[1] in self.universe.jobs)

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

    def initial_marking(self):
        return {p: tuple(sorted(self.initial.get(p, ()))) for p in self.places}


def canonical(marking):
    """Canonical hashable form of a colored marking dict."""
    return tuple(tuple(sorted(marking.get(p, ()))) for p in sorted(marking))


def colored_enabled(cnet, marking):
    """All (transition, binding) pairs enabled in the marking, in
    declaration order then (machine, job) lexicographic binding order."""
    return [label for label, _ in colored_successors(cnet, marking)]


def colored_successors(cnet, marking):
    """Each enabled (transition, binding) pair with the marking it leads
    to, in ``colored_enabled`` order; every binding is fired once."""
    for t in cnet.transitions:
        for b in cnet.bindings_of(t):
            try:
                after = colored_fire(cnet, marking, t, b)
            except NotFireable:
                continue
            yield (t, b), after


def colored_fire(cnet, marking, t, binding):
    """Fire t under binding, the one enabling test of the colored layer:
    remove each instantiated input token (NotFireable when one is
    missing), then add the outputs.  Only the places on t's arcs are
    copied and re-sorted, so the marking's values must be sorted tuples,
    as ``initial_marking`` and this function make them."""
    m, j, universe = binding.m, binding.j, cnet.universe
    changed = {}
    for p, ins in cnet.pre[t].items():
        toks = changed[p] = list(marking.get(p, ()))
        for tok in ins.tokens(m, j, universe):
            try:
                toks.remove(tok)
            except ValueError:
                raise NotFireable((t, binding)) from None
    for p, ins in cnet.post[t].items():
        changed.setdefault(p, list(marking.get(p, ()))).extend(
            ins.tokens(m, j, universe))
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


def machine_places(cnet, m, sorts):
    """Unfolded names of machine m's places of the given sorts, in
    ``unfold``'s place order: ``p@M`` for a MACHINE-sort place p, and
    ``p@(M,J)`` for each job J of a PAIR-sort one."""
    colors = {MACHINE: [m], PAIR: [(m, j) for j in cnet.universe.jobs]}
    return [color_name(p, c) for p in cnet.places if cnet.sort[p] in sorts
            for c in colors.get(cnet.sort[p], ())]


def unfold(cnet):
    """Expand over the net's (finite) universe into a plain timed net.

    Each colored place becomes one place per color of its sort, and each
    transition one copy per binding, named ``base@J``, ``base@M`` or
    ``base@(M,J)`` after the color or binding.  Per-job multiplicities
    become integer arc weights, and an arc of multiplicity 0 disappears.
    Intervals carry over unchanged.
    """
    universe = cnet.universe
    net = Net(cnet.name)
    domains = {
        JOB: universe.jobs,
        MACHINE: universe.machines,
        PAIR: [(m, j) for m in universe.machines for j in universe.jobs],
    }
    place_of = {}               # (colored place, token) -> plain place
    for p in cnet.places:
        initial = Counter(cnet.initial.get(p, ()))
        for tok in domains[cnet.sort[p]]:
            name = place_of[p, tok] = color_name(p, tok)
            net.add_place(name, tokens=initial[tok])
    for t in cnet.transitions:
        sides = (cnet.pre[t].items(), cnet.post[t].items())
        for b in cnet.bindings_of(t):
            arcs = ({}, {})
            for side, weights in zip(sides, arcs):
                for p, ins in side:
                    for tok in ins.tokens(b.m, b.j, universe):
                        q = place_of[p, tok]
                        weights[q] = weights.get(q, 0) + 1
            if b.m is None and b.j is None:
                name = t
            elif b.m is None or b.j is None:
                name = color_name(t, b.j if b.m is None else b.m)
            else:
                name = color_name(t, b)
            net.add_transition(name, pre=arcs[0], post=arcs[1],
                               interval=cnet.interval[t])
    return net
