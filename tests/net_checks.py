"""Checks that only the tests make: the full timed graph, with every
machine permutation of a state kept apart, the untimed graph of a colored
net (the reference that ``unfold`` plus ``explore_markings`` are checked
against), a predicate scanned over every state of an explored graph, a
P-invariant tested on a plain net's incidence matrix, the unfolded names
of one machine's places, and a colored net rebuilt with edited arcs."""

from types import SimpleNamespace

from qurdlab.analysis import (DEFAULT_BOUND, ReachGraph, _closure,
                              _identity, _incidence, _require_complete,
                              _require_open_intervals)
from qurdlab.colored import (MACHINE, PAIR, ColoredNet, color_name,
                             colored_fire)
from qurdlab.tpn import NotFireable, TimedState


def full_explore(net, bound=DEFAULT_BOUND):
    """``explore`` without the machine-orbit key: every timed state of the
    net is a state of its own, whatever ``net.machine_of`` records."""
    return _closure(ReachGraph(net, bound), net.initial_state(),
                    TimedState.successors, _identity)


def check_invariant(g, predicate):
    """Id of the first state in BFS order whose marking violates the
    predicate, or None when it holds in every reachable marking;
    ``g.path_labels(i)`` is the path to the violation."""
    _require_complete(g)
    return next((i for i in range(g.n_states)
                 if not predicate(g.marking(i))), None)


def check_p_invariant(net, weights):
    """Structural invariance: the weighted token sum is unchanged by every
    transition (incidence-column test; no exploration)."""
    return bool((_incidence(net) @ net.marking_tuple(weights) == 0).all())


def machine_places(cnet, m, sorts):
    """Unfolded names of machine m's places of the given sorts, in
    ``unfold``'s place order: ``p@M`` for a MACHINE-sort place p, and
    ``p@(M,J)`` for each job J of a PAIR-sort one."""
    colors = {MACHINE: [m], PAIR: [(m, j) for j in cnet.universe.jobs]}
    return [color_name(p, c) for p in cnet.places if cnet.sort[p] in sorts
            for c in colors.get(cnet.sort[p], ())]


def mutant(cnet, change):
    """A net built afresh from cnet's places, transitions and universe
    after ``change(c)`` edited ``c.pre``, ``c.post`` and ``c.initial``,
    mutable copies of cnet's: a built net's arcs are read-only, as every
    net of its structure shares them."""
    c = SimpleNamespace(pre={t: dict(arcs) for t, arcs in cnet.pre.items()},
                        post={t: dict(arcs) for t, arcs in cnet.post.items()},
                        initial=dict(cnet.initial))
    change(c)
    out = ColoredNet(cnet.universe, cnet.name)
    for p in cnet.places:
        out.add_place(p, cnet.sort[p])
    for t in cnet.transitions:
        out.add_transition(t, c.pre[t], c.post[t], cnet.interval[t])
    out.initial = c.initial
    return out


# -- the colored explorer ---------------------------------------------------

class ColoredGraph(ReachGraph):
    """A ReachGraph of a ColoredNet (``net``) whose states are colored
    markings, place -> sorted tuple of tokens; edges and paths are labeled
    ``(transition, binding)``."""

    def marking(self, i):
        return self.states[i]


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


def explore_colored(cnet, bound=DEFAULT_BOUND):
    """Untimed BFS over colored markings via colored_successors, about 100
    times slower than ``explore_markings`` on the unfolded net.  Refuses a
    net with a finite lfd, as ``explore_markings`` does."""
    _require_open_intervals(cnet)
    return _closure(ColoredGraph(cnet, bound), cnet.initial_marking(),
                    lambda m: colored_successors(cnet, m), canonical)


def colored_done(cnet):
    """Predicate over cnet's colored markings: every job's job_done token
    is there (the regular terminal of a run where every job completed),
    for ``find_deadlocks``' skip."""
    n_jobs = len(cnet.universe.jobs)
    return lambda cm: len(cm.get("job_done", ())) == n_jobs
