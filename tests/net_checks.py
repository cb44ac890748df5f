"""Checks that only the tests make: the full timed graph, with every
machine permutation of a state kept apart, a predicate scanned over every
state of an explored graph, a P-invariant tested on a plain net's
incidence matrix, the unfolded names of one machine's places, and a
colored net rebuilt with edited arcs."""

from operator import attrgetter
from types import SimpleNamespace

from qurdlab.analysis import (DEFAULT_BOUND, ReachGraph, _closure,
                              _identity, _incidence, _require_complete)
from qurdlab.colored import MACHINE, PAIR, ColoredNet, color_name
from qurdlab.tpn import TimedState


def full_explore(net, bound=DEFAULT_BOUND):
    """``explore`` without the machine-orbit key: every timed state of the
    net is a state of its own, whatever ``net.machine_of`` records."""
    return _closure(ReachGraph(net, bound, attrgetter("marking")),
                    net.initial_state(), TimedState.successors, _identity)


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
