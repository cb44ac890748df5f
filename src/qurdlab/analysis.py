"""Reachability-graph construction and property checks.

Three explorers build two graph classes.  ``explore`` builds the timed
reachability graph over TimedState (clock vectors included), exactly as
the semantics defines it, and ``explore_colored`` the untimed graph of a
colored net; both are one dict-keyed BFS (``_closure``) into a
``ReachGraph``.  ``explore_markings`` is an untimed breadth-first closure
over markings only, vectorized with numpy, into a ``MarkingGraph``.  The
two untimed explorers refuse nets with a finite lfd, because dropping
clocks is faithful exactly when no upper bound can force a firing: with
every lfd unbounded, any untimed firing sequence can be realized in the
timed net by waiting, so the reachable marking sets coincide and a
marking is dead iff every timed state over it is timed-dead.  The catalog
nets only ever bound `cancel` from below, so all scenario analyses can
use the fast explorer; the equivalence is checked empirically in the test
suite.

``explore_markings`` works a whole BFS level at a time.  Every marking
has a 64-bit key, ``counts . R mod 2**64`` for a fixed vector R of odd
multipliers (hash compaction, Wolper & Leroy 1993); a successor's key is
its parent's key plus its transition's.  A level's keys are sorted,
grouped and looked up in the sorted keys of the visited states, and a key
match counts only once the two count rows are found equal, so the graph
is exact.  If two distinct markings ever share a key, exploration starts
again with fresh multipliers, and after ``KEY_ATTEMPTS`` tries it refuses
with ``ExplorationError``.  Counts are stored as int16: a successor that
would leave that range also raises ``ExplorationError`` instead of
wrapping.  Ids, BFS parents and dead states are those of a dict-keyed BFS
that visits each level transition-major.

The deadlock checks return state ids, so they read only what both graph
classes offer: ``n_states``, ``marking``, ``dead_ids`` and
``path_labels``.  The other checks return a ``Verdict`` whose witness
replays from the initial state: witnesses from marking-level exploration
are converted to timed ``(delay, transition)`` labels by waiting out each
earliest firing delay.  ``check_reachable`` takes a predicate over
markings or a covering goal ``{place: min_count}``; on a marking graph a
covering goal reads only the columns it names.  ``unproved_machines``
proves mutual exclusion and each machine's one-state invariant on the
colored net, without exploring anything.

None of this knows about machine symmetry: ``qurdlab analyze`` hands
``explore_markings`` the unfolding of ``colored.fold_machines(cnet)``,
whose places count the machines in each local state, and the checks read
that graph unchanged.  Its states are then orbits of the full graph's
under machine permutations, and a folded path is lifted to a path of the
full net (``colored.lift_machines``) before ``timed_witness`` times it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import colored as cpn
from .tpn import TimedState

DEFAULT_BOUND = 2_000_000


class Truncated(Exception):
    """A property was asked of a graph that hit its exploration bound."""


@dataclass
class Verdict:
    property: str
    holds: bool
    witness: object          # list of (delay, transition) labels, or None
    states_explored: int

    def __str__(self):
        tail = f" witness of length {len(self.witness)}" if self.witness else ""
        return (f"{self.property}: {'holds' if self.holds else 'fails'} "
                f"({self.states_explored} states){tail}")


class ReachGraph:
    """Deduplicated states with labeled successor edges and BFS tree parents.

    ``explore`` fills it with TimedStates of a plain net and
    ``explore_colored`` with the colored marking dicts of a colored net
    (``net`` is then the ColoredNet); ``marking_of`` maps a state to its
    marking.
    """

    def __init__(self, net, bound, marking_of):
        self.net = net
        self.bound = bound
        self.marking_of = marking_of
        self.states = []
        self.edges = []          # per state id: list of (label, succ id)
        self.parent = []         # per state id: (parent id, label) or None
        self.truncated = False

    @property
    def n_states(self):
        return len(self.states)

    def state(self, i):
        return self.states[i]

    def marking(self, i):
        return self.marking_of(self.states[i])

    def dead_ids(self):
        return [i for i, e in enumerate(self.edges) if not e]

    def path_labels(self, i):
        """Labels along the BFS tree path to state i: (delay, transition)
        in a timed graph, (transition, binding) in a colored one."""
        labels = []
        while self.parent[i] is not None:
            i, label = self.parent[i]
            labels.append(label)
        labels.reverse()
        return labels


def _closure(g, s0, successors, key):
    """Breadth-first closure of ``successors`` from ``s0`` into ``g``, up to
    ``g.bound`` states; ``successors(s)`` yields ``(label, state)`` pairs
    and states with equal ``key`` are one state."""
    index = {key(s0): 0}
    g.states.append(s0)
    g.edges.append([])
    g.parent.append(None)
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for label, s in successors(g.states[i]):
                k = key(s)
                sid = index.get(k)
                if sid is None:
                    if len(g.states) >= g.bound:
                        g.truncated = True
                        return g
                    sid = len(g.states)
                    index[k] = sid
                    g.states.append(s)
                    g.edges.append([])
                    g.parent.append((i, label))
                    nxt.append(sid)
                g.edges[i].append((label, sid))
        frontier = nxt
    return g


def _identity(s):
    return s


def explore(net, bound=DEFAULT_BOUND, cap=None):
    """Breadth-first closure of timed successors, up to ``bound`` states.
    ``cap`` caps every clock at one value instead of ``net.clock_caps()``."""
    g = ReachGraph(net, bound, attrgetter("marking"))
    # TimedState.successors is read at call time, so a wrapper installed on
    # the class (by a profiler, say) sees every call
    return _closure(g, net.initial_state(cap=cap), TimedState.successors,
                    _identity)


def _require_open_intervals(net):
    """Untimed exploration is faithful only when no lfd is finite (see the
    module docstring); refuse a plain or colored net with a finite one."""
    if any(lfd is not None for _, lfd in net.interval.values()):
        raise ValueError(
            "net has a finite lfd; untimed exploration would be unsound")


class MarkingGraph:
    """Untimed reachable markings, stored as one int16 matrix row each.

    State ``i`` is row ``i`` of ``matrix``; ``parent[i]`` and ``via[i]`` are
    the BFS tree edge into it (parent id and transition index, -1 at the
    root).
    """

    def __init__(self, net, bound):
        self.net = net
        self.bound = bound
        self.parent = None       # int64 array: parent id per state, -1 at 0
        self.via = None          # int64 array: transition index, -1 at 0
        self.dead = None         # int64 array: ids with no enabled transition
        self.matrix = None       # n_states x n_places int16
        self.truncated = False

    @property
    def n_states(self):
        return len(self.parent)

    def marking(self, i):
        row = self.matrix[i]
        return {p: int(n) for p, n in zip(self.net.places, row) if n}

    def counts(self, i):
        return tuple(int(n) for n in self.matrix[i])

    def dead_ids(self):
        return self.dead.tolist()

    def path_transitions(self, i):
        names = self.net.transitions
        out = []
        while self.parent[i] >= 0:
            out.append(names[self.via[i]])
            i = self.parent[i]
        out.reverse()
        return out

    def path_labels(self, i):
        return timed_witness(self.net, self.path_transitions(i))


INT8_MAX = np.iinfo(np.int8).max
INT16_MAX = np.iinfo(np.int16).max
KEY_ATTEMPTS = 3


class ExplorationError(Exception):
    """Marking-level exploration cannot give an exact graph (a token count
    leaves the int16 range, or hash keys keep colliding)."""


class _Collision(Exception):
    pass


def _multipliers(n_places, attempt):
    """Odd 64-bit multipliers of the linear marking hash; ``attempt``
    selects a fresh, fixed set after a collision."""
    rng = np.random.default_rng([0x51D, attempt])
    return rng.integers(0, 2 ** 64, size=n_places, dtype=np.uint64,
                        endpoint=False) | np.uint64(1)


def _keys(rows, mult):
    """counts . mult mod 2**64 for each row (negative entries wrap)."""
    return (rows.astype(np.uint64) * mult).sum(axis=1, dtype=np.uint64)


def explore_markings(net, bound=DEFAULT_BOUND):
    """Vectorized untimed BFS over markings (see module docstring).

    Raises ValueError for nets with a finite lfd, since untimed closure is
    only faithful without firing deadlines, and ExplorationError when a
    token count would leave the int16 range or hash keys keep colliding.
    """
    _require_open_intervals(net)
    deltas = _incidence(net)
    row0 = np.array(net.marking_tuple(net.initial), dtype=np.int64)
    if (np.abs(deltas) > INT16_MAX).any() or (row0 > INT16_MAX).any():
        raise ExplorationError("a token count or arc weight exceeds %d"
                               % INT16_MAX)
    for attempt in range(KEY_ATTEMPTS):
        try:
            return _bfs(net, bound, row0.astype(np.int16),
                        deltas.astype(np.int16), net.compiled()[1],
                        _multipliers(len(net.places), attempt))
        except _Collision:
            continue
    raise ExplorationError("marking hash keys collided with %d sets of "
                           "multipliers" % KEY_ATTEMPTS)


def _incidence(net):
    """Token change of each firing, one int64 row per transition."""
    _, pre, post, _, _ = net.compiled()
    deltas = np.zeros((len(net.transitions), len(net.places)), dtype=np.int64)
    for ti, (consumed, produced) in enumerate(zip(pre, post)):
        for p, w in consumed:
            deltas[ti, p] -= w
        for p, w in produced:
            deltas[ti, p] += w
    return deltas


def _bfs(net, bound, row0, deltas, pre, mult):
    """One exploration with hash multipliers ``mult``; raises _Collision when
    two distinct markings share a key.

    Each level's successors are listed transition-major, frontier-row-minor,
    the order a dict-based BFS visits them, and new states take ids in
    first-occurrence order, so ids, parents and dead states do not depend on
    the hash."""
    g = MarkingGraph(net, bound)
    # arc j of every transition as one (place, weight) row each; shorter
    # pre-sets repeat their first arc, an empty one tests place 0 >= 0
    width = max((len(arcs) for arcs in pre), default=0)
    arcs = [[arcs[min(j, len(arcs) - 1)] if arcs else (0, 0)
             for arcs in pre] for j in range(width)]
    arc_place = np.array([[p for p, _ in row] for row in arcs],
                         dtype=np.intp).reshape(width, len(pre))
    arc_weight = np.array([[w for _, w in row] for row in arcs],
                          dtype=np.int16).reshape(width, len(pre), 1)
    delta_keys = _keys(deltas, mult)
    # a level whose counts stay within int8 is worked on as int8, which
    # halves the bytes every gather and comparison moves
    narrow_deltas = deltas.astype(np.int8) \
        if (np.abs(deltas) <= INT8_MAX).all() else None
    top = int(deltas.max(initial=0))

    frontier = row0[None, :]             # rows of the current level
    columns = frontier.T.copy()          # the same level, one row per place
    blocks = [columns]                   # every level, column-major
    starts = [0]                         # first id of each block
    keys = _keys(row0[None, :], mult)    # sorted keys of all states
    ids = np.zeros(1, dtype=np.int64)    # state id of each key
    parents = [np.full(1, -1, dtype=np.int64)]
    vias = [np.full(1, -1, dtype=np.int64)]
    dead = []
    n = 1
    frontier_keys = keys
    first_id = 0

    while not g.truncated:
        enabled = np.ones((len(pre), len(frontier)), dtype=bool)
        for places, weights in zip(arc_place, arc_weight):
            enabled &= columns[places] >= weights
        dead.append(first_id + np.flatnonzero(~enabled.any(axis=0)))
        trans, rows = np.divmod(np.flatnonzero(enabled), len(frontier))
        if not rows.size:
            break
        succ_keys = frontier_keys[rows] + delta_keys[trans]

        # Group equal keys.  A group's first occurrence is its smallest
        # index; every member must be the same marking as its neighbour.
        order = np.argsort(succ_keys)
        sorted_keys = succ_keys[order]
        head = np.ones(len(order), dtype=bool)
        head[1:] = sorted_keys[1:] != sorted_keys[:-1]
        heads = np.flatnonzero(head)
        first = np.minimum.reduceat(order, heads)
        uniq = sorted_keys[heads]
        narrow = narrow_deltas is not None \
            and int(columns.max(initial=0)) + top <= INT8_MAX
        if narrow:
            frontier, step = frontier.astype(np.int8, copy=False), narrow_deltas
        else:
            frontier, step = frontier.astype(np.int16, copy=False), deltas
        succ = np.take(frontier, rows[order], axis=0)
        succ += np.take(step, trans[order], axis=0)
        # successors of enabled transitions are >= 0, so a negative count
        # is one that wrapped past INT16_MAX (int8 levels cannot wrap)
        if not narrow and succ.min(initial=0) < 0:
            raise ExplorationError(
                "a token count exceeds %d: the net is unbounded or its "
                "counts do not fit the int16 marking matrix" % INT16_MAX)
        if len(heads) < len(order):
            differ = succ[1:] != succ[:-1]
            differ[head[1:]] = False
            if differ.any():
                raise _Collision()

        # a key already visited must belong to the very same marking
        pos = np.searchsorted(keys, uniq)
        hit = keys[np.minimum(pos, len(keys) - 1)] == uniq
        if hit.any() and not (_gather(blocks, starts, ids[pos[hit]])
                              == succ[heads[hit]].T).all():
            raise _Collision()

        fresh = np.flatnonzero(~hit)
        fresh = fresh[np.argsort(first[fresh])]
        if n + len(fresh) > bound:
            g.truncated = True
            fresh = fresh[:max(bound - n, 0)]
        id_of = np.empty(len(uniq), dtype=np.int64)
        id_of[fresh] = np.arange(n, n + len(fresh))
        keep = np.sort(fresh)
        keys = np.insert(keys, pos[keep], uniq[keep])
        ids = np.insert(ids, pos[keep], id_of[keep])

        frontier = succ[heads[fresh]]
        columns = frontier.T.astype(np.int16, order="C")
        blocks.append(columns)
        starts.append(n)
        parents.append(first_id + rows[first[fresh]])
        vias.append(trans[first[fresh]])
        first_id = n
        n += len(fresh)
        frontier_keys = uniq[fresh]
        if not len(frontier):
            break

    # column-major, so that a check reads each place's column contiguously;
    # each level block is freed once copied, so the levels and the whole
    # matrix never exist side by side
    del columns
    matrix = np.empty((len(net.places), n), dtype=np.int16)
    blocks.reverse()
    for start in starts:
        block = blocks.pop()
        matrix[:, start:start + block.shape[1]] = block
    g.matrix = matrix.T
    g.parent = np.concatenate(parents)
    g.via = np.concatenate(vias)
    g.dead = np.concatenate(dead)
    return g


def _gather(blocks, starts, ids):
    """Columns ``ids`` of the column-major level ``blocks`` side by side."""
    level = np.searchsorted(starts, ids, side="right") - 1
    out = np.empty((blocks[0].shape[0], len(ids)), dtype=blocks[0].dtype)
    for lv in np.unique(level):
        sel = np.flatnonzero(level == lv)
        out[:, sel] = blocks[lv][:, ids[sel] - starts[lv]]
    return out


def explore_colored(cnet, bound=DEFAULT_BOUND):
    """Untimed BFS over colored markings via colored_successors.

    About 100 times slower than ``explore_markings`` on the unfolded net,
    which is what ``build_net`` returns; it is kept as the test oracle that
    ``unfold`` plus ``explore_markings`` are checked against.  Same
    finite-lfd guard as explore_markings.  Edges are labeled
    ``(transition, binding)``.
    """
    _require_open_intervals(cnet)
    return _closure(ReachGraph(cnet, bound, _identity),
                    cnet.initial_marking(),
                    lambda m: cpn.colored_successors(cnet, m), cpn.canonical)


# -- witnesses ----------------------------------------------------------------

def timed_witness(net, transitions):
    """Lift an untimed firing sequence to (delay, transition) labels by
    waiting out each transition's remaining earliest firing delay.  Only
    valid when no finite lfd can block the wait, which the caller
    guarantees by having used marking-level exploration."""
    state = net.initial_state()
    efd = net.compiled()[3]
    labels = []
    for t in transitions:
        ti = net.transition_index(t)
        d = max(0, efd[ti] - state.clocks[ti])
        state = state.elapse(d).fire(t)
        labels.append((d, t))
    return labels


def replay_labels(net, labels):
    """Replay (delay, transition) labels from the initial state; returns the
    final TimedState.  Raises if any step is not fireable."""
    state = net.initial_state()
    for d, t in labels:
        state = state.elapse(d).fire(t)
    return state


# -- property checks ------------------------------------------------------------

def _require_complete(g):
    if g.truncated:
        raise Truncated(f"exploration hit the bound of {g.bound} states")


def find_deadlocks(g, skip=None):
    """Ids of the states with no successor at all (timed-dead in timed
    graphs, no enabled transition in marking graphs).  ``skip`` filters out
    states whose marking is an acceptable terminal (e.g. proper
    completion)."""
    _require_complete(g)
    return [i for i in g.dead_ids() if skip is None or not skip(g.marking(i))]


def completion_skip(g):
    """Predicate over markings of ``g``: every job's job_done is populated
    (the regular terminal of a run where every job completed)."""
    if isinstance(g.net, cpn.ColoredNet):
        n_jobs = len(g.net.universe.jobs)
        return lambda cm: len(cm.get("job_done", ())) == n_jobs
    names = [p for p in g.net.places if p.startswith("job_done@")]
    return lambda m: bool(names) and all(m.get(p, 0) >= 1 for p in names)


def pending_deadlocks(g):
    """Ids of the deadlocks that are not proper completion: some job never
    finished."""
    return find_deadlocks(g, skip=completion_skip(g))


def check_invariant(g, predicate, name="invariant"):
    """Verdict: predicate holds in every reachable marking; otherwise the
    witness is the BFS tree path to the first violation."""
    _require_complete(g)
    for i in range(g.n_states):
        if not predicate(g.marking(i)):
            return Verdict(name, False, g.path_labels(i), g.n_states)
    return Verdict(name, True, None, g.n_states)


def check_reachable(g, goal, name="reachable"):
    """Verdict: some reachable marking satisfies the goal; the witness is
    the BFS tree path to the first one found.

    ``goal`` is a predicate over markings, or a covering goal
    ``{place: min_count}`` that holds where every listed place has at least
    its count.  On a MarkingGraph a covering goal is one column test over
    the whole matrix."""
    _require_complete(g)
    if isinstance(goal, dict):
        if isinstance(g, MarkingGraph):
            return _check_covering(g, goal, name)
        mins = dict(goal)
        goal = lambda m: all(m.get(p, 0) >= n for p, n in mins.items())
    for i in range(g.n_states):
        if goal(g.marking(i)):
            return Verdict(name, True, g.path_labels(i), g.n_states)
    return Verdict(name, False, None, g.n_states)


def _check_covering(g, goal, name):
    pidx = g.net.compiled()[0]
    if any(n > 0 and p not in pidx for p, n in goal.items()):
        return Verdict(name, False, None, g.n_states)   # place never marked
    cols = [pidx[p] for p in goal if p in pidx]
    mins = np.array([n for p, n in goal.items() if p in pidx])
    hits = np.flatnonzero((g.matrix[:, cols] >= mins).all(axis=1))
    if hits.size:
        return Verdict(name, True, g.path_labels(int(hits[0])), g.n_states)
    return Verdict(name, False, None, g.n_states)


def unproved_machines(cnet):
    """The machines of colored net ``cnet``, in universe order, not proved
    to hold exactly one token across its MACHINE- and PAIR-sort places in
    every reachable marking; a proved machine is also reserved, running or
    finished for at most one job.

    The proof is a colored P-invariant whose weight projects a pair (m, j)
    to m (Jensen, Coloured Petri Nets vol. 2; Murata 1989).  In a
    sort-correct net every arc of pattern m or mj carries one token of the
    binding's machine, so a transition with as many such pre arcs as post
    arcs keeps every machine's count.  If any transition does not, or the
    net has a sort error, no machine is proved; otherwise a machine is
    proved exactly when it has one initial token."""
    machines = cnet.universe.machines
    if cnet.validate() or not all(
            cpn.machine_arcs(cnet.pre[t]) == cpn.machine_arcs(cnet.post[t])
            for t in cnet.transitions):
        return list(machines)
    initial = Counter()
    for p, toks in cnet.initial.items():
        if cnet.sort[p] == cpn.MACHINE:
            initial.update(toks)
        elif cnet.sort[p] == cpn.PAIR:
            initial.update(tok[0] for tok in toks)
    return [m for m in machines if initial[m] != 1]


def check_p_invariant(net, weights):
    """Structural invariance: the weighted token sum is unchanged by every
    transition (incidence-column test; no exploration)."""
    return bool((_incidence(net) @ net.marking_tuple(weights) == 0).all())
