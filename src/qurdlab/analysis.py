"""Reachability-graph construction and property checks.

Two explorers build two graph classes.  ``explore`` builds the timed
reachability graph over TimedState (clock vectors included), exactly as
the semantics defines it, by a dict-keyed BFS (``_closure``) into a
``ReachGraph``.  ``explore_markings`` is an untimed breadth-first closure
over markings only, vectorized with numpy, into a ``MarkingGraph``.  It
refuses nets with a finite lfd, because dropping clocks is faithful
exactly when no upper bound can force a firing: with every lfd
unbounded, any untimed firing sequence can be realized in the timed net
by waiting, so the reachable marking sets coincide and a marking is dead
iff every timed state over it is timed-dead.  The catalog
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

A level costs a fixed few dozen numpy calls plus work in proportion to
its size, so a graph hundreds of levels deep but a few states wide is
still cheap:

1. one comparison of the level's count columns against every pre-arc at
   once gives the enabled (transition, state) pairs; a state with none is
   dead, which one mask per level records;
2. the successors' keys are sorted and grouped, and the rows within each
   group are checked equal;
3. the group keys are looked up in the index, one array of the visited
   states' sorted keys over their ids; a hit's stored row is read back
   from its level's block (all hits nearly always fall in one level) and
   compared;
4. the new keys and their ids are merged into the index in one pass,
   which writes them at their positions and the old columns around them
   through one boolean mask.

A level whose counts fit int8 is computed in int8.  Each level's counts
are kept as one column block in the dtype they were computed in, and
copied into the graph's int16 matrix once, at the end.

The checks return state ids, so they read only what both graph classes
offer: ``n_states``, ``marking``, ``dead_ids`` and ``path_labels``.  A
caller that wants a witness asks ``path_labels`` for the path to an id,
which replays from the initial state: on a marking graph its transitions
are converted to timed ``(delay, transition)`` labels by waiting out each
earliest firing delay.  ``check_reachable`` takes a predicate over
markings or a covering goal ``{place: min_count}``; on a marking graph a
covering goal reads only the columns it names.

Machine symmetry enters in two ways.  ``qurdlab analyze`` hands
``explore_markings`` the unfolding of ``colored.fold_machines(cnet)``,
whose places count the machines in each local state, and the checks read
that graph unchanged.  Its states are then orbits of the full graph's
under machine permutations, and a folded path is lifted to a path of the
full net (``colored.lift_machines``) before ``timed_witness`` times it.
And ``explore`` keeps one timed state per machine orbit (scalarset
symmetry; Ip & Dill, FMSD 9, 1996): a colored transition binds at most one
machine, by variable patterns alone, so ``unfold``'s nets are invariant
under machine permutations.
Nor is ``mutex`` or ``machine-invariant`` checked here: where
``colored.fold_refusal`` lets the fold through, it has proved both on the
colored net.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

import numpy as np

from .tpn import TimedState

DEFAULT_BOUND = 2_000_000


class Truncated(Exception):
    """A property was asked of a graph that hit its exploration bound."""


class ReachGraph:
    """Deduplicated TimedStates of a net with labeled successor edges and
    BFS tree parents, as ``explore`` fills it.  Where ``place_machines`` is
    set, a state stands for its machine orbit: an edge ``(label, j)`` leads
    into ``state(j)``'s orbit, and a BFS tree edge to ``state(j)`` itself,
    so paths stay concrete.
    """

    def __init__(self, net, bound):
        self.net = net
        self.bound = bound
        self.states = []
        self.edges = []          # per state id: list of (label, succ id)
        self.parent = []         # per state id: (parent id, label) or None
        self.truncated = False
        self.place_machines = None   # per place: machine index, for orbits

    @property
    def n_states(self):
        return len(self.states)

    def state(self, i):
        return self.states[i]

    def marking(self, i):
        return self.states[i].marking

    def dead_ids(self):
        return [i for i, e in enumerate(self.edges) if not e]

    def path_labels(self, i):
        """(delay, transition) labels along the BFS tree path to state i."""
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


def explore(net, bound=DEFAULT_BOUND):
    """Breadth-first closure of timed successors, up to ``bound`` states.
    Where ``net.machine_of`` names two machines or more, each machine orbit
    is one state, the first one reached, and ``n_states`` and ``bound``
    count orbits (edges: see ReachGraph); ask nothing of one machine."""
    g = ReachGraph(net, bound)
    key = _orbit_key(net)
    if key is not _identity:
        g.place_machines = net.machine_of[0]
    # TimedState.successors is read at call time, so a wrapper installed on
    # the class (by a profiler, say) sees every call
    return _closure(g, net.initial_state(), TimedState.successors, key)


def _orbit_key(net):
    """A key equal on two timed states exactly when a machine permutation
    maps one onto the other: the machine-free counts and clocks, then the
    sorted machine blocks, each a machine's place counts and transition
    clocks in net order.  The identity unless two machines are recorded."""
    places, transitions = net.machine_of or ((), ())
    slots = {}                  # machine index -> positions in counts+clocks
    for i, k in enumerate(places + transitions):
        slots.setdefault(k, []).append(i)
    free = slots.pop(None, ())
    if len(slots) < 2:
        return _identity
    free = itemgetter(*free) if free else lambda v: ()
    blocks = [itemgetter(*idx) for idx in slots.values()]

    def key(s):
        v = s.counts + s.clocks
        return free(v), tuple(sorted([block(v) for block in blocks]))
    return key


def _require_open_intervals(net):
    """Untimed exploration is faithful only when no lfd is finite (see the
    module docstring); refuse a net with a finite one."""
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
TRANSPOSE_ROWS = 4096


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
    """counts . mult mod 2**64 for each row (negative entries wrap), as
    int64 so that keys and ids share one index array; keys are only
    summed, sorted and compared, which the signed view does alike."""
    return (rows.astype(np.uint64) * mult).sum(
        axis=1, dtype=np.uint64).view(np.int64)


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
    n_trans = len(pre)
    # arc j of transition t is test row j * n_trans + t; shorter pre-sets
    # repeat their first arc, an empty one tests place 0 >= 0
    width = max((len(arcs) for arcs in pre), default=0)
    arcs = [arcs[min(j, len(arcs) - 1)] if arcs else (0, 0)
            for j in range(width) for arcs in pre]
    arc_place = np.array([p for p, _ in arcs], dtype=np.intp)
    arc_weight = np.array([w for _, w in arcs], dtype=np.int16)[:, None]
    delta_keys = _keys(deltas, mult)
    # a level whose counts stay within int8 is worked on and stored as
    # int8, which halves the bytes every gather, comparison and block holds
    narrow_deltas = deltas.astype(np.int8) \
        if (np.abs(deltas) <= INT8_MAX).all() else None
    top = int(deltas.max(initial=0))

    frontier = row0[None, :]             # rows of the current level
    columns = _columns(frontier)         # the same level, one row per place
    blocks = [columns]                   # every level, column-major
    starts = [0]                         # first id of each block
    frontier_keys = _keys(frontier, mult)
    # row 0: the keys of all states, sorted; row 1: the id of each
    index = np.stack([frontier_keys, np.zeros(1, dtype=np.int64)])
    parents = [np.full(1, -1, dtype=np.int64)]
    vias = [np.full(1, -1, dtype=np.int64)]
    live = []                            # per level: has an enabled transition
    n = 1
    first_id = 0

    while True:
        enabled = (columns[arc_place] >= arc_weight).reshape(
            width, n_trans, len(frontier)).all(axis=0)
        live.append(enabled.any(axis=0))
        trans, rows = np.divmod(enabled.ravel().nonzero()[0], len(frontier))
        if not rows.size:
            break
        succ_keys = frontier_keys[rows] + delta_keys[trans]

        # Group equal keys.  A group's first occurrence is its smallest
        # index; every member must be the same marking as its neighbour.
        order = succ_keys.argsort()
        succ_keys = succ_keys[order]
        head = np.empty(len(order), dtype=bool)
        head[0] = True
        np.not_equal(succ_keys[1:], succ_keys[:-1], out=head[1:])
        heads = head.nonzero()[0]
        first = np.minimum.reduceat(order, heads)
        uniq = succ_keys[heads]
        narrow = narrow_deltas is not None \
            and int(columns.max(initial=0)) + top <= INT8_MAX
        if narrow:
            frontier, step = frontier.astype(np.int8, copy=False), narrow_deltas
        else:
            frontier, step = frontier.astype(np.int16, copy=False), deltas
        succ = frontier.take(rows[order], axis=0)
        succ += step.take(trans[order], axis=0)
        # successors of enabled transitions are >= 0, so a negative count
        # is one that wrapped past INT16_MAX (int8 levels cannot wrap)
        if not narrow and succ.min(initial=0) < 0:
            raise ExplorationError(
                "a token count exceeds %d: the net is unbounded or its "
                "counts do not fit the int16 marking matrix" % INT16_MAX)
        # a row that differs from its predecessor must start a group
        if len(heads) < len(order) and (
                (succ[1:] != succ[:-1]) > head[1:, None]).any():
            raise _Collision()

        # a key already visited must belong to the very same marking; below
        # the smallest key pos - 1 is -1, which reads the largest key
        pos = index[0].searchsorted(uniq, "right")
        hit = index[0][pos - 1] == uniq
        if hit.any() and (_gather(blocks, starts, index[1][pos[hit] - 1])
                          != succ[heads[hit]].T).any():
            raise _Collision()

        new = (~hit).nonzero()[0]        # new groups, in key order
        by_first = first[new].argsort()
        fresh = new[by_first]            # the same, in id order
        if n + len(fresh) > bound:
            g.truncated = True           # the last level: no more lookups
            fresh = fresh[:max(bound - n, 0)]
        else:
            ids = np.empty(len(new), dtype=np.int64)
            ids[by_first] = np.arange(n, n + len(new))
            index = _merge(index, pos[new], uniq[new], ids)

        frontier = succ[heads[fresh]]
        columns = _columns(frontier)
        blocks.append(columns)
        starts.append(n)
        src = first[fresh]
        parents.append(first_id + rows[src])
        vias.append(trans[src])
        frontier_keys = uniq[fresh]
        first_id = n
        n += len(fresh)
        if g.truncated or not len(fresh):
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
    g.dead = (~np.concatenate(live)).nonzero()[0]
    return g


def _columns(rows):
    """``rows`` transposed into columns of the same dtype,
    ``TRANSPOSE_ROWS`` rows at a time so that the rows being read stay in
    cache: on a 2-core x86 host one transposing copy of 50,000 int8 rows
    of 78 places took 15 ms, in 4,096-row slices 4 ms."""
    out = np.empty((rows.shape[1], len(rows)), dtype=rows.dtype)
    for start in range(0, len(rows), TRANSPOSE_ROWS):
        out[:, start:start + TRANSPOSE_ROWS] = \
            rows[start:start + TRANSPOSE_ROWS].T
    return out


def _merge(index, at, keys, ids):
    """``index`` with the columns ``(keys, ids)`` inserted before its
    columns ``at`` (non-decreasing); both rows share the positions.  The
    old columns keep their order, placed by one boolean mask per row,
    which costs no Python step per insertion but a few ns per column."""
    grown = np.empty((2, index.shape[1] + len(at)), dtype=index.dtype)
    dest = at + np.arange(len(at))
    old_at = np.ones(grown.shape[1], dtype=bool)
    old_at[dest] = False
    # row by row: 1-D fancy and boolean indexing are numpy's fast paths
    for row, old, added in zip(grown, index, (keys, ids)):
        row[dest] = added
        row[old_at] = old
    return grown


def _gather(blocks, starts, ids):
    """Columns ``ids`` of the column-major level ``blocks`` side by side."""
    lv = bisect_right(starts, int(ids.min())) - 1
    if int(ids.max()) < starts[lv] + blocks[lv].shape[1]:
        return blocks[lv][:, ids - starts[lv]]   # the common case: one level
    level = np.searchsorted(starts, ids, side="right") - 1
    out = np.empty((blocks[0].shape[0], len(ids)), dtype=np.int16)
    for lv in np.unique(level):
        sel = np.flatnonzero(level == lv)
        out[:, sel] = blocks[lv][:, ids[sel] - starts[lv]]
    return out


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
    names = [p for p in g.net.places if p.startswith("job_done@")]
    return lambda m: bool(names) and all(m.get(p, 0) >= 1 for p in names)


def pending_deadlocks(g):
    """Ids of the deadlocks that are not proper completion: some job never
    finished."""
    return find_deadlocks(g, skip=completion_skip(g))


def check_reachable(g, goal):
    """Id of the first state in BFS order whose marking satisfies the goal,
    or None; ``g.path_labels(i)`` is the path to it.

    ``goal`` is a predicate over markings, or a covering goal
    ``{place: min_count}`` that holds where every listed place has at least
    its count.  On a MarkingGraph a covering goal is one column test over
    the whole matrix.  On a graph of machine orbits (``explore``) a
    predicate must not single out a machine, and a covering goal that
    names a machine's place raises ValueError."""
    _require_complete(g)
    if isinstance(goal, dict):
        if isinstance(g, MarkingGraph):
            return _first_covering(g, goal)
        pidx = g.net.compiled()[0] if g.place_machines else {}
        for p in goal:
            if p in pidx and g.place_machines[pidx[p]] is not None:
                raise ValueError(f"goal place {p!r} names one machine, but "
                                 "the graph holds one state per machine orbit")
        mins = dict(goal)
        goal = lambda m: all(m.get(p, 0) >= n for p, n in mins.items())
    return next((i for i in range(g.n_states) if goal(g.marking(i))), None)


def _first_covering(g, goal):
    pidx = g.net.compiled()[0]
    if any(n > 0 and p not in pidx for p, n in goal.items()):
        return None                 # place never marked
    cols = [pidx[p] for p in goal if p in pidx]
    mins = np.array([n for p, n in goal.items() if p in pidx])
    hits = np.flatnonzero((g.matrix[:, cols] >= mins).all(axis=1))
    return int(hits[0]) if hits.size else None

