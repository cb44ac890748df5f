"""Reachability exploration and property checks.

The marking-level explorer is only trusted because every catalog net has
open-ended firing intervals; the equivalence with the timed explorer is
itself asserted here on representative nets.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qurdlab import analysis
from net_checks import (check_invariant, check_p_invariant, colored_done,
                        explore_colored, full_explore, machine_places)
from qurdlab.analysis import (DEFAULT_BOUND, ExplorationError, Truncated,
                              check_reachable, completion_skip, explore,
                              explore_markings, find_deadlocks, fuse,
                              pending_deadlocks, replay_labels,
                              timed_witness)
from qurdlab.catalog import (CatalogParams, build_colored, build_machine,
                             build_net, jname)
from qurdlab.colored import JOB, PAIR, ColoredNet, ColorUniverse, Inscription
from qurdlab.tpn import Net


def contention(timeout):
    return build_net(CatalogParams(
        machine_count=3, job_demands=[3, 2], timeout=timeout))


# -- explore ------------------------------------------------------------------

def test_machine_alone_one_state():
    g = explore(build_machine())
    assert g.n_states == 1
    assert g.edges[0] == []


def test_client_graph_closed_and_done_reachable():
    p = CatalogParams(machine_count=1, job_demands=[1], timeout=None)
    g = explore(build_net(p))
    assert not g.truncated
    assert any(g.marking(i).get("job_done@J1", 0) == 1
               for i in range(g.n_states))


def test_bound_truncates():
    p = CatalogParams(machine_count=1, job_demands=[1], timeout=None)
    g = explore(build_net(p), bound=1)
    assert g.truncated


def test_explore_deterministic():
    net = contention(3)
    a = explore(net, bound=5000)
    b = explore(net, bound=5000)
    assert [s.counts for s in a.states] == [s.counts for s in b.states]
    assert a.edges == b.edges


def test_marking_explorer_matches_timed_markings():
    """With every lfd open, untimed marking closure equals the set of
    markings of the timed graph, and deadlock status agrees."""
    for params in (CatalogParams(machine_count=1, job_demands=[1]),
                   CatalogParams(machine_count=2, job_demands=[2],
                                 timeout=None),
                   CatalogParams(machine_count=2, job_demands=[1, 1],
                                 failure_detector=True)):
        net = build_net(params)
        gm = explore_markings(net)
        gt = full_explore(net)
        timed = {tuple(s.counts) for s in gt.states}
        untimed = {gm.counts(i) for i in range(gm.n_states)}
        assert timed == untimed, params
        timed_dead = {tuple(gt.state(i).counts) for i in gt.dead_ids()}
        untimed_dead = {gm.counts(i) for i in gm.dead_ids()}
        assert timed_dead == untimed_dead, params


def test_open_intervals_cap_every_clock_at_zero():
    # every interval is [0, inf), so a timed state is just its marking
    net = contention(None)
    assert set(net.clock_caps()) == {0}
    g = full_explore(net)
    assert g.n_states == explore_markings(net).n_states == 719
    # one edge per enabled transition of each marking, as in the DOT test
    assert sum(map(len, g.edges)) == 1849


def test_marking_explorer_refuses_finite_lfd():
    net = Net()
    net.add_place("p", tokens=1)
    net.add_transition("t", pre={"p": 1}, post={}, interval=(0, 2))
    with pytest.raises(ValueError):
        explore_markings(net)
    cnet = ColoredNet(ColorUniverse(["M1"], ["J1"], {"J1": 1}))
    cnet.add_place("p", JOB)
    cnet.initial["p"] = ("J1",)
    cnet.add_transition("t", pre={"p": Inscription("j")}, post={},
                        interval=(0, 2))
    with pytest.raises(ValueError):
        explore_colored(cnet)


# -- marking explorer against a reference BFS -----------------------------------

def reference_bfs(net, bound=DEFAULT_BOUND):
    """Dict-keyed BFS over count tuples that visits each level
    transition-major, the order explore_markings must reproduce.
    Returns (states, (parent, transition) per state, dead ids, truncated)."""
    _, pre, post, _, _ = net.compiled()
    states = [net.marking_tuple(net.initial)]
    index = {states[0]: 0}
    parent, dead = [(-1, -1)], []
    frontier = range(1)
    while frontier:
        level, fired = len(states), set()
        for t, (need, give) in enumerate(zip(pre, post)):
            for i in frontier:
                counts = list(states[i])
                if any(counts[p] < w for p, w in need):
                    continue
                fired.add(i)
                for p, w in need:
                    counts[p] -= w
                for p, w in give:
                    counts[p] += w
                if tuple(counts) not in index:
                    if len(states) >= bound:
                        return states, parent, dead, True
                    index[tuple(counts)] = len(states)
                    states.append(tuple(counts))
                    parent.append((i, t))
        dead.extend(i for i in frontier if i not in fired)
        frontier = range(level, len(states))
    return states, parent, dead, False


def assert_matches_reference(g, net, bound=DEFAULT_BOUND):
    states, parent, dead, truncated = reference_bfs(net, bound)
    assert g.truncated == truncated
    assert [tuple(row) for row in g.matrix.tolist()] == states
    assert list(zip(g.parent.tolist(), g.via.tolist())) == parent
    if not truncated:
        assert g.dead_ids() == dead


def test_marking_explorer_matches_reference_on_catalog():
    """Every configuration of the catalog safety sweep: same rows in the
    same order, same BFS parents, same dead states."""
    demand_lists = ([1], [2], [3], [1, 1], [2, 1], [2, 2],
                    [3, 1], [3, 2], [3, 3])
    for mc, demands, fd, zc in itertools.product(
            (1, 2, 3), demand_lists, (False, True), (False, True)):
        net = build_net(CatalogParams(machine_count=mc, job_demands=demands,
                                      failure_detector=fd, zeroconf=zc))
        assert_matches_reference(explore_markings(net), net)


@st.composite
def random_nets(draw):
    """Small random nets; the larger token counts straddle the int8 range
    that the explorer works in while a level's counts fit it."""
    net = Net("random")
    for p in range(draw(st.integers(1, 5))):
        net.add_place("p%d" % p,
                      tokens=draw(st.sampled_from((0, 0, 1, 2, 126, 200))))
    arcs = st.dictionaries(st.sampled_from(list(net.places)),
                           st.integers(1, 2), max_size=3)
    for t in range(draw(st.integers(0, 5))):
        net.add_transition("t%d" % t, pre=draw(arcs), post=draw(arcs))
    return net


@settings(max_examples=200, deadline=None)
@given(random_nets(), st.integers(1, 300))
def test_marking_explorer_matches_reference_on_random_nets(net, bound):
    g = explore_markings(net, bound=bound)
    assert_matches_reference(g, net, bound)


def test_marking_explorer_matches_reference_on_a_chain():
    """p -> q with p = 2000: 2,001 levels of one state each."""
    net = Net("chain")
    net.add_place("p", tokens=2000)
    net.add_place("q")
    net.add_transition("t", pre={"p": 1}, post={"q": 1})
    g = explore_markings(net)
    assert g.n_states == 2001
    assert_matches_reference(g, net)


def test_marking_explorer_matches_reference_on_far_revisits():
    """One token on x0..x11: it steps forward, jumps back to x0 or halves
    its index, so a level's revisits land in two earlier levels at once,
    up to eleven levels back."""
    net = Net("jumps")
    for i in range(12):
        net.add_place("x%d" % i, tokens=int(i == 0))
    for i in range(11):
        net.add_transition("f%d" % i, pre={"x%d" % i: 1},
                           post={"x%d" % (i + 1): 1})
    for i in range(2, 12):
        net.add_transition("h%d" % i, pre={"x%d" % i: 1},
                           post={"x%d" % (i // 2): 1})
        net.add_transition("z%d" % i, pre={"x%d" % i: 1}, post={"x0": 1})
    assert_matches_reference(explore_markings(net), net)


def test_marking_explorer_matches_reference_across_int8():
    """Counts start inside the int8 range the explorer narrows to and
    leave it partway through the exploration."""
    net = Net("swap")
    net.add_place("a", tokens=100)
    net.add_place("b", tokens=40)
    net.add_transition("ab", pre={"a": 1}, post={"b": 1})
    net.add_transition("ba", pre={"b": 2}, post={"a": 2})
    g = explore_markings(net)
    assert g.matrix[0].max() <= np.iinfo(np.int8).max < g.matrix.max()
    assert_matches_reference(g, net)


def all_ones(n_places, attempt):
    """Multipliers that key a marking by its token total."""
    return np.ones(n_places, dtype=np.uint64)


def test_colliding_keys_rekey_and_stay_exact(monkeypatch):
    attempts = []
    fresh = analysis._multipliers

    def first_collides(n_places, attempt):
        attempts.append(attempt)
        return all_ones(n_places, attempt) if attempt == 0 \
            else fresh(n_places, attempt)

    monkeypatch.setattr(analysis, "_multipliers", first_collides)
    net = contention(None)
    assert_matches_reference(explore_markings(net), net)
    assert attempts == [0, 1]


def test_persistent_collisions_refuse(monkeypatch):
    monkeypatch.setattr(analysis, "_multipliers", all_ones)
    with pytest.raises(ExplorationError, match="collided"):
        explore_markings(contention(None))


def test_collision_within_a_level_is_verified(monkeypatch):
    """a -> 2b and a -> 2c: both successors have the key 2, which no
    visited state has, so only the check within the level can tell them
    apart."""
    monkeypatch.setattr(analysis, "_multipliers", all_ones)
    net = Net()
    net.add_place("a", tokens=1)
    net.add_place("b")
    net.add_place("c")
    net.add_transition("tb", pre={"a": 1}, post={"b": 2})
    net.add_transition("tc", pre={"a": 1}, post={"c": 2})
    with pytest.raises(ExplorationError, match="collided"):
        explore_markings(net)


def test_hit_on_visited_state_is_verified(monkeypatch):
    """(1,0) -> (0,1): one successor per level, so only the check against
    visited states can see that both share the key 1."""
    monkeypatch.setattr(analysis, "_multipliers", all_ones)
    net = Net()
    net.add_place("a", tokens=1)
    net.add_place("b")
    net.add_transition("move", pre={"a": 1}, post={"b": 1})
    with pytest.raises(ExplorationError, match="collided"):
        explore_markings(net)


def generator_net(start):
    """gen: q -> q + p, with p starting at ``start``."""
    net = Net("generator")
    net.add_place("q", tokens=1)
    net.add_place("p", tokens=start)
    net.add_transition("gen", pre={"q": 1}, post={"q": 1, "p": 1})
    return net


def test_token_overflow_refused():
    """p used to wrap to -32768 in a graph reported complete, whose
    check_invariant(p >= 0) witness could not replay."""
    with pytest.raises(ExplorationError, match="exceeds 32767"):
        explore_markings(generator_net(32_000), bound=5000)
    with pytest.raises(ExplorationError, match="exceeds 32767"):
        explore_markings(generator_net(40_000))


def test_token_count_at_int16_max_is_kept():
    net = Net()
    net.add_place("q", tokens=1)
    net.add_place("p", tokens=32_766)
    net.add_transition("put", pre={"q": 1}, post={"p": 1})
    g = explore_markings(net)
    assert g.counts(1) == (0, 32_767)


KEYS = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def merges(draw):
    """A sorted index's keys, and the keys inserted at non-decreasing
    positions into it, the ends and repeated positions among them."""
    keys = sorted(draw(st.lists(KEYS, max_size=40)))
    at = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=20)))
    return keys, at, draw(st.lists(KEYS, min_size=len(at),
                                   max_size=len(at)))


@settings(max_examples=300, deadline=None)
@given(merges())
@example(([], [], []))
@example(([3, 7, 11], [], []))
@example(([3, 7, 11], [0, 0, 1, 3, 3], [1, 2, 5, 12, 13]))
def test_merge_matches_np_insert(case):
    keys, at, added = case
    n, k = len(keys), len(at)
    index = np.array([keys, range(n)], dtype=np.int64).reshape(2, n)
    at = np.array(at, dtype=np.intp)
    added = np.array([added, range(n, n + k)], dtype=np.int64).reshape(2, k)
    merged = analysis._merge(index, at, *added)
    assert merged.dtype == np.int64
    assert np.array_equal(merged, np.insert(index, at, added, axis=1))


# -- fuse ---------------------------------------------------------------------

def feeding(interval=(0, None), weight=1, refill=False, rival=False):
    """``t`` moves a token from ``a`` (shared with ``u``, so ``t`` stays)
    into ``p``, whose consumer ``f`` puts one in ``q``; ``f`` can be timed,
    take ``p`` by a weight-2 arc, put its token back, or share ``p`` with
    a rival ``g``."""
    net = Net()
    for p, n in (("a", 2), ("p", 0), ("q", 0)):
        net.add_place(p, tokens=n)
    net.add_transition("t", pre={"a": 1}, post={"p": weight})
    net.add_transition("u", pre={"a": 2}, post={"q": 1})
    net.add_transition("f", pre={"p": weight},
                       post={"q": 1, "p": 1} if refill else {"q": 1},
                       interval=interval)
    if rival:
        net.add_transition("g", pre={"p": 1})
    return net


def test_fuse_merges_a_free_step_into_its_producer():
    net, expand = fuse(feeding())
    assert (net.places, net.transitions) == (["a", "q"], ["t", "u"])
    assert (net.pre["t"], net.post["t"]) == ({"a": 1}, {"q": 1})
    assert expand(["t", "u"]) == ["t", "f", "u"]
    # an initial token of p: f fires there, once per token
    initial = feeding()
    initial.initial["p"] = 2
    net, expand = fuse(initial)
    assert net.initial == {"a": 2, "q": 2}
    assert expand(["t"]) == ["f", "f", "t", "f"]


@pytest.mark.parametrize("shape", [
    {"interval": (1, None)}, {"interval": (0, 4)}, {"weight": 2},
    {"refill": True}, {"rival": True}])
def test_fuse_leaves_timed_and_contested_steps(shape):
    # a nonzero efd, a finite lfd, an arc of weight 2, a self-loop or a
    # second consumer of p keeps f
    net = feeding(**shape)
    fused, expand = fuse(net)
    assert fused.transitions == net.transitions
    assert (fused.pre, fused.post) == (net.pre, net.post)
    assert expand(["t", "f"]) == ["t", "f"]


# -- deadlocks ------------------------------------------------------------------

def test_contention_deadlock_found():
    g = explore_markings(contention(None))
    dead = [g.marking(i) for i in find_deadlocks(g)]
    assert dead
    assert any(m.get("answered@J1", 0) == 2 and m.get("answered@J2", 0) == 1
               for m in dead)


def test_timeout_leaves_only_completion():
    g = explore_markings(contention(3))
    assert pending_deadlocks(g) == []
    # the one remaining terminal is both jobs done
    skip = completion_skip(g)
    assert all(skip(g.marking(i)) for i in g.dead_ids())
    assert g.dead_ids()


def test_no_transitions_initial_dead():
    net = Net()
    net.add_place("p", tokens=1)
    g = explore_markings(net)
    assert find_deadlocks(g) == [0]
    assert g.marking(0) == {"p": 1}


def test_no_places_single_live_state():
    net = Net()
    net.add_transition("tick")
    g = explore_markings(net)
    assert g.n_states == 1
    assert g.dead_ids() == []


def test_truncated_graph_refuses_checks():
    g = explore_markings(contention(None), bound=10)
    with pytest.raises(Truncated):
        find_deadlocks(g)
    with pytest.raises(Truncated):
        check_invariant(g, lambda m: True)
    with pytest.raises(Truncated):
        check_reachable(g, lambda m: True)


# -- invariants -------------------------------------------------------------------

def test_mutex_single_machine_two_jobs():
    p = CatalogParams(machine_count=1, job_demands=[1, 1], timeout=None)
    g = explore_markings(build_net(p))
    pairs = [q for q in g.net.places
             if q.startswith(("reserved@(", "running@(", "finished@("))]
    assert check_invariant(
        g, lambda m: sum(m.get(q, 0) for q in pairs) <= 1) is None


def test_machine_invariant_on_reachable_states():
    p = CatalogParams(machine_count=2, job_demands=[2],
                      failure_detector=True, zeroconf=True)
    net = build_net(p)
    g = explore_markings(net)
    for m in p.machines():
        weights = {q: 1 for q in net.places
                   if q.endswith("@%s" % m)
                   or ("@(%s," % m) in q and q.startswith(
                       ("reserved", "running", "finished"))}
        assert check_invariant(
            g, lambda mk: sum(mk.get(q, 0) for q in weights) == 1) is None, m


def test_invariant_violation_witness_replays():
    p = CatalogParams(machine_count=1, job_demands=[1])
    net = build_net(p)
    g = explore_markings(net)
    i = check_invariant(g, lambda m: m.get("answered@J1", 0) < 1)
    assert i is not None
    witness = g.path_labels(i)
    assert witness[-1][1] == "t1@(M1,J1)"
    end = replay_labels(net, witness)
    assert end.marking == g.marking(i)
    assert end.marking.get("answered@J1", 0) >= 1


# -- reachability -------------------------------------------------------------------

def test_full_demand_met_reachable():
    g = explore_markings(build_net(CatalogParams()))
    i = check_reachable(g, lambda m: m.get("job_done@J1", 0) >= 1)
    assert i is not None
    end = replay_labels(g.net, g.path_labels(i))
    assert end.marking.get("job_done@J1", 0) >= 1


def test_oversubscribed_fail_unreachable():
    p = CatalogParams(machine_count=4, job_demands=[5], semantics="fail")
    g = explore_markings(build_net(p))
    assert check_reachable(g, lambda m: m.get("job_done@J1", 0) >= 1) is None


def test_goal_initial_trivially_reachable():
    net = build_machine()
    g = explore_markings(net)
    assert check_reachable(g, lambda m: m == {"available": 1}) == 0
    assert g.path_labels(0) == []


def test_witness_is_walked_only_when_read(monkeypatch):
    g = explore_markings(contention(3))
    walks = []
    path_labels = type(g).path_labels

    def counted(self, i):
        walks.append(i)
        return path_labels(self, i)

    monkeypatch.setattr(type(g), "path_labels", counted)
    # check_reachable answers with an id and walks no path; the caller
    # walks the one it asks for
    i = check_reachable(g, {"job_done@J1": 1, "job_done@J2": 1})
    assert i is not None and walks == []
    witness = g.path_labels(i)
    assert replay_labels(g.net, witness).marking["job_done@J2"] == 1
    assert witness == path_labels(g, i)
    assert walks == [i]


def test_covering_goal_matches_predicate():
    goals = ({"job_done@J1": 1}, {"job_done@J1": 1, "job_done@J2": 1},
             {"answered@J1": 2, "answered@J2": 1}, {"answered@J1": 3},
             {"job_done@J9": 1}, {"job_done@J9": 0}, {})
    graphs = (explore_markings(contention(3)),
              explore(build_net(CatalogParams(machine_count=2,
                                              job_demands=[1, 1]))))
    for g in graphs:
        for goal in goals:
            covered = check_reachable(g, goal)
            assert covered == check_reachable(g, lambda m: all(
                m.get(p, 0) >= n for p, n in goal.items())), goal


# -- structural invariant -------------------------------------------------------

def test_p_invariant_machine_vector():
    net = build_machine()
    assert check_p_invariant(net, {"available": 1, "reserved": 1,
                                   "running": 1, "finished": 1})


def test_p_invariant_rejects_growing_sum():
    net = build_net(CatalogParams(machine_count=1, job_demands=[1]))
    assert not check_p_invariant(net, {"answered@J1": 1})


def test_p_invariant_zero_vector():
    assert check_p_invariant(build_machine(), {})


# -- witnesses ----------------------------------------------------------------------

def test_timed_witness_waits_out_efd():
    p = CatalogParams(machine_count=1, job_demands=[1], timeout=3)
    net = build_net(p)
    labels = timed_witness(net, ["start_job@J1", "t1@(M1,J1)",
                                 "cancel@(M1,J1)"])
    assert labels == [(0, "start_job@J1"), (0, "t1@(M1,J1)"),
                      (3, "cancel@(M1,J1)")]
    replay_labels(net, labels)


def test_path_labels_replay_everywhere():
    g = explore_markings(contention(3), bound=2000)
    for i in range(0, g.n_states, 97):
        end = replay_labels(g.net, g.path_labels(i))
        assert end.marking == g.marking(i)


# -- both graph classes -----------------------------------------------------------

def _dead_markings(g, ids):
    """The markings of states ``ids`` of ``g``, hashable."""
    return {frozenset(g.marking(i).items()) for i in ids}


def _witness_end(g, i):
    """The marking the path to state i replays to on the net."""
    return replay_labels(g.net, g.path_labels(i)).marking


@pytest.mark.parametrize("params", [
    CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None),
    CatalogParams(machine_count=3, job_demands=[3, 2], timeout=3),
    CatalogParams(machine_count=2, job_demands=[1], failure_detector=True),
], ids=["contention-off", "contention-t3", "crash-recovery"])
def test_reach_and_marking_graphs_answer_alike(params):
    net = build_net(params)
    graphs = (full_explore(net), explore_markings(net))
    assert type(graphs[0]) is not type(graphs[1])
    dead = [_dead_markings(g, find_deadlocks(g)) for g in graphs]
    pending = [_dead_markings(g, pending_deadlocks(g)) for g in graphs]
    assert dead[0] == dead[1] and dead[0]
    assert pending[0] == pending[1]
    skips = [completion_skip(g) for g in graphs]
    for m in dead[0]:
        assert skips[0](dict(m)) == skips[1](dict(m))
        assert skips[0](dict(m)) == (m not in pending[0])

    done = {jname("job_done", j): 1 for j in params.jobs()}
    all_done = lambda m: all(m.get(p, 0) >= n for p, n in done.items())
    twice = {jname("job_done", params.jobs()[0]): 2}
    cnet = build_colored(params)
    mutex = [machine_places(cnet, m, (PAIR,)) for m in params.machines()]
    one_client = lambda m: all(
        sum(m.get(p, 0) for p in w) <= 1 for w in mutex)
    no_done = lambda m: not any(m.get(p, 0) for p in done)
    answers = []
    for g in graphs:
        invariants = (one_client, no_done)
        violations = [check_invariant(g, p) for p in invariants]
        for i, p in zip(violations, invariants):
            assert i is None or not p(_witness_end(g, i))
        reached = [check_reachable(g, goal)
                   for goal in (all_done, done, twice)]
        for i in reached:
            assert i is None or all_done(_witness_end(g, i))
        answers.append([i is None for i in violations]
                       + [i is not None for i in reached])
        for i in g.dead_ids():
            assert replay_labels(net, g.path_labels(i)).marking == g.marking(i)
    assert answers[0] == answers[1] == [True, False, True, True, False]


# -- colored exploration ---------------------------------------------------------

def test_colored_counts_match_unfolded():
    p = CatalogParams(machine_count=2, job_demands=[1, 1])
    gc = explore_colored(build_colored(p))
    gu = explore_markings(build_net(p))
    assert gc.n_states == gu.n_states
    assert len(gc.dead_ids()) == len(gu.dead_ids())


def test_colored_completion_skip():
    p = CatalogParams(machine_count=2, job_demands=[1, 1])
    cnet = build_colored(p)
    g = explore_colored(cnet)
    assert find_deadlocks(g, skip=colored_done(cnet)) == []
