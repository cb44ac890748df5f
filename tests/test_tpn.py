"""Core timed-net semantics: validation, enabling, elapse/fire, successors.

Derived expectations are checked against small independent oracles
(naive dict-based firing rule, from-scratch clock recomputation,
brute-force successor enumeration, the uniformly capped graph) rather
than against the implementation itself.
"""

import pickle
import random

import pytest

from net_checks import full_explore
from qurdlab.analysis import (DEFAULT_BOUND, ReachGraph, _closure, _identity,
                              pending_deadlocks, replay_labels)
from qurdlab.catalog import CatalogParams, build_net
from qurdlab.tpn import Net, NotFireable, TimedState, UrgencyViolation


def simple_net():
    # p1 --t--> p2, interval (2, 4)
    net = Net("simple")
    net.add_place("p1", tokens=1)
    net.add_place("p2")
    net.add_transition("t", pre={"p1": 1}, post={"p2": 1}, interval=(2, 4))
    return net


def cancel_only_net(interval=(3, None)):
    net = Net("cancel-only")
    net.add_place("reserved", tokens=1)
    net.add_place("available")
    net.add_transition("cancel", pre={"reserved": 1}, post={"available": 1},
                       interval=interval)
    return net


# -- oracles ----------------------------------------------------------------

def naive_enabled(net, marking):
    out = set()
    for t in net.transitions:
        if all(marking.get(p, 0) >= w for p, w in net.pre[t].items()):
            out.add(t)
    return out


def naive_fire_marking(net, marking, t):
    m = dict(marking)
    for p, w in net.pre[t].items():
        m[p] = m.get(p, 0) - w
    for p, w in net.post[t].items():
        m[p] = m.get(p, 0) + w
    return {p: n for p, n in m.items() if n}


def naive_fire_clocks(net, state, t):
    """Clocks after firing t, every transition re-tested from scratch:
    -1 if disabled afterwards, 0 if t itself or disabled in the
    intermediate marking (marking - pre(t)), else the clock it had."""
    inter = dict(state.marking)
    for p, w in net.pre[t].items():
        inter[p] = inter.get(p, 0) - w
    on_inter = naive_enabled(net, inter)
    on_after = naive_enabled(net, naive_fire_marking(net, state.marking, t))
    return tuple(-1 if u not in on_after
                 else 0 if u == t or u not in on_inter
                 else state.clock(u)
                 for u in net.transitions)


def random_net(rng, n_places=4, n_transitions=3):
    net = Net("random")
    places = [f"p{i}" for i in range(n_places)]
    for p in places:
        net.add_place(p, tokens=rng.randint(0, 2))
    for i in range(n_transitions):
        pre = {p: rng.randint(1, 2) for p in rng.sample(places, rng.randint(1, 2))}
        post = {p: rng.randint(1, 2) for p in rng.sample(places, rng.randint(0, 2))}
        efd = rng.randint(0, 3)
        lfd = None if rng.random() < 0.5 else efd + rng.randint(0, 2)
        net.add_transition(f"t{i}", pre=pre, post=post, interval=(efd, lfd))
    return net


def default_cap(net):
    """Smallest sound uniform clock cap: 1 + the largest finite bound in the
    net, so at least every clock's own cap."""
    return 1 + max((b for efd, lfd in net.interval.values()
                    for b in (efd, lfd) if b is not None), default=0)


class UniformCapNet(Net):
    """A copy of ``net`` whose clocks are all capped at one value
    (``default_cap(net)`` unless given): its timed graph is larger, and it
    equals the per-transition graph once each clock is clipped to its own
    cap.  Build it from a finished net; the two share their tables."""

    def __init__(self, net, cap=None):
        vars(self).update(vars(net))
        self.cap = default_cap(net) if cap is None else cap

    def clock_caps(self):
        return (self.cap,) * len(self.transitions)


def clock_map(state):
    """The clocks of the enabled transitions, by name."""
    return {t: c for t, c in zip(state.net.transitions, state.clocks)
            if c >= 0}


def bruteforce_successors(state):
    """Every delay up to the uniform cap, which is at least every clock's
    own cap, and every transition, each by ``elapse`` / ``fireable`` /
    ``fire``; a state first produced at a smaller label is dropped."""
    net = state.net
    out = []
    seen = set()
    for d in range(default_cap(net) + 1):
        try:
            elapsed = state.elapse(d)
        except UrgencyViolation:
            break
        for t in net.transitions:
            if elapsed.fireable(t):
                nxt = elapsed.fire(t)
                if nxt not in seen:
                    seen.add(nxt)
                    out.append(((d, t), nxt))
    return out


def random_walk(rng, net, steps=30):
    """Random alternation of elapse and fire, yielding reached states."""
    state = net.initial_state()
    yield state
    for _ in range(steps):
        succ = state.successors()
        if not succ:
            break
        _, state = rng.choice(succ)
        yield state


# -- validate ---------------------------------------------------------------

def test_validate_ok():
    assert simple_net().validate() == []


def test_validate_unknown_place():
    net = Net()
    net.add_place("available")
    net.add_transition("t1", pre={"avialable": 1}, post={})
    issues = net.validate()
    assert any("unknown place" in msg for msg in issues)


def test_validate_efd_gt_lfd():
    net = Net()
    net.add_place("p")
    net.add_transition("t", pre={"p": 1}, post={}, interval=(5, 2))
    assert any("efd > lfd" in msg for msg in net.validate())


@pytest.mark.parametrize("interval", [(None, None), (None, 3), (1, "5"),
                                      (1.5, None)])
def test_validate_reports_a_bound_that_is_not_an_int(interval):
    # reported, not raised: comparing None with 0 used to be a TypeError
    net = Net()
    net.add_place("p")
    net.add_transition("t", pre={"p": 1}, post={}, interval=interval)
    assert net.validate() == [
        "interval bound not an int on t: (%r, %r)" % interval]


def test_validate_zero_weight():
    net = Net()
    net.add_place("p")
    net.add_transition("t", pre={"p": 0}, post={})
    assert any("weight" in msg for msg in net.validate())


def test_validate_name_clash():
    net = Net()
    net.add_place("x")
    net.add_transition("x", pre={}, post={})
    assert any("both" in msg for msg in net.validate())


# -- enabling and fireability -------------------------------------------------

def test_enabled_matches_oracle_on_random_nets():
    rng = random.Random(7)
    for _ in range(50):
        net = random_net(rng)
        marking = {p: rng.randint(0, 2) for p in net.places}
        assert set(net.enabled(marking)) == naive_enabled(net, marking)


def test_fireable_efd_boundary():
    net = cancel_only_net()
    state = net.initial_state()
    assert not state.fireable("cancel")          # clock 0 < efd 3
    assert state.elapse(3).fireable("cancel")    # clock 3 = efd 3
    assert state.elapse(7).fireable("cancel")


def test_fireable_zero_efd():
    net = Net()
    net.add_place("p", tokens=1)
    net.add_transition("t1", pre={"p": 1}, post={}, interval=(0, None))
    assert net.initial_state().fireable("t1")


# -- elapse -------------------------------------------------------------------

def test_elapse_caps_clocks():
    net = Net()
    net.add_place("p", tokens=1)
    net.add_transition("t1", pre={"p": 1}, post={}, interval=(0, None))
    state = UniformCapNet(net, cap=10).initial_state()
    assert state.elapse(100).clock("t1") == 10


def test_clock_caps_per_transition():
    # lfd when finite, else efd; the uniform oracle caps them all at one
    net = Net()
    net.add_place("p", tokens=1)
    net.add_transition("bounded", pre={"p": 1}, interval=(2, 4))
    net.add_transition("open", pre={"p": 1}, interval=(3, None))
    net.add_transition("free", pre={"p": 1}, interval=(0, None))
    assert net.clock_caps() == (4, 3, 0)
    assert net.clock_caps() is net.clock_caps()
    assert default_cap(net) == 5
    assert net.initial_state().elapse(4).clocks == (4, 3, 0)
    assert UniformCapNet(net).initial_state().elapse(4).clocks == (4, 4, 4)
    net.add_transition("late", pre={"p": 1}, interval=(7, None))
    assert net.clock_caps() == (4, 3, 0, 7)


def test_elapse_urgency_violation():
    net = cancel_only_net(interval=(3, 3))
    state = net.initial_state().elapse(2)
    with pytest.raises(UrgencyViolation) as err:
        state.elapse(2)                          # 2 + 2 > lfd 3
    assert err.value.transition == "cancel"


def test_elapse_urgency_boundary_allowed():
    net = cancel_only_net(interval=(3, 3))
    state = net.initial_state().elapse(2).elapse(1)
    assert state.clock("cancel") == 3


def test_elapse_ignores_disabled():
    net = simple_net()
    state = UniformCapNet(net, cap=5).initial_state(marking={})
    assert state.elapse(99).clocks == state.clocks


# -- fire ---------------------------------------------------------------------

def test_fire_moves_tokens():
    net = simple_net()
    state = net.initial_state().elapse(2)
    after = state.fire("t")
    assert after.marking == {"p2": 1}
    assert after.enabled == []


def test_fire_not_fireable_before_efd():
    net = simple_net()
    with pytest.raises(NotFireable):
        net.initial_state().fire("t")


def test_fire_without_tokens():
    net = simple_net()
    state = net.initial_state(marking={})
    with pytest.raises(NotFireable):
        state.fire("t")


def test_fire_resets_newly_enabled_clock():
    # u stays enabled across t's firing and keeps its clock; t, if it
    # re-enables itself, restarts from zero.
    net = Net()
    net.add_place("a", tokens=2)
    net.add_place("b", tokens=1)
    net.add_transition("t", pre={"a": 1}, post={"a": 1}, interval=(0, None))
    net.add_transition("u", pre={"b": 1}, post={}, interval=(5, None))
    state = net.initial_state().elapse(4)
    after = state.fire("t")
    assert after.clock("t") == 0
    assert after.clock("u") == 4


def test_fire_intermediate_marking_rule():
    # t consumes the single token u needs and puts it back: u is not
    # enabled in the intermediate marking, so its clock resets.
    net = Net()
    net.add_place("shared", tokens=1)
    net.add_transition("t", pre={"shared": 1}, post={"shared": 1}, interval=(0, None))
    net.add_transition("u", pre={"shared": 1}, post={}, interval=(5, None))
    state = net.initial_state().elapse(4)
    after = state.fire("t")
    assert after.clock("u") == 0


def test_fire_matches_full_recomputation():
    # fire re-tests only the transitions whose pre-set meets pre(t) or
    # post(t); recomputing every transition from scratch must agree
    rng = random.Random(31)
    fired = 0
    for _ in range(60):
        net = random_net(rng, n_places=6, n_transitions=6)
        for state in random_walk(rng, net, steps=12):
            for d in range(default_cap(net) + 1):
                try:
                    elapsed = state.elapse(d)
                except UrgencyViolation:
                    break
                for t in net.transitions:
                    if elapsed.fireable(t):
                        assert elapsed.fire(t).clocks == \
                            naive_fire_clocks(net, elapsed, t)
                        fired += 1
    assert fired > 1000


def test_fire_marking_matches_oracle():
    rng = random.Random(21)
    for _ in range(100):
        net = random_net(rng)
        state = net.initial_state()
        for s in random_walk(rng, net, steps=10):
            state = s
        for t in net.enabled(state.marking):
            assert net.fire_marking(state.marking, t) == \
                naive_fire_marking(net, state.marking, t)


# -- successors -----------------------------------------------------------------

def test_successors_empty_marking():
    net = simple_net()
    assert net.initial_state(marking={}).successors() == []


def test_successors_earliest_cancel_label():
    net = cancel_only_net()
    labels = [label for label, _ in net.initial_state().successors()]
    assert labels[0] == (3, "cancel")


def test_successors_sorted_and_deduplicated():
    net = cancel_only_net()
    succ = net.initial_state().successors()
    labels = [label for label, _ in succ]
    assert labels == sorted(labels)
    states = [s for _, s in succ]
    assert len(states) == len(set(states))


def test_successors_against_bruteforce():
    # at every state of a walk, not just the first, so that the delay range
    # cut at an lfd and the clocks a firing resets are checked too
    rng = random.Random(99)
    checked = bounded = 0
    for _ in range(150):
        net = random_net(rng, n_places=rng.randint(3, 6),
                         n_transitions=rng.randint(2, 6))
        for capped in (net, UniformCapNet(net)):
            for state in random_walk(rng, capped, steps=20):
                assert state.successors() == bruteforce_successors(state)
                checked += 1
                # a running clock under a finite lfd: the cut can bind
                bounded += any(net.interval[t][1] is not None and c > 0
                               for t, c in clock_map(state).items())
    assert checked > 1000 and bounded > 100


def test_timed_state_value_contract():
    net = simple_net()
    state = net.initial_state().elapse(1)
    # equality and hash read the counts and clocks, not the net
    twin = TimedState(net=UniformCapNet(simple_net()), counts=state.counts,
                      clocks=state.clocks)
    assert twin == state and hash(twin) == hash(state)
    assert twin != TimedState(net=net, counts=(0, 1), clocks=state.clocks)
    assert state != state.elapse(1)
    assert repr(state) == "TimedState(counts=(1, 0), clocks=(1,))"
    assert pickle.loads(pickle.dumps(state)) == state
    with pytest.raises(AttributeError):
        state.clocks = (0,)
    with pytest.raises(AttributeError):
        del state.counts


# -- spec-level properties --------------------------------------------------------

def test_token_conservation_under_firing():
    rng = random.Random(5)
    for _ in range(40):
        net = random_net(rng)
        for state in random_walk(rng, net, steps=15):
            for t in net.enabled(state.marking):
                before = sum(state.marking.values())
                after = sum(net.fire_marking(state.marking, t).values())
                delta = sum(net.post[t].values()) - sum(net.pre[t].values())
                assert after == before + delta


def test_clock_domain_invariant():
    rng = random.Random(11)
    for _ in range(40):
        net = random_net(rng)
        for state in random_walk(rng, net, steps=15):
            clocks = clock_map(state)
            assert set(clocks) == naive_enabled(net, state.marking)
            caps = dict(zip(net.transitions, net.clock_caps()))
            assert all(0 <= c <= caps[t] for t, c in clocks.items())


def test_fire_and_elapse_are_pure():
    net = simple_net()
    state = net.initial_state().elapse(2)
    assert state.fire("t") == state.fire("t")
    assert state.elapse(1) == state.elapse(1)
    # and the input state is untouched
    assert state.clock("t") == 2


def test_monotonic_enabling():
    rng = random.Random(13)
    for _ in range(60):
        net = random_net(rng)
        m = {p: rng.randint(0, 2) for p in net.places}
        bigger = {p: m.get(p, 0) + rng.randint(0, 1) for p in net.places}
        assert naive_enabled(net, m) <= naive_enabled(net, bigger)
        assert set(net.enabled(m)) <= set(net.enabled(bigger))


def test_cap_soundness_on_random_nets():
    # Exploring with cap C and C+1 reaches the same set of markings once
    # C covers every finite bound.
    rng = random.Random(17)
    for _ in range(15):
        net = random_net(rng, n_places=3, n_transitions=2)
        base = default_cap(net)
        markings = []
        for cap in (base, base + 1):
            seen = {UniformCapNet(net, cap).initial_state()}
            queue = list(seen)
            reached = set()
            while queue:
                s = queue.pop()
                reached.add(s.counts)
                for _, nxt in s.successors():
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
                if len(seen) > 3000:
                    break
            markings.append(reached)
        assert markings[0] == markings[1]


def clipped(g, caps):
    """States, (source, target) edges and dead states of a timed graph, each
    state as (counts, clocks clipped to caps)."""
    states = [(s.counts, tuple(min(c, k) for c, k in zip(s.clocks, caps)))
              for s in g.states]
    edges = {(states[i], states[j]) for i, out in enumerate(g.edges)
             for _, j in out}
    return set(states), edges, {states[i] for i in g.dead_ids()}


def assert_caps_match_uniform(net, bound=DEFAULT_BOUND):
    """The per-transition caps lose nothing: the uniformly capped graph, with
    each clock clipped to its own cap, is the per-transition graph, with the
    same dead and pending-deadlock markings, and every dead state's path
    replays to it.  Returns False, having compared nothing, when the
    uniformly capped graph hits ``bound``."""
    g = full_explore(net, bound=bound)
    gu = full_explore(UniformCapNet(net), bound=bound)
    if gu.truncated:
        return False
    assert not g.truncated
    caps = net.clock_caps()
    assert clipped(gu, caps) == clipped(g, caps)
    assert {g.state(i).counts for i in pending_deadlocks(g)} == \
        {gu.state(i).counts for i in pending_deadlocks(gu)}
    for i in g.dead_ids():
        assert replay_labels(net, g.path_labels(i)) == g.state(i)
    return True


def test_clock_caps_match_uniform_cap_on_random_nets():
    rng = random.Random(23)
    compared = sum(assert_caps_match_uniform(random_net(rng), bound=500)
                   for _ in range(255))
    assert compared > 150


@pytest.mark.parametrize("params", [
    CatalogParams(machine_count=3, job_demands=[2, 1], timeout=1),
    CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None),
    CatalogParams(machine_count=2, job_demands=[2, 1], timeout=3),
    CatalogParams(machine_count=2, job_demands=[1, 1], timeout=3,
                  failure_detector=True),
], ids=["3m-2-1-t1", "3m-3-2-off", "2m-2-1-t3", "2m-1-1-t3-fd"])
def test_clock_caps_match_uniform_cap_on_catalog(params):
    assert assert_caps_match_uniform(build_net(params))


@pytest.mark.parametrize("params, n_states, n_edges", [
    (CatalogParams(machine_count=3, job_demands=[2, 1], timeout=1),
     628, 2287),
    (CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None),
     719, 1849),
    (CatalogParams(machine_count=2, job_demands=[2, 1], timeout=3),
     278, 1036),
    (CatalogParams(machine_count=2, job_demands=[1, 1], timeout=3,
                   failure_detector=True), 333, 1020),
    (CatalogParams(machine_count=3, job_demands=[3, 2], timeout=3),
     2105, 13240),
], ids=["3m-2-1-t1", "3m-3-2-off", "2m-2-1-t3", "2m-1-1-t3-fd", "3m-3-2-t3"])
def test_explore_matches_bruteforce_closure(params, n_states, n_edges):
    # the same BFS fed the per-delay enumeration builds the same graph
    net = build_net(params)
    g = full_explore(net)
    ref = _closure(ReachGraph(net, DEFAULT_BOUND), net.initial_state(),
                   bruteforce_successors, _identity)
    assert [(s.counts, s.clocks) for s in g.states] == \
        [(s.counts, s.clocks) for s in ref.states]
    assert g.edges == ref.edges
    assert g.parent == ref.parent
    assert pending_deadlocks(g) == pending_deadlocks(ref)
    assert not g.truncated
    assert (g.n_states, sum(map(len, g.edges))) == (n_states, n_edges)
