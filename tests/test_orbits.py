"""Timed exploration modulo machine permutations, against an independent
orbit oracle.

``explore`` keeps one timed state per machine orbit, keyed on sorted
machine blocks that it reads from ``net.machine_of``.  The oracle here
reads nothing of that: it renames the machines in the place and
transition names, and takes the least ``(counts, clocks)`` over every
renaming as the orbit of a state.  The full graph (``full_explore``)
is the reference.
"""

import itertools
import random
from operator import itemgetter

import pytest

from net_checks import full_explore, mutant
from qurdlab.analysis import (check_reachable, explore, find_deadlocks,
                              pending_deadlocks, replay_labels)
from qurdlab.catalog import CatalogParams, build_colored, build_net
from qurdlab.colored import Inscription, unfold


def rename(name, sigma):
    """``name`` with its machine renamed by ``sigma`` (``p@M``,
    ``p@(M,J)``); job and machine-free names are unchanged."""
    base, at, color = name.partition("@")
    if color.startswith("("):
        m, j = color[1:-1].split(",")
        return f"{base}@({sigma.get(m, m)},{j})"
    return f"{base}@{sigma.get(color, color)}" if at else name


def orbit_oracle(net, machines):
    """The least ``(counts, clocks)`` over every renaming of ``machines``,
    as a function of a timed state of ``net``."""
    pidx = {p: i for i, p in enumerate(net.places)}
    tidx = {t: i for i, t in enumerate(net.transitions)}
    moves = []
    for image in itertools.permutations(machines):
        sigma = dict(zip(machines, image))
        moves.append((
            itemgetter(*[pidx[rename(p, sigma)] for p in net.places]),
            itemgetter(*[tidx[rename(t, sigma)] for t in net.transitions])))

    def orbit(s):
        return min((move_places(s.counts), move_clocks(s.clocks))
                   for move_places, move_clocks in moves)
    return orbit


def assert_orbits(net, machines, against_full=True):
    """The orbit graph holds each orbit once, each edge leads into the
    orbit of what firing its label reaches, and each dead state's path
    replays to it.  ``against_full``: its orbits, dead orbits and
    pending-dead orbits are the full graph's.  Returns the number of
    orbits."""
    g = explore(net)
    orbit = orbit_oracle(net, machines)
    reduced = [orbit(s) for s in g.states]
    assert len(set(reduced)) == g.n_states
    if against_full:
        full = full_explore(net)
        assert set(reduced) == {orbit(s) for s in full.states}
        for check in (find_deadlocks, pending_deadlocks):
            assert {reduced[i] for i in check(g)} == \
                {orbit(full.state(i)) for i in check(full)}
    for i, out in enumerate(g.edges):
        s = g.state(i)
        for (d, t), j in out:
            assert orbit(s.elapse(d).fire(t)) == reduced[j]
    for i in g.dead_ids():
        assert replay_labels(net, g.path_labels(i)) == g.state(i)
    return g.n_states


# the orbit counts of the last column were counted on the full graphs by
# the least (counts, clocks) over all machine permutations; the 4-machine
# full graphs (9,384 and 12,848 states) take seconds, so those two cases
# check the orbit graph on its own against that count
@pytest.mark.parametrize("params, n_orbits", [
    (CatalogParams(machine_count=3, job_demands=[2, 1], timeout=1), 159),
    (CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None), 202),
    (CatalogParams(machine_count=2, job_demands=[2, 1], timeout=3), 158),
    (CatalogParams(machine_count=2, job_demands=[1, 1], timeout=3,
                   failure_detector=True), 179),
    (CatalogParams(machine_count=3, job_demands=[3, 2], timeout=3), 498),
    (CatalogParams(machine_count=4, job_demands=[2, 2], timeout=3), 681),
    (CatalogParams(machine_count=4, job_demands=[3, 2], timeout=3), 961),
], ids=["3m-2-1-t1", "3m-3-2-off", "2m-2-1-t3", "2m-1-1-t3-fd", "3m-3-2-t3",
        "4m-2-2-t3", "4m-3-2-t3"])
def test_explore_keeps_one_state_per_orbit(params, n_orbits):
    assert assert_orbits(build_net(params), params.machines(),
                         against_full=params.machine_count < 4) == n_orbits


def random_params(rng):
    """A valid ``CatalogParams``: 1-3 machines, 1-2 jobs of demand 1-2 with
    mixed semantics, timeout off/1/3 and either layer."""
    demands = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
    p = CatalogParams(
        machine_count=rng.randint(1, 3), job_demands=demands,
        semantics=[rng.choice(("wait", "fail")) for _ in demands],
        timeout=rng.choice((None, 1, 3)), zeroconf=rng.random() < 0.5,
        failure_detector=rng.random() < 0.5)
    assert p.validate() == [], p
    return p


def test_orbits_on_random_params():
    rng = random.Random(23)
    for _ in range(60):
        p = random_params(rng)
        assert assert_orbits(build_net(p), p.machines()), p


def spare_reservation(c):
    c.initial["reserved"] = (("M1", "J2"),)


def minted_machine(c):
    c.post["t3"]["available"] = Inscription("m")


def missing_machine(c):
    c.initial["available"] = ("M1", "M2")


@pytest.mark.parametrize("mutate", [spare_reservation, minted_machine,
                                    missing_machine])
def test_orbits_on_colored_mutants(mutate):
    # an asymmetric initial marking, or a transition that mints a machine
    # token, leaves the net invariant under machine permutations, so the
    # quotient stays exact
    params = CatalogParams(machine_count=3, job_demands=[2, 1], timeout=1)
    cnet = mutant(build_colored(params), mutate)
    assert assert_orbits(unfold(cnet), params.machines())


def test_a_net_edited_after_unfolding_explores_in_full():
    net = build_net(CatalogParams(machine_count=3, job_demands=[2, 1],
                                  timeout=1))
    assert explore(net).n_states == 159
    net.add_transition("stop", pre={"available@M1": 1})
    assert net.machine_of is None
    g, full = explore(net), full_explore(net)
    assert [s.counts for s in g.states] == [s.counts for s in full.states]
    assert g.edges == full.edges


def test_a_goal_naming_one_machine_is_refused():
    net = build_net(CatalogParams(machine_count=3, job_demands=[3, 2],
                                  timeout=None))
    g, full = explore(net), full_explore(net)
    goal = {"available@M1": 1, "reserved@(M3,J2)": 1}
    assert check_reachable(full, goal) == 9
    with pytest.raises(ValueError, match="'available@M1'"):
        check_reachable(g, goal)
    # a goal over job places asks the same of every state in an orbit
    found = [check_reachable(h, {"job_done@J1": 1}) for h in (g, full)]
    assert None not in found
    paths = [h.path_labels(i) for h, i in zip((g, full), found)]
    assert len(paths[0]) == len(paths[1])
    for path in paths:
        assert replay_labels(net, path).marking["job_done@J1"] == 1
