"""Builder shapes and the behaviors the composed nets must exhibit."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from net_checks import check_p_invariant, machine_places
from qurdlab import catalog, colored
from qurdlab.analysis import (check_reachable, completion_skip, explore,
                              explore_markings, fuse, pending_deadlocks,
                              replay_labels, timed_witness)
from qurdlab.catalog import (CatalogParams, build_colored, build_machine,
                             build_net, jname)
from qurdlab.colored import (FOLDED, JOB, MACHINE, PAIR, color_name,
                             fold_machines, fold_refusal, lift_machines,
                             unfold)
from qurdlab.dot import net_dot
from qurdlab.tpn import Net


def fire_seq(net, marking, transitions):
    for t in transitions:
        marking = net.fire_marking(marking, t)
    return marking


# -- params -------------------------------------------------------------------

def test_params_validate():
    assert CatalogParams().validate() == []
    assert CatalogParams(machine_count=0).validate()
    assert CatalogParams(job_demands=[]).validate()
    assert CatalogParams(job_demands=[0]).validate()
    assert CatalogParams(timeout=0).validate()
    assert CatalogParams(semantics="sometimes").validate()


def rejected(p, message):
    """validate() names the problem, and build_net refuses the params."""
    assert any(message in issue for issue in p.validate()), p.validate()
    with pytest.raises(ValueError, match=message):
        build_net(p)


@pytest.mark.parametrize("p, message", [
    (CatalogParams(timeout=2.5), "timeout must be an integer or off"),
    (CatalogParams(job_demands=[1.5]), "job J1: demand must be an integer"),
    (CatalogParams(machine_count=2.0), "machines must be an integer")])
def test_params_reject_a_number_that_is_not_an_int(p, message):
    # reported, not built into an interval or raised on
    assert p.validate() == [message]
    rejected(p, message)


def test_params_reject_duplicate_job_ids():
    rejected(CatalogParams(machine_count=2, job_demands=[1, 1],
                           job_ids=["J1", "J1"]), "duplicate job J1")


def test_params_reject_id_count_mismatch():
    rejected(CatalogParams(machine_count=2, job_demands=[1, 1],
                           job_ids=["J1"]), "1 job ids for 2 jobs")


def test_params_reject_short_semantics_list():
    rejected(CatalogParams(machine_count=2, job_demands=[1, 1],
                           semantics=["wait"]), "1 semantics for 2 jobs")


def test_params_reject_job_id_equal_to_machine_id():
    rejected(CatalogParams(machine_count=2, job_demands=[1],
                           job_ids=["M2"]),
             "job id M2 collides with a machine id")


def test_params_per_job_semantics():
    p = CatalogParams(job_demands=[1, 2], semantics=["fail", "wait"])
    assert p.semantics_of(0) == "fail"
    assert p.semantics_of(1) == "wait"
    q = CatalogParams(job_demands=[1, 2], semantics="fail")
    assert q.semantics_of(1) == "fail"


def test_naming_helpers():
    assert jname("begin", "J1") == "begin@J1"


# -- single machine -------------------------------------------------------------

def hand_written_machine(timeout):
    """The daemon's net written out by hand: the oracle for
    ``build_machine``, which cuts it from the colored model."""
    net = Net("machine")
    net.add_place("available", tokens=1)
    net.add_place("reserved")
    net.add_place("running")
    net.add_place("finished")
    for stub in ("get_nodes", "answered", "launching_job", "job_finished"):
        net.add_place(stub)
    net.add_transition("t1", pre={"available": 1, "get_nodes": 1},
                       post={"reserved": 1, "answered": 1})
    net.add_transition("t2", pre={"reserved": 1, "launching_job": 1},
                       post={"running": 1})
    net.add_transition("t3", pre={"running": 1}, post={"finished": 1})
    net.add_transition("t4", pre={"finished": 1},
                       post={"available": 1, "job_finished": 1})
    net.add_transition("cancel", pre={"reserved": 1, "answered": 1},
                       post={"available": 1, "get_nodes": 1},
                       interval=(timeout, None))
    return net


def net_fields(net):
    """Every field of a plain net, arc dicts in their order."""
    return (net.name, net.places, net.transitions,
            [list(net.pre[t].items()) for t in net.transitions],
            [list(net.post[t].items()) for t in net.transitions],
            net.interval, net.initial)


@pytest.mark.parametrize("timeout", [1, 3, 7])
def test_machine_is_the_hand_written_daemon(timeout):
    net, oracle = build_machine(timeout), hand_written_machine(timeout)
    assert net_fields(net) == net_fields(oracle)
    assert net_dot(net, name=net.name) == net_dot(oracle, name=oracle.name)


def test_machine_without_timeout_has_no_cancel():
    net = build_machine(None)
    assert net.transitions == ["t1", "t2", "t3", "t4"]
    assert net.validate() == []
    assert explore(net).n_states == explore_markings(net).n_states == 1
    # written out by hand, the same daemon had a cancel with no bounds
    assert hand_written_machine(None).validate() == [
        "interval bound not an int on cancel: (None, None)"]


def test_machine_validates_with_local_places():
    net = build_machine()
    assert net.validate() == []
    for p in ("available", "reserved", "running", "finished"):
        assert p in net.places


def test_machine_initial_marking():
    net = build_machine()
    assert net.initial == {"available": 1}


def test_machine_cycle_returns_token():
    net = build_machine()
    m = dict(net.initial)
    m["get_nodes"] = 1            # feed the client-side stubs
    m["launching_job"] = 1
    m = fire_seq(net, m, ["t1", "t2", "t3", "t4"])
    assert m["available"] == 1
    assert m.get("reserved", 0) == 0


def test_machine_alone_is_inert():
    g = explore_markings(build_machine())
    assert g.n_states == 1


# -- one client -------------------------------------------------------------------

def test_client_launch_needs_all_answers():
    p = CatalogParams(machine_count=4, job_demands=[4])
    net = build_net(p)
    assert net.pre["launch@J1"] == {"answered@J1": 4}
    assert net.post["launch@J1"] == {"launching_job@J1": 4}


def test_client_happy_sequence_marks_job_done():
    p = CatalogParams(machine_count=1, job_demands=[1])
    net = build_net(p)
    m = fire_seq(net, dict(net.initial),
                 ["start_job@J1", "t1@(M1,J1)", "launch@J1", "t2@(M1,J1)",
                  "t3@(M1,J1)", "t4@(M1,J1)", "t5@J1"])
    assert m["job_done@J1"] == 1


def test_undersupplied_launch_never_fires():
    # demand 2 against a single machine: only one answer can ever exist
    p = CatalogParams(machine_count=1, job_demands=[2], timeout=None)
    g = explore_markings(build_net(p))
    launches = [i for i in range(g.n_states)
                if g.marking(i).get("answered@J1", 0) >= 2]
    assert launches == []


# -- two clients ------------------------------------------------------------------

def test_second_reservation_locked_out():
    p = CatalogParams(machine_count=1, job_demands=[1, 1], timeout=None)
    net = build_net(p)
    m = fire_seq(net, dict(net.initial),
                 ["start_job@J1", "start_job@J2", "t1@(M1,J1)"])
    assert "t1@(M1,J2)" not in net.enabled(m)


def test_contention_split_reachable_and_dead():
    p = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None)
    g = explore_markings(build_net(p))
    hit = [i for i in g.dead_ids()
           if g.marking(i).get("answered@J1", 0) == 2
           and g.marking(i).get("answered@J2", 0) == 1]
    assert hit


def test_timeout_unblocks_the_split():
    p = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=3)
    net = build_net(p)
    g = explore_markings(net)
    for i in range(g.n_states):
        m = g.marking(i)
        if m.get("answered@J1", 0) == 2 and m.get("answered@J2", 0) == 1:
            assert net.enabled(m)
            break
    else:
        pytest.fail("split marking not reachable")


# -- zeroconf ----------------------------------------------------------------------

def test_unpublish_disables_reservation():
    p = CatalogParams(machine_count=1, job_demands=[1], zeroconf=True)
    net = build_net(p)
    m = net.fire_marking(dict(net.initial), "start_job@J1")
    assert "t1@(M1,J1)" in net.enabled(m)
    m = net.fire_marking(m, "unpublish@M1")
    assert "t1@(M1,J1)" not in net.enabled(m)


def test_publish_unpublish_roundtrip():
    p = CatalogParams(machine_count=2, job_demands=[1], zeroconf=True)
    net = build_net(p)
    m0 = dict(net.initial)
    m = fire_seq(net, m0, ["unpublish@M1", "publish@M1"])
    assert m == m0


# -- failure detector ---------------------------------------------------------------

def test_crash_then_continue_on_spare():
    p = CatalogParams(machine_count=2, job_demands=[1],
                      failure_detector=True)
    net = build_net(p)
    m = fire_seq(net, dict(net.initial),
                 ["start_job@J1", "t1@(M1,J1)", "launch@J1", "t2@(M1,J1)",
                  "crash@(M1,J1)"])
    assert m["dead@M1"] == 1
    assert m["failure_detector@J1"] == 1
    assert "continue@(M2,J1)" in net.enabled(m)
    m = fire_seq(net, m, ["continue@(M2,J1)", "t3@(M2,J1)", "t4@(M2,J1)",
                          "t5@J1"])
    assert m["job_done@J1"] == 1


def test_crash_with_no_spare_waits():
    p = CatalogParams(machine_count=1, job_demands=[1],
                      failure_detector=True)
    net = build_net(p)
    m = fire_seq(net, dict(net.initial),
                 ["start_job@J1", "t1@(M1,J1)", "launch@J1", "t2@(M1,J1)",
                  "crash@(M1,J1)"])
    assert all(not t.startswith("continue@") for t in net.enabled(m))


def test_detector_is_inert_without_crashes():
    base = CatalogParams(machine_count=2, job_demands=[2])
    with_fd = CatalogParams(machine_count=2, job_demands=[2],
                            failure_detector=True)
    g0 = explore_markings(build_net(base))
    g1 = explore_markings(build_net(with_fd))
    # restrict fd-net markings to runs that never fired crash
    no_crash = set()
    for i in range(g1.n_states):
        if all(not t.startswith("crash@")
               for t in g1.path_transitions(i)):
            quiet = {p: n for p, n in g1.marking(i).items()
                     if not p.startswith(("dead@", "failure_detector@"))}
            no_crash.add(tuple(sorted(quiet.items())))
    plain = {tuple(sorted(g0.marking(i).items())) for i in range(g0.n_states)}
    assert no_crash == plain


# -- semantics shapes ---------------------------------------------------------------

def test_wait_cancel_returns_retry_token():
    p = CatalogParams(machine_count=1, job_demands=[1], semantics="wait")
    net = build_net(p)
    assert net.post["cancel@(M1,J1)"] == {"available@M1": 1,
                                          "get_nodes@J1": 1}


def test_fail_cancel_drops_retry_token():
    p = CatalogParams(machine_count=1, job_demands=[1], semantics="fail")
    net = build_net(p)
    assert net.post["cancel@(M1,J1)"] == {"available@M1": 1}


def test_cancel_interval_is_timeout():
    p = CatalogParams(machine_count=1, job_demands=[1], timeout=5)
    net = build_net(p)
    assert net.interval["cancel@(M1,J1)"] == (5, None)
    assert net.interval["t1@(M1,J1)"] == (0, None)


def test_timeout_off_removes_cancel():
    p = CatalogParams(machine_count=1, job_demands=[1], timeout=None)
    net = build_net(p)
    assert all(not t.startswith("cancel@") for t in net.transitions)


# -- whole-catalog structural checks ---------------------------------------------

def catalog_configs():
    for mc, demands, fd, zc in itertools.product(
            (1, 2, 3), ([1], [2], [1, 1], [2, 1]), (False, True),
            (False, True)):
        if mc >= max(demands):
            yield CatalogParams(machine_count=mc, job_demands=demands,
                                failure_detector=fd, zeroconf=zc)


def test_every_catalog_net_validates():
    for p in catalog_configs():
        net = build_net(p)
        assert net.validate() == [], p
        assert build_colored(p).validate() == [], p


def machine_grid():
    """416 configurations: 1-4 machines; demands [1], [2], [2,1], [3,2]
    and [1,1]; wait, fail and (for two jobs) mixed semantics; timeout off
    and 3; Zeroconf and the failure detector each on and off."""
    for mc, demands, timeout, zc, fd in itertools.product(
            (1, 2, 3, 4), ([1], [2], [2, 1], [3, 2], [1, 1]), (None, 3),
            (False, True), (False, True)):
        mixed = [["wait", "fail"]] if len(demands) == 2 else []
        for semantics in ["wait", "fail"] + mixed:
            yield CatalogParams(machine_count=mc, job_demands=demands,
                                semantics=semantics, timeout=timeout,
                                zeroconf=zc, failure_detector=fd)


def random_params(rng, machines=40, jobs=4, demand=6):
    """A valid ``CatalogParams`` drawn from 1-40 machines, 1-4 jobs of
    demand 1-6 with mixed semantics, timeout off/1/3/7 and either layer;
    the three bounds can be lowered."""
    demands = [rng.randint(1, demand) for _ in range(rng.randint(1, jobs))]
    p = CatalogParams(
        machine_count=rng.randint(1, machines), job_demands=demands,
        semantics=[rng.choice(("wait", "fail")) for _ in demands],
        timeout=rng.choice((None, 1, 3, 7)), zeroconf=rng.random() < 0.5,
        failure_detector=rng.random() < 0.5)
    assert p.validate() == [], p
    return p


def test_machine_state_p_invariant_structural():
    # `analyze` relies on its one guard instead of a scan, and refuses
    # where it fails: the guard proves that the colored net's machine and
    # pair places form a P-invariant with 1 token per machine, and that
    # the machine fold is exact
    configs = list(machine_grid())
    assert len(configs) == 416
    rng = random.Random(17)
    configs += [random_params(rng) for _ in range(3000)]
    for p in configs:
        assert fold_refusal(build_colored(p)) is None, p


def test_machine_proof_never_unfolds(monkeypatch):
    def unfolded(cnet):
        raise AssertionError("the machine proof unfolded the net")

    monkeypatch.setattr(colored, "unfold", unfolded)
    monkeypatch.setattr(catalog, "unfold", unfolded)
    p = CatalogParams(machine_count=512, job_demands=[4] * 128,
                      zeroconf=True, failure_detector=True)
    assert fold_refusal(build_colored(p)) is None


def test_machine_places_partition_the_machine_places():
    configs = list(machine_grid())
    for p in configs[::37]:
        net, cnet = build_net(p), build_colored(p)
        jobs = {color_name(q, j) for q in cnet.places if cnet.sort[q] == JOB
                for j in p.jobs()}
        owned = [machine_places(cnet, m, (MACHINE, PAIR))
                 for m in p.machines()]
        flat = [q for places in owned for q in places]
        assert len(flat) == len(set(flat)), p
        assert set(flat) == set(net.places) - jobs, p
        for places in owned:
            mine = set(places)
            assert places == [q for q in net.places if q in mine], p


def safety_grid():
    """The 108 configurations of acceptance test 4: 1-3 machines, nine
    demand lists, timeout 3, Zeroconf and the failure detector each on and
    off."""
    for mc, demands, fd, zc in itertools.product(
            (1, 2, 3), ([1], [2], [3], [1, 1], [2, 1], [2, 2], [3, 1],
                        [3, 2], [3, 3]), (False, True), (False, True)):
        yield CatalogParams(machine_count=mc, job_demands=demands,
                            failure_detector=fd, zeroconf=zc)


def fold_of(cnet, net):
    """0/1 matrix mapping each place of ``net = unfold(cnet)`` to its place
    in ``unfold(fold_machines(cnet))``, whose place list comes second."""
    folded = unfold(fold_machines(cnet)).places
    u = cnet.universe
    target = {}
    for p in cnet.places:
        sort = cnet.sort[p]
        if sort == JOB:
            target.update({color_name(p, j): color_name(p, j) for j in u.jobs})
        elif sort == MACHINE:
            target.update({color_name(p, m): color_name(p, FOLDED)
                           for m in u.machines})
        else:
            target.update({color_name(p, (m, j)): color_name(p, (FOLDED, j))
                           for m in u.machines for j in u.jobs})
    proj = np.zeros((len(net.places), len(folded)), dtype=np.int64)
    for i, q in enumerate(net.places):
        proj[i, folded.index(target[q])] = 1
    return proj, folded


def row_set(rows):
    """The distinct rows of an integer matrix, sorted, as one array."""
    rows = np.ascontiguousarray(rows, dtype=np.int16)
    # not strides[0], which numpy leaves arbitrary on a one-row matrix
    return np.unique(rows.view(np.dtype((np.void, 2 * rows.shape[1]))))


def test_folded_graph_is_the_full_graph_up_to_machine_names():
    # the oracle for analyze's fold, on every grid configuration:
    # - the folded graph's markings and dead markings are exactly the
    #   machine counts of the full graph's, so the verdicts agree, and the
    #   full graph's scan agrees with the machine proof the fold relies on;
    # - every pending dead orbit's folded path, lifted to concrete
    #   machines, replays on build_net to a dead, pending marking that
    #   folds back onto the folded dead marking
    lifted = 0
    for p in itertools.chain(machine_grid(), safety_grid()):
        cnet, net = build_colored(p), build_net(p)
        assert fold_refusal(cnet) is None
        full = explore_markings(net)
        folded = explore_markings(unfold(fold_machines(cnet)))
        proj, places = fold_of(cnet, net)
        assert places == folded.net.places
        image = full.matrix.astype(np.int64) @ proj
        for rows, mine in ((image, folded.matrix),
                           (image[full.dead], folded.matrix[folded.dead])):
            assert np.array_equal(row_set(rows), row_set(mine)), p

        assert bool(pending_deadlocks(full)) == \
            bool(pending_deadlocks(folded)), p
        done = {jname("job_done", j): 1 for j in p.jobs()}
        assert (check_reachable(full, done) is None) == \
            (check_reachable(folded, done) is None), p
        pidx = net.compiled()[0]
        for m in p.machines():
            pairs = [pidx[q] for q in machine_places(cnet, m, (PAIR,))]
            states = [pidx[q] for q in machine_places(cnet, m, (MACHINE,
                                                                PAIR))]
            assert (full.matrix[:, pairs].sum(axis=1) <= 1).all(), (p, m)
            assert (full.matrix[:, states].sum(axis=1) == 1).all(), (p, m)

        complete = completion_skip(folded)
        for i in pending_deadlocks(folded):
            labels = timed_witness(net, lift_machines(
                cnet, folded.path_transitions(i))[0])
            final = replay_labels(net, labels)
            assert final.enabled == [], (p, i)
            assert not complete(final.marking), (p, i)
            assert tuple(np.array(final.counts) @ proj) == \
                folded.counts(i), (p, i)
            lifted += 1
    assert lifted > 100


def assert_fusion_exact(p):
    """``analyze``'s graph, the fused folded one, against the full folded
    graph: the same dead markings, where no fused place is marked, the
    same job-done-reachable answer, and every pending dead marking's
    expanded path, lifted to machines, replays on build_net to a dead,
    pending marking that folds onto it.  Returns the folded and fused
    state counts."""
    cnet, net = build_colored(p), build_net(p)
    folded = unfold(fold_machines(cnet))
    reduced, expand = fuse(folded)
    full, fused = explore_markings(folded), explore_markings(reduced)
    kept = [folded.places.index(q) for q in reduced.places]
    gone = sorted(set(range(len(folded.places))) - set(kept))
    dead = full.matrix[full.dead]
    assert not dead[:, gone].any(), p
    assert np.array_equal(row_set(dead[:, kept]),
                          row_set(fused.matrix[fused.dead])), p
    done = {jname("job_done", j): 1 for j in p.jobs()}
    assert (check_reachable(full, done) is None) == \
        (check_reachable(fused, done) is None), p
    proj = fold_of(cnet, net)[0][:, kept]
    complete = completion_skip(fused)
    for i in pending_deadlocks(fused):
        names = lift_machines(cnet, expand(fused.path_transitions(i)))[0]
        final = replay_labels(net, timed_witness(net, names))
        assert final.enabled == [], (p, i)
        assert not complete(final.marking), (p, i)
        assert tuple(np.array(final.counts) @ proj) == fused.counts(i), \
            (p, i)
    return full.n_states, fused.n_states


def test_fused_graph_keeps_every_dead_marking():
    # the oracle for analyze's post-agglomeration, on both grids and on
    # small random nets
    rng = random.Random(33)
    configs = itertools.chain(
        machine_grid(), safety_grid(),
        (random_params(rng, machines=4, jobs=2, demand=3) for _ in range(60)))
    counts = np.array([assert_fusion_exact(p) for p in configs])
    assert (counts[:, 1] <= counts[:, 0]).all()
    assert counts[:, 1].sum() * 3 < counts[:, 0].sum()


def test_fusion_keeps_interruptible_steps():
    # fused: start_job, t4 into t3, then t3·t4 into t2; with the detector
    # crash also consumes running, so t3 stays and only t4 goes
    for fd, kept in ((False, {"t1", "t2"}), (True, {"t1", "t2", "t3",
                                                    "crash", "continue"})):
        p = CatalogParams(machine_count=2, job_demands=[2], timeout=None,
                          failure_detector=fd)
        net, expand = fuse(unfold(fold_machines(build_colored(p))))
        assert {t.partition("@")[0] for t in net.transitions} == \
            kept | {"launch", "t5"}, fd
        assert expand([]) == ["start_job@J1"]
        steps = {t.partition("@")[0]: [s.partition("@")[0]
                                       for s in expand([t])[1:]]
                 for t in net.transitions}
        assert steps["t2"] == (["t2"] if fd else ["t2", "t3", "t4"]), fd
        assert steps.get("t3", ["t3", "t4"]) == ["t3", "t4"], fd


def _job_weights(net, j, demand):
    # each unit of demand is either still sought (get_nodes), held as a
    # pair, parked with the detector, or banked in job_finished; begin
    # and job_done stand for all `demand` units at once.  answered and
    # launching_job are bookkeeping copies and carry weight 0.
    w = {}
    for q in net.places:
        base, _, tok = q.partition("@")
        if tok == j and base in ("get_nodes", "job_finished",
                                 "failure_detector"):
            w[q] = 1
        elif tok == j and base in ("begin", "job_done"):
            w[q] = demand
        elif (base in ("reserved", "running", "finished")
              and tok.endswith(f",{j})")):
            w[q] = 1
    return w


def test_job_demand_weighted_conservation():
    for p in catalog_configs():
        net = build_net(p)
        for j, n in zip(p.jobs(), p.job_demands):
            assert check_p_invariant(net, _job_weights(net, j, n)), (p, j)


def test_job_conservation_needs_the_weights():
    # counting answered as a unit breaks conservation: t1 mints the
    # positive answer while the demand unit moves get_nodes -> reserved
    p = CatalogParams(machine_count=2, job_demands=[2])
    net = build_net(p)
    naive = _job_weights(net, "J1", 2)
    naive[jname("answered", "J1")] = 1
    assert not check_p_invariant(net, naive)


def test_colored_initial_marking_pins():
    cnet = build_colored(CatalogParams(machine_count=2, job_demands=[1, 1]))
    assert cnet.initial == {"begin": ("J1", "J2"), "available": ("M1", "M2")}
    assert cnet.initial_counts() == {("begin", "J1"): 1, ("begin", "J2"): 1,
                                     ("available", "M1"): 1,
                                     ("available", "M2"): 1}


def test_full_defaults():
    net = build_net(CatalogParams())
    assert "begin@J1" in net.places
    assert sum(1 for p in net.places if p.startswith("available@")) == 4


# -- pinned structure -----------------------------------------------------------------

def net_text(net):
    """Order-free text of a net: places with their initial tokens, then
    transitions with their pre-set, post-set and interval."""
    lines = sorted("place %s %d" % (p, net.initial.get(p, 0))
                   for p in net.places)
    lines += sorted("transition %s pre %s post %s interval %s"
                    % (t, sorted(net.pre[t].items()),
                       sorted(net.post[t].items()), net.interval[t])
                    for t in net.transitions)
    return "\n".join(lines) + "\n"


# SHA-256 of net_text over every acceptance-test-4 configuration crossed
# with wait, fail and mixed semantics and timeout off and 3; a change to
# the model's places, arcs or intervals changes it
NET_STRUCTURE_SHA256 = \
    "57250fdadc3fd5963dc028256a5185241d556e51b87387735cd23a0422106d7e"


def test_net_structure_pinned():
    digest = hashlib.sha256()
    for mc, demands, fd, zc, sem, timeout in itertools.product(
            (1, 2, 3), ([1], [2], [3], [1, 1], [2, 1], [2, 2], [3, 1],
                        [3, 2], [3, 3]),
            (False, True), (False, True), ("wait", "fail", "mixed"),
            (None, 3)):
        semantics = sem if sem != "mixed" else \
            [("wait", "fail")[i % 2] for i in range(len(demands))]
        p = CatalogParams(machine_count=mc, job_demands=demands,
                          semantics=semantics, timeout=timeout,
                          failure_detector=fd, zeroconf=zc)
        digest.update(repr((mc, demands, fd, zc, sem, timeout)).encode())
        digest.update(net_text(build_net(p)).encode())
    assert digest.hexdigest() == NET_STRUCTURE_SHA256
