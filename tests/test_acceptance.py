"""Acceptance suite: one test per headline claim, each ending in a
printed pass line so a pytest run doubles as the acceptance report.

The claims, in order: the three-machine contention scenario wedges with
a 2+1 machine split and a timeout cures it; completion tracks demand
exactly; per-machine safety invariants hold across the whole catalog;
a mid-run crash is recovered through the failure detector; colored and
unfolded representations agree state-for-state and verdict-for-verdict;
fuzzed protocol traces replay on the net; and everything is
deterministic, exploration included.
"""

import itertools
import time

from net_checks import (check_invariant, colored_done, explore_colored,
                        machine_places)
from qurdlab import conformance
from qurdlab.analysis import (check_reachable, completion_skip, explore,
                              explore_markings, find_deadlocks,
                              pending_deadlocks)
from qurdlab.catalog import CatalogParams, build_colored, build_net, jname
from qurdlab.cli import main as cli_main
from qurdlab.colored import MACHINE, PAIR, fold_refusal
from qurdlab.conformance import DEFAULT_MAPPING, fuzz_conformance
from qurdlab.scenario import parse_scenario
from qurdlab.simulator import run

CONTENTION = """\
machines 3
job J1 demand 3 semantics wait
job J2 demand 2 semantics wait
timeout off
"""

CRASH_RECOVERY = """\
machines 2
job J1 demand 1 semantics wait
failure-detector on
crash M1 at 2
bus-latency 0
msg-latency 0
"""

def report(capsys, line):
    with capsys.disabled():
        print(f"[acceptance] {line}")


def colored_load(cnet, cm, m, sorts):
    """Tokens of machine m in colored marking cm, across the places of
    ``cnet`` whose sort is one of ``sorts``."""
    return sum((tok if cnet.sort[p] == MACHINE else tok[0]) == m
               for p in cnet.places if cnet.sort[p] in sorts
               for tok in cm.get(p, ()))


def test_1_contention_deadlock_reproduced(capsys, tmp_path):
    # two launchers asking for 3 and 2 of 3 machines, no timeout
    params = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None)
    t0 = time.perf_counter()
    g = explore(build_net(params))
    elapsed = time.perf_counter() - t0
    assert g.n_states < 100_000
    assert elapsed < 5.0
    dead = find_deadlocks(g)
    assert len(dead) >= 1
    split = [i for i in dead
             if g.marking(i).get(jname("answered", "J1"), 0) == 2
             and g.marking(i).get(jname("answered", "J2"), 0) == 1]
    assert split, "expected a dead state where J1 holds 2 machines and J2 holds 1"
    scen = tmp_path / "contention.scn"
    scen.write_text(CONTENTION)
    assert cli_main(["analyze", str(scen), "--property", "deadlock"]) == 1
    report(capsys,
           f"1 deadlock reproduction: PASS ({len(dead)} timed-dead states, "
           f"{len(split)} with the 2+1 split; {g.n_states} states "
           f"in {elapsed:.2f}s)")


def test_2_timeout_eliminates_the_deadlock(capsys, tmp_path):
    params = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=3)
    g = explore(build_net(params))
    assert pending_deadlocks(g) == []
    # job_done is a sink, so a run where both jobs finished necessarily
    # terminates; those completions must be the only dead states left
    done = completion_skip(g)
    assert all(done(g.marking(i)) for i in g.dead_ids())
    scen = tmp_path / "cured.scn"
    scen.write_text(CONTENTION.replace("timeout off", "timeout 3"))
    assert cli_main(["analyze", str(scen), "--property", "deadlock"]) == 0
    report(capsys,
           f"2 deadlock elimination: PASS (timeout 3; every terminal among "
           f"{g.n_states} states is a full completion)")


def test_3_completion_tracks_demand(capsys):
    sizes = []
    for n in (1, 2, 3, 4):
        params = CatalogParams(machine_count=4, job_demands=[n])
        g = explore_markings(build_net(params))
        assert check_reachable(
            g, lambda mk: mk.get(jname("job_done", "J1"), 0) >= 1) \
            is not None, f"demand {n} of 4 machines should complete"
        sizes.append(g.n_states)
    params = CatalogParams(machine_count=4, job_demands=[5],
                           semantics=["fail"])
    g = explore_markings(build_net(params))
    assert check_reachable(
        g, lambda mk: mk.get(jname("job_done", "J1"), 0) >= 1) is None, \
        "demand 5 of 4 machines must never complete"
    report(capsys,
           f"3 completion: PASS (demands 1-4 complete on 4 machines, "
           f"graphs {sizes}; demand 5 provably never does)")


def test_4_safety_invariants_hold_everywhere(capsys):
    # the colored net's machine P-invariant, which the fold guard checks,
    # proves both properties; a scan of every reachable marking is the
    # oracle for the proof
    demand_lists = ([1], [2], [3], [1, 1], [2, 1], [2, 2],
                    [3, 1], [3, 2], [3, 3])
    configs = 0
    total_states = 0
    for mc, demands, fd, zc in itertools.product(
            (1, 2, 3), demand_lists, (False, True), (False, True)):
        params = CatalogParams(machine_count=mc, job_demands=list(demands),
                               failure_detector=fd, zeroconf=zc)
        cnet = build_colored(params)
        assert fold_refusal(cnet) is None, (mc, demands, fd, zc)
        loads = [(machine_places(cnet, m, (PAIR,)),
                  machine_places(cnet, m, (MACHINE, PAIR)))
                 for m in params.machines()]
        g = explore_markings(build_net(params))
        assert check_invariant(g, lambda mk: all(
            sum(mk.get(p, 0) for p in pairs) <= 1
            and sum(mk.get(p, 0) for p in states) == 1
            for pairs, states in loads)) is None, (mc, demands, fd, zc)
        configs += 1
        total_states += g.n_states
    report(capsys,
           f"4 safety invariants: PASS (mutual exclusion and "
           f"one-state-per-machine proved from the colored P-invariant "
           f"over {configs} configurations; a scan of {total_states} "
           f"states agrees)")


def test_5_crash_recovery_completes(capsys):
    sc = parse_scenario(CRASH_RECOVERY)
    res = run(sc.params(), sc.config())
    assert res.outcomes == {"J1": "completed"}
    kinds = [e.kind for e in res.trace]
    assert "crashed" in kinds, "the scheduled crash must actually hit"
    assert "restarted" in kinds, "the detector must move the job to the spare"
    g = explore_markings(build_net(sc.params()))
    assert check_reachable(
        g, lambda mk: mk.get(jname("job_done", "J1"), 0) >= 1) is not None
    report(capsys,
           "5 crash recovery: PASS (running machine crashed at t=2, job "
           "finished on the spare; job_done reachable in the matching net)")


def test_6_colored_and_unfolded_agree(capsys):
    universes = ((1, [1], 8), (2, [2], 22), (2, [1, 1], 112),
                 (2, [2, 1], 152), (3, [2, 1], 448))
    checked = 0
    for mc, demands, expected in universes:
        for timeout in (3, None):
            params = CatalogParams(machine_count=mc, job_demands=demands,
                                   timeout=timeout)
            cnet = build_colored(params)
            net = build_net(params)
            gc = explore_colored(cnet)
            gu = explore_markings(net)
            assert gc.n_states == gu.n_states
            if timeout == 3:
                assert gc.n_states == expected
            jobs = cnet.universe.jobs
            assert len(find_deadlocks(gc, colored_done(cnet))) == \
                len(pending_deadlocks(gu))
            done_c = check_reachable(gc, lambda cm: all(
                j in cm.get("job_done", ()) for j in jobs))
            done_u = check_reachable(gu, {jname("job_done", j): 1
                                          for j in jobs})
            assert (done_c is None) == (done_u is None)
            for m in cnet.universe.machines:
                mu_c = check_invariant(gc, lambda cm, m=m: colored_load(
                    cnet, cm, m, (PAIR,)) <= 1)
                st_c = check_invariant(gc, lambda cm, m=m: colored_load(
                    cnet, cm, m, (MACHINE, PAIR)) == 1)
                assert mu_c is None and st_c is None
            assert fold_refusal(cnet) is None
            checked += 1
    report(capsys,
           f"6 colored/unfolded oracle: PASS ({checked} universe/timeout "
           f"pairs agree on counts, deadlocks, completion and safety)")


def test_7_simulated_traces_conform(capsys, monkeypatch):
    assert cli_main(["conformance", "--fuzz", "200"]) == 0
    out = capsys.readouterr().out
    assert "200/200 traces conform" in out
    # negative control: swap the two reservation events and the very same
    # traces must stop replaying
    swapped = dict(DEFAULT_MAPPING)
    swapped["ok-sent"], swapped["job-accepted"] = (swapped["job-accepted"],
                                                   swapped["ok-sent"])
    monkeypatch.setattr(conformance, "DEFAULT_MAPPING", swapped)
    control = fuzz_conformance(200)
    assert control.failed >= 1
    assert all(rep.index is not None for _, _, rep in control.failures)
    report(capsys,
           f"7 trace conformance: PASS (200/200 fuzzed traces replay; "
           f"swapped event map rejected {control.failed}/200 with a "
           f"first-divergence index)")


def test_8_everything_is_deterministic(capsys):
    sc = parse_scenario("machines 3\n"
                        "job J1 demand 2 semantics wait\n"
                        "job J2 demand 2 semantics fail\n"
                        "failure-detector on\n"
                        "crash M2 at 4\n"
                        "seed 11\n")
    a = run(sc.params(), sc.config()).trace_text()
    b = run(sc.params(), sc.config()).trace_text()
    assert a.encode() == b.encode()

    params = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None)
    net = build_net(params)
    cnet = build_colored(params)
    g1 = explore(net)
    g2 = explore(net)
    assert g1.n_states == g2.n_states

    def verdicts(g):
        out = [check_reachable(
            g, lambda mk: mk.get(jname("job_done", "J1"), 0) >= 1)]
        for m in params.machines():
            w = machine_places(cnet, m, (PAIR,))
            out.append(check_invariant(
                g, lambda mk, w=w: sum(mk.get(p, 0) for p in w) <= 1))
        return out

    assert verdicts(g1) == verdicts(g2)
    d1 = [(g1.marking(i), tuple(g1.state(i).clocks))
          for i in find_deadlocks(g1)]
    d2 = [(g2.marking(i), tuple(g2.state(i).clocks))
          for i in find_deadlocks(g2)]
    assert d1 == d2
    report(capsys,
           "8 determinism: PASS (byte-identical traces for a fixed seed; "
           "two explorations return the same verdicts)")
