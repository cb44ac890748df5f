"""Trace-to-net replay: projection, divergences, and the fuzz harness."""

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace
from hashlib import sha256

import pytest

from qurdlab import colored as cpn
from qurdlab import conformance
from qurdlab.catalog import DEFAULT_TIMEOUT, CatalogParams, build_colored
from qurdlab.colored import Binding, colored_fire
from qurdlab.conformance import (DEFAULT_INTERNAL, DEFAULT_MAPPING,
                                 FuzzSummary, ReplayReport, UnknownEvent,
                                 check_run, conformance_net,
                                 fuzz_conformance, project, random_case,
                                 replay)
from qurdlab.simulator import SimConfig, SimResult, TraceEvent, run
from qurdlab.tpn import NotFireable


def volatility_case():
    p = CatalogParams(machine_count=2, job_demands=[1],
                      failure_detector=True)
    return p, SimConfig(crashes=[("M1", 5)])


# -- projection ------------------------------------------------------------------

def test_project_drops_internal_keeps_order():
    r = run(CatalogParams(machine_count=1, job_demands=[1]))
    projected = project(r.trace)
    assert [t for t, _ in projected] == \
        ["start_job", "t1", "launch", "t2", "t3", "t4", "t5"]
    assert projected[1] == ("t1", Binding("M1", "J1"))


def test_project_rejects_unknown_event():
    trace = [TraceEvent(0, "J1", "teleported", job="J1")]
    with pytest.raises(UnknownEvent):
        project(trace)


# -- replay ----------------------------------------------------------------------

def test_happy_trace_replays():
    p = CatalogParams(machine_count=4, job_demands=[4])
    result, report = check_run(p, SimConfig())
    assert report.ok
    assert report.final_marking["job_done"] == ("J1",)


def test_crash_recovery_trace_replays():
    p, c = volatility_case()
    result, report = check_run(p, c)
    assert report.ok
    kinds = [e.kind for e in result.trace]
    assert "crashed" in kinds and "restarted" in kinds


def test_divergence_reported_not_raised():
    p = CatalogParams(machine_count=1, job_demands=[1])
    cnet = conformance_net(p)
    bogus = [("t2", Binding("M1", "J1"))]
    report = replay(bogus, cnet)
    assert not report.ok
    assert report.index == 0
    assert "t2" in str(report)


def test_fail_release_maps_to_cancel_even_without_timeout():
    p = CatalogParams(machine_count=1, job_demands=[2], semantics="fail",
                      timeout=None)
    result, report = check_run(p, SimConfig(timeout=None))
    assert any(e.kind == "canceled" for e in result.trace)
    assert report.ok


def test_mixed_semantics_fail_cancel_gives_up_the_request():
    # J2 has fail semantics: once its reservation on M1 is canceled it may
    # not ask M2, even though J1 (wait) would
    p = CatalogParams(machine_count=2, job_demands=[1, 1],
                      semantics=["wait", "fail"], timeout=3)
    steps = [("start_job", Binding(None, "J2")), ("t1", Binding("M1", "J2")),
             ("cancel", Binding("M1", "J2")), ("t1", Binding("M2", "J2"))]
    report = replay(steps, conformance_net(p))
    assert not report.ok
    assert report.index == 3


def reference_replay(projected, cnet):
    """``replay``'s report and final marking, as a fold of
    ``colored_fire`` over the steps, each step copying the
    dict-of-sorted-tuples marking."""
    marking = cnet.initial_marking()
    for i, (t, b) in enumerate(projected):
        if t not in cnet.pre:
            return ReplayReport(False, i, (t, b), "not in the net"), marking
        try:
            marking = colored_fire(cnet, marking, t, b)
        except NotFireable:
            return ReplayReport(False, i, (t, b), "not enabled"), marking
    return ReplayReport(True), marking


def mutated_projections(k, steps, machines):
    """The fuzz case's steps with one step dropped, one duplicated, and
    one binding's machine swapped for another."""
    rng = random.Random(k)
    i = rng.randrange(len(steps))
    yield steps[:i] + steps[i + 1:]
    yield steps[:i + 1] + steps[i:]
    bound = [n for n, (_, b) in enumerate(steps) if b.m is not None]
    if bound:
        n = rng.choice(bound)
        t, b = steps[n]
        other = rng.choice([m for m in machines + ["M9"] if m != b.m])
        yield steps[:n] + [(t, b._replace(m=other))] + steps[n + 1:]


def test_replay_matches_colored_fire_fold():
    reasons = Counter()
    for k in range(300):
        params, config = random_case(random.Random(k))
        cnet = conformance_net(params, config.crashes)
        steps = project(run(params, config).trace)
        for projected in [steps, *mutated_projections(k, steps,
                                                      params.machines())]:
            report = replay(projected, cnet)
            assert (report, report.final_marking) == \
                reference_replay(projected, cnet), k
            reasons[report.reason] += 1
    # a transition the net lacks, and t1 with its machine available but no
    # get_nodes token, so one of its two inputs is missing
    cnet = conformance_net(CatalogParams(machine_count=2, job_demands=[1]))
    for projected in ([("start_job", Binding(None, "J1")),
                       ("teleport", Binding("M1", "J1"))],
                      [("t1", Binding("M1", "J1"))]):
        report = replay(projected, cnet)
        assert (report, report.final_marking) == \
            reference_replay(projected, cnet)
        reasons[report.reason] += 1
    assert reasons == {None: 354, "not enabled": 829, "not in the net": 1}


def test_replay_follows_the_nets_arcs():
    # replay fires each step as the net's ``arcs`` says: patched so that
    # t1 also takes a job_done token, no t1 is enabled; another net of the
    # same structure keeps the shared arcs
    p = CatalogParams(machine_count=1, job_demands=[1])
    steps = project(run(p).trace)
    cnet = conformance_net(p)
    assert replay(steps, cnet).ok
    arcs = cnet.arcs

    def patched(t, binding):
        consumed, produced = arcs(t, binding)
        if t == "t1":
            consumed += ((("job_done", binding.j), 1),)
        return consumed, produced

    cnet.arcs = patched
    report = replay(steps, cnet)
    assert (report.index, report.label, report.reason) == (
        1, ("t1", Binding("M1", "J1")), "not enabled")
    assert replay(steps, conformance_net(p)).ok


def test_clean_report_builds_its_final_marking_when_read(monkeypatch):
    # a clean replay keeps its flat token counts, not the net, and builds
    # the colored marking once, on the first read; check_run counts the
    # job_done tokens without building it
    built = Counter()
    build = ReplayReport.final_marking.func

    def counting(report):
        built["markings"] += 1
        return build(report)

    monkeypatch.setattr(ReplayReport.final_marking, "func", counting)
    for k in range(100):
        _, report = check_run(*random_case(random.Random(k)))
        assert report.ok, k
    assert built["markings"] == 0
    p = CatalogParams(machine_count=64, job_demands=[4] * 16)
    cnet = conformance_net(p)
    steps = project(run(p, SimConfig()).trace)
    expected = reference_replay(steps, cnet)
    report = replay(steps, cnet)
    ref = weakref.ref(cnet)
    del cnet
    gc.collect()
    assert ref() is None and report.tokens("job_done") == 16
    assert built["markings"] == 0
    assert report.final_marking is report.final_marking
    assert built["markings"] == 1 and report.tokens("job_done") == 16
    assert (report, report.final_marking) == expected
    assert len(report.final_marking["job_done"]) == 16


def job_done_internal(monkeypatch):
    """Map no event to t5: job-done becomes an internal event."""
    mapping = dict(DEFAULT_MAPPING)
    del mapping["job-done"]
    monkeypatch.setattr(conformance, "DEFAULT_MAPPING", mapping)
    monkeypatch.setattr(conformance, "DEFAULT_INTERNAL",
                        DEFAULT_INTERNAL | {"job-done"})


def full_check(result, cnet):
    """``check_run``'s report and its final marking, from the whole
    trace."""
    steps = project(result.trace)
    report = replay(steps, cnet)
    done_events = sum(e.kind == "job-done" for e in result.trace)
    done_tokens = len(report.final_marking["job_done"])
    if report.ok and done_tokens != done_events:
        report = replace(
            report, ok=False, index=len(steps),
            reason=f"{done_tokens} job_done tokens for {done_events} "
                   "job-done events")
    return report, report.final_marking


def test_looping_runs_replay_one_period():
    # looping or not, every run is replayed by the one path of check_run;
    # and the event map names no kind the simulator never emits, so none
    # of its entries goes unchecked
    looping = 0
    kinds = set()
    for k in range(1000):
        params, config = random_case(random.Random(k))
        result, report = check_run(params, config)
        looping += result.cycle is not None
        kinds.update(e.kind for e in result.events)
        cnet = conformance_net(params, config.crashes)
        assert (report, report.final_marking) == full_check(result, cnet), k
    assert looping == 74
    assert set(DEFAULT_MAPPING) | DEFAULT_INTERNAL <= kinds


@pytest.mark.parametrize("machines, n_events, cycle, index", [
    ("M1 M1 M1", 2, (1, 2), 2), ("M1 M1 M1", 3, (2, 2), 2),
    ("M1 M2 M1", 3, (1, 4), 3)],
    ids=["second-period", "first-period", "cut-period"])
def test_period_that_moves_the_marking_is_replayed_in_full(
        monkeypatch, machines, n_events, cycle, index):
    # a made-up loop whose period takes machines without giving them back:
    # a period that fires but moves the marking is replayed in full, one
    # that diverges reports where, and both as the full replay does
    p = CatalogParams(machine_count=2, job_demands=[2])
    trace = [TraceEvent(0, "J1", "job-submitted", job="J1")] + [
        TraceEvent(t, m, "ok-sent", m, "J1")
        for t, m in zip((2, 4, 6), machines.split())]
    looping = SimResult({"J1": "horizon"}, trace[:n_events], cycle,
                        horizon=6)
    assert looping.trace == trace
    monkeypatch.setattr(conformance, "run", lambda params, config: looping)
    _, report = check_run(p, SimConfig())
    assert (report.index, report.reason) == (index, "not enabled")
    assert (report, report.final_marking) == \
        full_check(looping, conformance_net(p))


def test_loop_through_a_job_the_net_lacks_diverges(monkeypatch):
    # a made-up loop whose block submits a job outside the universe: its
    # first period diverges there, as the full replay does
    p = CatalogParams(machine_count=1, job_demands=[1])
    trace = [TraceEvent(0, "J1", "job-submitted", job="J1")] + [
        TraceEvent(t, "J9", "job-submitted", job="J9") for t in (2, 4, 6)]
    looping = SimResult({"J1": "horizon"}, trace[:2], (1, 2), horizon=6)
    assert looping.trace == trace
    monkeypatch.setattr(conformance, "run", lambda params, config: looping)
    _, report = check_run(p, SimConfig())
    assert (report.index, report.reason) == (1, "job J9 not in the net")
    assert (report, report.final_marking) == \
        full_check(looping, conformance_net(p))


@pytest.mark.parametrize("horizon, cut", [(8, 0), (9, 2)])
def test_job_done_counted_in_every_period(monkeypatch, horizon, cut):
    # a made-up loop whose period reserves M1, reports J1 done and cancels:
    # with job-done internal the period brings the marking back, and the
    # done count and the step index run over every period up to the
    # horizon, the one it cuts included
    p = CatalogParams(machine_count=1, job_demands=[1], timeout=3)
    trace = [TraceEvent(0, "J1", "job-submitted", job="J1")]
    for shift in range(0, horizon - 2, 2):
        trace += [TraceEvent(3 + shift, "M1", "ok-sent", "M1", "J1"),
                  TraceEvent(3 + shift, "J1", "job-done", job="J1"),
                  TraceEvent(4 + shift, "M1", "canceled", "M1", "J1")]
    trace = [e for e in trace if e.time <= horizon]
    looping = SimResult({"J1": "horizon"}, trace[:4], (1, 2), horizon)
    assert looping.layout() == (trace[:1], trace[1:4], 3, trace[1:1 + cut])
    assert looping.trace == trace
    job_done_internal(monkeypatch)
    monkeypatch.setattr(conformance, "run", lambda params, config: looping)
    _, report = check_run(p, SimConfig(timeout=3))
    n_done = 3 + cut // 2
    assert (report.index, report.reason) == (
        1 + 2 * 3 + cut // 2, f"0 job_done tokens for {n_done} job-done events")
    assert (report, report.final_marking) == \
        full_check(looping, conformance_net(p))


def test_conformance_net_grows_detector_for_crashes():
    p = CatalogParams(machine_count=2, job_demands=[1])
    assert "crash" not in conformance_net(p).transitions
    assert "crash" in conformance_net(p, crashes=[("M1", 2)]).transitions


def test_conformance_net_widens_only_what_the_run_needs():
    # a fail job with the timeout off gives machines back through cancel,
    # and crashes need the detector; nothing else widens the model's net
    fail = CatalogParams(machine_count=2, job_demands=[1], semantics="fail",
                         timeout=None)
    assert "cancel" not in build_colored(fail).transitions
    assert conformance_net(fail).interval["cancel"] == (DEFAULT_TIMEOUT, None)
    for p in (CatalogParams(machine_count=2, job_demands=[1], timeout=None),
              replace(fail, timeout=2, failure_detector=True)):
        assert conformance_net(p, [("M1", 0)]).firings is \
            build_colored(replace(p, failure_detector=True)).firings


def timeout_off_net_replays_timed_run():
    """Replay a run with timeout 3 on the net of the same model with the
    timeout off: that net has no cancel, while the run cancels
    reservations."""
    p = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None)
    trace = run(replace(p, timeout=3), SimConfig(seed=1)).trace
    return p, replay(project(trace), conformance_net(p))


def test_transition_missing_from_net_diverges():
    p, report = timeout_off_net_replays_timed_run()
    assert not report.ok
    assert report.label[0] == "cancel"
    assert "cancel" not in conformance_net(p).transitions


def test_divergence_text_names_the_reason(monkeypatch):
    missing = timeout_off_net_replays_timed_run()[1]
    assert str(missing) == ("divergence at step 12: "
                            "cancel Binding(m=M3, j=J1) not in the net")
    blocked = replay([("t2", Binding("M1", "J1"))],
                     conformance_net(CatalogParams(machine_count=1,
                                                   job_demands=[1])))
    assert str(blocked) == ("divergence at step 0: "
                            "t2 Binding(m=M1, j=J1) not enabled")
    # job-done declared internal: the run completes but t5 never fires
    job_done_internal(monkeypatch)
    unmatched = check_run(CatalogParams(machine_count=1, job_demands=[1]),
                          SimConfig())[1]
    # the step after the last of start_job, t1, launch, t2, t3 and t4
    assert str(unmatched) == ("divergence at step 6: "
                              "0 job_done tokens for 1 job-done events")


def test_unknown_job_reported_not_raised():
    net = build_colored(CatalogParams(machine_count=2, job_demands=[1]))
    submitted = TraceEvent(0, "J9", "job-submitted", job="J9")
    report = replay(project([submitted]), net)
    assert not report.ok and report.index == 0
    assert str(report) == ("divergence at step 0: "
                           "start_job Binding(j=J9) job J9 not in the net")
    assert report.final_marking == net.initial_marking()


def test_firing_table_stays_within_the_bound():
    p = CatalogParams(machine_count=128, job_demands=[4] * 64,
                      failure_detector=True)
    config = SimConfig(crashes=[(f"M{i}", 5 * i % 60)
                                for i in range(7, 129, 7)], seed=5)
    result, report = check_run(p, config)
    assert report.ok
    # the run fires more distinct firings than its structure's table keeps
    table = conformance_net(p, config.crashes).firings
    assert len(set(project(result.events))) > cpn.FIRINGS == len(table)


# -- fuzz -------------------------------------------------------------------------

def test_fuzz_small_batch_conforms():
    summary = fuzz_conformance(30)
    assert summary.passed == 30
    assert summary.failed == 0
    assert str(summary) == "30/30 traces conform"


def test_fuzz_zero_cases():
    summary = fuzz_conformance(0)
    assert (summary.passed, summary.failed) == (0, 0)


def test_swapped_event_map_diverges(monkeypatch):
    # negative control: claiming OKs are job acceptances cannot replay;
    # every report's step, label, reason and blocking marking is pinned
    mapping = dict(DEFAULT_MAPPING)
    mapping["ok-sent"], mapping["job-accepted"] = \
        mapping["job-accepted"], mapping["ok-sent"]
    monkeypatch.setattr(conformance, "DEFAULT_MAPPING", mapping)
    summary = fuzz_conformance(200)
    assert (summary.passed, summary.failed) == (11, 189)
    seed, desc, report = summary.failures[0]
    assert report.index is not None
    assert "divergence at step" in str(report)
    markings = "".join(f"{r.final_marking!r}\n"
                       for _, _, r in summary.failures)
    assert [sha256(text.encode()).hexdigest()
            for text in (str(summary), markings)] == [
        "b8d318e20eaeece51dcca8f02ff9f4b837a2f1edacb2fcbcb097361698ea341f",
        "3d4e84d35137fed38f7d8f34260606a90887782ddf2cf41c4ab75cd6de40a95d"]
