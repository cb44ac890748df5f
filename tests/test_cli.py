"""Command-line behavior: reports, exit statuses, artifact files."""

import hashlib
import os
import re
import subprocess
import sys

import pytest

from net_checks import mutant, naive_enabled, naive_fire_marking
import qurdlab
from qurdlab import analysis, cli, simulator
from qurdlab.analysis import explore_markings, replay_labels
from qurdlab.catalog import CatalogParams, build_colored, build_net
from qurdlab.cli import main
from qurdlab.colored import Inscription, fold_refusal
from qurdlab.dot import net_dot, reach_dot
from qurdlab.scenario import parse_scenario
from qurdlab.simulator import TraceEvent
from qurdlab.tpn import Net

CONTENTION = """\
machines 3
job J1 demand 3 semantics wait
job J2 demand 2 semantics wait
timeout off
"""

VOLATILITY = """\
machines 2
job J1 demand 1 semantics wait
failure-detector on
crash M1 at 2
bus-latency 0
msg-latency 0
"""

# random_case(Random(148)): after M1 crashes, the wait job of demand 3 holds
# M2+M3, then M4, then M2+M3 again, every 10 ticks
LOCK = """\
machines 4
job J1 demand 3 semantics wait
failure-detector on
crash M1 at 3
msg-latency 2
job-duration 3
"""


@pytest.fixture
def contention_file(tmp_path):
    f = tmp_path / "contention.scn"
    f.write_text(CONTENTION)
    return f


@pytest.fixture
def volatility_file(tmp_path):
    f = tmp_path / "volatility.scn"
    f.write_text(VOLATILITY)
    return f


def run_cli(capsys, *argv):
    status = main([str(a) for a in argv])
    return status, capsys.readouterr().out


# -- analyze --------------------------------------------------------------------

def test_analyze_finds_contention_deadlock(capsys, contention_file):
    witness = contention_file.with_suffix(".witness")
    status, out = run_cli(capsys, "analyze", contention_file,
                          "--out", witness)
    assert status == 1
    # the fused graph has one dead orbit, the 2+1 standoff; the witness
    # line reads the lifted concrete dead marking
    assert "states explored: 50\n" \
           "symmetry: 3 machines folded into counters\n" \
           "deadlock: FOUND (1 dead states)\n" \
           "deadlock witness: J1 holds M2,M3 (needs 3); J2 holds M1 " \
           "(needs 2)\n" in out
    assert "mutex: holds" in out
    assert "machine-invariant: holds" in out
    assert witness.exists()


HELD_PLACE = re.compile(r"(?:reserved|running|finished)@\((\w+),(\w+)\)")


def test_analyze_witness_replays_to_dead_state(capsys, tmp_path):
    # contention with the timeout off, the volatility scenario, a fail job
    # whose witness holds no machine, and the benchmark's 4-machine case:
    # each witness replays on the plain net to the dead marking it
    # records, and its stdout line names the machines held there
    for text in (CONTENTION, VOLATILITY,
                 "machines 2\njob J1 demand 2 semantics fail\ntimeout 3\n",
                 "machines 4\njob J1 demand 2 semantics wait\n"
                 "job J2 demand 2 semantics fail\nzeroconf on\n"
                 "failure-detector on\n"):
        scenario, witness = tmp_path / "s.scn", tmp_path / "s.witness"
        scenario.write_text(text)
        status, out = run_cli(capsys, "analyze", scenario, "--property",
                              "deadlock", "--out", witness)
        assert status == 1, text
        labels, recorded = [], {}
        for line in witness.read_text().splitlines():
            if line.startswith("# "):
                p, n = line[2:].split("=")
                recorded[p] = int(n)
            elif line and not line.startswith("property:"):
                d, t = line.split(" ", 1)
                labels.append((int(d), t))
        state = replay_labels(build_net(parse_scenario(text).params()),
                              labels)
        assert recorded == state.marking, text
        assert not state.enabled, text
        named = set()
        line = re.search(r"^deadlock witness: (.*)$", out, re.M).group(1)
        if line != "no job holds a machine":
            for part in line.split("; "):
                j, ms = re.fullmatch(r"(\w+) holds ([\w,]+) \(needs \d+\)",
                                     part).groups()
                named |= {(m, j) for m in ms.split(",")}
        held = {pair.groups() for p in state.marking
                if (pair := HELD_PLACE.fullmatch(p))}
        assert named == held, text


def test_python_dash_m_runs_the_cli(capsys, contention_file):
    src = os.path.dirname(os.path.dirname(qurdlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "qurdlab", "analyze",
                           str(contention_file)], env=env,
                          capture_output=True, text=True, timeout=60)
    status, out = run_cli(capsys, "analyze", contention_file)
    assert (done.returncode, done.stdout) == (status, out)
    assert status == 1


# the scenario's lookups span BFS levels, the branch of analysis._gather
# that reads the level blocks one by one
SPANNING_LEVELS = """\
import sys
import numpy as np
from qurdlab import analysis, cli
spans = []
gather = analysis._gather
def spy(blocks, starts, ids):
    spans.append(len(set(np.searchsorted(starts, ids, side="right"))) > 1)
    return gather(blocks, starts, ids)
analysis._gather = spy
status = cli.main(["analyze", sys.argv[1]])
print(status, any(spans), "numpy.ma" in sys.modules)
"""


def test_analyze_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use (numpy 2.4): 7-11 ms and
    # about 1.7 MB in a fresh process that never reads a masked array
    f = tmp_path / "s.scn"
    f.write_text(dict(PINNED_ANALYZE)["4m-2w-2f-zc-fd"])
    src = os.path.dirname(os.path.dirname(qurdlab.__file__))
    done = subprocess.run([sys.executable, "-c", SPANNING_LEVELS, str(f)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "1 True False", done.stderr


def test_analyze_timeout_clears_deadlock(capsys, tmp_path):
    f = tmp_path / "t.scn"
    f.write_text(CONTENTION.replace("timeout off", "timeout 3"))
    status, out = run_cli(capsys, "analyze", f)
    assert status == 0
    assert "deadlock: none" in out


def test_analyze_selected_property_only(capsys, contention_file):
    status, out = run_cli(capsys, "analyze", contention_file,
                          "--property", "mutex")
    assert status == 0
    assert "mutex: holds" in out
    assert "deadlock" not in out


def test_analyze_checks_fold_refusal_once(capsys, contention_file,
                                          monkeypatch):
    # one guard per run, whichever properties are asked
    calls = []

    def counted(cnet):
        calls.append(cnet)
        return fold_refusal(cnet)

    monkeypatch.setattr(cli, "fold_refusal", counted)
    witness = contention_file.with_suffix(".witness")
    for asked in ([], ["deadlock"], ["mutex"], ["machine-invariant"],
                  ["job-done-reachable"], ["deadlock", "mutex"]):
        calls.clear()
        argv = [arg for prop in asked for arg in ("--property", prop)]
        _, out = run_cli(capsys, "analyze", contention_file, *argv,
                         "--out", witness)
        assert len(calls) == 1, asked
        assert "symmetry: 3 machines folded into counters\n" in out


def test_unproved_machines_are_refused_with_a_reason():
    # each mutant loses, mints or misplaces a machine token, or breaks the
    # net's sorts; none is folded, and the reason says which fault it is
    params = CatalogParams(machine_count=3, job_demands=[1], timeout=None)

    def refusal(change):
        return fold_refusal(mutant(build_colored(params), change))

    unbalanced = "a transition creates or destroys a machine token"
    asymmetric = "initial marking not machine-symmetric"
    invalid = "colored net does not validate"
    assert refusal(lambda c: None) is None
    assert refusal(lambda c: c.post["t1"].pop("reserved")) == unbalanced
    assert refusal(lambda c: c.post["t3"].update(
        available=Inscription("m"))) == unbalanced
    assert refusal(lambda c: c.initial.update(
        available=("M1", "M2", "M3", "M3"))) == asymmetric
    assert refusal(lambda c: c.initial.update(
        available=("M1", "M3"))) == asymmetric
    # symmetric, but two tokens a machine
    assert refusal(lambda c: c.initial.update(
        available=("M1", "M1", "M2", "M2", "M3", "M3"))) == \
        "a machine does not start with exactly one token"
    # balanced, but a machine pattern on a pair place
    assert refusal(lambda c: c.pre["t3"].update(
        running=Inscription("m"))) == invalid
    # a pattern the colored layer does not know
    assert refusal(lambda c: c.pre["t3"].update(
        running=Inscription("jm"))) == invalid


def test_analyze_repeated_property_reported_once(capsys, contention_file):
    witness = contention_file.with_suffix(".witness")
    status, out = run_cli(capsys, "analyze", contention_file, "--property",
                          "deadlock", "--property", "deadlock",
                          "--out", witness)
    assert status == 1
    assert out.count("deadlock: FOUND") == 1
    assert witness.read_text().count("property: deadlock") == 1


def test_parser_is_built_once_and_runs_stay_apart(capsys, contention_file,
                                                  monkeypatch):
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        runs = [run_cli(capsys, "analyze", contention_file,
                        "--property", "mutex", "--property", "deadlock"),
                run_cli(capsys, "analyze", contention_file,
                        "--property", "job-done-reachable")]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    # each run reports its own --property list and no other's
    reported = [[line.split(":")[0] for line in out.splitlines()
                 if line.split(":")[0] in cli.PROPERTIES] for _, out in runs]
    assert reported == [["mutex", "deadlock"], ["job-done-reachable"]]
    assert [status for status, _ in runs] == [1, 0]


@pytest.mark.parametrize("machines, demands, timeout, states", [
    (7, [3, 2, 2], "3", 441),       # the full graph passes 2 M markings
    (12, [3, 3, 3], "off", 729),
    (16, [4, 4, 4, 4], "3", 14641),  # unfused, the folded graph passes 2 M
])
def test_analyze_folds_large_clusters(capsys, tmp_path, machines, demands,
                                      timeout, states):
    f = tmp_path / "cluster.scn"
    f.write_text("machines %d\n%stimeout %s\n" % (machines, "".join(
        "job J%d demand %d semantics wait\n" % (i + 1, d)
        for i, d in enumerate(demands)), timeout))
    status, out = run_cli(capsys, "analyze", f)
    assert status == 0
    assert "states explored: %d\n" \
           "symmetry: %d machines folded into counters\n" \
           "deadlock: none\nmutex: holds\nmachine-invariant: holds\n" \
           "job-done-reachable: holds\n" % (states, machines) in out


def assert_refused(status, out, reason, witness):
    # a refused fold is answered like a truncated graph: exit 2, the
    # reason after the command and scenario lines, and no verdict or witness
    assert status == 2
    assert out.splitlines()[2:] == ["symmetry: off (%s)" % reason, "exit: 2"]
    assert not witness.exists()


def spare_reservation(params):
    # a spare (M1,J2) reservation sets M1 apart from the other machines
    cnet = build_colored(params)
    cnet.initial["reserved"] = (("M1", "J2"),)
    return cnet


def test_asymmetric_initial_marking_is_not_folded(tmp_path, capsys,
                                                  monkeypatch, contention_file):
    monkeypatch.setattr(cli, "build_colored", spare_reservation)
    witness = tmp_path / "w.witness"
    status, out = run_cli(capsys, "analyze", contention_file, "--property",
                          "deadlock", "--out", witness)
    assert_refused(status, out, "initial marking not machine-symmetric",
                   witness)


def test_unproved_machines_are_not_folded(tmp_path, capsys, monkeypatch):
    # t3 also returns its machine to available, which no property list
    # gets past, deadlock alone included
    def minting(params):
        return mutant(build_colored(params), lambda c: c.post["t3"].update(
            available=Inscription("m")))

    monkeypatch.setattr(cli, "build_colored", minting)
    f = tmp_path / "mint.scn"
    f.write_text("machines 2\njob J1 demand 1 semantics wait\n"
                 "timeout off\n")
    witness = tmp_path / "mint.witness"
    for asked in (("--property", "mutex"),
                  ("--property", "machine-invariant"),
                  ("--property", "deadlock"), ()):
        assert_refused(*run_cli(capsys, "analyze", f, *asked, "--out",
                                witness),
                       "a transition creates or destroys a machine token",
                       witness)


def test_analyze_bound_exceeded(capsys, contention_file):
    status, out = run_cli(capsys, "analyze", contention_file, "--bound", "5")
    assert status == 2
    assert "truncated" in out


# (name, scenario text) of the analyze runs whose output is pinned: the
# README contention scenario with the timeout off and at 3, the other four
# shapes the benchmark's analyze sweep runs (its two contention shapes are
# the README scenario), and a fail job that gives up, Zeroconf off and on
PINNED_ANALYZE = (
    ("contention-off", CONTENTION),
    ("contention-t3", CONTENTION.replace("timeout off", "timeout 3")),
    ("6m-2-2-2-t3", "machines 6\n" + "".join(
        "job J%d demand 2 semantics wait\n" % i for i in (1, 2, 3))
     + "timeout 3\n"),
    ("6m-3-3-off", "machines 6\njob J1 demand 3 semantics wait\n"
                   "job J2 demand 3 semantics wait\ntimeout off\n"),
    ("4m-2w-2f-zc-fd", "machines 4\njob J1 demand 2 semantics wait\n"
                       "job J2 demand 2 semantics fail\nzeroconf on\n"
                       "failure-detector on\n"),
    ("crash-recovery", VOLATILITY),
    ("fail-gives-up", "machines 2\njob J1 demand 2 semantics fail\n"),
    ("fail-gives-up-zc", "machines 2\njob J1 demand 2 semantics fail\n"
                         "zeroconf on\n"),
)
# SHA-256 over each run's name, exit status, stdout and witness file, then
# the output of `export-dot machine`
ANALYZE_SHA256 = \
    "a0c7d2e5bf8beabd833860ded72e6e77316d69f7103774858081ec70b4f70765"


def test_analyze_output_pinned(capsys, tmp_path, monkeypatch):
    # relative paths, so that the report and witness lines name no tmp dir
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for name, text in PINNED_ANALYZE:
        (tmp_path / (name + ".scn")).write_text(text)
        status, out = run_cli(capsys, "analyze", name + ".scn")
        witness = tmp_path / (name + ".scn.witness")
        digest.update(b"%s %d\n%s" % (name.encode(), status, out.encode()))
        digest.update(witness.read_bytes() if witness.exists()
                      else b"no witness\n")
    status, out = run_cli(capsys, "export-dot", "machine")
    digest.update(b"export-dot machine %d\n%s" % (status, out.encode()))
    assert digest.hexdigest() == ANALYZE_SHA256


# -- simulate -------------------------------------------------------------------

def test_simulate_writes_trace(capsys, volatility_file, tmp_path):
    trace = tmp_path / "run.trace"
    status, out = run_cli(capsys, "simulate", volatility_file,
                          "--out", trace)
    assert status == 0
    assert "J1: completed" in out
    assert "cycle:" not in out
    sc = parse_scenario(VOLATILITY)
    assert trace.read_text() == simulator.run(sc.params(),
                                              sc.config()).trace_text()


def test_simulate_nonzero_on_incomplete(capsys, tmp_path):
    f = tmp_path / "starved.scn"
    f.write_text("machines 1\njob J1 demand 2 semantics fail\n")
    status, out = run_cli(capsys, "simulate", f, "--out",
                          tmp_path / "s.trace")
    assert status == 1
    assert "J1: failed" in out


def test_simulate_says_when_the_run_loops(capsys, tmp_path):
    f = tmp_path / "lock.scn"
    f.write_text(LOCK)
    trace = tmp_path / "lock.trace"
    status, out = run_cli(capsys, "simulate", f, "--out", trace)
    assert status == 1
    assert "J1: horizon\ncycle: every 10 ticks from t=18\ntrace: " in out
    assert trace.read_text().splitlines()[-1].startswith("t=1000 ")


# -- conformance ----------------------------------------------------------------

def test_conformance_single_scenario(capsys, volatility_file):
    status, out = run_cli(capsys, "conformance", volatility_file)
    assert status == 0
    assert "conformance: ok" in out


def test_conformance_counts_a_looping_trace_unbuilt(capsys, tmp_path,
                                                    monkeypatch):
    # the 10-tick lock: its trace length is counted from the simulated
    # period, whose copies up to the horizon are never built
    f = tmp_path / "lock.scn"
    f.write_text(LOCK)
    made = 0

    def counting(*fields):
        nonlocal made
        made += 1
        return TraceEvent(*fields)

    monkeypatch.setattr(simulator, "TraceEvent", counting)
    status, out = run_cli(capsys, "conformance", f)
    assert status == 0
    assert "trace events: 1802\nconformance: ok\n" in out
    assert made == 48


def test_conformance_fuzz(capsys):
    status, out = run_cli(capsys, "conformance", "--fuzz", "10")
    assert status == 0
    assert "10/10 traces conform" in out


# the README contention scenario with the timeout off and at 3, the
# benchmark's crash-recovery shape and the 10-tick lock
PINNED_RUNS = (
    ("contention-off", CONTENTION),
    ("contention-t3", CONTENTION.replace("timeout off", "timeout 3")),
    ("crash-recovery", VOLATILITY),
    ("lock", LOCK),
)
# SHA-256 over each run's `simulate` exit status, stdout and trace file,
# then its `conformance` exit status and stdout, then `conformance --fuzz 50`
RUNS_SHA256 = \
    "c5cf01fdd30d277a6cf400c7ee167a31fbd4bf281b3db137db47ee29a79a5383"


def test_simulate_and_conformance_output_pinned(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for name, text in PINNED_RUNS:
        (tmp_path / (name + ".scn")).write_text(text)
        status, out = run_cli(capsys, "simulate", name + ".scn")
        digest.update(b"simulate %s %d\n%s" % (name.encode(), status,
                                               out.encode()))
        digest.update((tmp_path / (name + ".scn.trace")).read_bytes())
        status, out = run_cli(capsys, "conformance", name + ".scn")
        digest.update(b"conformance %s %d\n%s" % (name.encode(), status,
                                                  out.encode()))
    status, out = run_cli(capsys, "conformance", "--fuzz", "50")
    digest.update(b"conformance --fuzz 50 %d\n%s" % (status, out.encode()))
    assert digest.hexdigest() == RUNS_SHA256


@pytest.mark.parametrize("argv, message", [
    (["conformance", "--fuzz", "-2"], "--fuzz: must be >= 1, got -2"),
    (["conformance", "--fuzz", "0"], "--fuzz: must be >= 1, got 0"),
    (["analyze", "any.scn", "--bound", "-5"], "--bound: must be >= 1, got -5"),
    (["export-dot", "machine", "--reach", "--bound", "0"],
     "--bound: must be >= 1, got 0"),
    (["analyze", "any.scn", "--bound", "many"],
     "--bound: invalid count value: 'many'"),
])
def test_counts_below_one_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# -- export-dot -----------------------------------------------------------------

def test_export_machine_nodes(capsys):
    status, out = run_cli(capsys, "export-dot", "machine")
    assert status == 0
    for node in ("available", "reserved", "running", "finished"):
        assert '"%s"' % node in out


def test_export_scenario_net_to_file(capsys, contention_file, tmp_path):
    out_file = tmp_path / "net.dot"
    status, _ = run_cli(capsys, "export-dot", contention_file,
                        "--out", out_file)
    assert status == 0
    text = out_file.read_text()
    assert text.startswith("digraph")
    assert "answered@J1" in text


def test_export_reach_graph_stable(capsys, contention_file):
    status, first = run_cli(capsys, "export-dot", contention_file, "--reach")
    status2, second = run_cli(capsys, "export-dot", contention_file,
                              "--reach")
    assert status == status2 == 0
    assert first == second


@pytest.mark.parametrize("bound", [(), ("--bound", 50)],
                         ids=["default-bound", "bound-above-limit"])
def test_export_reach_explores_at_most_the_limit(capsys, contention_file,
                                                  monkeypatch, bound):
    # a --bound above the limit is capped: the exploration stops at the
    # limit, and nothing larger is explored to be thrown away
    bounds = []

    def explore(net, bound):
        bounds.append(bound)
        return explore_markings(net, bound)

    monkeypatch.setattr(cli, "MAX_GRAPH_STATES", 10)
    monkeypatch.setattr(analysis, "explore_markings", explore)
    status, out = run_cli(capsys, "export-dot", contention_file, "--reach",
                          *bound)
    assert status == 2
    assert out.splitlines()[1:] == ["truncated: bound of 10 states exceeded",
                                    "exit: 2"]
    assert bounds == [10]


def test_token_overflow_exits_2(capsys, contention_file, monkeypatch):
    net = Net("generator")
    net.add_place("q", tokens=1)
    net.add_place("p", tokens=32_700)
    net.add_transition("gen", pre={"q": 1}, post={"q": 1, "p": 1})
    # the folded net analyze explores
    monkeypatch.setattr(cli, "unfold", lambda cnet: net)
    status = main(["analyze", str(contention_file)])
    captured = capsys.readouterr()
    assert status == 2
    assert "error: a token count exceeds 32767" in captured.err
    assert captured.out == ""


def test_huge_demand_needs_no_memory(capsys, tmp_path):
    # an arc weight is a count: a demand of 2**62 compiles without a list
    # of that many tokens, so conformance replays it and analyze refuses
    # the weight the marking matrix cannot hold
    f = tmp_path / "huge.scn"
    f.write_text("machines 2\njob J1 demand %d semantics wait\n" % 2**62)
    assert main(["conformance", str(f)]) == 0
    assert "conformance: ok\n" in capsys.readouterr().out
    assert main(["analyze", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        "error: a token count or arc weight exceeds 32767\n"
    assert captured.out == ""


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 475. MiB for an array"),
     "error: Unable to allocate 475. MiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_out_of_memory_exits_2(capsys, contention_file, monkeypatch, exc,
                               message):
    def exhausted(net, bound):
        raise exc

    monkeypatch.setattr(analysis, "explore_markings", exhausted)
    status = main(["analyze", str(contention_file)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == message
    assert captured.out == ""


def test_violated_invariants_reported(tmp_path, capsys, monkeypatch):
    # the spare (M1,J2) token puts M1 in two states at once and lets it
    # have two clients; no machine is scanned for a violation, so the run
    # refuses with the guard's reason
    monkeypatch.setattr(cli, "build_colored", spare_reservation)
    f = tmp_path / "pair.scn"
    f.write_text("machines 2\njob J1 demand 1 semantics wait\n"
                 "job J2 demand 1 semantics wait\ntimeout off\n")
    witness = tmp_path / "pair.witness"
    argv = ("analyze", f, "--property", "mutex", "--property",
            "machine-invariant", "--out", witness)
    assert_refused(*run_cli(capsys, *argv),
                   "initial marking not machine-symmetric", witness)


def test_scenario_error_is_reported(tmp_path, capsys):
    f = tmp_path / "bad.scn"
    f.write_text("machines 0\n")
    status = main(["analyze", str(f)])
    captured = capsys.readouterr()
    assert status == 2
    assert "machines must be >= 1" in captured.err


@pytest.mark.parametrize("command", ["analyze", "simulate", "conformance",
                                     "export-dot"])
def test_non_utf8_scenario_is_reported(tmp_path, capsys, command):
    # exit 1 from analyze means a property fails, so a decoding crash must
    # not end with it
    f = tmp_path / "latin1.scn"
    f.write_bytes(CONTENTION.encode() + "# caf\xe9\n".encode("latin-1"))
    status = main([command, str(f)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: %s: not UTF-8 text (byte %d)\n" % (
        f, len(CONTENTION) + 5)
    assert captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "conformance"])
def test_run_config_error_is_reported(tmp_path, capsys, command):
    # the simulator needs a duration of at least one tick; the scenario
    # parser must refuse 0 too, instead of the run raising mid-command
    f = tmp_path / "instant.scn"
    f.write_text("machines 1\njob J1 demand 1 semantics wait\n"
                 "job-duration 0\n")
    status = main([command, str(f)])
    captured = capsys.readouterr()
    assert status == 2
    assert re.match(r"error: .*job duration must be >= 1", captured.err)
    assert captured.out == ""


# -- dot internals ----------------------------------------------------------------

def test_reach_dot_edges_fire():
    """Each edge s_i -t-> s_j fires t from marking i into marking j, and
    every enabled transition of every state has its edge, by the firing
    rule read from the net's pre and post sets, not the calls reach_dot
    makes."""
    edge = re.compile(r'^  s(\d+) -> s(\d+) \[label="(.*)"\];$')
    for timeout, count in ((None, 1849), (3, 2089)):
        net = build_net(CatalogParams(
            machine_count=3, job_demands=[3, 2], timeout=timeout))
        g = explore_markings(net)
        edges = [edge.match(line).groups()
                 for line in reach_dot(g).splitlines() if " -> " in line]
        assert len(edges) == count
        assert count == sum(len(naive_enabled(net, g.marking(i)))
                            for i in range(g.n_states))
        for i, j, t in edges:
            assert t in naive_enabled(net, g.marking(int(i)))
            assert naive_fire_marking(net, g.marking(int(i)), t) == \
                g.marking(int(j))


def test_net_dot_marks_interval():
    net = build_net(parse_scenario(
        "machines 1\njob J1 demand 1 semantics wait\ntimeout 3\n").params())
    text = net_dot(net)
    assert "[3,inf]" in text
