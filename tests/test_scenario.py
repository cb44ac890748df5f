"""Scenario grammar: parsing, defaults, errors, and render round-trip."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qurdlab.scenario import (JobSpec, Scenario, ScenarioError,
                              parse_scenario)

CONTENTION = """\
machines 3
job J1 demand 3 semantics wait
job J2 demand 2 semantics wait
timeout off
"""


def test_contention_scenario_parses():
    sc = parse_scenario(CONTENTION)
    assert sc.machines == 3
    assert sc.jobs == [JobSpec("J1", 3, "wait"), JobSpec("J2", 2, "wait")]
    assert sc.timeout is None
    p = sc.params()
    assert p.job_demands == [3, 2]
    assert p.timeout is None


def test_defaults():
    sc = parse_scenario("machines 1\njob J1 demand 1 semantics wait\n")
    assert sc.timeout == 3
    assert sc.bus_latency == 1 and sc.msg_latency == 1
    assert sc.job_duration == 2
    assert sc.seed == 0
    assert not sc.zeroconf and not sc.failure_detector
    assert sc.crashes == []


def test_comments_and_blanks_ignored():
    sc = parse_scenario("# header\n\nmachines 2   # trailing\n"
                        "job J1 demand 1 semantics fail\n")
    assert sc.machines == 2
    assert sc.jobs[0].semantics == "fail"


def test_all_directives():
    sc = parse_scenario(
        "machines 2\njob J1 demand 1 semantics wait\n"
        "timeout 5\nzeroconf on\nfailure-detector on\n"
        "crash M2 at 4\nbus-latency 0\nmsg-latency 2\n"
        "job-duration 1\nseed 42\n")
    assert sc.timeout == 5
    assert sc.zeroconf and sc.failure_detector
    assert sc.crashes == [("M2", 4)]
    cfg = sc.config()
    assert (cfg.bus_latency, cfg.msg_latency) == (0, 2)
    assert cfg.job_duration == 1
    assert cfg.seed == 42


def test_errors_are_line_numbered():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("machines 2\nwibble on\n")
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario("machines two\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("machines 2\njob J1 demand 1\n")


def test_validation_errors():
    with pytest.raises(ScenarioError, match="machines must be >= 1"):
        parse_scenario("machines 0\njob J1 demand 1 semantics wait\n")
    with pytest.raises(ScenarioError, match="unknown machine M9"):
        parse_scenario("machines 4\njob J1 demand 1 semantics wait\n"
                       "crash M9 at 1\n")
    with pytest.raises(ScenarioError, match="at least one job"):
        parse_scenario("machines 2\n")
    with pytest.raises(ScenarioError, match="duplicate machines"):
        parse_scenario("machines 2\nmachines 2\n"
                       "job J1 demand 1 semantics wait\n")
    # every directive but job and crash is single-valued, even when the
    # two lines agree
    for first, second in (("timeout off", "timeout 3"),
                          ("zeroconf on", "zeroconf off"),
                          ("failure-detector on", "failure-detector on"),
                          ("bus-latency 1", "bus-latency 2"),
                          ("msg-latency 0", "msg-latency 1"),
                          ("job-duration 2", "job-duration 2"),
                          ("seed 1", "seed 2")):
        key = first.split()[0]
        with pytest.raises(ScenarioError,
                           match="line 4: duplicate %s directive" % key):
            parse_scenario("machines 2\njob J1 demand 1 semantics wait\n"
                           "%s\n%s\n" % (first, second))
    sc = parse_scenario("machines 2\njob J1 demand 1 semantics wait\n"
                        "job J2 demand 1 semantics wait\n"
                        "crash M1 at 1\ncrash M2 at 3\n")
    assert len(sc.jobs) == len(sc.crashes) == 2
    with pytest.raises(ScenarioError, match="missing machines"):
        parse_scenario("job J1 demand 1 semantics wait\n")
    with pytest.raises(ScenarioError, match="semantics"):
        parse_scenario("machines 1\njob J1 demand 1 semantics later\n")
    with pytest.raises(ScenarioError, match="collides"):
        parse_scenario("machines 1\njob M1 demand 1 semantics wait\n")
    with pytest.raises(ScenarioError, match="job duration must be >= 1"):
        parse_scenario("machines 1\njob J1 demand 1 semantics wait\n"
                       "job-duration 0\n")


@st.composite
def scenarios(draw):
    """Valid scenarios: drawn job ids that avoid the machine ids, crashes
    on existing machines, timeout on or off."""
    machines = draw(st.integers(1, 6))
    taken = {"M%d" % (i + 1) for i in range(machines)}
    names = draw(st.lists(
        st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                max_size=5).filter(lambda n: n not in taken),
        min_size=1, max_size=4, unique=True))
    jobs = [JobSpec(n, draw(st.integers(1, 5)),
                    draw(st.sampled_from(("fail", "wait")))) for n in names]
    crashes = draw(st.lists(st.tuples(st.sampled_from(sorted(taken)),
                                      st.integers(0, 50)), max_size=3))
    return Scenario(
        machines=machines, jobs=jobs,
        timeout=draw(st.none() | st.integers(1, 10)),
        zeroconf=draw(st.booleans()),
        failure_detector=draw(st.booleans()),
        crashes=crashes,
        bus_latency=draw(st.integers(0, 3)),
        msg_latency=draw(st.integers(0, 3)),
        job_duration=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(sc=scenarios())
def test_render_parse_round_trip(sc):
    assert parse_scenario(sc.render()) == sc
