"""Scenario grammar: parsing, defaults, errors, and render round-trip."""

import re
import string
import textwrap
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qurdlab import scenario
from qurdlab.catalog import CatalogParams
from qurdlab.cli import main
from qurdlab.scenario import Scenario, ScenarioError, parse_scenario
from qurdlab.simulator import SimConfig

CONTENTION = """\
machines 3
job J1 demand 3 semantics wait
job J2 demand 2 semantics wait
timeout off
"""


def test_contention_scenario_parses():
    sc = parse_scenario(CONTENTION)
    p = sc.params()
    assert p.machine_count == 3
    assert (p.job_ids, p.job_demands, p.semantics) == \
        (["J1", "J2"], [3, 2], ["wait", "wait"])
    assert p.timeout is None
    assert sc.config().timeout is None


def test_defaults():
    sc = parse_scenario("machines 1\njob J1 demand 1 semantics wait\n")
    p, cfg = sc.params(), sc.config()
    assert p.timeout == cfg.timeout == 3
    assert cfg.bus_latency == 1 and cfg.msg_latency == 1
    assert cfg.job_duration == 2
    assert cfg.seed == 0
    assert not p.zeroconf and not p.failure_detector
    assert cfg.crashes == []


def test_comments_and_blanks_ignored():
    sc = parse_scenario("# header\n\nmachines 2   # trailing\n"
                        "job J1 demand 1 semantics fail\n")
    assert sc.params().machine_count == 2
    assert sc.params().semantics == ["fail"]


def test_all_directives():
    sc = parse_scenario(
        "machines 2\njob J1 demand 1 semantics wait\n"
        "timeout 5\nzeroconf on\nfailure-detector on\n"
        "crash M2 at 4\nbus-latency 0\nmsg-latency 2\n"
        "job-duration 1\nseed 42\n")
    p, cfg = sc.params(), sc.config()
    assert p.timeout == cfg.timeout == 5
    assert p.zeroconf and p.failure_detector
    assert cfg.crashes == [("M2", 4)]
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
    # the timeout reader accepts off as well as an integer, and says so
    with pytest.raises(ScenarioError, match=re.escape(
            "line 3: timeout expects an integer or off, got 'OFF'")):
        parse_scenario("machines 2\njob J1 demand 1 semantics wait\n"
                       "timeout OFF\n")


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
    assert len(sc.params().jobs()) == len(sc.config().crashes) == 2
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
    demands = [draw(st.integers(1, 5)) for _ in names]
    semantics = [draw(st.sampled_from(("fail", "wait"))) for _ in names]
    crashes = draw(st.lists(st.tuples(st.sampled_from(sorted(taken)),
                                      st.integers(0, 50)), max_size=3))
    timeout = draw(st.none() | st.integers(1, 10))
    return Scenario(
        CatalogParams(machine_count=machines, job_demands=demands,
                      semantics=semantics, timeout=timeout,
                      zeroconf=draw(st.booleans()),
                      failure_detector=draw(st.booleans()), job_ids=names),
        SimConfig(bus_latency=draw(st.integers(0, 3)),
                  msg_latency=draw(st.integers(0, 3)), timeout=timeout,
                  job_duration=draw(st.integers(1, 4)), crashes=crashes,
                  seed=draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=200, deadline=None)
@given(sc=scenarios())
def test_render_parse_round_trip(sc):
    assert parse_scenario(sc.render()) == sc


def test_documented_grammar_round_trips():
    # the module docstring's example is in the order render writes, so the
    # directive table and the documented grammar cannot drift apart
    example = textwrap.dedent(
        scenario.__doc__.split("::\n\n", 1)[1])
    assert example.startswith("machines 3\n")
    assert parse_scenario(example).render() == example


def test_every_run_setting_is_a_scenario_directive():
    # a setting no scenario can give has no command behind it: the
    # records hold what the directives, job and crash lines write, and the
    # run its horizon besides
    written = {"model": set(), "run": set()}
    for _, records, name, _ in scenario.DIRECTIVES:
        for record in records:
            written[record].add(name)
    assert {f.name for f in fields(SimConfig)} - {"horizon"} == \
        written["run"] | {"crashes"}
    assert {f.name for f in fields(CatalogParams)} == \
        written["model"] | {"job_demands", "job_ids", "semantics"}


def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch):
    # the README's contention scenario, once plain and once as written by an
    # editor that starts UTF-8 files with a byte-order mark: analyze prints
    # the same report, scenario digest included
    monkeypatch.chdir(tmp_path)
    text = ("machines 3\njob J1 demand 3 semantics wait\n"
            "job J2 demand 2 semantics wait\n"
            "timeout off          # reservations never expire\n")
    results = []
    for name, data in (("plain.scn", text.encode()),
                       ("bom.scn", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).write_bytes(data)
        status = main(["analyze", name])
        out = capsys.readouterr()
        assert out.err == ""
        results.append((status, out.out.replace(name, "<file>")))
    assert results[0] == results[1]
    assert results[0][0] == 1 and "scenario: " in results[0][1]
    # a byte that is not UTF-8 is still reported at its offset in the file
    (tmp_path / "bad.scn").write_bytes(b"\xef\xbb\xbf" + text.encode()
                                       + "# caf\xe9\n".encode("latin-1"))
    assert main(["analyze", "bad.scn"]) == 2
    assert capsys.readouterr().err == \
        "error: bad.scn: not UTF-8 text (byte %d)\n" % (3 + len(text) + 5)
