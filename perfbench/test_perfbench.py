"""Checks of the benchmark itself, on small inputs.

The answer checks pass on the package as it is, on two seeds, and each
negative control (a corrupted witness line, the swapped ``ok-sent`` /
``job-accepted`` event map, a wrong expected verdict) drives the failed
ratio above 0.  Run from the repository root::

    python3 -m pytest perfbench
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

import run
from reference import REFERENCE_S, Reference
from tracing import Tracer
from workloads import (SMALL_ANALYZE, SMALL_TIMED, AnalyzeSweep,
                       ProtocolReplay, Tally, TimedVerdicts)


@pytest.fixture
def q():
    return run.import_qurdlab()


def small_replay(q, seed, workdir):
    return ProtocolReplay(q, seed, workdir, fuzz_count=200, machines=64,
                          jobs=16)


def failed_ratio(workload, large=False):
    tally = Tally()
    if large:
        workload.large(tally)
    workload.small(tally)
    assert tally.attempted >= 1
    return tally.failed_ratio


@pytest.mark.parametrize("seed", [1, 2])
def test_answers_pass_on_the_package(q, tmp_path, seed):
    assert failed_ratio(AnalyzeSweep(q, seed, str(tmp_path))) == 0
    assert failed_ratio(TimedVerdicts(q, seed, str(tmp_path))) == 0
    assert failed_ratio(small_replay(q, seed, str(tmp_path)), large=True) == 0


def drop_last_label(text):
    lines = text.splitlines(True)
    last = max(i for i, line in enumerate(lines)
               if line.strip() and not line.startswith(("#", "property:")))
    return "".join(lines[:last] + lines[last + 1:])


def rename_first_transition(text):
    return text.replace("start_job", "start_jbo", 1)


@pytest.mark.parametrize("corrupt", [drop_last_label, rename_first_transition])
def test_corrupted_witness_line_fails(q, tmp_path, monkeypatch, corrupt):
    original = q.cli._format_witness
    monkeypatch.setattr(q.cli, "_format_witness",
                        lambda *a: corrupt(original(*a)))
    assert failed_ratio(AnalyzeSweep(q, 1, str(tmp_path))) > 0


def test_swapped_event_map_fails(q, tmp_path, monkeypatch):
    swapped = dict(q.conformance.DEFAULT_MAPPING)
    swapped["ok-sent"], swapped["job-accepted"] = (swapped["job-accepted"],
                                                   swapped["ok-sent"])
    monkeypatch.setattr(q.conformance, "DEFAULT_MAPPING", swapped)
    assert failed_ratio(small_replay(q, 1, str(tmp_path)), large=True) > 0


def test_wrong_expected_verdict_fails(q, tmp_path):
    cured = SMALL_ANALYZE[1]
    assert not cured.deadlock
    wrong = [dataclasses.replace(cured, deadlock=True)]
    assert failed_ratio(AnalyzeSweep(q, 1, str(tmp_path), small=wrong)) > 0
    cured = SMALL_TIMED[1]
    assert not cured.pending
    wrong = [dataclasses.replace(cured, pending=True)]
    assert failed_ratio(TimedVerdicts(q, 1, str(tmp_path), small=wrong)) > 0


def test_tracer_counts_layers_and_restores(q, tmp_path):
    workload = TimedVerdicts(q, 1, str(tmp_path))
    explore = q.analysis.explore
    tracer = Tracer(q)
    tracer.install()
    try:
        assert q.analysis.explore is not explore
        workload.small(Tally())
    finally:
        tracer.uninstall()
    assert q.analysis.explore is explore
    layers = tracer.layer_metrics(rounds=1)
    assert layers["tpn.successors_calls"] > 0
    assert 0 < layers["analysis.timed_dedup_ratio"] <= 1
    assert layers["simulator.run_s"] == 0
    # self times never exceed the inclusive time of the layer
    assert all(tracer.self_time[k] <= tracer.total[k] + 1e-9
               for k in tracer.total)


def test_reference_scales_each_call_by_the_runs_around_it():
    reference = Reference()
    # reference runs of 0.1, 0.2 and 0.1 s; each call is scaled by the
    # mean of the run that ends before it and the run that starts after it
    reference.runs = [(0.0, 0.1), (1.0, 1.2), (5.0, 5.1)]
    speed = [(0.1 / REFERENCE_S + 0.2 / REFERENCE_S) / 2,
             (0.2 / REFERENCE_S + 0.1 / REFERENCE_S) / 2]
    scaled = reference.scaled([(0.2, 0.8), (1.5, 4.5)])
    assert scaled == pytest.approx(0.6 / speed[0] + 3.0 / speed[1])
    assert reference.scaled([]) == 0


def test_without_sources_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timed-verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
