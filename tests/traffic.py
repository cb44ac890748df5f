"""Which package statements no benchmark pass, demo or command runs.

Run from anywhere, with numpy importable::

    python tests/traffic.py

Under ``sys.settrace`` it runs, against the package in ``src/`` of this
checkout:

- one large and one small pass of each benchmark workload, seed 81, with
  protocol-replay on 1,000 fuzz cases and a 128-machine cluster;
- the five demos;
- a fixed list of CLI invocations, run as ``python -m qurdlab`` runs them,
  that covers every subcommand and every ``export-dot`` selector.

It then prints, per package module, the statements that none of them ran,
and the total.  A statement is one that ``ast`` finds, docstrings and
``global`` lines left out.  It ran when a line event fell on one of its
own lines: from its first line, decorators included, to the line before
its body, or to its last line if it has no body.  The file's name does not
start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import runpy
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qurdlab"
MODULES = ("tpn", "colored", "catalog", "analysis", "simulator",
           "conformance", "scenario", "cli")
SEED = 81

CONTENTION = ("machines 3\njob J1 demand 3 semantics wait\n"
              "job J2 demand 2 semantics wait\ntimeout off\n")
SCENARIOS = {
    "contention.scn": CONTENTION,
    "cured.scn": CONTENTION.replace("timeout off", "timeout 3"),
    "volatile.scn": ("machines 2\njob J1 demand 1 semantics wait\n"
                     "failure-detector on\ncrash M1 at 2\nbus-latency 0\n"
                     "msg-latency 0\n"),
    "fail.scn": ("machines 2\njob J1 demand 2 semantics fail\n"
                 "job J2 demand 1 semantics wait\nzeroconf on\n"
                 "timeout off\n"),
    "broken.scn": "machines 2\njob J1 demand 1 semantics maybe\n",
    "wide.scn": ("machines 5\njob J1 demand 3 semantics wait\n"     # 12,856
                 "job J2 demand 2 semantics wait\n"),              # markings
    # after M1 crashes the demand-3 job loops: the run ends in a cycle
    "lock.scn": ("machines 4\njob J1 demand 3 semantics wait\n"
                 "failure-detector on\ncrash M1 at 3\nmsg-latency 2\n"
                 "job-duration 3\n"),
}
# the scenario files they name are written to the work directory
COMMANDS = (
    ["analyze", "contention.scn", "--out", "contention.witness"],
    ["analyze", "contention.scn", "--property", "deadlock",
     "--property", "mutex"],
    ["analyze", "cured.scn"],
    ["analyze", "volatile.scn", "--out", "volatile.witness"],
    ["analyze", "fail.scn", "--property", "job-done-reachable"],
    ["analyze", "cured.scn", "--bound", "10"],
    ["analyze", "broken.scn"],
    ["simulate", "contention.scn", "--out", "contention.trace"],
    ["simulate", "volatile.scn"],
    ["simulate", "missing.scn"],
    ["simulate", "lock.scn"],
    ["conformance", "volatile.scn"],
    ["conformance", "lock.scn"],
    ["conformance", "--fuzz", "20"],
    ["conformance"],
    ["export-dot", "machine"],
    ["export-dot", "client", "--out", "client.dot"],
    ["export-dot", "two-clients", "--reach"],
    ["export-dot", "full"],
    ["export-dot", "full", "--reach"],
    ["export-dot", "contention.scn", "--reach", "--out", "reach.dot"],
    ["export-dot", "cured.scn", "--reach", "--bound", "10"],
    ["export-dot", "wide.scn", "--reach", "--bound", "20000"],
)


def statements(path):
    """{first line: the statement's own lines} for the module at path."""
    own = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue                # a docstring runs nothing
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        own[node.lineno] = range(first, max(last, node.lineno) + 1)
    return own


def traced(ran):
    """A global trace function that records, per package file, the lines
    of every package frame's line events."""
    prefix = str(PACKAGE) + os.sep

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = ran[name]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line
    return on_call


def quietly(call, *args):
    """call(*args) with its output and an argparse exit swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return call(*args)
        except SystemExit as stop:
            return stop.code


def drive(workdir):
    """Run everything the trace covers; returns the benchmark's tally."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    q = types.SimpleNamespace(**{
        m: importlib.import_module("qurdlab." + m) for m in MODULES})
    from workloads import WORKLOADS, Tally
    tally = Tally()
    for name, workload in sorted(WORKLOADS.items()):
        kwargs = ({"fuzz_count": 1000, "machines": 128, "jobs": 32}
                  if name == "protocol-replay" else {})
        bench = workload(q, SEED, workdir, **kwargs)
        bench.large(tally)
        bench.small(tally)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        quietly(runpy.run_path, str(demo), None, "__main__")
    for file, text in SCENARIOS.items():
        (Path(workdir) / file).write_text(text)
    cwd, argv0 = os.getcwd(), sys.argv
    os.chdir(workdir)
    try:
        for argv in COMMANDS:           # as ``python -m qurdlab`` runs them
            sys.argv = ["qurdlab"] + argv
            quietly(runpy.run_module, "qurdlab", None, "__main__")
    finally:
        os.chdir(cwd)
        sys.argv = argv0
    return tally


def main():
    ran = defaultdict(set)
    with tempfile.TemporaryDirectory() as workdir:
        sys.settrace(traced(ran))
        try:
            tally = drive(workdir)
        finally:
            sys.settrace(None)
    print("benchmark passes: %d of %d operations failed %s"
          % (tally.failed, tally.attempted, tally.problems))
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        own = statements(path)
        lines = ran[str(path)]
        missed = sorted(first for first, span in own.items()
                        if lines.isdisjoint(span))
        total += len(own)
        unrun += len(missed)
        print("%s: %d of %d statements unrun" % (path.name, len(missed),
                                                 len(own)))
        source = path.read_text().splitlines()
        for line in missed:
            print("  %4d  %s" % (line, source[line - 1].strip()[:70]))
    print("total: %d of %d statements unrun" % (unrun, total))


if __name__ == "__main__":
    main()
