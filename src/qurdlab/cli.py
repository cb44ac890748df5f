"""Command-line front end.

Four subcommands::

    qurdlab analyze <scenario> [--property P]... [--bound N] [--out FILE]
    qurdlab simulate <scenario> [--out FILE]
    qurdlab conformance (<scenario> | --fuzz N)
    qurdlab export-dot <selector> [--reach] [--bound N] [--out FILE]

``analyze`` explores the scenario's net with its machines folded into
counters (``colored.fold_machines``) and says so on its ``symmetry:``
line; ``states explored`` and the dead-state count count machine orbits.
Witness files always hold concrete paths of the full net.  Its one guard,
``colored.fold_refusal``, also proves ``mutex`` and ``machine-invariant``;
where it gives a reason, ``analyze`` prints ``symmetry: off (<reason>)``
and no verdict, whichever properties were asked.

Scenario files use the grammar in :mod:`qurdlab.scenario`.  Exit status is
0 exactly when every checked property holds (analyze), every job completes
(simulate), or every replayed trace conforms (conformance); it is 2 for
bad input and when ``analyze`` refuses a fold or passes its bound.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from collections import Counter
from dataclasses import dataclass, field

from . import analysis, conformance, dot
from .catalog import (CatalogParams, build_colored, build_machine, build_net,
                      jname)
from .colored import (PAIR, color_name, fold_machines, fold_refusal,
                      lift_machines, unfold)
from .scenario import Scenario, ScenarioError, parse_scenario
from .simulator import run as run_sim

MAX_GRAPH_STATES = 10_000    # the most markings export-dot --reach draws
PROPERTIES = ("deadlock", "mutex", "machine-invariant", "job-done-reachable")
# at most one job holds a machine, and each machine is in exactly one
# state: proved on the colored net (``colored.fold_refusal``)
MACHINE_PROPERTIES = frozenset(("mutex", "machine-invariant"))


@dataclass
class Report:
    command: str
    digest: str = ""
    lines: list = field(default_factory=list)
    witness_path: str = None
    exit_status: int = 0

    def add(self, line):
        self.lines.append(line)

    def render(self) -> str:
        out = ["command: %s" % self.command]
        if self.digest:
            out.append("scenario: %s" % self.digest)
        out.extend(self.lines)
        if self.witness_path:
            out.append("witness: %s" % self.witness_path)
        out.append("exit: %d" % self.exit_status)
        return "\n".join(out) + "\n"


def _load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            # a byte-order mark is not a directive; stripped after decoding,
            # so a decoding error still gives its offset in the file
            text = fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ScenarioError("%s: not UTF-8 text (byte %d)"
                                % (path, exc.start)) from None
    return parse_scenario(text)


def _digest(sc: Scenario) -> str:
    return hashlib.sha256(sc.render().encode()).hexdigest()[:12]


def _format_witness(labels, marking):
    """The labels, then the colored ``marking`` as ``# place=count`` lines
    under ``unfold``'s place names, sorted."""
    counts = Counter(color_name(p, tok)
                     for p, toks in marking.items() for tok in toks)
    lines = ["%d %s" % (d, t) for d, t in labels]
    lines.append("")
    lines.extend("# %s=%d" % (p, n) for p, n in sorted(counts.items()))
    return "\n".join(lines) + "\n"


def _machine_list(machines):
    return ",".join(map(str, machines))


def _holdings(cnet, marking):
    """Which machines each job holds in a colored marking of ``cnet``, as
    ``J1 holds M1,M2 (needs 3)`` joined by ``; ``; a machine is held while
    it is reserved, running or finished for the job."""
    u = cnet.universe
    pairs = {tok for p in cnet.places if cnet.sort[p] == PAIR
             for tok in marking[p]}
    held = []
    for j in u.jobs:
        ms = [m for m in u.machines if (m, j) in pairs]
        if ms:
            held.append("%s holds %s (needs %d)"
                        % (j, _machine_list(ms), u.demand[j]))
    return "; ".join(held) or "no job holds a machine"


def cmd_analyze(args) -> Report:
    sc = _load_scenario(args.scenario)
    report = Report("analyze %s" % args.scenario, _digest(sc))
    props = list(dict.fromkeys(args.properties or PROPERTIES))
    params = sc.params()

    # analyze answers only on the machine-folded net, whose guard also
    # proves the machine properties; otherwise it refuses, as for a
    # truncated graph
    cnet = build_colored(params)
    refusal = fold_refusal(cnet)
    if refusal is not None:
        report.add("symmetry: off (%s)" % refusal)
        report.exit_status = 2
        return report
    n = len(cnet.universe.machines)
    symmetry = "%d machine%s folded into counters" % (n, "s" * (n > 1))
    g = analysis.explore_markings(unfold(fold_machines(cnet)),
                                  bound=args.bound)
    if g.truncated:
        report.add("truncated: bound of %d states exceeded" % args.bound)
        report.add("symmetry: %s" % symmetry)
        report.exit_status = 2
        return report
    report.add("states explored: %d" % g.n_states)
    report.add("symmetry: %s" % symmetry)

    for prop in props:
        if prop == "deadlock":
            bad = analysis.pending_deadlocks(g)
            if bad:
                report.add("deadlock: FOUND (%d dead states)" % len(bad))
                # a concrete path through the first dead orbit
                names, end = lift_machines(cnet,
                                           g.path_transitions(bad[0]))
                labels = analysis.timed_witness(build_net(params), names)
                report.add("deadlock witness: %s" % _holdings(cnet, end))
                report.witness_path = args.out or (args.scenario
                                                   + ".witness")
                with open(report.witness_path, "w") as fh:
                    fh.write("property: deadlock\n"
                             + _format_witness(labels, end))
                report.exit_status = 1
            else:
                report.add("deadlock: none")
        elif prop in MACHINE_PROPERTIES:
            report.add("%s: holds" % prop)
        elif prop == "job-done-reachable":
            done = {jname("job_done", j): 1 for j in params.jobs()}
            if analysis.check_reachable(g, done) is not None:
                report.add("job-done-reachable: holds")
            else:
                report.add("job-done-reachable: UNREACHABLE")
                report.exit_status = 1
        else:
            raise ValueError("unknown property %r" % prop)
    return report


def cmd_simulate(args) -> Report:
    sc = _load_scenario(args.scenario)
    report = Report("simulate %s" % args.scenario, _digest(sc))
    result = run_sim(sc.params(), sc.config())
    for j in sorted(result.outcomes):
        report.add("%s: %s" % (j, result.outcomes[j]))
    if result.cycle:
        _, block, _, _ = result.layout()
        _, period = result.cycle
        report.add("cycle: every %d ticks from t=%d" % (period, block[0].time))
    path = args.out or (args.scenario + ".trace")
    with open(path, "w") as fh:
        fh.write(result.trace_text())
    report.add("trace: %s" % path)
    if any(o != "completed" for o in result.outcomes.values()):
        report.exit_status = 1
    return report


def cmd_conformance(args) -> Report:
    if args.fuzz is not None:
        report = Report("conformance --fuzz %d" % args.fuzz)
        summary = conformance.fuzz_conformance(args.fuzz)
        report.add(str(summary))
        if summary.failures:
            report.exit_status = 1
        return report
    sc = _load_scenario(args.scenario)
    report = Report("conformance %s" % args.scenario, _digest(sc))
    result, replay = conformance.check_run(sc.params(), sc.config())
    # a looping run's trace length, counted without building its copies
    prefix, block, full, cut = result.layout()
    report.add("trace events: %d" % (len(prefix) + full * len(block)
                                      + len(cut)))
    if replay.ok:
        report.add("conformance: ok")
    else:
        report.add("conformance: DIVERGED, %s" % replay)
        report.exit_status = 1
    return report


def _selector_net(selector):
    if selector == "machine":
        return build_machine()
    if selector == "client":
        return build_net(CatalogParams(machine_count=1, job_demands=[1]))
    if selector == "two-clients":
        return build_net(CatalogParams(
            machine_count=3, job_demands=[3, 2], timeout=None))
    if selector == "full":
        return build_net(CatalogParams())
    return build_net(_load_scenario(selector).params())


def cmd_export_dot(args) -> Report:
    """The net as DOT, or with ``--reach`` its marking graph, explored up to
    ``min(--bound, MAX_GRAPH_STATES)`` markings: a larger one is truncated."""
    report = Report("export-dot %s" % args.selector)
    net = _selector_net(args.selector)
    if args.reach:
        bound = min(args.bound, MAX_GRAPH_STATES)
        g = analysis.explore_markings(net, bound=bound)
        if g.truncated:
            report.add("truncated: bound of %d states exceeded" % bound)
            report.exit_status = 2
            return report
        text = dot.reach_dot(g, name=net.name)
    else:
        text = dot.net_dot(net, name=net.name)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        report.add("dot: %s" % args.out)
    else:
        report.add(text.rstrip("\n"))
    return report


def count(text):
    """argparse type for a count of traces or states: an int >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % n)
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qurdlab",
        description="Petri-net models, protocol simulator and conformance "
                    "checks for decentralized resource reservation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="explore a scenario's net and check "
                                       "properties")
    p.add_argument("scenario")
    p.add_argument("--property", dest="properties", action="append",
                   choices=PROPERTIES)
    p.add_argument("--bound", type=count, default=analysis.DEFAULT_BOUND)
    p.add_argument("--out", help="witness file path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the protocol simulator")
    p.add_argument("scenario")
    p.add_argument("--out", help="trace file path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("conformance", help="replay traces against the "
                                           "colored model")
    p.add_argument("scenario", nargs="?")
    p.add_argument("--fuzz", type=count, metavar="COUNT")
    p.set_defaults(func=cmd_conformance)

    p = sub.add_parser("export-dot", help="emit Graphviz text for a net or "
                                          "its reachability graph")
    p.add_argument("selector",
                   help="machine | client | two-clients | full | "
                        "a scenario file")
    p.add_argument("--reach", action="store_true",
                   help="export the reachability graph instead of the net")
    p.add_argument("--bound", type=count, default=MAX_GRAPH_STATES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)
    return parser


@functools.cache
def _parser():
    """The parser of ``main``, built once per process on first use:
    building it costs more than parsing a command line, and parsing leaves
    it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "conformance" and (args.scenario is None) == \
            (args.fuzz is None):
        parser.error("conformance needs a scenario file or --fuzz COUNT")
    try:
        report = args.func(args)
    except (ScenarioError, OSError, analysis.Truncated,
            analysis.ExplorationError, MemoryError) as exc:
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
