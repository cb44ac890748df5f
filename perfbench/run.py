"""qurdlab benchmark: one workload, one seed, a fixed measuring time.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload analyze-sweep --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout; without it the run
exits with status 2 and prints no result.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, measured
untraced, and with ``--trace 1`` the per-layer metrics from traced rounds
that alternate with untraced ones.  End-to-end times are seconds at a
reference speed: each call's wall time is scaled by a fixed reference
task timed around it (``reference.py``), which takes out the drift of a
shared host's speed.  The line before it carries the provenance (seed,
versions, nproc, load average at start and end), the failed ratio, the
recorded counts, the raw wall times and the metrics under their
workload's own names.  Scenario files live in ``.perfbench/work-<pid>/`` for the
duration of the run; results and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import types
from time import perf_counter

from reference import Reference
from tracing import Tracer
from workloads import WORKLOADS, Tally

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("tpn", "colored", "catalog", "analysis", "simulator",
           "conformance", "scenario", "cli")
SETUP_REPEATS = 9


def metric_units():
    """(end-to-end, per-layer) metric units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class MissingSource(Exception):
    pass


def import_qurdlab(root=ROOT):
    """Import a fresh copy of qurdlab from ``<root>/src``; the modules are
    returned as one namespace so every caller sees the same copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qurdlab", "__init__.py")):
        raise MissingSource("no qurdlab sources under %s" % src)
    for name in [n for n in sys.modules
                 if n == "qurdlab" or n.startswith("qurdlab.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    q = types.SimpleNamespace(**{
        m: importlib.import_module("qurdlab." + m) for m in MODULES})
    if not os.path.abspath(q.cli.__file__).startswith(src + os.sep):
        raise MissingSource("qurdlab was imported from %s" % q.cli.__file__)
    return q


def setup(name, seed, workdir):
    """Import, parse and build once; returns (workload, [(start, end)])."""
    t0 = perf_counter()
    q = import_qurdlab()
    workload = WORKLOADS[name](q, seed, workdir)
    return workload, [(t0, perf_counter())]


def timed(workload, group, tally):
    """One group pass, as the (start, end) of each call into qurdlab.  The
    garbage of earlier passes is collected first, as a fresh ``qurdlab``
    process would not carry it."""
    gc.collect()
    workload.spans = []
    group(tally)
    return workload.spans


def wall(spans):
    """Wall seconds of one pass: its calls, without what ran between."""
    return sum(t1 - t0 for t0, t1 in spans)


def measure(workload, tally, seconds, reference):
    """Untraced passes of both groups, interleaved over the whole run.

    Each step runs the group whose share of the time measured so far is
    furthest below its target (``workload.small_share`` for the small
    group), so that both groups sample every part of the run: on a shared
    2-core virtual machine the speed moved by up to 60% from one 12 s
    stretch to the next, and a group timed in one stretch only carried
    that into its median.  A group whose next pass would end past
    ``seconds`` gives way to the other; the run stops when neither fits.
    Each group runs at least once.  ``reference`` runs between calls into
    qurdlab, at most a second apart, and its times scale the calls'.

    The peak RSS is read at the end of the first large pass: later passes
    run on a heap the earlier ones fragmented, and how many of them fit
    depends on the machine's speed.
    """
    peak = []

    def large_pass(tally):
        workload.large(tally)
        if not peak:
            peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    groups = {"small": workload.small, "large": large_pass}
    passes = {"small": [], "large": []}
    workload.reference = reference
    start = perf_counter()
    while True:
        spent = {name: sum(map(wall, done)) for name, done in passes.items()}
        behind = ("small" if spent["small"] <= workload.small_share
                  * (spent["small"] + spent["large"]) else "large")
        for name in (behind, "large" if behind == "small" else "small"):
            done = passes[name]
            if not done or (perf_counter() - start
                            + statistics.median(map(wall, done)) <= seconds):
                break
        else:
            workload.reference = None
            reference.run()
            return passes["large"], passes["small"], peak[0] / 1024
        passes[name].append(timed(workload, groups[name], tally))


def round_s(workload, tally):
    """Wall seconds of one large and one small pass."""
    return (wall(timed(workload, workload.large, tally))
            + wall(timed(workload, workload.small, tally)))


def measure_traced(workload, tally, seconds, tracer):
    """Untraced and traced rounds alternate until the next pair would end
    past ``seconds``; a round is one large and one small pass."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(round_s(workload, tally))
        tracer.install()
        workload.tracer = tracer
        try:
            traced.append(round_s(workload, tally))
        finally:
            workload.tracer = None
            tracer.uninstall()
        expected = statistics.median(plain) + statistics.median(traced)
        if perf_counter() - start + expected > seconds:
            return plain, traced


def provenance():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    outdir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(outdir, "work-%d" % os.getpid())
    try:
        import_qurdlab()
    except (MissingSource, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    started = provenance()
    os.makedirs(workdir, exist_ok=True)
    try:
        reference = Reference()
        setups = []
        for _ in range(SETUP_REPEATS):
            reference.run()
            workload, spans = setup(args.workload, args.seed, workdir)
            setups.append(spans)
        reference.run()
        tally = Tally()
        if args.trace:
            tracer = Tracer(workload.q)
            plain, traced = measure_traced(workload, tally, args.seconds,
                                           tracer)
        else:
            large, small, peak_rss_mb = measure(workload, tally,
                                                args.seconds, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e_units, layer_units = metric_units()
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": dict(started, loadavg_end=os.getloadavg()),
        "failed_ratio": tally.failed_ratio,
        "problems": tally.problems,
        "counts": workload.counts,
    }
    if args.trace:
        values = tracer.layer_metrics(len(traced))
        values["simulator.jobs_completed_ratio"] = workload.counts.get(
            "cluster_jobs_completed_ratio", 0.0)
        values["trace.overhead_ratio"] = (statistics.median(traced)
                                          / statistics.median(plain))
        units = layer_units
        tracer.write(os.path.join(outdir, "spans-%s-seed%d.json"
                                  % (args.workload, args.seed)), len(traced))
        detail["samples"] = {"untraced_rounds": plain,
                             "traced_rounds": traced,
                             "setup": [wall(p) for p in setups]}
        detail["missing_patches"] = sorted(tracer.missing)
    else:
        groups = {"large": large, "small": small, "setup": setups}
        scaled = {k: [reference.scaled(p) for p in v]
                  for k, v in groups.items()}
        walls = {k: [wall(p) for p in v] for k, v in groups.items()}
        values = {
            "large_group_s": statistics.median(scaled["large"]),
            "small_group_s": statistics.median(scaled["small"]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(scaled["setup"]),
        }
        units = e2e_units
        detail["samples"] = {"wall_s": walls, "scaled_s": scaled,
                             "reference_s": [wall([r])
                                             for r in reference.runs]}
        detail["wall_medians"] = {k: statistics.median(v)
                                  for k, v in walls.items()}
        detail["named_metrics"] = dict(
            workload.named_metrics(values["large_group_s"],
                                   values["small_group_s"]),
            setup_s=values["setup_s"], peak_rss_mb=values["peak_rss_mb"],
            failed_ratio=tally.failed_ratio)
    if set(values) != set(units):
        raise RuntimeError("measured metrics %s differ from BENCHMARK.json"
                           % sorted(set(values) ^ set(units)))
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    os.makedirs(os.path.join(outdir, "results"), exist_ok=True)
    with open(os.path.join(outdir, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
