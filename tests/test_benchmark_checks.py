"""The benchmark's own checks (``perfbench/test_perfbench.py``) pass against
the package in this checkout, and its tracer finds the functions it wraps,
so that a change to an interface the benchmark calls fails here and not
only when the benchmark runs."""

import importlib.util
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_checks_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_tracer_finds_its_targets():
    # a target the tracer cannot find reads 0 in its per-layer metric, so
    # renaming one (say `cli.build_net`) must fail here, not only show up
    # as a zero in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    q = types.SimpleNamespace(**{
        module: importlib.import_module("qurdlab." + module)
        for module, *_ in tracing.PATCHES})
    tracer = tracing.Tracer(q)
    tracer.install()
    tracer.uninstall()
    # `analysis.check_invariant_vector` is gone from the package; the
    # tracer keeps its entry until the benchmark next changes
    assert tracer.missing == {"analysis.check_invariant_vector"}
