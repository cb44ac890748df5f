"""Every demo script runs to completion against the current package and
prints exactly the bytes pinned here.

A change that means to alter a demo's output updates its digest; any
other change to the printed bytes is a regression.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "contention_deadlock":
        "d8ba26ff9f118150a1487e80bc3531ee7fc9c78661479578c763a802b219db9d",
    "crash_recovery":
        "d1b0c7fb475c281c23a57f3e42bcaa7ad5c5000ac66b686ad15ac7eb78af2d1c",
    "machine_lifecycle":
        "a82afabcf232409c1db1d5e16aa8f3a7c2bc955534eaf86894226b9e6d525f9d",
    "reservation_timeout":
        "481b3b937547d47ac08d476b68a33dc2ecc6a946980a6ae233d0f2c067a21118",
    "trace_conformance":
        "a8aa97c67a9973c421b6608eff7662444ec313f03eafce47670c5436b2396d18",
}


def test_five_demos_found():
    assert len(DEMOS) == 5
    assert {d.stem for d in DEMOS} == set(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        STDOUT_SHA256[demo.stem], proc.stdout.decode()
