"""
Does the simulator actually do what the net says?
=================================================

Every simulation run leaves a timestamped trace.  Conformance checking
projects that trace onto colored transitions (ok-sent becomes t1 with
the machine/job binding, and so on) and replays the sequence on the
net.  If some step is not enabled, the implementation and the model
disagree and we get the exact index where.
"""

from qurdlab.catalog import CatalogParams
from qurdlab.conformance import (check_run, conformance_net,
                                 fuzz_conformance, project, replay)
from qurdlab.simulator import SimConfig, run

params = CatalogParams(machine_count=3, job_demands=[2, 1])
config = SimConfig(timeout=3)
res = run(params, config)
print("outcomes:", res.outcomes)

# the protocol events, projected to transitions of the colored net
print("\nprojected trace:")
for t, b in project(res.trace):
    print(f"  {t}  {b}")

_, report = check_run(params, config)
print("\nreplay:", "ok" if report.ok else f"diverges at {report.index}")
print("final job_done tokens:", report.final_marking["job_done"])

# fuzzing: many random scenarios, all must replay
summary = fuzz_conformance(100, seed=3)
print(f"\nfuzz: {summary.passed}/{summary.passed + summary.failed} "
      f"random scenarios conform")

# negative control: swap what ok-sent and job-accepted mean, that is t1
# and t2 in the projection, and the very first reservation already
# refuses to replay
swap = {"t1": "t2", "t2": "t1"}
bad = [(swap.get(t, t), b) for t, b in project(res.trace)]
report = replay(bad, conformance_net(params))
print(f"\nwith a corrupted event map: diverges at step {report.index} "
      f"on {report.label}")
