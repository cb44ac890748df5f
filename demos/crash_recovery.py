"""
Losing a machine mid-job and finishing anyway
=============================================

A launcher reserves one of two machines and starts its job; at t=2 that
machine crashes.  With the failure detector enabled the crash is
eventually noticed, the job moves to the spare machine, and the run
still completes.  The same story holds in the net: job_done stays
reachable when the model includes crash/restart.
"""

from qurdlab.analysis import check_reachable, explore_markings
from qurdlab.catalog import build_net, jname
from qurdlab.scenario import parse_scenario
from qurdlab.simulator import run

SCENARIO = """\
machines 2
job J1 demand 1 semantics wait
failure-detector on
crash M1 at 2
bus-latency 0
msg-latency 0
"""

sc = parse_scenario(SCENARIO)
res = run(sc.params(), sc.config())
print("outcome:", res.outcomes)
print("trace:")
print(res.trace_text())

# same question to the model: with a crash and a detector in the net,
# can the job still finish?
net = build_net(sc.params())
g = explore_markings(net)
done = check_reachable(g, lambda m: m.get(jname("job_done", "J1"), 0) >= 1)
print(f"model: job_done reachable = {done is not None} "
      f"({g.n_states} markings)")

# and without the detector, the crashed machine takes the job down
# with it: the launcher waits forever on a reservation nobody serves
sc2 = parse_scenario(SCENARIO.replace("failure-detector on",
                                      "failure-detector off"))
res2 = run(sc2.params(), sc2.config())
print("\nwithout the detector:", res2.outcomes)
