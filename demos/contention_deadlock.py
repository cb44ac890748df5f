"""
The 3-machine standoff, and how a timeout dissolves it
======================================================

Two launchers on a 3-machine pool want 3 and 2 machines respectively.
With wait semantics and no reservation timeout they can carve up the
pool so that neither reaches its quota: J1 holds two machines, J2 holds
one, and every daemon answers KO forever after.  Reachability analysis
finds those wedged states; adding the timeout removes every one of them.
The timed explorer keeps one state per machine orbit: states that differ
only by a renaming of the machines count once.
"""

from qurdlab.analysis import (explore, find_deadlocks, pending_deadlocks,
                              replay_labels, timed_witness)
from qurdlab.catalog import CatalogParams, build_net, jname

params = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=None)
net = build_net(params)
g = explore(net)
print(f"no timeout: {g.n_states} timed orbits")

dead = pending_deadlocks(g)
print(f"{len(dead)} wedged orbit(s) (dead, but not everyone finished):")
for i in dead:
    m = g.marking(i)
    held = {p: n for p, n in m.items() if p.startswith("reserved@") and n}
    print("  J1 answered:", m.get(jname("answered", "J1"), 0),
          " J2 answered:", m.get(jname("answered", "J2"), 0),
          " held:", sorted(held))

# a firing sequence into the standoff, with the delay before each step
wedge = next(i for i in g.dead_ids()
             if g.marking(i).get(jname("answered", "J1"), 0) == 2)
print("\none road to ruin:")
for d, t in g.path_labels(wedge):
    print(f"  +{d} {t}")

# the same path replayed step by step really is dead
final = replay_labels(net, g.path_labels(wedge))
print("replayed; successors at the end:", final.successors())

# now give reservations a 3-tick shelf life
params = CatalogParams(machine_count=3, job_demands=[3, 2], timeout=3)
g2 = explore(build_net(params))
print(f"\ntimeout 3: {g2.n_states} timed orbits, "
      f"{len(pending_deadlocks(g2))} wedged")
print(f"remaining terminal orbits: {len(find_deadlocks(g2))} "
      f"(all of them: both jobs done)")
