"""
One colored net or many plain ones: same behaviour either way
=============================================================

The colored net keeps a single copy of each place and lets tokens carry
identity: machine names in available, (machine, job) pairs in reserved.
Unfolding expands it into a plain net with one place per token and one
transition per binding.  Both must describe the same state space, which
makes each a cheap oracle for the other.
"""

from qurdlab.analysis import explore_colored, explore_markings
from qurdlab.catalog import CatalogParams, build_colored
from qurdlab.colored import colored_enabled, colored_fire, unfold

params = CatalogParams(machine_count=2, job_demands=[2, 1])
cnet = build_colored(params)

print("colored net:", len(cnet.places), "places,",
      len(cnet.transitions), "transitions")
print("universe:", cnet.universe.machines, cnet.universe.jobs)

# transitions fire under bindings; t1 pairs a free machine with a job
m0 = cnet.initial_marking()
m1 = colored_fire(cnet, m0, "start_job", colored_enabled(cnet, m0)[0][1])
m1 = colored_fire(cnet, m1, "start_job",
                  [b for t, b in colored_enabled(cnet, m1)
                   if t == "start_job"][0])
print("\nbindings of t1 once both jobs ask:")
for t, b in colored_enabled(cnet, m1):
    if t == "t1":
        print("  t1 with machine", b.m, "and job", b.j)

# the unfolding spells all of that out as plain places and transitions
net = unfold(cnet)
print(f"\nunfolded: {len(net.places)} places, "
      f"{len(net.transitions)} transitions")
print("a few of them:", ", ".join(net.transitions[:6]), "...")

# both explorations agree marking for marking
gc = explore_colored(cnet)
gu = explore_markings(net)
print(f"\ncolored exploration: {gc.n_states} markings")
print(f"unfolded exploration: {gu.n_states} markings")
assert gc.n_states == gu.n_states
print("agreement: exact")
