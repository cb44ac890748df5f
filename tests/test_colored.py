"""Colored layer: bindings, firing, sort checks, and unfolding.

The unfolding oracle is a random walk: any colored firing sequence must
replay on the unfolded net and land on the renamed marking, and vice
versa.
"""

import random

import pytest

from net_checks import (canonical, colored_enabled, initial_marking, mutant,
                        sorted_fire)
from qurdlab import colored
from qurdlab.colored import (FOLDED, Binding, ColoredNet, ColorUniverse,
                             Inscription, JOB, MACHINE, PAIR, binding_name,
                             color_name, colored_fire, fold_machines,
                             fold_refusal, lift_machines, token_name, unfold)
from qurdlab.catalog import CatalogParams, build_colored
from qurdlab.tpn import Net, NotFireable


def tiny_universe():
    return ColorUniverse(["m1"], ["j1"], {"j1": 1})


def params(machine_count, jobs, demands, semantics="wait"):
    """Catalog parameters with machines M1..Mn and the given job ids."""
    return CatalogParams(machine_count=machine_count, job_ids=jobs,
                         job_demands=demands, semantics=semantics)


def tiny_params():
    return params(1, ["j1"], [1])


# -- net validation ------------------------------------------------------------

def test_sort_mismatch_is_reported():
    cnet = ColoredNet(tiny_universe())
    cnet.add_place("available", MACHINE)
    cnet.initial["available"] = ("m1",)
    cnet.add_place("get_nodes", JOB)
    cnet.add_transition("t", pre={"available": Inscription("j")},
                        post={"get_nodes": Inscription("j")})
    assert any("does not match sort" in msg for msg in cnet.validate())


def test_per_demand_needs_job_pattern():
    cnet = ColoredNet(tiny_universe())
    cnet.add_place("available", MACHINE)
    cnet.add_transition("t", pre={"available": Inscription("m", per="demand")},
                        post={})
    assert any("P'(j)" in msg for msg in cnet.validate())


def test_unknown_multiplicity_is_reported():
    # one field names the multiplicity, so an arc carries P'(j) or W'(j),
    # never both, and a value that is neither is reported
    cnet = mutant(build_colored(tiny_params()), lambda c: c.post["t5"].update(
        job_done=Inscription("j", per="both")))
    assert cnet.validate() == ["unknown multiplicity 'both' on t5->job_done"]


def test_unknown_pattern_is_reported():
    cnet = mutant(build_colored(params(2, ["j1"], [1])),
                  lambda c: c.pre["t3"].update(running=Inscription("jm")))
    assert "unknown inscription pattern 'jm' on t3->running" in cnet.validate()


@pytest.mark.parametrize("interval, expected", [
    ((-1, None), ["negative efd on x"]), ((3, 2), ["efd > lfd on x"]),
    ((-2, -3), ["negative efd on x", "efd > lfd on x"])])
def test_validate_reports_the_nets_interval_rule(interval, expected):
    # one rule, ``tpn.interval_issues``, for colored and plain nets
    cnet = ColoredNet(tiny_universe())
    cnet.add_place("available", MACHINE)
    cnet.initial["available"] = ("m1",)
    cnet.add_transition("x", pre={"available": Inscription("m")},
                        post={"available": Inscription("m")},
                        interval=interval)
    net = Net()
    net.add_place("p", tokens=1)
    net.add_transition("x", pre={"p": 1}, post={"p": 1}, interval=interval)
    assert cnet.validate() == net.validate() == expected


def test_initial_token_sort_checked():
    cnet = ColoredNet(tiny_universe())
    cnet.add_place("begin", JOB)
    cnet.initial["begin"] = ("m1",)
    assert any("wrong sort" in msg for msg in cnet.validate())


@pytest.mark.parametrize("interval", [(None, None), (None, 3), (1, "5"),
                                      (1.5, None)])
def test_validate_reports_a_bound_that_is_not_an_int(interval):
    # reported, not raised, so that the fold guard refuses the net
    def net(interval):
        cnet = ColoredNet(tiny_universe())
        cnet.add_place("available", MACHINE)
        cnet.initial["available"] = ("m1",)
        cnet.add_transition("x", pre={"available": Inscription("m")},
                            post={"available": Inscription("m")},
                            interval=interval)
        return cnet

    assert net(interval).validate() == [
        "interval bound not an int on x: (%r, %r)" % interval]
    assert fold_refusal(net(interval)) == "colored net does not validate"
    assert fold_refusal(net((1, 5))) is None


# -- inscriptions and bindings ------------------------------------------------

def test_a_float_timeout_gets_its_own_structure():
    # structures are cached by layer set, and 3.0 == 3: only the float's
    # interval is reported, whichever was built first
    for timeout in (3, 3.0, 3):
        cnet = build_colored(CatalogParams(machine_count=1, timeout=timeout))
        assert cnet.interval["cancel"] == (timeout, None)
        assert bool(cnet.validate()) == isinstance(timeout, float)


def test_inscription_tokens():
    u = ColorUniverse(["m1"], ["j1", "j2"], {"j1": 3, "j2": 1}, {"j2": "fail"})
    j1 = ("m1", "j1", u.demand["j1"], u.semantics["j1"])
    j2 = ("m1", "j2", u.demand["j2"], u.semantics["j2"])
    assert Inscription("m").tokens(*j1) == ("m1", 1)
    assert Inscription("j").tokens(*j1) == ("j1", 1)
    assert Inscription("j", per="demand").tokens(*j1) == ("j1", 3)
    assert Inscription("j", per="wait").tokens(*j1) == ("j1", 1)
    assert Inscription("j", per="wait").tokens(*j2) == ("j2", 0)
    assert Inscription("mj").tokens(*j1) == (("m1", "j1"), 1)
    # a multiplicity is a count: a demand no list of tokens could hold
    huge = ("m1", "j1", 2**62, u.semantics["j1"])
    assert Inscription("j", per="demand").tokens(*huge) == ("j1", 2**62)


def test_binding_order_is_lexicographic():
    cnet = build_colored(params(2, ["j1", "j2"], [1, 1]))
    assert cnet.bindings_of("t1") == [
        Binding("M1", "j1"), Binding("M1", "j2"),
        Binding("M2", "j1"), Binding("M2", "j2")]
    # start_job only mentions j
    assert cnet.bindings_of("start_job") == [Binding(None, "j1"),
                                             Binding(None, "j2")]


# -- enabling / firing ---------------------------------------------------------

def test_initially_only_start_job_enabled():
    cnet = build_colored(tiny_params())
    fired = colored_enabled(cnet, initial_marking(cnet))
    assert fired == [("start_job", Binding(None, "j1"))]


def test_empty_marking_nothing_enabled():
    cnet = build_colored(tiny_params())
    assert colored_enabled(cnet, {}) == []


def test_after_start_job_t1_enabled():
    cnet = build_colored(tiny_params())
    m = sorted_fire(cnet, initial_marking(cnet), "start_job",
                    Binding(None, "j1"))
    assert ("t1", Binding("M1", "j1")) in colored_enabled(cnet, m)


def test_t1_produces_pair_and_answer():
    cnet = build_colored(tiny_params())
    m = cnet.initial_counts()
    colored_fire(cnet, m, "start_job", Binding(None, "j1"))
    colored_fire(cnet, m, "t1", Binding("M1", "j1"))
    assert m["reserved", ("M1", "j1")] == 1
    assert m["answered", "j1"] == 1
    assert m["available", "M1"] == 0


def test_t5_needs_demand_tokens():
    cnet = build_colored(params(2, ["j1"], [2]))
    m = cnet.initial_counts()
    m["job_finished", "j1"] = 1
    with pytest.raises(NotFireable):
        colored_fire(cnet, m, "t5", Binding(None, "j1"))
    m["job_finished", "j1"] = 2
    colored_fire(cnet, m, "t5", Binding(None, "j1"))
    assert (m["job_finished", "j1"], m["job_done", "j1"]) == (0, 1)


def test_cancel_returns_machine_and_retry_token():
    cnet = build_colored(tiny_params())
    m = cnet.initial_counts()
    m["available", "M1"] = 0
    m["reserved", ("M1", "j1")] = m["answered", "j1"] = 1
    colored_fire(cnet, m, "cancel", Binding("M1", "j1"))
    assert m["available", "M1"] == 1
    assert m["get_nodes", "j1"] == 1
    assert m["reserved", ("M1", "j1")] == 0


def test_fire_in_place_changes_only_the_named_tokens():
    # every binding of every transition, and two the net lacks, tried on
    # a copy at each step of a random walk: a refused firing leaves the
    # counts as they were, a firing moves only the tokens ``arcs`` names
    rng = random.Random(3)
    cnet = build_colored(CatalogParams(
        machine_count=2, job_demands=[2, 1], semantics=["wait", "fail"],
        timeout=3, zeroconf=True, failure_detector=True))
    steps = [(t, b) for t in cnet.transitions for b in cnet.bindings_of(t)]
    steps += [("teleport", Binding("M1", "J1")), ("t5", Binding(None, "J9"))]
    counts, refused = cnet.initial_counts(), {NotFireable: 0, ValueError: 0}
    for _ in range(30):
        fired = []
        for t, b in steps:
            after = counts.copy()
            try:
                colored_fire(cnet, after, t, b)
            except (NotFireable, ValueError) as exc:
                assert after == counts, (t, b)
                refused[type(exc)] += 1
                continue
            expected = dict(counts)
            consumed, produced = cnet.arcs(t, b)
            for pt, n in consumed:
                expected[pt] -= n
            for pt, n in produced:
                expected[pt] = expected.get(pt, 0) + n
            assert after == expected, (t, b)
            fired.append(after)
        counts = rng.choice(fired)
    assert refused == {NotFireable: 1047, ValueError: 60}


def test_arcs_instantiate_the_inscriptions():
    # P'(j) becomes a count, and W'(j) of a fail job drops its arc
    cnet = build_colored(params(2, ["j1"], [2], semantics="fail"))
    assert cnet.arcs("t5", Binding(None, "j1")) == (
        ((("job_finished", "j1"), 2),), ((("job_done", "j1"), 1),))
    assert cnet.arcs("cancel", Binding("M2", "j1")) == (
        ((("reserved", ("M2", "j1")), 1), (("answered", "j1"), 1)),
        ((("available", "M2"), 1),))


def test_shared_firings_follow_each_nets_job():
    # one process-wide table serves both nets: J1 is demand 2 with fail
    # semantics in one, demand 3 with wait semantics in the other
    fail = build_colored(params(2, ["J1"], [2], semantics="fail"))
    wait = build_colored(params(2, ["J1"], [3], semantics="wait"))
    for _ in range(2):
        for cnet, demand in ((fail, 2), (wait, 3)):
            assert cnet.arcs("launch", Binding(None, "J1")) == (
                ((("answered", "J1"), demand),),
                ((("launching_job", "J1"), demand),))
            assert cnet.arcs("t5", Binding(None, "J1")) == (
                ((("job_finished", "J1"), demand),),
                ((("job_done", "J1"), 1),))
        # W'(j): the fail job's token does not go back to get_nodes
        assert fail.arcs("cancel", Binding("M1", "J1"))[1] == (
            (("available", "M1"), 1),)
        assert wait.arcs("cancel", Binding("M1", "J1"))[1] == (
            (("available", "M1"), 1), (("get_nodes", "J1"), 1))


def test_same_transition_name_different_inscriptions_not_shared():
    nets = []
    for ins in (Inscription("j"), Inscription("j", per="demand")):
        cnet = ColoredNet(ColorUniverse(["m1"], ["j1"], {"j1": 2}))
        cnet.add_place("p", JOB)
        cnet.initial["p"] = ("j1",)
        cnet.add_place("q", JOB)
        cnet.add_transition("t", pre={"p": Inscription("j")}, post={"q": ins})
        nets.append(cnet)
    b = Binding(None, "j1")
    assert [cnet.arcs("t", b)[1] for cnet in nets * 2] == [
        ((("q", "j1"), 1),), ((("q", "j1"), 2),)] * 2


def test_post_changed_before_first_firing_is_fired():
    cnet = mutant(build_colored(tiny_params()),
                  lambda c: c.post["t4"].update(finished=Inscription("mj")))
    m = cnet.initial_counts()
    m["available", "M1"], m["finished", ("M1", "j1")] = 0, 1
    colored_fire(cnet, m, "t4", Binding("M1", "j1"))
    assert m["finished", ("M1", "j1")] == 1
    assert m["available", "M1"] == 1
    assert m["job_finished", "j1"] == 1


def test_a_built_nets_structure_is_read_only():
    # every net of the structure shares it, so an edit in place would
    # reach them all; the initial marking is the net's own
    cnet = build_colored(tiny_params())
    with pytest.raises(TypeError):
        cnet.post["t3"]["available"] = Inscription("m")
    with pytest.raises(AttributeError):
        cnet.pre["t3"].update(running=Inscription("jm"))
    for mapping in (cnet.pre, cnet.post, cnet.interval, cnet.sort):
        with pytest.raises(TypeError):
            mapping["t3"] = {}
    with pytest.raises(AttributeError):
        cnet.transitions.append("t3")
    cnet.initial["available"] = ()
    assert build_colored(tiny_params()).initial["available"] == ("M1",)


def test_extending_a_built_net_leaves_fresh_nets_alone():
    p, b = params(2, ["j1"], [1]), Binding("M1", "j1")
    fresh = build_colored(p)

    def fire(net, t):
        counts = fresh.initial_counts()
        counts["running", ("M1", "j1")] = 1
        colored_fire(net, counts, t, b)
        return counts

    fired = fire(fresh, "t3")
    shape = fresh.places, fresh.transitions, fresh.arcs("t3", b)
    cnet = build_colored(p)
    cnet.add_transition("t3", pre={"running": Inscription("mj")},
                        post={"available": Inscription("m")})
    assert cnet.arcs("t3", b)[1] == ((("available", "M1"), 1),)
    cnet.add_place("spare", MACHINE)
    cnet.add_transition("stop", pre={"available": Inscription("m")},
                        post={"spare": Inscription("m")})
    assert fire(cnet, "stop")["spare", "M1"] == 1
    for net in (fresh, build_colored(p)):
        assert (net.places, net.transitions, net.arcs("t3", b)) == shape
        assert fire(net, "t3") == fired


def test_a_name_declared_twice_is_reported():
    # t3 added again is listed twice: its unfolding would repeat t3@(M1,j1)
    cnet = build_colored(tiny_params())
    assert cnet.validate() == []
    cnet.add_transition("t3", pre={"running": Inscription("mj")},
                        post={"finished": Inscription("mj")})
    names = unfold(cnet).transitions
    assert (len(names), len(set(names))) == (9, 8)
    cnet.add_place("begin", JOB)
    assert cnet.validate() == ["place 'begin' declared twice",
                               "transition 't3' declared twice"]
    assert fold_refusal(cnet) == "colored net does not validate"


def test_fire_checks_enabling():
    cnet = build_colored(tiny_params())
    with pytest.raises(NotFireable):
        colored_fire(cnet, cnet.initial_counts(), "t1", Binding("M1", "j1"))


def test_not_fireable_names_the_step():
    # each firing rule raises NotFireable with the step as its argument:
    # the transition, with its binding where the net is colored
    cnet = build_colored(tiny_params())
    net = unfold(cnet)
    t1 = Binding("M1", "j1")
    for fire, step in (
            (lambda: colored_fire(cnet, cnet.initial_counts(), "t1", t1),
             ("t1", t1)),
            (lambda: net.fire_marking(dict(net.initial), "t1@(M1,j1)"),
             "t1@(M1,j1)"),
            (lambda: net.initial_state().fire("t1@(M1,j1)"), "t1@(M1,j1)"),
            (lambda: lift_machines(cnet, ["t1@(*,j1)"]),
             ("t1", Binding(FOLDED, "j1")))):
        with pytest.raises(NotFireable) as caught:
            fire()
        assert caught.value.args == (step,)


def test_sort_preserved_by_firing():
    cnet = build_colored(params(2, ["j1"], [2]))
    rng = random.Random(5)
    m = initial_marking(cnet)
    for _ in range(40):
        fired = colored_enabled(cnet, m)
        if not fired:
            break
        t, b = rng.choice(fired)
        m = sorted_fire(cnet, m, t, b)
        assert cnet.instance(cnet.universe, m).validate() == []


# -- canonical encoding --------------------------------------------------------

def test_canonical_ignores_token_order():
    a = {"available": ("m2", "m1"), "begin": ()}
    b = {"available": ("m1", "m2"), "begin": ()}
    assert canonical(a) == canonical(b)


def test_token_name():
    assert token_name("m1") == "m1"
    assert token_name(("m1", "j1")) == "(m1,j1)"


# -- unfolding ------------------------------------------------------------------

def test_unfold_place_and_transition_inventory():
    cnet = build_colored(tiny_params())
    net = unfold(cnet)
    assert "available@M1" in net.places
    assert "reserved@(M1,j1)" in net.places
    # one copy per binding
    assert "t1@(M1,j1)" in net.transitions
    assert "start_job@j1" in net.transitions
    n_bindings = sum(len(cnet.bindings_of(t)) for t in cnet.transitions)
    assert len(net.transitions) == n_bindings


def test_unfold_two_machines_t1_twice():
    cnet = build_colored(params(2, ["j1"], [1]))
    net = unfold(cnet)
    copies = [t for t in net.transitions if t.startswith("t1@")]
    assert sorted(copies) == ["t1@(M1,j1)", "t1@(M2,j1)"]


def test_unfold_no_jobs():
    cnet = build_colored(params(2, [], []))
    net = unfold(cnet)
    assert [p for p in net.places if p.startswith("available@")] == \
        ["available@M1", "available@M2"]
    assert all("j" not in t for t in net.transitions)


def test_unfold_demand_becomes_weight():
    cnet = build_colored(params(2, ["j1"], [2]))
    net = unfold(cnet)
    assert net.post["start_job@j1"] == {"get_nodes@j1": 2}
    assert net.pre["launch@j1"] == {"answered@j1": 2}
    assert net.pre["t5@j1"] == {"job_finished@j1": 2}


def test_unfold_inherits_intervals():
    cnet = build_colored(tiny_params())
    net = unfold(cnet)
    assert net.interval["cancel@(M1,j1)"] == (3, None)
    assert net.interval["t1@(M1,j1)"] == (0, None)


def test_unfold_initial_marking():
    cnet = build_colored(params(2, ["j1"], [1]))
    net = unfold(cnet)
    assert net.initial == {"available@M1": 1, "available@M2": 1,
                           "begin@j1": 1}


def _renamed(colored_marking):
    out = {}
    for p, toks in colored_marking.items():
        for tok in toks:
            key = f"{p}@{token_name(tok)}"
            out[key] = out.get(key, 0) + 1
    return out


def test_unfold_random_walk_bisimulation():
    """Colored firing sequences replay on the unfolded net step for step,
    with a wait job and a fail job."""
    rng = random.Random(11)
    cnet = build_colored(params(2, ["j1", "j2"], [2, 1],
                                ["wait", "fail"]))
    net = unfold(cnet)
    for _ in range(20):
        cm = initial_marking(cnet)
        pm = dict(net.initial)
        for _ in range(25):
            fired = colored_enabled(cnet, cm)
            # unfolded enabling must agree exactly, modulo naming
            plain = set(net.enabled(pm))
            named = set()
            for t, b in fired:
                suffix = token_name((b.m, b.j)) if b.m and b.j else \
                    token_name(b.m or b.j)
                named.add(f"{t}@{suffix}")
            assert named == plain
            if not fired:
                break
            t, b = rng.choice(fired)
            cm = sorted_fire(cnet, cm, t, b)
            suffix = token_name((b.m, b.j)) if b.m and b.j else \
                token_name(b.m or b.j)
            pm = net.fire_marking(pm, f"{t}@{suffix}")
            assert _renamed(cm) == pm


# -- folding the machines -------------------------------------------------------

def test_binding_name():
    assert binding_name("t5", Binding(None, None)) == "t5"
    assert binding_name("t5", Binding(None, "j1")) == "t5@j1"
    assert binding_name("publish", Binding("M1", None)) == "publish@M1"
    assert binding_name("t1", Binding("M1", "j1")) == "t1@(M1,j1)"


def test_fold_machines_counts_machines():
    cnet = build_colored(params(3, ["j1", "j2"], [2, 1]))
    net = unfold(fold_machines(cnet))
    assert net.initial == {"available@*": 3, "begin@j1": 1, "begin@j2": 1}
    assert [p for p in net.places if p.startswith("reserved@")] == \
        ["reserved@(*,j1)", "reserved@(*,j2)"]
    assert net.pre["t1@(*,j1)"] == {"available@*": 1, "get_nodes@j1": 1}
    # the same net at any machine count, and the colored net untouched
    assert net.transitions == unfold(fold_machines(build_colored(
        params(7, ["j1", "j2"], [2, 1])))).transitions
    assert cnet.universe.machines == ("M1", "M2", "M3")


def test_fold_refusal_reasons():
    def refusal(change):
        return fold_refusal(mutant(build_colored(params(2, ["j1", "j2"],
                                                        [1, 1])), change))

    assert refusal(lambda c: None) is None
    # every machine equally often, per job for pairs, but twice
    not_one = "a machine does not start with exactly one token"
    assert refusal(lambda c: c.initial.update(
        available=("M1", "M1", "M2", "M2"))) == not_one
    assert refusal(lambda c: c.initial.update(
        reserved=(("M1", "j1"), ("M2", "j1")))) == not_one
    # or never
    assert refusal(lambda c: c.initial.pop("available")) == not_one
    asymmetric = "initial marking not machine-symmetric"
    assert refusal(lambda c: c.initial.update(available=("M1",))) == asymmetric
    assert refusal(lambda c: c.initial.update(
        reserved=(("M1", "j1"), ("M2", "j2")))) == asymmetric
    assert refusal(lambda c: c.pre["t2"].update(
        available=Inscription("m"))) == \
        "a transition consumes two machine tokens"
    assert refusal(lambda c: c.post["t4"].pop("available")) == \
        "a transition creates or destroys a machine token"
    assert refusal(lambda c: c.pre["t3"].update(
        running=Inscription("jm"))) == "colored net does not validate"


def test_lift_machines_binds_lowest_enabled_machine():
    cnet = build_colored(params(3, ["j1", "j2"], [2, 1]))
    lifted, end = lift_machines(cnet, [
        "start_job@j2", "t1@(*,j2)", "start_job@j1", "t1@(*,j1)",
        "t1@(*,j1)", "launch@j1", "t2@(*,j1)"])
    assert lifted == ["start_job@j2", "t1@(M1,j2)", "start_job@j1",
                      "t1@(M2,j1)", "t1@(M3,j1)", "launch@j1", "t2@(M2,j1)"]
    net = unfold(cnet)
    marking = dict(net.initial)
    for t in lifted:                # raises NotFireable on a wrong step
        marking = net.fire_marking(marking, t)
    assert marking["running@(M2,j1)"] == 1
    assert {color_name(p, tok): n for (p, tok), n in end.items() if n} == \
        {p: n for p, n in marking.items() if n}
    with pytest.raises(NotFireable):
        lift_machines(cnet, ["t1@(*,j1)"])


def test_lift_machines_fires_each_step_once(monkeypatch):
    # only a machine that holds the step's token is tried, and the lowest
    # holder fires: here M2 and M3 for j1's t1 steps, M2 for its t2
    fired = []

    def fire(cnet, marking, t, binding):
        fired.append((t, binding))
        return colored_fire(cnet, marking, t, binding)

    monkeypatch.setattr(colored, "colored_fire", fire)
    names = ["start_job@j2", "t1@(*,j2)", "start_job@j1", "t1@(*,j1)",
             "t1@(*,j1)", "launch@j1", "t2@(*,j1)"]
    lifted, _ = lift_machines(
        build_colored(params(3, ["j1", "j2"], [2, 1])), names)
    assert [binding_name(t, b) for t, b in fired] == lifted
    assert lifted[3:5] == ["t1@(M2,j1)", "t1@(M3,j1)"]
