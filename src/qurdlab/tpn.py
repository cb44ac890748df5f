"""Place/transition Time Petri nets with integer-time strong semantics.

A ``Net`` is a classical P/T net whose transitions carry a static firing
interval ``(efd, lfd)``: a transition may fire only after being enabled for
at least ``efd`` time units, and time may not advance past ``lfd`` while it
is enabled (``lfd = None`` means no upper bound).  Time is discrete: delays
are nonnegative integers and each transition's clock is capped so the timed
state space stays finite.

Clock ``t`` is capped at ``Net.clock_caps()``: ``lfd(t)`` when it is
finite, otherwise ``efd(t)``.  A clock is read only by its own
transition's guard (``c >= efd``) and urgency (``c <= lfd``), so every value
at or above efd of an unbounded transition behaves alike, and a clock with a
finite lfd never passes it anyway; this is the per-clock maximal constant of
region and LU abstraction (Alur & Dill 1994; Behrmann et al. 2004).  States
read the caps from their net, so a net that overrides ``clock_caps`` (the
tests' uniformly capped oracle does) explores under its own caps.

Firing re-tests the enabling of only the transitions whose pre-set meets
the fired transition's pre- or post-set; every other transition keeps its
enabling and so its clock.  The rule is written once, in ``_firing``: the
marking it reaches and the clocks it disables or resets do not depend on
the delay before the firing, so ``TimedState.successors`` computes each
fireable transition's effect once per state and applies it to the elapsed
clocks of every delay.

``TimedState`` values are immutable and hashable, and each hashes once,
when it is built; all operations are pure functions that return fresh
states, so states can be shared freely across threads and deduplicated by
equality.
"""

from __future__ import annotations

Marking = dict  # place name -> token count (absent = 0)


class NotFireable(Exception):
    """Raised when firing a transition that is not fireable."""

    def __init__(self, transition):
        self.transition = transition
        super().__init__(f"transition {transition!r} is not fireable")


class UrgencyViolation(Exception):
    """Raised when a delay would push an enabled transition past its lfd."""

    def __init__(self, transition):
        self.transition = transition
        super().__init__(f"time may not pass the upper bound of {transition!r}")


def interval_issues(t, efd, lfd):
    """What breaks the interval rule on transition t: int bounds, lfd
    None for no bound, and 0 <= efd <= lfd."""
    if not isinstance(efd, int) or not (lfd is None or isinstance(lfd, int)):
        return [f"interval bound not an int on {t}: ({efd!r}, {lfd!r})"]
    issues = []
    if efd < 0:
        issues.append(f"negative efd on {t}")
    if lfd is not None and efd > lfd:
        issues.append(f"efd > lfd on {t}")
    return issues


class Net:
    """A Time Petri net: places, transitions, weighted arcs, intervals.

    Construction is incremental (``add_place`` / ``add_transition``) and
    intentionally permissive: structural errors are reported by
    ``validate()`` rather than raised, so malformed nets can be inspected.
    After construction a net is treated as immutable.  ``colored.unfold``
    records each place's and transition's machine index, or None, in
    ``machine_of``; adding a place or a transition drops the record.
    """

    def __init__(self, name="net"):
        self.name = name
        self.places = []            # ordered place names
        self.transitions = []       # ordered transition names
        self.pre = {}               # transition -> {place: weight}
        self.post = {}              # transition -> {place: weight}
        self.interval = {}          # transition -> (efd, lfd or None)
        self.initial = {}           # place -> token count
        self._compiled = None       # with _caps and _touched, see compiled()
        self.machine_of = None      # (per place, per transition)

    # -- construction -----------------------------------------------------

    def add_place(self, name, tokens=0):
        self.places.append(name)
        if tokens:
            self.initial[name] = tokens
        self._compiled = self.machine_of = None
        return name

    def add_transition(self, name, pre=None, post=None, interval=(0, None)):
        self.transitions.append(name)
        self.pre[name] = dict(pre or {})
        self.post[name] = dict(post or {})
        self.interval[name] = tuple(interval)
        self._compiled = self.machine_of = None
        return name

    # -- structural queries -----------------------------------------------

    def validate(self):
        """Return the list of structural violations (empty means ok)."""
        issues = []
        pset, tset = set(self.places), set(self.transitions)
        for name in pset & tset:
            issues.append(f"name used for both a place and a transition: {name}")
        if len(pset) != len(self.places):
            issues.append("duplicate place names")
        if len(tset) != len(self.transitions):
            issues.append("duplicate transition names")
        for side, arcs in (("pre", self.pre), ("post", self.post)):
            for t, places in arcs.items():
                if t not in tset:
                    issues.append(f"{side} arcs for unknown transition: {t}")
                for p, w in places.items():
                    if p not in pset:
                        issues.append(f"unknown place {p!r} on {side} arc of {t}")
                    if w < 1:
                        issues.append(f"arc weight {w} < 1 between {t} and {p}")
        for t, (efd, lfd) in self.interval.items():
            if t not in tset:
                issues.append(f"interval for unknown transition: {t}")
            issues += interval_issues(t, efd, lfd)
        for p, n in self.initial.items():
            if p not in pset:
                issues.append(f"initial marking on unknown place: {p}")
            if n < 0:
                issues.append(f"negative initial marking on {p}")
        return issues

    def enabled(self, marking):
        """Transitions enabled in ``marking``, in declaration order."""
        out = []
        for t in self.transitions:
            if all(marking.get(p, 0) >= w for p, w in self.pre[t].items()):
                out.append(t)
        return out

    def fire_marking(self, marking, t):
        """Untimed firing rule: marking - pre(t) + post(t) as a new dict."""
        if not all(marking.get(p, 0) >= w for p, w in self.pre[t].items()):
            raise NotFireable(t)
        out = dict(marking)
        for p, w in self.pre[t].items():
            out[p] = out.get(p, 0) - w
            if out[p] == 0:
                del out[p]
        for p, w in self.post[t].items():
            out[p] = out.get(p, 0) + w
        return out

    # -- canonical encodings ----------------------------------------------

    def transition_index(self, t):
        if self._compiled is None:
            self.compiled()
        return self._tidx[t]

    def clock_caps(self):
        """Per-transition clock caps: ``lfd(t)`` when finite, else ``efd(t)``.
        One tuple, cached with ``compiled()``, shared by all states."""
        self.compiled()
        return self._caps

    def compiled(self):
        """Index-based arc/interval tables, cached (places/transitions order).

        Also caches ``clock_caps()`` and, per transition t, the transitions
        whose pre-set meets pre(t) or post(t), t included: the only ones
        whose enabling firing t can change."""
        if self._compiled is None:
            self._tidx = {t: i for i, t in enumerate(self.transitions)}
            pidx = {p: i for i, p in enumerate(self.places)}
            pre = []
            post = []
            efd = []
            lfd = []
            for t in self.transitions:
                pre.append(tuple((pidx[p], w) for p, w in sorted(self.pre[t].items())))
                post.append(tuple((pidx[p], w) for p, w in sorted(self.post[t].items())))
                e, l = self.interval[t]
                efd.append(e)
                lfd.append(l)
            self._caps = tuple(e if l is None else l for e, l in zip(efd, lfd))
            consumers = {}
            for i, arcs in enumerate(pre):
                for p, _ in arcs:
                    consumers.setdefault(p, set()).add(i)
            touched = []
            for i in range(len(pre)):
                near = {i}
                for p, _ in pre[i] + post[i]:
                    near |= consumers.get(p, set())
                touched.append(tuple(sorted(near)))
            self._touched = tuple(touched)
            self._compiled = (pidx, tuple(pre), tuple(post), tuple(efd), tuple(lfd))
        return self._compiled

    def marking_tuple(self, marking):
        """Canonical encoding of a marking dict: counts in place order."""
        pidx = self.compiled()[0]
        counts = [0] * len(self.places)
        for p, n in marking.items():
            counts[pidx[p]] = n
        return tuple(counts)

    def marking_dict(self, counts):
        return {p: n for p, n in zip(self.places, counts) if n}

    def initial_state(self, marking=None):
        """Timed state for ``marking`` (default: the net's initial marking)
        with every enabled transition's clock at 0."""
        if marking is None:
            marking = self.initial
        counts = self.marking_tuple(marking)
        _, pre, _, _, _ = self.compiled()
        clocks = tuple(
            0 if all(counts[p] >= w for p, w in pre[i]) else -1
            for i in range(len(self.transitions))
        )
        return TimedState(net=self, counts=counts, clocks=clocks)


def _firing(net, ti, counts):
    """The firing rule of transition index ``ti`` from ``counts``, clocks
    aside: the counts after firing, and the ``(index, clock)`` pairs of the
    transitions in ``net._touched[ti]`` whose clock firing disables (-1) or
    resets (0); every other clock is kept.

    Newly enabled is judged against the intermediate marking
    (counts - pre(t)); the fired transition itself always restarts from 0
    when it stays enabled.  Neither result depends on the clocks, so one
    call serves every delay after which ``ti`` is fireable."""
    _, pre, post, _, _ = net.compiled()
    inter = list(counts)
    for p, w in pre[ti]:
        inter[p] -= w
    after = inter[:]
    for p, w in post[ti]:
        after[p] += w
    changes = []
    for i in net._touched[ti]:
        arcs = pre[i]
        for p, w in arcs:
            if after[p] < w:
                changes.append((i, -1))
                break
        else:
            if i == ti:
                changes.append((i, 0))
                continue
            for p, w in arcs:
                if inter[p] < w:
                    changes.append((i, 0))
                    break
    return tuple(after), changes


class TimedState:
    """A marking plus one capped integer clock per enabled transition.

    ``counts`` follows the net's place order and ``clocks`` its transition
    order, with -1 marking disabled transitions; no clock exceeds its cap in
    ``net.clock_caps()``.  Equality ignores the net reference, so states
    from the same net deduplicate by value.  The hash is computed once,
    when the state is built: a set or dict probe reads it instead of
    hashing the tuples again.
    """

    __slots__ = ("net", "counts", "clocks", "_hash")

    def __init__(self, net, counts, clocks):
        _set_net(self, net)
        _set_counts(self, counts)
        _set_clocks(self, clocks)
        _set_hash(self, hash((counts, clocks)))

    def __setattr__(self, name, value):
        raise AttributeError(f"TimedState is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TimedState is immutable; cannot delete {name!r}")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.counts == other.counts and self.clocks == other.clocks

    def __repr__(self):
        return (f"{type(self).__qualname__}(counts={self.counts!r}, "
                f"clocks={self.clocks!r})")

    def __reduce__(self):
        return type(self), (self.net, self.counts, self.clocks)

    @property
    def marking(self):
        return self.net.marking_dict(self.counts)

    @property
    def enabled(self):
        return [t for t, c in zip(self.net.transitions, self.clocks) if c >= 0]

    def clock(self, t):
        c = self.clocks[self.net.transition_index(t)]
        if c < 0:
            raise KeyError(f"{t} is not enabled")
        return c

    def fireable(self, t):
        """True iff ``t`` is enabled and its clock has reached efd(t)."""
        i = self.net.transition_index(t)
        c = self.clocks[i]
        return c >= 0 and c >= self.net.compiled()[3][i]

    def elapse(self, d):
        """Advance every clock by ``d`` (then cap).  Strong semantics: raises
        UrgencyViolation if the delay would pass a finite lfd."""
        if d < 0:
            raise ValueError("delay must be nonnegative")
        _, _, _, _, lfd = self.net.compiled()
        cap = self.net.clock_caps()
        clocks = list(self.clocks)
        for i, c in enumerate(clocks):
            if c < 0:
                continue
            nc = c + d
            if lfd[i] is not None and nc > lfd[i]:
                raise UrgencyViolation(self.net.transitions[i])
            clocks[i] = min(nc, cap[i])
        return TimedState(net=self.net, counts=self.counts, clocks=tuple(clocks))

    def fire(self, t):
        """Fire ``t``: consume pre, produce post, reset newly enabled clocks
        (the rule is ``_firing``'s).  Only transitions whose pre-set meets
        pre(t) or post(t) are re-tested; the rest keep their clocks.
        """
        net = self.net
        ti = net.transition_index(t)
        c = self.clocks[ti]
        if c < 0 or c < net.compiled()[3][ti]:
            raise NotFireable(t)
        after, changes = _firing(net, ti, self.counts)
        clocks = list(self.clocks)
        for i, v in changes:
            clocks[i] = v
        return TimedState(net=net, counts=after, clocks=tuple(clocks))

    def successors(self):
        """All one-step timed successors as ``((delay, transition), state)``.

        Delays run from 0 up to the first of two limits: the largest gap
        between a clock and its cap, after which the capped clocks stop
        changing, and the smallest gap between a clock and its finite lfd,
        past which time may not pass.  Transitions run in declaration
        order within a delay; successors whose resulting state was already
        produced at a smaller label are dropped.  Each fireable
        transition's firing effect (``_firing``) is computed once per state
        and applied to the elapsed clocks of every delay; each successor is
        built, and so hashed, once.  An empty list means the state is
        timed-dead.
        """
        net = self.net
        names = net.transitions
        efd, lfd = net.compiled()[3:]
        cap = net.clock_caps()
        clocks = self.clocks
        counts = self.counts
        live = [i for i, c in enumerate(clocks) if c >= 0]
        top = max([cap[i] - clocks[i] for i in live], default=0)
        for i in live:
            if lfd[i] is not None and lfd[i] - clocks[i] < top:
                top = lfd[i] - clocks[i]
        out = []
        seen = set()
        effects = [None] * len(clocks)
        elapsed = list(clocks)
        for d in range(top + 1):
            if d:
                for i in live:
                    if elapsed[i] < cap[i]:
                        elapsed[i] += 1
            for i in live:
                if elapsed[i] >= efd[i]:
                    effect = effects[i]
                    if effect is None:
                        effect = effects[i] = _firing(net, i, counts)
                    after, changes = effect
                    nxt = elapsed[:]
                    for j, v in changes:
                        nxt[j] = v
                    state = TimedState(net=net, counts=after,
                                       clocks=tuple(nxt))
                    if state not in seen:
                        seen.add(state)
                        out.append(((d, names[i]), state))
        return out

# TimedState.__init__ writes through the slot descriptors, since its
# __setattr__ refuses every write
_set_net = TimedState.net.__set__
_set_counts = TimedState.counts.__set__
_set_clocks = TimedState.clocks.__set__
_set_hash = TimedState._hash.__set__
