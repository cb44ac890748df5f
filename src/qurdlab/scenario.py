"""Line-oriented scenario files.

A scenario bundles everything one experiment needs: the machine pool, the
jobs with their demands and semantics, the reservation timeout, optional
extensions, and the simulator knobs (latencies, duration, crash schedule,
seed).  It is one ``CatalogParams`` for the net builders and one
``SimConfig`` for the simulator, and holds nothing else.

Directives, one per line, ``#`` starts a comment; only ``job`` and
``crash`` may repeat.  ``render`` writes them in this order::

    machines 3
    job J1 demand 3 semantics wait
    job J2 demand 2 semantics wait
    timeout off
    zeroconf on
    failure-detector on
    crash M2 at 4
    bus-latency 1
    msg-latency 1
    job-duration 2
    seed 0
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import CatalogParams
from .simulator import SimConfig


class ScenarioError(ValueError):
    """Parse or validation failure; message carries the line number."""


@dataclass
class Scenario:
    model: CatalogParams
    run: SimConfig

    def params(self) -> CatalogParams:
        return self.model

    def config(self) -> SimConfig:
        return self.run

    def validate(self):
        """Problems with the model and the run this scenario describes."""
        return self.run.validate(self.model)

    def render(self) -> str:
        """Canonical text form; parse(render(s)) == s."""
        m = self.model
        out = []
        for key, records, name, _ in DIRECTIVES:
            value = getattr(getattr(self, records[0]), name)
            out.append("%s %s" % (key, "off" if value is None or value is False
                                  else "on" if value is True else value))
            if key == "machines":
                out += ["job %s demand %d semantics %s"
                        % (j, d, m.semantics_of(i))
                        for i, (j, d) in enumerate(zip(m.jobs(),
                                                       m.job_demands))]
            elif key == "failure-detector":
                out += ["crash %s at %d" % (mach, t)
                        for mach, t in self.run.crashes]
        return "\n".join(out) + "\n"


# Readers turn a directive's argument into its value; they raise ValueError
# and ``parse_scenario`` puts the line number in front.

def _int(word, what, expects="an integer"):
    try:
        return int(word)
    except ValueError:
        raise ValueError("%s expects %s, got %r"
                         % (what, expects, word)) from None


def _timeout(word, what):
    return None if word == "off" else _int(word, what, "an integer or off")


def _flag(word, what):
    if word in ("on", "off"):
        return word == "on"
    raise ValueError("%s expects on|off, got %r" % (what, word))


# The single-valued directives in render order: (directive, the records it
# writes, field, reader).  The jobs follow ``machines`` and the crashes
# ``failure-detector``.
DIRECTIVES = (
    ("machines", ("model",), "machine_count", _int),
    ("timeout", ("model", "run"), "timeout", _timeout),
    ("zeroconf", ("model",), "zeroconf", _flag),
    ("failure-detector", ("model",), "failure_detector", _flag),
    ("bus-latency", ("run",), "bus_latency", _int),
    ("msg-latency", ("run",), "msg_latency", _int),
    ("job-duration", ("run",), "job_duration", _int),
    ("seed", ("run",), "seed", _int),
)
_ROWS = {row[0]: row for row in DIRECTIVES}


def _read(sc, seen, key, args):
    """Apply one directive line to ``sc``."""
    if key in seen:
        raise ValueError("duplicate %s directive" % key)
    if key == "job":
        if len(args) != 5 or args[1] != "demand" or args[3] != "semantics":
            raise ValueError("expected job <id> demand <n> semantics "
                             "<fail|wait>")
        sc.model.job_demands.append(_int(args[2], "demand"))
        sc.model.job_ids.append(args[0])
        sc.model.semantics.append(args[4])
    elif key == "crash":
        if len(args) != 3 or args[1] != "at":
            raise ValueError("expected crash <machine> at <time>")
        sc.run.crashes.append((args[0], _int(args[2], "crash time")))
    elif key in _ROWS:
        seen.add(key)
        _, records, name, reader = _ROWS[key]
        if len(args) != 1:
            raise ValueError("%s takes 1 argument" % key)
        value = reader(args[0], key)
        for record in records:
            setattr(getattr(sc, record), name, value)
    else:
        raise ValueError("unknown directive %r" % key)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError with a line number."""
    sc = Scenario(CatalogParams(machine_count=0, job_demands=[],
                                semantics=[], job_ids=[]), SimConfig())
    seen = set()                # the single-valued directives read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if words:
            try:
                _read(sc, seen, words[0], words[1:])
            except ValueError as exc:
                raise ScenarioError("line %d: %s" % (lineno, exc)) from None
    if "machines" not in seen:
        raise ScenarioError("missing machines directive")
    errors = sc.validate()
    if errors:
        raise ScenarioError("; ".join(errors))
    return sc
