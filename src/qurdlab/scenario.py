"""Line-oriented scenario files.

A scenario bundles everything one experiment needs: the machine pool, the
jobs with their demands and semantics, the reservation timeout, optional
extensions, and the simulator knobs (latencies, duration, crash schedule,
seed).  The same scenario drives both the net builders and the simulator.

Directives, one per line, ``#`` starts a comment; only ``job`` and
``crash`` may repeat::

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

from dataclasses import dataclass, field

from .catalog import DEFAULT_TIMEOUT, WAIT, CatalogParams
from .simulator import SimConfig


class ScenarioError(ValueError):
    """Parse or validation failure; message carries the line number."""


@dataclass
class JobSpec:
    name: str
    demand: int
    semantics: str = WAIT


@dataclass
class Scenario:
    machines: int = 1
    jobs: list = field(default_factory=list)      # [JobSpec]
    timeout: int | None = DEFAULT_TIMEOUT
    zeroconf: bool = False
    failure_detector: bool = False
    crashes: list = field(default_factory=list)   # [(machine id, time)]
    bus_latency: int = 1
    msg_latency: int = 1
    job_duration: int = 2
    seed: int = 0

    def params(self) -> CatalogParams:
        return CatalogParams(
            machine_count=self.machines,
            job_demands=[j.demand for j in self.jobs],
            semantics=[j.semantics for j in self.jobs],
            timeout=self.timeout,
            zeroconf=self.zeroconf,
            failure_detector=self.failure_detector,
            job_ids=[j.name for j in self.jobs],
        )

    def config(self) -> SimConfig:
        return SimConfig(
            bus_latency=self.bus_latency,
            msg_latency=self.msg_latency,
            timeout=self.timeout,
            job_duration=self.job_duration,
            crashes=list(self.crashes),
            seed=self.seed,
        )

    def validate(self):
        """Problems with the model and the run this scenario describes."""
        return self.config().validate(self.params())

    def render(self) -> str:
        """Canonical text form; parse(render(s)) == s."""
        out = ["machines %d" % self.machines]
        for j in self.jobs:
            out.append("job %s demand %d semantics %s"
                       % (j.name, j.demand, j.semantics))
        out.append("timeout %s"
                   % ("off" if self.timeout is None else self.timeout))
        out.append("zeroconf %s" % ("on" if self.zeroconf else "off"))
        out.append("failure-detector %s"
                   % ("on" if self.failure_detector else "off"))
        for m, t in self.crashes:
            out.append("crash %s at %d" % (m, t))
        out.append("bus-latency %d" % self.bus_latency)
        out.append("msg-latency %d" % self.msg_latency)
        out.append("job-duration %d" % self.job_duration)
        out.append("seed %d" % self.seed)
        return "\n".join(out) + "\n"


def _int(word, lineno, what):
    try:
        return int(word)
    except ValueError:
        raise ScenarioError("line %d: %s expects an integer, got %r"
                            % (lineno, what, word)) from None


def _flag(word, lineno, what):
    if word == "on":
        return True
    if word == "off":
        return False
    raise ScenarioError("line %d: %s expects on|off, got %r"
                        % (lineno, what, word))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError with a line number."""
    sc = Scenario(machines=0, jobs=[])
    seen = set()                # the single-valued directives read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key, args = words[0], words[1:]
        if key in seen:
            raise ScenarioError("line %d: duplicate %s directive"
                                % (lineno, key))
        if key not in ("job", "crash"):
            seen.add(key)

        def expect(n):
            if len(args) != n:
                raise ScenarioError("line %d: %s takes %d argument%s"
                                    % (lineno, key, n, "s" if n != 1 else ""))

        if key == "machines":
            expect(1)
            sc.machines = _int(args[0], lineno, key)
        elif key == "job":
            if len(args) != 5 or args[1] != "demand" or args[3] != "semantics":
                raise ScenarioError(
                    "line %d: expected job <id> demand <n> semantics "
                    "<fail|wait>" % lineno)
            sc.jobs.append(JobSpec(args[0], _int(args[2], lineno, "demand"),
                                   args[4]))
        elif key == "timeout":
            expect(1)
            sc.timeout = None if args[0] == "off" else _int(args[0], lineno,
                                                            key)
        elif key == "zeroconf":
            expect(1)
            sc.zeroconf = _flag(args[0], lineno, key)
        elif key == "failure-detector":
            expect(1)
            sc.failure_detector = _flag(args[0], lineno, key)
        elif key == "crash":
            if len(args) != 3 or args[1] != "at":
                raise ScenarioError("line %d: expected crash <machine> at "
                                    "<time>" % lineno)
            sc.crashes.append((args[0], _int(args[2], lineno, "crash time")))
        elif key == "bus-latency":
            expect(1)
            sc.bus_latency = _int(args[0], lineno, key)
        elif key == "msg-latency":
            expect(1)
            sc.msg_latency = _int(args[0], lineno, key)
        elif key == "job-duration":
            expect(1)
            sc.job_duration = _int(args[0], lineno, key)
        elif key == "seed":
            expect(1)
            sc.seed = _int(args[0], lineno, key)
        else:
            raise ScenarioError("line %d: unknown directive %r"
                                % (lineno, key))

    if "machines" not in seen:
        raise ScenarioError("missing machines directive")
    errors = sc.validate()
    if errors:
        raise ScenarioError("; ".join(errors))
    return sc
