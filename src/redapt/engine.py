"""MAPE feedback engine: monitor, diagnose, plan and execute.

The engine is generic over any managed system that answers the probe
contract (its clock, the instances filling each sensor class's slots, and a
snapshot of every probe, readings included) and accepts the effector
contract (settable parameters and rebindable component slots).  The target
is the one record of which instance fills each slot; the engine keeps only
each slot's spares.  The engine reads the specification document once per
run, in ``resolve``; every stage reads the ``Program`` it gives.  Violations
are classified by the uncertainty source: context uncertainty is diagnosed
through invariants (functional) or utility thresholds (non-functional);
components uncertainty through the instances of the sensor class the source
declares, as each slot's noise window holds them: an absent reading
(failure) or unstable readings since the instance was bound (noise).  Each
cycle observes the target once, in ``monitor_step``, and the monitored
``State`` it builds is the cycle's one record of what it observed: it
advances the windows, diagnosis reads it, and the cycle report's readings
are written from it; it is never changed.  Planning is intertwined with
analysis: every candidate reconfiguration is re-checked through a
caller-supplied verifier before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Protocol, Sequence

from .speclang import (
    AttributeDecl,
    EntityKind,
    EvaluationError,
    Formula,
    Instance,
    SpecDocument,
    State,
    Trace,
    UNCERTAINTY_KINDS,
    Verdict,
    evaluate,
)


class EngineError(Exception):
    """Base class for adaptation-engine failures."""


class ContractViolationError(EngineError):
    pass


class PlanFailedError(EngineError):
    """Planning exhausted its budget or its options; escalation required."""


class EffectorRejectedError(EngineError):
    pass


class ViolationType(Enum):
    NONE = "none"
    CONU_FR = "ConU_FR"
    CONU_NFR = "ConU_NFR"
    COMU_FR = "ComU_FR"
    COMU_NFR = "ComU_NFR"


class Reconfiguration:
    """Base class of the plan outcomes."""

    __slots__ = ()


@dataclass(frozen=True)
class NoChange(Reconfiguration):
    pass


@dataclass(frozen=True)
class Parametric(Reconfiguration):
    changes: tuple[tuple[str, float], ...]  # (parameter, new value)


@dataclass(frozen=True)
class Structural(Reconfiguration):
    replacements: tuple[tuple[str, str], ...]  # (slot, replacement instance)


# slot -> the standby instances that may fill it, in the order they are taken
Spares = dict[str, list[str]]


@dataclass(frozen=True)
class ProbeEffectorContract:
    probes: frozenset[str]  # the variables the target can be probed for
    effectors: frozenset[str]  # parameter names and component slots


def is_finite(value: object) -> bool:
    """Whether ``value`` is a finite number, not a bool.  An integer too large
    for a float is not: ``math.isfinite`` raises ``OverflowError`` on it."""
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class EngineConfig:
    """How the engine plans and monitors.  The mappings are the managed
    system's planning settings, empty unless given: desired utilities (by goal
    or utility attribute) and each plan parameter's step and search domain."""

    desired_utilities: Mapping[str, float] = field(default_factory=dict)
    param_step: Mapping[str, float] = field(default_factory=dict)
    param_domains: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    max_plan_iterations: int = 32
    noise_window: int = 5
    noise_std_threshold: float = 3.0
    cycle_period_s: float = 60.0

    def __post_init__(self) -> None:
        for name in ("desired_utilities", "param_step", "param_domains"):
            value = getattr(self, name)
            if not isinstance(value, Mapping):
                raise ValueError(f"{name} must be a mapping, not {value!r}")
        for name, threshold in self.desired_utilities.items():
            if not is_finite(threshold) or not 0.0 <= threshold <= 1.0:
                raise ValueError(f"utility threshold for {name!r} must be in [0, 1]")
        for name, step in self.param_step.items():
            if not is_finite(step):
                raise ValueError(f"step for {name!r} must be a finite number, not {step!r}")
        domains = {}
        for name, domain in self.param_domains.items():
            pair = tuple(domain) if isinstance(domain, (tuple, list)) else ()
            if len(pair) != 2 or not all(map(is_finite, pair)) or pair[0] > pair[1]:
                raise ValueError(f"domain for {name!r} must be finite [low, high], low <= high")
            domains[name] = (float(pair[0]), float(pair[1]))
        object.__setattr__(self, "param_domains", domains)
        for name in ("noise_std_threshold", "cycle_period_s"):
            value = getattr(self, name)
            if not is_finite(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        for name in ("max_plan_iterations", "noise_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.max_plan_iterations < 1:
            raise ValueError("max_plan_iterations must be at least 1")
        if self.noise_window < 2:
            raise ValueError("noise_window must be at least 2")
        if self.cycle_period_s <= 0:
            raise ValueError("cycle_period_s must be positive")

    @staticmethod
    def from_dict(data: object, defaults: Mapping = MappingProxyType({})) -> "EngineConfig":
        """A configuration from parsed JSON, laid over ``defaults`` key by
        key: a key ``data`` gives replaces that setting as a whole."""
        if not isinstance(data, Mapping):
            raise ValueError(f"engine config must be a JSON object, not {type(data).__name__}")
        return EngineConfig(**{**defaults, **data})


class ProbeSource(Protocol):
    def now(self) -> float: ...

    def instances(self, class_name: str) -> Sequence[tuple[str, str]]:
        """(slot, active instance id) pairs for one sensor class."""
        ...

    def snapshot(self) -> Mapping[str, object]:
        """Every probe's value at this instant: the derived variables
        (metrics, parameters, utilities) and each slot's reading, ``None``
        for an absent one."""
        ...


class EffectorSink(Protocol):
    def set_parameter(self, name: str, value: float) -> None: ...

    def bind_instance(self, slot: str, instance_id: str) -> str:
        """Fill ``slot`` with ``instance_id``; returns the instance it replaced."""


Verifier = Callable[[Reconfiguration], ViolationType]


class Source(NamedTuple):
    """An uncertainty affecting a goal: the violation it fires and its sensor classes."""
    name: str
    violation: ViolationType
    classes: tuple[str, ...]


class Goal(NamedTuple):
    """An entity that uncertainty affects, as the engine judges and plans it."""
    name: str
    invariant: Optional[Formula]
    sources: tuple[Source, ...]  # in document order; the first to fire wins
    utility: Optional[str]  # its utility attribute
    threshold: Optional[float]  # the desired utility, for the goal or else for the attribute
    parameters: Optional[tuple[str, ...]]  # what the first plan serving it sets; None without one


class Program(NamedTuple):
    """What the engine reads of a spec document and an engine config, once per run."""
    classes: Mapping[str, str]  # each monitored class, in order -> the first monitor naming it
    goals: Mapping[str, Goal]  # the affected goals, in document order
    gauges: tuple[tuple[str, AttributeDecl], ...]  # (monitor, numeric attribute)
    plans: tuple[tuple[str, str, tuple[str, ...]], ...]  # (plan, goal it serves, parameters)
    problems: tuple[str, ...]  # what would stop a run before it starts


def resolve(specs: SpecDocument, cfg: EngineConfig) -> Program:
    """The program of ``specs`` under ``cfg``.  Never raises: a plan parameter
    without a step, a monitor without a sensor class, a context-affected
    goal that no plan serves and a desired utility that names neither an
    affected goal nor its utility attribute are listed in its ``problems``."""
    classes, sources, goals, gauges, plans, problems = {}, {}, {}, [], [], []
    for entity in specs.entities:
        if entity.kind is EntityKind.MONITOR:
            if not entity.class_attributes():
                problems.append(f"monitor {entity.name!r} declares no sensor class to gauge through")
            for cls in entity.class_attributes():
                classes.setdefault(cls.name, entity.name)
            gauges += [(entity.name, attr) for attr in entity.numeric_attributes()]
        elif entity.kind is EntityKind.PLAN:
            # a plan output ``x_new`` is the new value of the effector parameter ``x``
            parameters = tuple(name.removesuffix("_new") for name in entity.output)
            plans.append((entity.name, entity.from_goal, parameters))
            problems += [
                f"plan {entity.name!r} produces {name!r} but the engine config gives it no param_step"
                for name in parameters if name not in cfg.param_step
            ]
        elif entity.kind in UNCERTAINTY_KINDS:
            functional = entity.affected_violation_kind == "FR"
            if entity.kind is EntityKind.CONTEXT_UNCERTAINTY:
                violation = ViolationType.CONU_FR if functional else ViolationType.CONU_NFR
            else:
                violation = ViolationType.COMU_FR if functional else ViolationType.COMU_NFR
            source = Source(entity.name, violation, tuple(c.name for c in entity.class_attributes()))
            sources.setdefault(entity.affected_goal, []).append(source)
    for entity in (e for e in specs.entities if e.name in sources):
        utility = next((a.name for a in entity.numeric_attributes() if a.name.startswith("U_")), None)
        threshold = cfg.desired_utilities.get(entity.name, cfg.desired_utilities.get(utility))
        parameters = next((p for _, served, p in plans if served == entity.name), None)
        goals[entity.name] = Goal(entity.name, entity.invariant, tuple(sources[entity.name]),
                                  utility, threshold, parameters)
        fired = {source.violation for source in sources[entity.name]}
        if parameters is None and fired & {ViolationType.CONU_FR, ViolationType.CONU_NFR}:
            problems.append(f"no plan entity serves goal {entity.name!r}")
    judged = set(goals) | {goal.utility for goal in goals.values()}
    problems += [
        f"desired_utilities names {key!r}, which is neither an affected goal nor its utility attribute"
        for key in cfg.desired_utilities if key not in judged
    ]
    return Program(MappingProxyType(classes), MappingProxyType(goals), tuple(gauges),
                   tuple(plans), tuple(problems))


def verify_contract(program: Program, contract: ProbeEffectorContract) -> list[str]:
    """Check that every monitored variable has a probe and every planned
    parameter has an effector; returns one message per breach."""
    return [
        f"monitor {monitor!r} gauges {attr.name!r} but the target answers no such probe"
        for monitor, attr in program.gauges if not any(map(attr.matches, contract.probes))
    ] + [
        f"plan {plan_name!r} produces {name!r} but the target accepts no such effector"
        for plan_name, _, parameters in program.plans
        for name in parameters if name not in contract.effectors
    ]


# -- monitoring -----------------------------------------------------------


def monitor_step(program: Program, target: ProbeSource) -> State:
    """Observe the target once, as the cycle's ``State``: its snapshot as the
    values, and each slot of the monitored classes, in the target's order,
    as an ``Instance`` holding the slot's reading from that snapshot."""
    values: dict[str, object] = dict(target.snapshot())
    instances: dict[str, dict[str, Instance]] = {}
    for cls, monitor in program.classes.items():
        pairs = target.instances(cls)
        if not pairs:
            raise ContractViolationError(
                f"target exposes no instances of class {cls!r} required by monitor {monitor!r}"
            )
        members = instances[cls] = {}
        for slot, instance_id in pairs:
            if slot not in values:
                raise ContractViolationError(f"the target's snapshot lacks slot {slot!r}")
            members[slot] = Instance(instance_id, values[slot], gauge=values[slot] is not None)
    return State(time=target.now(), values=values, instances=instances)


def window_is_noisy(values: Sequence[Optional[float]], cfg: EngineConfig) -> bool:
    """Whether one sensor's window of readings has excessive spread.  Two or
    more values deviate by at most their range / sqrt(2), so a range under
    1.4142135 thresholds is quiet; the margin outweighs the formula's rounding
    unless the readings' magnitude times their count reaches 1e9 thresholds."""
    present = [v for v in values if v is not None]
    if len(present) < 2:
        return False  # insufficient evidence
    low, high, limit = min(present), max(present), cfg.noise_std_threshold
    if high - low < limit * 1.4142135 and max(high, -low) * len(present) < limit * 1e9:
        return False
    mean = sum(present) / len(present)
    var = sum((v - mean) ** 2 for v in present) / (len(present) - 1)
    return math.sqrt(var) > limit


# -- diagnosis ------------------------------------------------------------


# fewer present readings than this in a state, and two sensors moving
# together outvote the rest on what the class reads
_CONSENSUS_MIN_READINGS = 4


def _class_median(state: State, class_name: str) -> Optional[float]:
    """The median of a class's present readings in ``state``, or None when
    fewer than ``_CONSENSUS_MIN_READINGS`` are present.  Worked out here:
    ``statistics`` would import ``fractions`` and ``decimal`` at every start."""
    present = [m.value for m in state.instances.get(class_name, {}).values()]
    present = [v for v in present if v is not None]
    if len(present) < _CONSENSUS_MIN_READINGS:
        return None
    present.sort()
    half = len(present) // 2
    return present[half] if len(present) % 2 else (present[half - 1] + present[half]) / 2


Windows = Mapping[str, Mapping[str, tuple[str, tuple[Optional[float], ...]]]]


def reading_windows(
    states: Sequence[State], cfg: EngineConfig, windows: Windows = MappingProxyType({})
) -> Windows:
    """``windows`` (class -> slot -> (instance id, readings)) advanced through
    ``states``: each slot of the last state, in its order, with the last
    ``noise_window`` readings of its instance.  A slot that a state lacks, or
    that a new instance fills, starts over."""
    keep = 1 - cfg.noise_window
    for state in states:
        folded: dict[str, dict] = {}
        for cls, members in state.instances.items():
            before, now = windows.get(cls, {}), folded.setdefault(cls, {})
            for slot, instance in members.items():
                held, readings = before.get(slot, (None, ()))
                kept = readings[keep:] if held == instance.id else ()
                now[slot] = (instance.id, kept + (instance.value,))
        windows = folded
    return windows


def faulty_slots(
    source: Source, trace: Trace, cfg: EngineConfig, windows: Windows
) -> list[str]:
    """Slots, in the target's order, of the classes a components-uncertainty
    source declares whose instance has failed (FR: it reads absent) or is noisy
    (NFR: its window in ``windows`` is noisy).

    A real change in what the class gauges spreads every healthy sensor's
    window alike.  So a window that fails is tested again on its residuals
    from the class's median reading in each state, when every one of those
    states has enough readings for a consensus; the residuals decide."""
    window = trace.states[-cfg.noise_window :]
    out: list[str] = []
    for cls in source.classes:
        medians: Optional[list[Optional[float]]] = None  # by window position, once one fires
        for slot, (_, values) in windows.get(cls, {}).items():
            if source.violation is ViolationType.COMU_FR:
                faulty = values[-1] is None
            else:
                faulty = window_is_noisy(values, cfg)
                if faulty:
                    if medians is None:
                        medians = [_class_median(state, cls) for state in window]
                    consensus = medians[len(window) - len(values) :]
                    if None not in consensus:
                        residuals = [v if v is None else v - m for v, m in zip(values, consensus)]
                        faulty = window_is_noisy(residuals, cfg)
            if faulty:
                out.append(slot)
    return out


def invariant_verdict(goal: Goal, state: State) -> Verdict:
    """The goal's invariant evaluated on ``state`` alone, which is its verdict
    at the last state of any trace ending in ``state``: no operator reads an
    earlier position.  An invariant that reads a variable the state lacks,
    applies a function or ranges over a class it does not hold raises
    ``ContractViolationError`` naming the goal."""
    try:
        return evaluate(goal.invariant, Trace((state,)))
    except EvaluationError as exc:
        raise ContractViolationError(
            f"the invariant of {goal.name!r} cannot be evaluated: {exc}"
        ) from exc


def invariant_verdicts(program: Program, trace: Trace) -> dict[str, Verdict]:
    """Each affected goal's invariant verdict at the trace's last state.  An
    invariant the target cannot answer ends the run: the target's probes do
    not change, so no later cycle could evaluate it either."""
    if not trace.states:
        return {}
    judged = (goal for goal in program.goals.values() if goal.invariant is not None)
    return {goal.name: invariant_verdict(goal, trace.states[-1]) for goal in judged}


def utility_violated(goal: Goal, state: State) -> bool:
    """Whether the goal's utility attribute reads below its threshold in
    ``state``.  False without a threshold, or without the state's value."""
    value = state.values.get(goal.utility)  # None when the goal has no utility attribute
    return goal.threshold is not None and value is not None and float(value) < goal.threshold


def diagnose(
    program: Program,
    trace: Trace,
    cfg: EngineConfig,
    verdicts: Mapping[str, Verdict],
    windows: Windows,
) -> dict[str, tuple[ViolationType, list[str]]]:
    """Classify each affected goal's state into the violation taxonomy, with
    the slots that fail it.

    The case split follows the affecting uncertainty's category and
    requirement kind; the first source reporting a violation wins, and an
    inconclusive invariant verdict counts as no violation.  ``verdicts`` are
    the invariant verdicts at the last state, as ``invariant_verdicts``
    gives them; a utility is judged by ``utility_violated``.  Components
    uncertainty is read from the noise windows (``faulty_slots``, with
    ``windows``); the failing slots are those of the components source that
    fired, in the target's order, and empty for any other violation.
    """
    result: dict[str, tuple[ViolationType, list[str]]] = {}
    for goal in program.goals.values():
        verdict, failing = ViolationType.NONE, []
        for source in goal.sources:
            if source.violation is ViolationType.CONU_FR:
                fired = verdicts.get(goal.name) is Verdict.VIOL
            elif source.violation is ViolationType.CONU_NFR:
                fired = bool(trace.states) and utility_violated(goal, trace.states[-1])
            else:
                fired = bool(failing := faulty_slots(source, trace, cfg, windows))
            if fired:
                verdict = source.violation
                break
        result[goal.name] = (verdict, failing)
    return result


# -- planning -------------------------------------------------------------


def plan(
    program: Program,
    goal: str,
    violation: ViolationType,
    params: Mapping[str, float],
    spares: Mapping[str, Sequence[str]],
    verifier: Verifier,
    cfg: EngineConfig,
    failing: Sequence[str] = (),
) -> Reconfiguration:
    """Search a reconfiguration that the verifier accepts.

    Context violations step the goal's plan parameters by their configured
    increments, re-verifying after each step; components violations swap the
    failing slots onto their first spare.  Raises
    :class:`PlanFailedError` when the budget or the options run out.
    """
    if violation is ViolationType.NONE:
        return NoChange()

    if violation in (ViolationType.CONU_FR, ViolationType.CONU_NFR):
        parameters = program.goals[goal].parameters
        if parameters is None:
            raise PlanFailedError(f"no plan entity serves goal {goal!r}")
        names = list(parameters)
        if not names:
            raise PlanFailedError(f"plan entity for {goal!r} declares no output parameters")
        missing = [n for n in names if n not in params]
        if missing:
            raise ContractViolationError(f"target exposes no parameters {missing}")
        candidate = {n: float(params[n]) for n in names}
        # planning is intertwined with analysis: when the current setting
        # already verifies clean, the live violation is transient convergence
        # and the configuration is kept
        if verifier(Parametric(tuple((n, candidate[n]) for n in names))) is ViolationType.NONE:
            return NoChange()
        for _ in range(cfg.max_plan_iterations - 1):
            moved = False
            for n in names:
                step = cfg.param_step.get(n)
                if step is None:
                    raise PlanFailedError(f"no step size configured for parameter {n!r}")
                low, high = cfg.param_domains.get(n, (-math.inf, math.inf))
                stepped = min(max(candidate[n] + step, low), high)
                if stepped != candidate[n]:
                    moved = True
                candidate[n] = stepped
            if not moved:
                raise PlanFailedError(
                    f"parameters {names} are clamped at their domain bounds and the "
                    f"violation persists"
                )
            reconfig = Parametric(tuple((n, candidate[n]) for n in names))
            if verifier(reconfig) is ViolationType.NONE:
                return reconfig
        raise PlanFailedError(
            f"no acceptable parameter setting within {cfg.max_plan_iterations} iterations"
        )

    # components violation: structural replacement
    if not failing:
        raise PlanFailedError(f"components violation on {goal!r} without identified slots")
    replacements = []
    for slot in failing:
        standby = spares.get(slot)
        if not standby:
            raise PlanFailedError(f"no standby instance available for slot {slot!r}")
        replacements.append((slot, standby[0]))
    reconfig = Structural(tuple(replacements))
    if verifier(reconfig) is not ViolationType.NONE:
        raise PlanFailedError(f"replacement for {failing} does not clear the violation")
    return reconfig


# -- execution ------------------------------------------------------------


def execute(
    reconfig: Reconfiguration,
    target: EffectorSink,
    spares: Spares,
    cfg: EngineConfig,
) -> None:
    """Apply a reconfiguration.  A swap takes its replacement off the slot's
    spares and puts the instance the target reports replaced at their back."""
    if isinstance(reconfig, NoChange):
        return
    if isinstance(reconfig, Parametric):
        for name, value in reconfig.changes:
            low, high = cfg.param_domains.get(name, (-math.inf, math.inf))
            if not low <= value <= high:
                raise EffectorRejectedError(
                    f"value {value} for parameter {name!r} is outside [{low}, {high}]"
                )
        for name, value in reconfig.changes:
            target.set_parameter(name, value)
        return
    if isinstance(reconfig, Structural):
        for slot, replacement in reconfig.replacements:
            standby = spares.get(slot, [])
            if replacement not in standby:
                raise EffectorRejectedError(
                    f"instance {replacement!r} is not on standby for slot {slot!r}"
                )
            standby.remove(replacement)
            standby.append(target.bind_instance(slot, replacement))
        return
    raise TypeError(f"unknown reconfiguration {reconfig!r}")


# -- the loop -------------------------------------------------------------


@dataclass
class CycleReport:
    cycle_index: int
    sim_time: float
    # the monitored state's instances, class -> slot -> Instance; each a cycles.jsonl reading
    instances: Mapping[str, Mapping[str, Instance]] = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)
    violation: dict[str, str] = field(default_factory=dict)
    reconfiguration: dict[str, object] = field(default_factory=dict)
    post_verdicts: dict[str, str] = field(default_factory=dict)
    plan_iterations: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "cycle_index": self.cycle_index,
            "sim_time": self.sim_time,
            "readings": [
                {
                    "sensor_id": instance.id,
                    "variable": slot,
                    "value": instance.value,
                    "timestamp": self.sim_time,
                }
                for members in self.instances.values()
                for slot, instance in members.items()
            ],
            "verdicts": dict(self.verdicts),
            "violation": dict(self.violation),
            "reconfiguration": dict(self.reconfiguration),
            "post_verdicts": dict(self.post_verdicts),
            "plan_iterations": dict(self.plan_iterations),
            "errors": list(self.errors),
        }


def reconfiguration_to_dict(reconfig: Reconfiguration) -> dict:
    if isinstance(reconfig, NoChange):
        return {"kind": "no_change"}
    if isinstance(reconfig, Parametric):
        return {
            "kind": "parametric",
            "changes": [{"param": n, "value": v} for n, v in reconfig.changes],
        }
    if isinstance(reconfig, Structural):
        return {
            "kind": "structural",
            "replacements": [
                {"slot": s, "instance": i} for s, i in reconfig.replacements
            ],
        }
    raise TypeError(f"unknown reconfiguration {reconfig!r}")


class AdaptationEngine:
    """Drives one managed system through monitor/diagnose/plan/execute cycles.

    Cycles never overlap; state carried between cycles is each slot's
    spares, the cycle counter, the last ``noise_window`` monitored states and
    each slot's noise window, advanced once per cycle by ``reading_windows``.
    Those suffice: every invariant is future-time and evaluated at the last
    state, and noise detection reads the windows and the states' class
    medians.  A swap changes no kept state; the slot's window starts over.
    A cycle's monitored state, built by ``monitor_step``, is its one record
    of what it observed; its report holds that state's sensor instances.
    """

    def __init__(self, specs: SpecDocument, cfg: EngineConfig, spares: Spares):
        self.program = resolve(specs, cfg)
        self.cfg = cfg
        self.spares = spares
        self.trace = Trace()
        self.windows: Windows = {}
        self.cycle_index = 0

    def cycle(
        self,
        target: ProbeSource,
        effector: EffectorSink,
        verifier_for: Callable[[str, ViolationType], Verifier],
    ) -> CycleReport:
        report = CycleReport(cycle_index=self.cycle_index, sim_time=target.now())
        # stage failures are data for the report, not reasons to stop looping
        try:
            state = monitor_step(self.program, target)
        except EngineError as exc:
            report.errors.append(f"monitoring failed: {exc}")
            self.cycle_index += 1
            return report
        self.trace = Trace(self.trace.states[1 - self.cfg.noise_window :] + (state,))
        self.windows = reading_windows((state,), self.cfg, self.windows)
        report.instances = state.instances

        # unlike a stage failure, an invariant the target cannot answer ends the run
        verdicts = invariant_verdicts(self.program, self.trace)
        report.verdicts = {goal: outcome.value for goal, outcome in verdicts.items()}

        try:
            violations = diagnose(self.program, self.trace, self.cfg, verdicts, self.windows)
        except EngineError as exc:
            report.errors.append(f"diagnosis failed: {exc}")
            self.cycle_index += 1
            return report
        report.violation = {goal: vt.value for goal, (vt, _) in violations.items()}

        params: Optional[dict[str, float]] = None  # built for the first violated goal
        for goal, (vt, failing) in violations.items():
            if vt is ViolationType.NONE:
                report.post_verdicts[goal] = ViolationType.NONE.value
                continue
            if params is None:
                # the parameters as observed, kept current as this cycle's plans are applied
                params = {
                    k: float(v) for k, v in state.values.items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)
                }
            calls = 0
            base_verifier = verifier_for(goal, vt)

            def counted(candidate: Reconfiguration) -> ViolationType:
                nonlocal calls
                calls += 1
                return base_verifier(candidate)

            try:
                reconfig = plan(
                    self.program, goal, vt, params, self.spares,
                    counted, self.cfg, failing,
                )
            except PlanFailedError as exc:
                report.errors.append(f"plan failed for {goal!r}: {exc}")
                report.plan_iterations[goal] = calls
                report.post_verdicts[goal] = vt.value
                continue
            report.plan_iterations[goal] = calls
            report.reconfiguration[goal] = reconfiguration_to_dict(reconfig)
            execute(reconfig, effector, self.spares, self.cfg)
            if isinstance(reconfig, Parametric):
                params.update(reconfig.changes)
            report.post_verdicts[goal] = ViolationType.NONE.value

        self.cycle_index += 1
        return report
