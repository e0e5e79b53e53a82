"""Three-valued evaluation of formulas over finite traces.

Verdicts are ``SAT``, ``VIOL`` or ``INCONCLUSIVE``.  On a finite trace the
temporal operators are read conservatively: ``F`` can only be satisfied by a
witness, ``G`` can only be refuted by a counterexample, ``X`` at the last
state is inconclusive, and ``U`` follows its one-step unfolding under strong
Kleene connectives.  Definitive verdicts are therefore stable under trace
extension.

Each ``evaluate`` call computes every ``F``/``G``/``U`` subformula at most
once per position and per distinct quantifier binding, by one-step unfolding
(after Havelund & Roşu, "Synthesizing Monitors for Safety Properties", TACAS
2002): it scans forward from the queried position to the first position that
decides the operator, or one already computed, or the end, then fills the
verdicts back over the positions scanned.  Evaluation therefore costs
O(trace length) per subformula and binding, and the memo lives only for the
call.  Because a temporal operator stops at the first position that decides
it, an evaluation error further on, such as an unbound name, is not raised.

A state maps variable names to values, where ``None`` records a value the
system failed to deliver.  For ``=`` and ``!=`` an absent value behaves like
the empty string (a failed sensor satisfies ``x = ""``); ordering
comparisons against an absent value are violations.

A numeric value may also be an ``Interval``: a number known only to lie in
``[lo, hi]``.  A comparison or a truth test on one is SAT when it holds for
every number in the interval, VIOL when it holds for none and INCONCLUSIVE
otherwise, and against a non-number it gives what any number would.  Strong
Kleene connectives and the temporal unfoldings are monotone, so a verdict
that is definite on interval values is the verdict of every trace whose
values lie in those intervals and whose evaluation raises nothing (abstract
interpretation, after Cousot & Cousot, POPL 1977).  Plain values never
reach the interval code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from .ast import (
    And,
    Atom,
    Cmp,
    Const,
    Eventually,
    Exists,
    Forall,
    Formula,
    Func,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    ProcedureRef,
    Term,
    Until,
    Var,
)
from .errors import EvaluationError, InfiniteDomainError, UnboundVariableError


@dataclass(frozen=True, slots=True)
class Interval:
    """A number known only to lie in the closed interval ``[lo, hi]``; either
    bound may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo!r}, {self.hi!r}]")


Value = Union[float, bool, str, None, Interval]


class Verdict(Enum):
    SAT = "sat"
    VIOL = "viol"
    INCONCLUSIVE = "inconclusive"


def kleene_not(v: Verdict) -> Verdict:
    if v is Verdict.SAT:
        return Verdict.VIOL
    if v is Verdict.VIOL:
        return Verdict.SAT
    return Verdict.INCONCLUSIVE


def kleene_and(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.VIOL in (a, b):
        return Verdict.VIOL
    if Verdict.INCONCLUSIVE in (a, b):
        return Verdict.INCONCLUSIVE
    return Verdict.SAT


def kleene_or(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.SAT in (a, b):
        return Verdict.SAT
    if Verdict.INCONCLUSIVE in (a, b):
        return Verdict.INCONCLUSIVE
    return Verdict.VIOL


@dataclass(frozen=True, slots=True)
class Instance:
    """One class-attribute instance as seen by the monitor."""

    id: str
    value: Optional[float] = None
    select: bool = True
    gauge: bool = True

    def field(self, name: str) -> Value:
        if name == "id":
            return self.id
        if name == "value":
            return self.value
        if name == "select":
            return self.select
        if name == "gauge":
            return self.gauge
        raise UnboundVariableError(f"instance field {name!r} does not exist")


@dataclass(frozen=True, slots=True)
class State:
    time: float
    values: Mapping[str, Value] = field(default_factory=dict)
    instances: Mapping[str, Mapping[str, Instance]] = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    states: tuple[State, ...] = ()

    def __post_init__(self) -> None:
        times = [s.time for s in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("state timestamps must strictly increase")

    def __len__(self) -> int:
        return len(self.states)


_ABSENT = None


def evaluate(
    formula: Formula,
    trace: Trace,
    position: int = 0,
    env: Optional[Mapping[str, object]] = None,
    domains: Optional[Mapping[str, Sequence[Value]]] = None,
) -> Verdict:
    """Evaluate ``formula`` on ``trace`` starting at ``position``."""
    if not trace.states:
        raise EvaluationError("cannot evaluate on an empty trace")
    if not 0 <= position < len(trace.states):
        raise EvaluationError(f"position {position} outside trace of length {len(trace.states)}")
    return _Evaluator(trace, domains or {}).run(formula, position, dict(env or {}))


class _Evaluator:
    def __init__(self, trace: Trace, domains: Mapping[str, Sequence[Value]]):
        self.trace = trace
        self.domains = domains
        self.length = len(trace.states)
        # (id of an F/G/U node, quantifier bindings) -> {position: verdict}
        self.memo: dict[tuple[int, tuple], dict[int, Verdict]] = {}

    def run(self, node: Formula, pos: int, env: dict, bindings: tuple = ()) -> Verdict:
        """``bindings`` holds the ``(var, type, value)`` of every quantifier
        entered in this call, outermost first; with the node it keys the memo.
        The type keeps ``1`` and ``true`` apart, which compare alike."""
        if isinstance(node, Atom):
            return _truthy(self.term(node.term, pos, env))
        if isinstance(node, Cmp):
            return _compare(node.op, self.term(node.lhs, pos, env), self.term(node.rhs, pos, env))
        if isinstance(node, Not):
            return kleene_not(self.run(node.operand, pos, env, bindings))
        if isinstance(node, And):
            return kleene_and(
                self.run(node.lhs, pos, env, bindings), self.run(node.rhs, pos, env, bindings)
            )
        if isinstance(node, Or):
            return kleene_or(
                self.run(node.lhs, pos, env, bindings), self.run(node.rhs, pos, env, bindings)
            )
        if isinstance(node, Implies):
            return kleene_or(
                kleene_not(self.run(node.lhs, pos, env, bindings)),
                self.run(node.rhs, pos, env, bindings),
            )
        if isinstance(node, Next):
            if pos + 1 >= self.length:
                return Verdict.INCONCLUSIVE
            return self.run(node.operand, pos + 1, env, bindings)
        if isinstance(node, Eventually):
            return self.first(node, Verdict.SAT, pos, env, bindings)
        if isinstance(node, Globally):
            return self.first(node, Verdict.VIOL, pos, env, bindings)
        if isinstance(node, Until):
            return self.until(node, pos, env, bindings)
        if isinstance(node, (Forall, Exists)):
            values = self.domain_values(node.domain, pos)
            verdict = Verdict.SAT if isinstance(node, Forall) else Verdict.VIOL
            fold = kleene_and if isinstance(node, Forall) else kleene_or
            for value in values:
                env_child = dict(env)
                env_child[node.var] = value
                bound = bindings + ((node.var, type(value), value),)
                verdict = fold(verdict, self.run(node.body, pos, env_child, bound))
            return verdict
        if isinstance(node, ProcedureRef):
            raise EvaluationError(f"procedure reference {node.name!r} is not evaluable")
        raise TypeError(f"unknown formula node {node!r}")

    def first(
        self,
        node: Union[Eventually, Globally],
        decisive: Verdict,
        pos: int,
        env: dict,
        bindings: tuple,
    ) -> Verdict:
        """``F`` (decisive SAT) and ``G`` (decisive VIOL): the verdict at
        ``i`` is ``decisive`` if the operand's is, else the verdict at
        ``i + 1``, and inconclusive past the end.  Every position scanned
        before the one that decides gets the same verdict."""
        known = self.memo.setdefault((id(node), bindings), {})
        verdict = Verdict.INCONCLUSIVE
        j = pos
        while j < self.length:
            hit = known.get(j)
            if hit is not None:
                verdict = hit
                break
            if self.run(node.operand, j, env, bindings) is decisive:
                verdict = known[j] = decisive
                break
            j += 1
        for k in range(pos, j):
            known[k] = verdict
        return verdict

    def until(self, node: Until, pos: int, env: dict, bindings: tuple) -> Verdict:
        """``a U b`` at ``i`` is ``b(i) || (a(i) && (a U b)(i + 1))``, and
        inconclusive past the end.  It is decided at ``i`` without looking
        further when ``b(i)`` is SAT, ``a(i)`` is VIOL, or both are
        INCONCLUSIVE; ``a`` is not evaluated where ``b`` is SAT."""
        known = self.memo.setdefault((id(node), bindings), {})
        waiting: list[tuple[Verdict, Verdict]] = []  # (b, a) at pos, pos + 1, ...
        verdict = Verdict.INCONCLUSIVE
        j = pos
        while j < self.length:
            hit = known.get(j)
            if hit is not None:
                verdict = hit
                break
            released = self.run(node.rhs, j, env, bindings)
            if released is Verdict.SAT:
                verdict = known[j] = released
                break
            held = self.run(node.lhs, j, env, bindings)
            # b(i) || (VIOL && x) is b(i); INCONCLUSIVE || (INCONCLUSIVE && x) is INCONCLUSIVE
            if held is Verdict.VIOL or (
                held is Verdict.INCONCLUSIVE and released is Verdict.INCONCLUSIVE
            ):
                verdict = known[j] = released
                break
            waiting.append((released, held))
            j += 1
        for released, held in reversed(waiting):
            j -= 1
            verdict = known[j] = kleene_or(released, kleene_and(held, verdict))
        return verdict

    def domain_values(self, domain: str, pos: int) -> list[object]:
        state = self.trace.states[pos]
        if domain in state.instances:
            members = state.instances[domain]
            return [members[k] for k in sorted(members)]
        if domain in self.domains:
            return list(self.domains[domain])
        raise InfiniteDomainError(
            f"quantifier domain {domain!r} is not a class instance set or a declared finite domain"
        )

    def term(self, term: Term, pos: int, env: Mapping[str, object]) -> Value:
        if isinstance(term, Const):
            return term.value
        if isinstance(term, Var):
            state = self.trace.states[pos]
            name = term.name
            if name in state.values:
                return state.values[name]
            if name in env:
                bound = env[name]
                if isinstance(bound, Instance):
                    return bound.id
                return bound  # type: ignore[return-value]
            if "." in name:
                base, fieldname = name.split(".", 1)
                if base in env and isinstance(env[base], Instance):
                    return env[base].field(fieldname)
            raise UnboundVariableError(f"variable {name!r} is not bound and not in the state")
        if isinstance(term, Func):
            raise UnboundVariableError(
                f"function {term.name!r} is uninterpreted and cannot be evaluated"
            )
        raise TypeError(f"unknown term node {term!r}")


def _truthy(value: Value) -> Verdict:
    if value is _ABSENT:
        return Verdict.VIOL
    if isinstance(value, bool):
        return Verdict.SAT if value else Verdict.VIOL
    if isinstance(value, str):
        return Verdict.SAT if value else Verdict.VIOL
    if isinstance(value, Interval):
        return _interval_verdict(not value.lo <= 0 <= value.hi, not value.lo == value.hi == 0)
    return Verdict.SAT if value != 0 else Verdict.VIOL


def _compare(op: str, lhs: Value, rhs: Value) -> Verdict:
    if op in ("=", "!="):
        try:
            equal = _values_equal(lhs, rhs)
        except TypeError:  # an interval reached ``float``
            if not _interval_operands(lhs, rhs):
                raise
            return _compare_intervals(op, lhs, rhs)
        if op == "=":
            return Verdict.SAT if equal else Verdict.VIOL
        return Verdict.VIOL if equal else Verdict.SAT
    # ordering requires two proper numbers
    if not _is_number(lhs) or not _is_number(rhs):
        if _interval_operands(lhs, rhs):
            return _compare_intervals(op, lhs, rhs)
        return Verdict.VIOL
    a, b = float(lhs), float(rhs)  # type: ignore[arg-type]
    result = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    return Verdict.SAT if result else Verdict.VIOL


def _values_equal(lhs: Value, rhs: Value) -> bool:
    # an absent value equals the empty string
    a = "" if lhs is _ABSENT else lhs
    b = "" if rhs is _ABSENT else rhs
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, str) or isinstance(b, str):
        return isinstance(a, str) and isinstance(b, str) and a == b
    return float(a) == float(b)


def _is_number(value: Value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _interval_operands(lhs: Value, rhs: Value) -> bool:
    """Whether an interval meets a number or another interval: against any
    other value an interval compares as every number does."""
    return (isinstance(lhs, Interval) or _is_number(lhs)) and (
        isinstance(rhs, Interval) or _is_number(rhs)
    )


def _bounds(value: Union[float, Interval]) -> tuple[float, float]:
    if isinstance(value, Interval):
        return float(value.lo), float(value.hi)
    return float(value), float(value)


def _compare_intervals(op: str, lhs: Value, rhs: Value) -> Verdict:
    """``x op y`` for every ``x`` in ``lhs`` and ``y`` in ``rhs``: SAT if it
    holds for every pair, VIOL if for none, INCONCLUSIVE otherwise."""
    a, b = _bounds(lhs)  # type: ignore[arg-type]
    c, d = _bounds(rhs)  # type: ignore[arg-type]
    if op == "<":
        return _interval_verdict(b < c, a < d)
    if op == "<=":
        return _interval_verdict(b <= c, a <= d)
    if op == ">":
        return _interval_verdict(a > d, b > c)
    if op == ">=":
        return _interval_verdict(a >= d, b >= c)
    equal = _interval_verdict(a == b == c == d, a <= d and c <= b)
    return equal if op == "=" else kleene_not(equal)


def _interval_verdict(always: bool, sometimes: bool) -> Verdict:
    if always:
        return Verdict.SAT
    return Verdict.INCONCLUSIVE if sometimes else Verdict.VIOL
