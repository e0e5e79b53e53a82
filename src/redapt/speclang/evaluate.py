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

Value = Union[float, bool, str, None]


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def extended(self, *states: State) -> "Trace":
        return Trace(self.states + states)


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
    return Verdict.SAT if value != 0 else Verdict.VIOL


def _compare(op: str, lhs: Value, rhs: Value) -> Verdict:
    if op in ("=", "!="):
        equal = _values_equal(lhs, rhs)
        if op == "=":
            return Verdict.SAT if equal else Verdict.VIOL
        return Verdict.VIOL if equal else Verdict.SAT
    # ordering requires two proper numbers
    if not _is_number(lhs) or not _is_number(rhs):
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
