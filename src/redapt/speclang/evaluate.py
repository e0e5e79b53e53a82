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

A formula is compiled on its first evaluation into nested closures, each
built for its node's type and a comparison's operator (after
Feeley & Lapalme, "Using Closures for Code Generation", Computer Languages
12(1), 1987).  The program is kept, by the formula's identity, while the
formula lives, and serves every later call on any trace; only the memo is
per call.  A comparison of two floats is decided in its closure.  So is a
variable against a constant under ``=`` / ``!=`` when both are strings, or
one is a string and the other a float, which are never equal.  Any other
pair of values, absent values among them, takes the general rules below.

A trace is held by column: its times and one value list per name (after
Boncz, Zukowski & Nes, "MonetDB/X100", CIDR 2005).  A variable reads its
column at the position.  A trace built from states builds a column on the
first read of its name; one built from columns, as ``verify`` reads a
trace.csv, builds its states only when they are asked for.

A state maps variable names to values, where ``None`` records a value the
system failed to deliver.  For ``=`` and ``!=`` an absent value behaves like
the empty string (a failed sensor satisfies ``x = ""``); ordering
comparisons against an absent value are violations.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence, Union

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


# a recorded trace holds no class instances: one read-only empty mapping
# serves every state built from its columns
_NO_INSTANCES: Mapping[str, Mapping[str, Instance]] = MappingProxyType({})

_NO_DOMAINS: Mapping[str, Sequence[Value]] = MappingProxyType({})

# a column's cell where the state at that position lacks the name
_MISSING = object()


class _Columns(dict):
    """A trace's value lists by name.  A name not yet read is built on first
    read from ``states``, ``_MISSING`` where a state lacks it; a trace built
    from columns has no states, and a name it lacks reads as ``None``, no
    column."""

    __slots__ = ("states",)

    def __missing__(self, name: str) -> Optional[list]:
        states = self.states
        column = None if states is None else [s.values.get(name, _MISSING) for s in states]
        self[name] = column
        return column


class Trace:
    """A finite trace, held by column: ``times`` and one value list per
    name, read through ``columns``.  ``Trace(states)`` builds each column
    from the states on its first read; ``Trace.from_columns`` takes typed
    columns as they are, and builds its ``states`` only when they are
    asked for.  Times must strictly increase."""

    __slots__ = ("times", "columns", "_states")

    def __init__(self, states: Sequence[State] = ()):
        self._states: Optional[tuple[State, ...]] = tuple(states)
        self.times: list[float] = [state.time for state in self._states]
        self.columns = _Columns()
        self.columns.states = self._states
        self._check()

    @classmethod
    def from_columns(cls, times: list[float], columns: Mapping[str, list]) -> Trace:
        """A trace of states without class instances, one per time, whose
        values are the cells of ``columns`` at that position; ``columns``
        keeps its order in ``states``."""
        trace = cls.__new__(cls)
        trace._states = None
        trace.times = times
        trace.columns = _Columns(columns)
        trace.columns.states = None
        if any(len(column) != len(times) for column in columns.values()):
            raise ValueError("every column must hold one value per time")
        trace._check()
        return trace

    def _check(self) -> None:
        times = self.times
        # each time less than the next: a NaN is less than nothing
        if len(times) > 1 and not all(map(operator.lt, times, times[1:])):
            raise ValueError("state timestamps must strictly increase")

    @property
    def states(self) -> tuple[State, ...]:
        if self._states is None:
            names = [name for name, column in self.columns.items() if column is not None]
            columns = map(self.columns.__getitem__, names)
            rows = zip(*columns) if names else repeat((), len(self.times))
            values = map(dict, map(zip, repeat(names), rows))
            self._states = tuple(map(State, self.times, values, repeat(_NO_INSTANCES)))
        return self._states

    def instances(self, pos: int) -> Mapping[str, Mapping[str, Instance]]:
        """The class instance sets of the state at ``pos``."""
        return _NO_INSTANCES if self._states is None else self._states[pos].instances

    def __len__(self) -> int:
        return len(self.times)


def evaluate(
    formula: Formula,
    trace: Trace,
    position: int = 0,
    env: Optional[Mapping[str, object]] = None,
    domains: Optional[Mapping[str, Sequence[Value]]] = None,
) -> Verdict:
    """Evaluate ``formula`` on ``trace`` starting at ``position``."""
    if not len(trace):
        raise EvaluationError("cannot evaluate on an empty trace")
    if not 0 <= position < len(trace):
        raise EvaluationError(f"position {position} outside trace of length {len(trace)}")
    return _Evaluator(trace, domains or _NO_DOMAINS).run(formula, position, dict(env) if env else {})


class _Evaluator:
    """The context of one evaluation call: the trace, its columns and the memo."""

    def __init__(self, trace: Trace, domains: Mapping[str, Sequence[Value]]):
        self.trace = trace
        self.columns = trace.columns
        self.domains = domains
        self.length = len(trace)
        # (id of an F/G/U node, quantifier bindings) -> {position: verdict}
        self.memo: dict[tuple[int, tuple], dict[int, Verdict]] = {}

    def run(self, node: Formula, pos: int, env: dict, bindings: tuple = ()) -> Verdict:
        """``bindings`` holds the ``(var, type, value)`` of every quantifier
        entered in this call, outermost first; with the node it keys the memo.
        The type keeps ``1`` and ``true`` apart, which compare alike."""
        return _program(node)(self, pos, env, bindings)

    def domain_values(self, domain: str, pos: int) -> list[object]:
        instances = self.trace.instances(pos)
        if domain in instances:
            members = instances[domain]
            return [members[k] for k in sorted(members)]
        if domain in self.domains:
            return list(self.domains[domain])
        raise InfiniteDomainError(
            f"quantifier domain {domain!r} is not a class instance set or a declared finite domain"
        )


# -- compiling: a formula becomes nested closures, once ----------------------
#
# A formula's program is ``program(evaluator, pos, env, bindings) -> Verdict``
# and a term's is ``program(evaluator, pos, env) -> Value``.  Each is built
# for its node's type (and a comparison's operator), so evaluation dispatches
# on nothing; the closures only read the evaluator they are handed, so one
# program serves every trace and call.

Program = Callable[["_Evaluator", int, dict, tuple], Verdict]
TermProgram = Callable[["_Evaluator", int, Mapping[str, object]], Value]

_SAT, _VIOL, _INCONCLUSIVE = Verdict.SAT, Verdict.VIOL, Verdict.INCONCLUSIVE

# id of a formula -> (a weak reference to it, its program); the reference's
# callback drops the entry when the formula goes, before its id can be reused
_programs: dict[int, tuple[weakref.ref, Program]] = {}


def _program(formula: Formula) -> Program:
    """``formula``'s program, compiled on its first evaluation and kept while
    it lives.  Keyed by identity: hashing a frozen AST walks the whole tree."""
    key = id(formula)
    entry = _programs.get(key)
    if entry is not None:
        return entry[1]
    program = _compile(formula)
    _programs[key] = (weakref.ref(formula, lambda _, key=key: _programs.pop(key, None)), program)
    return program


def _compile(node: Formula) -> Program:
    for cls in type(node).__mro__:
        compiler = _COMPILERS.get(cls)
        if compiler is not None:
            return compiler(node)

    def unknown(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        raise TypeError(f"unknown formula node {node!r}")

    return unknown


def _compile_atom(node: Atom) -> Program:
    if isinstance(node.term, Var):
        name = node.term.name

        def atom_of_var(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
            column = ev.columns[name]  # ``_compile_var``'s closure, inlined
            value = _MISSING if column is None else column[pos]
            if value is _MISSING:
                value = _bound(name, env)
            if value is True:
                return _SAT
            if value is False:
                return _VIOL
            return _truthy(value)

        return atom_of_var

    term = _compile_term(node.term)

    def atom(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        value = term(ev, pos, env)
        if value is True:
            return _SAT
        if value is False:
            return _VIOL
        return _truthy(value)

    return atom


_TESTS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class _Never:
    """A type no value has: the fast paths a comparison does not take."""


def _compile_cmp(node: Cmp) -> Program:
    """Two floats are compared directly; any other pair of values goes
    through ``_compare``.  A variable against a constant, the commonest
    comparison, has a closure of its own."""
    if isinstance(node.lhs, Var) and isinstance(node.rhs, Const):
        return _compile_var_cmp(node.op, node.lhs.name, node.rhs.value)
    op, test = node.op, _TESTS[node.op]
    lhs, rhs = _compile_term(node.lhs), _compile_term(node.rhs)

    def comparison(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        a, b = lhs(ev, pos, env), rhs(ev, pos, env)
        if type(a) is float and type(b) is float:
            return _SAT if test(a, b) else _VIOL
        return _compare(op, a, b)

    return comparison


def _compile_var_cmp(op: str, name: str, b: Value) -> Program:
    """``name op b`` for a constant ``b``: the variable's column is read
    inline.  A value of type ``direct`` is compared directly; under ``=``
    and ``!=`` a float never equals a string, so a value of type ``unlike``
    gives ``unequal`` at once."""
    test = _TESTS[op]
    equality = op in ("=", "!=")
    direct: type = _Never
    unlike: type = _Never
    if type(b) is float:
        direct, unlike = float, str if equality else _Never
    elif type(b) is str and equality:
        direct, unlike = str, float
    unequal = _VIOL if op == "=" else _SAT

    def comparison(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        column = ev.columns[name]  # ``_compile_var``'s closure, inlined
        a = _MISSING if column is None else column[pos]
        if a is _MISSING:
            a = _bound(name, env)
        kind = type(a)
        if kind is direct:
            return _SAT if test(a, b) else _VIOL
        if kind is unlike:
            return unequal
        return _compare(op, a, b)

    return comparison


def _compile_not(node: Not) -> Program:
    operand = _compile(node.operand)

    def negation(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        verdict = operand(ev, pos, env, bindings)
        if verdict is _SAT:
            return _VIOL
        if verdict is _VIOL:
            return _SAT
        return _INCONCLUSIVE

    return negation


def _compile_and(node: And) -> Program:
    lhs, rhs = _compile(node.lhs), _compile(node.rhs)

    def conjunction(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        a, b = lhs(ev, pos, env, bindings), rhs(ev, pos, env, bindings)
        if a is _VIOL or b is _VIOL:
            return _VIOL
        if a is _INCONCLUSIVE or b is _INCONCLUSIVE:
            return _INCONCLUSIVE
        return _SAT

    return conjunction


def _compile_or(node: Or) -> Program:
    return _disjunction(_compile(node.lhs), _compile(node.rhs), negate_lhs=False)


def _compile_implies(node: Implies) -> Program:
    return _disjunction(_compile(node.lhs), _compile(node.rhs), negate_lhs=True)


def _disjunction(lhs: Program, rhs: Program, negate_lhs: bool) -> Program:
    """``lhs || rhs``, or ``!lhs || rhs``; both sides are evaluated."""
    true_lhs = _VIOL if negate_lhs else _SAT

    def disjunction(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        a, b = lhs(ev, pos, env, bindings), rhs(ev, pos, env, bindings)
        if a is true_lhs or b is _SAT:
            return _SAT
        if a is _INCONCLUSIVE or b is _INCONCLUSIVE:
            return _INCONCLUSIVE
        return _VIOL

    return disjunction


def _compile_next(node: Next) -> Program:
    operand = _compile(node.operand)

    def next_(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        if pos + 1 >= ev.length:
            return _INCONCLUSIVE
        return operand(ev, pos + 1, env, bindings)

    return next_


def _compile_eventually(node: Eventually) -> Program:
    return _first(id(node), _compile(node.operand), _SAT)


def _compile_globally(node: Globally) -> Program:
    return _first(id(node), _compile(node.operand), _VIOL)


def _first(key: int, operand: Program, decisive: Verdict) -> Program:
    """``F`` (decisive SAT) and ``G`` (decisive VIOL): the verdict at ``i``
    is ``decisive`` if the operand's is, else the verdict at ``i + 1``, and
    inconclusive past the end.  Every position scanned before the one that
    decides gets the same verdict."""
    unbound = (key, ())

    def first(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        memo_key = (key, bindings) if bindings else unbound
        known = ev.memo.get(memo_key)
        if known is None:
            known = ev.memo[memo_key] = {}
        verdict = _INCONCLUSIVE
        j, length = pos, ev.length
        while j < length:
            hit = known.get(j)
            if hit is not None:
                verdict = hit
                break
            if operand(ev, j, env, bindings) is decisive:
                verdict = known[j] = decisive
                break
            j += 1
        for k in range(pos, j):
            known[k] = verdict
        return verdict

    return first


def _compile_until(node: Until) -> Program:
    """``a U b`` at ``i`` is ``b(i) || (a(i) && (a U b)(i + 1))``, and
    inconclusive past the end.  It is decided at ``i`` without looking
    further when ``b(i)`` is SAT, ``a(i)`` is VIOL, or both are
    INCONCLUSIVE; ``a`` is not evaluated where ``b`` is SAT."""
    key, lhs, rhs = id(node), _compile(node.lhs), _compile(node.rhs)
    unbound = (key, ())

    def until(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        memo_key = (key, bindings) if bindings else unbound
        known = ev.memo.get(memo_key)
        if known is None:
            known = ev.memo[memo_key] = {}
        waiting: list[tuple[Verdict, Verdict]] = []  # (b, a) at pos, pos + 1, ...
        verdict = _INCONCLUSIVE
        j, length = pos, ev.length
        while j < length:
            hit = known.get(j)
            if hit is not None:
                verdict = hit
                break
            released = rhs(ev, j, env, bindings)
            if released is _SAT:
                verdict = known[j] = released
                break
            held = lhs(ev, j, env, bindings)
            # b(i) || (VIOL && x) is b(i); INCONCLUSIVE || (INCONCLUSIVE && x) is INCONCLUSIVE
            if held is _VIOL or (held is _INCONCLUSIVE and released is _INCONCLUSIVE):
                verdict = known[j] = released
                break
            waiting.append((released, held))
            j += 1
        for released, held in reversed(waiting):
            j -= 1
            verdict = known[j] = kleene_or(released, kleene_and(held, verdict))
        return verdict

    return until


def _compile_quantifier(node: Union[Forall, Exists]) -> Program:
    var, domain, body = node.var, node.domain, _compile(node.body)
    universal = isinstance(node, Forall)
    start = _SAT if universal else _VIOL
    fold = kleene_and if universal else kleene_or

    def quantifier(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        verdict = start
        for value in ev.domain_values(domain, pos):
            env_child = dict(env)
            env_child[var] = value
            bound = bindings + ((var, type(value), value),)
            verdict = fold(verdict, body(ev, pos, env_child, bound))
        return verdict

    return quantifier


def _compile_procedure(node: ProcedureRef) -> Program:
    def procedure(ev: _Evaluator, pos: int, env: dict, bindings: tuple) -> Verdict:
        raise EvaluationError(f"procedure reference {node.name!r} is not evaluable")

    return procedure


_COMPILERS: dict[type, Callable[[Formula], Program]] = {
    Atom: _compile_atom,
    Cmp: _compile_cmp,
    Not: _compile_not,
    And: _compile_and,
    Or: _compile_or,
    Implies: _compile_implies,
    Next: _compile_next,
    Eventually: _compile_eventually,
    Globally: _compile_globally,
    Until: _compile_until,
    Forall: _compile_quantifier,
    Exists: _compile_quantifier,
    ProcedureRef: _compile_procedure,
}


def _compile_term(term: Term) -> TermProgram:
    if isinstance(term, Const):
        value = term.value
        return lambda ev, pos, env: value
    if isinstance(term, Var):
        return _compile_var(term.name)

    def failing(ev: _Evaluator, pos: int, env: Mapping[str, object]) -> Value:
        if isinstance(term, Func):
            raise UnboundVariableError(
                f"function {term.name!r} is uninterpreted and cannot be evaluated"
            )
        raise TypeError(f"unknown term node {term!r}")

    return failing


def _compile_var(name: str) -> TermProgram:
    """The state's value first, else ``_bound``."""

    def var(ev: _Evaluator, pos: int, env: Mapping[str, object]) -> Value:
        column = ev.columns[name]
        value = _MISSING if column is None else column[pos]
        return _bound(name, env) if value is _MISSING else value

    return var


def _bound(name: str, env: Mapping[str, object]) -> Value:
    """A name the state lacks: a quantifier's binding (an instance reads as
    its id), else a field of a bound instance (``s.value``)."""
    if name in env:
        bound = env[name]
        if isinstance(bound, Instance):
            return bound.id
        return bound  # type: ignore[return-value]
    base, dotted, fieldname = name.partition(".")
    if dotted and base in env and isinstance(env[base], Instance):
        return env[base].field(fieldname)  # type: ignore[union-attr]
    raise UnboundVariableError(f"variable {name!r} is not bound and not in the state")


_ABSENT = None


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

