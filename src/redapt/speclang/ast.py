"""AST node types for the specification language.

Terms are variables, constants or uninterpreted function applications.
Formulas combine comparisons with Boolean connectives, the finite-trace
temporal operators ``X`` ``F`` ``G`` ``U`` and bounded quantifiers.  A
``ProcedureRef`` stands in for an imperative trigger body that names an
engine operation instead of a logic formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple, Optional, Union

Value = Union[float, bool, str]


class Term:
    """Base class for term nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str  # may be dotted, e.g. "s.value"


@dataclass(frozen=True)
class Const(Term):
    value: Value


@dataclass(frozen=True)
class Func(Term):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("function application needs at least one argument")


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    term: Term


@dataclass(frozen=True)
class Cmp(Formula):
    op: str  # one of = != < <= > >=
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class Globally(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    domain: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    domain: str
    body: Formula


@dataclass(frozen=True)
class ProcedureRef(Formula):
    """Opaque pointer to an engine operation used in trigger slots."""

    name: str


def children(node: Union[Formula, Term]) -> tuple[Union[Formula, Term], ...]:
    """The formulas and terms directly under ``node``, in field order.

    Fields are read by name: on CPython 3.11 a node keeps its attributes
    inline, and ``vars(node)`` would give it a ``__dict__`` object of its
    own, about 64 bytes more per node walked."""
    if isinstance(node, Func):
        return node.args
    values = (getattr(node, f.name) for f in fields(node))
    return tuple(v for v in values if isinstance(v, (Formula, Term)))


def variable_names(formula: Formula) -> frozenset[str]:
    """Every ``Var`` name in ``formula``, dotted and quantifier-bound names
    included: evaluation looks a state value up for no other name."""
    names: set[str] = set()
    pending: list[Union[Formula, Term]] = [formula]
    while pending:
        node = pending.pop()
        if isinstance(node, Var):
            names.add(node.name)
        else:
            pending.extend(children(node))
    return frozenset(names)


CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Connective(NamedTuple):
    token: str
    strength: int  # a higher strength binds tighter
    fixity: str  # "prefix", or how a chain of the binary connective groups: "left" or "right"


# The syntax of every connective, the one source for the parser and the
# printer.  A quantifier binds looser than any connective, a comparison
# tighter; G, F and X are prefix operators only where an operand follows.
QUANTIFIER, COMPARISON = 0, 7
CONNECTIVES = {
    Implies: Connective("->", 1, "right"),
    Or: Connective("||", 2, "left"),
    And: Connective("&&", 3, "left"),
    Not: Connective("!", 4, "prefix"),
    Globally: Connective("G", 5, "prefix"),
    Eventually: Connective("F", 5, "prefix"),
    Next: Connective("X", 5, "prefix"),
    Until: Connective("U", 6, "right"),
}


class EntityKind(str, Enum):
    GOAL = "goal"
    SOFTGOAL = "softgoal"
    TASK = "task"
    ADAPTIVE_GOAL = "adaptive_goal"
    MONITOR = "monitor"
    ANALYZE = "analyze"
    PLAN = "plan"
    EXECUTE = "execute"
    CONTEXT_UNCERTAINTY = "context_uncertainty"
    COMPONENTS_UNCERTAINTY = "components_uncertainty"


MAPE_KINDS = frozenset(
    {EntityKind.MONITOR, EntityKind.ANALYZE, EntityKind.PLAN, EntityKind.EXECUTE}
)
UNCERTAINTY_KINDS = frozenset(
    {EntityKind.CONTEXT_UNCERTAINTY, EntityKind.COMPONENTS_UNCERTAINTY}
)
INVARIANT_KINDS = frozenset(
    {EntityKind.GOAL, EntityKind.ADAPTIVE_GOAL, EntityKind.SOFTGOAL}
)


class AttrSort(str, Enum):
    NUMERIC = "numeric"
    BOOLEAN = "boolean"
    CLASS = "class"


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    sort: AttrSort
    class_name: Optional[str] = None
    indexed: bool = False  # families such as f_i covering f_1, f_2, ...

    def matches(self, symbol: str) -> bool:
        """True when ``symbol`` is this attribute or a member of its family."""
        if symbol == self.name:
            return True
        if not self.indexed:
            return False
        base = self.name[: -len("_i")]
        rest = symbol.removeprefix(base + "_")
        return rest != symbol and rest.isdigit()


class Phase(str, Enum):
    INIT = "init"
    FULFILL = "fulfill"


class Slot(str, Enum):
    PRE = "pre"
    TRIGGER = "trigger"
    POST = "post"


@dataclass(frozen=True)
class EntitySpec:
    kind: EntityKind
    name: str
    attributes: tuple[AttributeDecl, ...] = ()
    input: tuple[str, ...] = ()
    output: tuple[str, ...] = ()
    conditions: tuple[tuple[tuple[Phase, Slot], Formula], ...] = ()
    invariant: Optional[Formula] = None
    variant: Optional[Formula] = None
    violation: Optional[Formula] = None  # uncertainty kinds only
    affected_goal: Optional[str] = None
    affected_violation_kind: Optional[str] = None  # "FR" | "NFR"
    from_goal: Optional[str] = None
    tradeoff_with: Optional[str] = None
    # source positions for diagnostics; ignored by structural equality
    positions: tuple[tuple[str, tuple[int, int]], ...] = field(default=(), compare=False)

    def condition(self, phase: Phase, slot: Slot) -> Optional[Formula]:
        for key, formula in self.conditions:
            if key == (phase, slot):
                return formula
        return None

    def position_of(self, label: str) -> Optional[tuple[int, int]]:
        for name, pos in self.positions:
            if name == label:
                return pos
        return None

    def numeric_attributes(self) -> tuple[AttributeDecl, ...]:
        return tuple(a for a in self.attributes if a.sort is AttrSort.NUMERIC)

    def class_attributes(self) -> tuple[AttributeDecl, ...]:
        return tuple(a for a in self.attributes if a.sort is AttrSort.CLASS)


@dataclass(frozen=True)
class SpecDocument:
    entities: tuple[EntitySpec, ...] = ()

    def by_name(self, name: str) -> Optional[EntitySpec]:
        for e in self.entities:
            if e.name == name:
                return e
        return None

    def of_kind(self, *kinds: EntityKind) -> tuple[EntitySpec, ...]:
        return tuple(e for e in self.entities if e.kind in kinds)
