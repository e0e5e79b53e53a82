"""Adaptive goal model: an immutable goal graph with uncertainty annotations.

A model holds goals, softgoals and tasks connected by AND/OR decompositions
and Help/Hurt contributions.  Tasks that must be maintained by runtime
adaptation are represented as adaptive tasks; once an uncertainty source is
attached to them they can be promoted to adaptive goals and refined with a
Monitor/Analyze/Plan/Execute loop.

All transformation methods are pure: they return a new :class:`GoalModel`
value and never mutate the receiver, so models can be shared freely across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Sequence


class NodeKind(str, Enum):
    GOAL = "goal"
    SOFTGOAL = "softgoal"
    TASK = "task"
    ADAPTIVE_TASK = "adaptive_task"
    ADAPTIVE_GOAL = "adaptive_goal"
    MAPE_TASK = "mape_task"


class MapeRole(str, Enum):
    MONITOR = "monitor"
    ANALYZE = "analyze"
    PLAN = "plan"
    EXECUTE = "execute"


MAPE_ROLE_ORDER = (MapeRole.MONITOR, MapeRole.ANALYZE, MapeRole.PLAN, MapeRole.EXECUTE)

# Kinds that must stay leaves of the decomposition graph.
LEAF_KINDS = frozenset({NodeKind.TASK, NodeKind.ADAPTIVE_TASK, NodeKind.MAPE_TASK})

# Kinds an uncertainty source may be attached to.
ADAPTIVE_KINDS = frozenset(
    {NodeKind.ADAPTIVE_TASK, NodeKind.ADAPTIVE_GOAL, NodeKind.MAPE_TASK}
)


class DecompositionMode(str, Enum):
    AND = "and"
    OR = "or"


class ContributionPolarity(str, Enum):
    HELP = "help"
    HURT = "hurt"


class UncertaintyCategory(str, Enum):
    CONTEXT = "context"
    COMPONENTS = "components"


class ViolationKind(str, Enum):
    FR = "FR"
    NFR = "NFR"


class Satisfaction(str, Enum):
    SAT = "sat"
    VIOL = "viol"


class GoalModelError(Exception):
    """Base class for goal-model operation failures."""


class DuplicateIdError(GoalModelError):
    pass


class UnknownIdError(GoalModelError):
    pass


class ChildAlreadyOwnedError(GoalModelError):
    pass


class CycleError(GoalModelError):
    pass


class InvalidTargetKindError(GoalModelError):
    pass


class NotPromotableError(GoalModelError):
    pass


class NotAdaptiveGoalError(GoalModelError):
    pass


class AlreadyRefinedError(GoalModelError):
    pass


class MissingLeafStatusError(GoalModelError):
    pass


@dataclass(frozen=True)
class GoalNode:
    id: str
    name: str
    kind: NodeKind
    mape_role: Optional[MapeRole] = None
    agent: Optional[str] = None


@dataclass(frozen=True)
class Decomposition:
    parent: str
    children: tuple[str, ...]
    mode: DecompositionMode


@dataclass(frozen=True)
class Contribution:
    source: str
    target: str
    polarity: ContributionPolarity


@dataclass(frozen=True)
class UncertaintySource:
    id: str
    name: str
    category: UncertaintyCategory
    violation_kind: ViolationKind


@dataclass(frozen=True)
class AffectLink:
    source: str  # uncertainty id
    target: str  # node id
    label: ViolationKind


@dataclass(frozen=True)
class StructureViolation:
    """One breach found by :meth:`GoalModel.validate`."""

    code: str
    message: str
    node_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class GoalModel:
    nodes: tuple[GoalNode, ...] = ()
    decompositions: tuple[Decomposition, ...] = ()
    contributions: tuple[Contribution, ...] = ()
    uncertainties: tuple[UncertaintySource, ...] = ()
    affects: tuple[AffectLink, ...] = ()

    # -- lookups ---------------------------------------------------------

    def node(self, node_id: str) -> GoalNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise UnknownIdError(f"no node with id {node_id!r}")

    def has_node(self, node_id: str) -> bool:
        return any(n.id == node_id for n in self.nodes)

    def decomposition_of(self, parent: str) -> Optional[Decomposition]:
        for d in self.decompositions:
            if d.parent == parent:
                return d
        return None

    def parent_of(self, child: str) -> Optional[str]:
        for d in self.decompositions:
            if child in d.children:
                return d.parent
        return None

    def affects_on(self, node_id: str) -> tuple[AffectLink, ...]:
        return tuple(a for a in self.affects if a.target == node_id)

    def leaves(self) -> tuple[str, ...]:
        parents = {d.parent for d in self.decompositions}
        return tuple(n.id for n in self.nodes if n.id not in parents)

    # -- transformations -------------------------------------------------

    def add_node(self, node: GoalNode) -> "GoalModel":
        if self.has_node(node.id):
            raise DuplicateIdError(f"node id {node.id!r} already present")
        return replace(self, nodes=self.nodes + (node,))

    def decompose(
        self,
        parent: str,
        children: Sequence[str],
        mode: DecompositionMode,
    ) -> "GoalModel":
        if not children:
            raise GoalModelError("a decomposition needs at least one child")
        if len(set(children)) != len(children):
            raise ChildAlreadyOwnedError(f"duplicate children in {children!r}")
        for node_id in (parent, *children):
            if not self.has_node(node_id):
                raise UnknownIdError(f"no node with id {node_id!r}")
        for child in children:
            if self.parent_of(child) is not None:
                raise ChildAlreadyOwnedError(
                    f"node {child!r} is already a child of {self.parent_of(child)!r}"
                )
        new = replace(
            self,
            decompositions=self.decompositions
            + (Decomposition(parent, tuple(children), mode),),
        )
        if new._has_cycle():
            raise CycleError(f"decomposing {parent!r} into {children!r} creates a cycle")
        return new

    def add_contribution(
        self,
        source: str,
        target: str,
        polarity: ContributionPolarity,
    ) -> "GoalModel":
        src = self.node(source)
        tgt = self.node(target)
        if src.kind not in LEAF_KINDS:
            raise InvalidTargetKindError(
                f"contribution source {source!r} must be a task, got {src.kind.value}"
            )
        if tgt.kind is not NodeKind.SOFTGOAL:
            raise InvalidTargetKindError(
                f"contribution target {target!r} must be a softgoal, got {tgt.kind.value}"
            )
        return replace(
            self,
            contributions=self.contributions + (Contribution(source, target, polarity),),
        )

    def attach_uncertainty(self, u: UncertaintySource, target: str) -> "GoalModel":
        tgt = self.node(target)
        if tgt.kind not in ADAPTIVE_KINDS:
            raise InvalidTargetKindError(
                f"uncertainty can only affect adaptive tasks, adaptive goals or "
                f"MAPE tasks; {target!r} is a {tgt.kind.value}"
            )
        uncertainties = self.uncertainties
        existing = next((x for x in uncertainties if x.id == u.id), None)
        if existing is None:
            uncertainties = uncertainties + (u,)
        elif existing != u:
            raise DuplicateIdError(f"uncertainty id {u.id!r} already used with different fields")
        return replace(
            self,
            uncertainties=uncertainties,
            affects=self.affects + (AffectLink(u.id, target, u.violation_kind),),
        )

    def promote_to_adaptive_goal(self, target: str) -> "GoalModel":
        node = self.node(target)
        if node.kind not in (NodeKind.ADAPTIVE_TASK, NodeKind.MAPE_TASK):
            raise NotPromotableError(
                f"{target!r} is a {node.kind.value}; only adaptive tasks and MAPE "
                f"tasks can be promoted"
            )
        if not self.affects_on(target):
            raise NotPromotableError(f"{target!r} has no attached uncertainty source")
        promoted = replace(node, kind=NodeKind.ADAPTIVE_GOAL, mape_role=None)
        return replace(
            self,
            nodes=tuple(promoted if n.id == target else n for n in self.nodes),
        )

    def refine_with_mape(
        self,
        ag: str,
        names: Sequence[str],
        ids: Optional[Sequence[str]] = None,
    ) -> "GoalModel":
        node = self.node(ag)
        if node.kind is not NodeKind.ADAPTIVE_GOAL:
            raise NotAdaptiveGoalError(f"{ag!r} is a {node.kind.value}, not an adaptive goal")
        if self.decomposition_of(ag) is not None:
            raise AlreadyRefinedError(f"{ag!r} already has a decomposition")
        if len(names) != 4:
            raise GoalModelError("a MAPE refinement needs exactly four task names")
        if ids is None:
            ids = tuple(f"{ag}.{role.value}" for role in MAPE_ROLE_ORDER)
        if len(ids) != 4:
            raise GoalModelError("a MAPE refinement needs exactly four task ids")
        model = self
        for task_id, name, role in zip(ids, names, MAPE_ROLE_ORDER):
            model = model.add_node(
                GoalNode(id=task_id, name=name, kind=NodeKind.MAPE_TASK, mape_role=role)
            )
        return model.decompose(ag, tuple(ids), DecompositionMode.AND)

    # -- evaluation ------------------------------------------------------

    def propagate_satisfaction(
        self, leaf_status: Mapping[str, Satisfaction]
    ) -> dict[str, Satisfaction]:
        """Label every node by folding AND/OR decompositions bottom-up.

        AND parents are satisfied iff all children are; OR parents iff at
        least one child is.  Every leaf must appear in ``leaf_status``.
        """
        for leaf in self.leaves():
            if leaf not in leaf_status:
                raise MissingLeafStatusError(f"leaf {leaf!r} has no status")
        result: dict[str, Satisfaction] = {}

        def status_of(node_id: str) -> Satisfaction:
            if node_id in result:
                return result[node_id]
            decomp = self.decomposition_of(node_id)
            if decomp is None:
                status = leaf_status[node_id]
            else:
                child_statuses = [status_of(c) for c in decomp.children]
                if decomp.mode is DecompositionMode.AND:
                    sat = all(s is Satisfaction.SAT for s in child_statuses)
                else:
                    sat = any(s is Satisfaction.SAT for s in child_statuses)
                status = Satisfaction.SAT if sat else Satisfaction.VIOL
            result[node_id] = status
            return status

        for n in self.nodes:
            status_of(n.id)
        return result

    # -- validation ------------------------------------------------------

    def validate(self) -> list[StructureViolation]:
        """Report every structural breach; an empty list means the model is sound."""
        out: list[StructureViolation] = []
        ids = [n.id for n in self.nodes]
        known = set(ids)
        if len(ids) != len(known):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            out.append(StructureViolation("duplicate-node-id", f"duplicate node ids {dupes}", tuple(dupes)))

        for n in self.nodes:
            has_role = n.mape_role is not None
            if has_role != (n.kind is NodeKind.MAPE_TASK):
                out.append(
                    StructureViolation(
                        "mape-role-mismatch",
                        f"node {n.id!r}: mape_role must be present exactly for MAPE tasks",
                        (n.id,),
                    )
                )

        owned: dict[str, str] = {}
        for d in self.decompositions:
            missing = [x for x in (d.parent, *d.children) if x not in known]
            if missing:
                out.append(
                    StructureViolation(
                        "dangling-decomposition",
                        f"decomposition of {d.parent!r} references unknown ids {missing}",
                        tuple(missing),
                    )
                )
                continue
            if not d.children:
                out.append(
                    StructureViolation("empty-decomposition", f"decomposition of {d.parent!r} has no children", (d.parent,))
                )
            parent_kind = self.node(d.parent).kind
            if parent_kind in LEAF_KINDS:
                out.append(
                    StructureViolation(
                        "task-not-leaf",
                        f"{d.parent!r} is a {parent_kind.value} and cannot be decomposed",
                        (d.parent,),
                    )
                )
            for c in d.children:
                if c in owned:
                    out.append(
                        StructureViolation(
                            "child-owned-twice",
                            f"node {c!r} is a child of both {owned[c]!r} and {d.parent!r}",
                            (c,),
                        )
                    )
                owned[c] = d.parent

        if self._has_cycle():
            out.append(StructureViolation("decomposition-cycle", "the decomposition graph is cyclic"))

        # A refined adaptive goal must carry the full MAPE pattern: four
        # children, each either a role-bearing MAPE task or a promoted
        # adaptive goal, with no role repeated.
        for d in self.decompositions:
            if not all(x in known for x in (d.parent, *d.children)):
                continue
            if self.node(d.parent).kind is not NodeKind.ADAPTIVE_GOAL:
                continue
            if d.mode is not DecompositionMode.AND or len(d.children) != 4:
                out.append(
                    StructureViolation(
                        "mape-arity",
                        f"adaptive goal {d.parent!r} must be AND-refined into exactly "
                        f"four MAPE tasks, found {len(d.children)} ({d.mode.value})",
                        (d.parent,),
                    )
                )
                continue
            roles = []
            for c in d.children:
                child = self.node(c)
                if child.kind is NodeKind.MAPE_TASK:
                    roles.append(child.mape_role)
                elif child.kind is not NodeKind.ADAPTIVE_GOAL:
                    out.append(
                        StructureViolation(
                            "mape-child-kind",
                            f"{c!r} under adaptive goal {d.parent!r} must be a MAPE task "
                            f"or a promoted adaptive goal, got {child.kind.value}",
                            (c,),
                        )
                    )
            if len(roles) != len(set(roles)):
                out.append(
                    StructureViolation(
                        "mape-role-repeat",
                        f"adaptive goal {d.parent!r} has repeated MAPE roles",
                        (d.parent,),
                    )
                )

        for c in self.contributions:
            missing = [x for x in (c.source, c.target) if x not in known]
            if missing:
                out.append(
                    StructureViolation(
                        "dangling-contribution",
                        f"contribution references unknown ids {missing}",
                        tuple(missing),
                    )
                )
                continue
            # Promoted nodes keep their outgoing contributions, so adaptive
            # goals are legal sources even though new links require tasks.
            if self.node(c.source).kind not in (LEAF_KINDS | {NodeKind.ADAPTIVE_GOAL}):
                out.append(
                    StructureViolation(
                        "contribution-source-kind",
                        f"contribution source {c.source!r} has kind "
                        f"{self.node(c.source).kind.value}",
                        (c.source,),
                    )
                )
            if self.node(c.target).kind is not NodeKind.SOFTGOAL:
                out.append(
                    StructureViolation(
                        "contribution-target-kind",
                        f"contribution target {c.target!r} is not a softgoal",
                        (c.target,),
                    )
                )

        uncertainty_ids = {u.id for u in self.uncertainties}
        for a in self.affects:
            if a.source not in uncertainty_ids:
                out.append(
                    StructureViolation(
                        "dangling-affect-source",
                        f"affect link references unknown uncertainty {a.source!r}",
                        (a.source,),
                    )
                )
            if a.target not in known:
                out.append(
                    StructureViolation(
                        "dangling-affect-target",
                        f"affect link references unknown node {a.target!r}",
                        (a.target,),
                    )
                )
            elif self.node(a.target).kind not in ADAPTIVE_KINDS:
                out.append(
                    StructureViolation(
                        "affect-target-kind",
                        f"affect target {a.target!r} has kind {self.node(a.target).kind.value}",
                        (a.target,),
                    )
                )
        return out

    def _has_cycle(self) -> bool:
        children_of = {d.parent: d.children for d in self.decompositions}
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[str, int] = {}

        def visit(node_id: str) -> bool:
            color[node_id] = GREY
            for c in children_of.get(node_id, ()):
                state = color.get(c, WHITE)
                if state == GREY:
                    return True
                if state == WHITE and visit(c):
                    return True
            color[node_id] = BLACK
            return False

        return any(
            color.get(p, WHITE) == WHITE and visit(p) for p in children_of
        )


# -- serialization -------------------------------------------------------


def model_to_json(model: GoalModel) -> str:
    """Canonical JSON text: sorted arrays, sorted keys, trailing newline."""

    def node_dict(n: GoalNode) -> dict:
        d: dict = {"id": n.id, "name": n.name, "kind": n.kind.value}
        if n.mape_role is not None:
            d["mape_role"] = n.mape_role.value
        if n.agent is not None:
            d["agent"] = n.agent
        return d

    doc = {
        "nodes": sorted((node_dict(n) for n in model.nodes), key=lambda d: d["id"]),
        "decompositions": sorted(
            (
                {"parent": d.parent, "children": list(d.children), "mode": d.mode.value}
                for d in model.decompositions
            ),
            key=lambda d: d["parent"],
        ),
        "contributions": sorted(
            (
                {"source": c.source, "target": c.target, "polarity": c.polarity.value}
                for c in model.contributions
            ),
            key=lambda d: (d["source"], d["target"], d["polarity"]),
        ),
        "uncertainties": sorted(
            (
                {
                    "id": u.id,
                    "name": u.name,
                    "category": u.category.value,
                    "violation_kind": u.violation_kind.value,
                }
                for u in model.uncertainties
            ),
            key=lambda d: d["id"],
        ),
        "affects": sorted(
            (
                {"source": a.source, "target": a.target, "label": a.label.value}
                for a in model.affects
            ),
            key=lambda d: (d["source"], d["target"]),
        ),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def model_from_json(text: str) -> GoalModel:
    doc = json.loads(text)
    nodes = tuple(
        GoalNode(
            id=d["id"],
            name=d["name"],
            kind=NodeKind(d["kind"]),
            mape_role=MapeRole(d["mape_role"]) if "mape_role" in d else None,
            agent=d.get("agent"),
        )
        for d in doc.get("nodes", ())
    )
    decompositions = tuple(
        Decomposition(d["parent"], tuple(d["children"]), DecompositionMode(d["mode"]))
        for d in doc.get("decompositions", ())
    )
    contributions = tuple(
        Contribution(d["source"], d["target"], ContributionPolarity(d["polarity"]))
        for d in doc.get("contributions", ())
    )
    uncertainties = tuple(
        UncertaintySource(
            d["id"], d["name"], UncertaintyCategory(d["category"]), ViolationKind(d["violation_kind"])
        )
        for d in doc.get("uncertainties", ())
    )
    affects = tuple(
        AffectLink(d["source"], d["target"], ViolationKind(d["label"]))
        for d in doc.get("affects", ())
    )
    return GoalModel(nodes, decompositions, contributions, uncertainties, affects)
