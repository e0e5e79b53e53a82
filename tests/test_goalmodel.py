import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redapt.goalmodel import (
    AlreadyRefinedError,
    ChildAlreadyOwnedError,
    ContributionPolarity,
    CycleError,
    DecompositionMode,
    DuplicateIdError,
    GoalModel,
    GoalNode,
    InvalidTargetKindError,
    MapeRole,
    MissingLeafStatusError,
    NodeKind,
    NotAdaptiveGoalError,
    NotPromotableError,
    Satisfaction,
    UncertaintyCategory,
    UncertaintySource,
    UnknownIdError,
    ViolationKind,
    model_from_json,
    model_to_json,
)

SAT = Satisfaction.SAT
VIOL = Satisfaction.VIOL


def goal(node_id, name=None, kind=NodeKind.GOAL):
    return GoalNode(node_id, name or node_id, kind)


def conu(uid="ConU1", kind=ViolationKind.FR):
    return UncertaintySource(uid, uid, UncertaintyCategory.CONTEXT, kind)


def comu(uid="ComU1", kind=ViolationKind.FR):
    return UncertaintySource(uid, uid, UncertaintyCategory.COMPONENTS, kind)


@pytest.fixture
def small_model():
    m = GoalModel()
    m = m.add_node(goal("g1"))
    m = m.add_node(goal("sg1", kind=NodeKind.SOFTGOAL))
    m = m.add_node(goal("t1", kind=NodeKind.TASK))
    m = m.add_node(goal("t2", kind=NodeKind.TASK))
    m = m.add_node(goal("At1", kind=NodeKind.ADAPTIVE_TASK))
    return m


class TestAddNode:
    def test_base_construction(self):
        m = GoalModel().add_node(goal("g1"))
        assert len(m.nodes) == 1
        assert m.node("g1").kind is NodeKind.GOAL

    def test_duplicate_id_rejected(self):
        m = GoalModel().add_node(goal("g1"))
        with pytest.raises(DuplicateIdError):
            m.add_node(goal("g1"))

    def test_second_node_adds_no_links(self):
        m = GoalModel().add_node(goal("g1")).add_node(goal("sg2", kind=NodeKind.SOFTGOAL))
        assert len(m.nodes) == 2
        assert not m.decompositions and not m.contributions and not m.affects


class TestDecompose:
    def test_and_decomposition(self, small_model):
        m = small_model.decompose("g1", ("t1", "t2"), DecompositionMode.AND)
        d = m.decomposition_of("g1")
        assert d.children == ("t1", "t2") and d.mode is DecompositionMode.AND

    def test_or_decomposition(self, small_model):
        m = small_model.decompose("g1", ("t1", "t2"), DecompositionMode.OR)
        assert m.decomposition_of("g1").mode is DecompositionMode.OR

    def test_self_cycle_rejected(self, small_model):
        with pytest.raises(CycleError):
            small_model.decompose("g1", ("g1",), DecompositionMode.AND)

    def test_unknown_ids_rejected(self, small_model):
        with pytest.raises(UnknownIdError):
            small_model.decompose("g1", ("missing",), DecompositionMode.AND)

    def test_child_cannot_have_two_parents(self, small_model):
        m = small_model.add_node(goal("g2"))
        m = m.decompose("g1", ("t1",), DecompositionMode.AND)
        with pytest.raises(ChildAlreadyOwnedError):
            m.decompose("g2", ("t1",), DecompositionMode.AND)


class TestAttachUncertainty:
    def test_context_fr_affect_link(self, small_model):
        m = small_model.attach_uncertainty(conu(), "At1")
        (link,) = m.affects
        assert link.target == "At1" and link.label is ViolationKind.FR

    def test_components_nfr_on_mape_task(self, small_model):
        m = small_model.add_node(
            GoalNode("M1", "monitor", NodeKind.MAPE_TASK, mape_role=MapeRole.MONITOR)
        )
        m = m.attach_uncertainty(comu("ComU2", ViolationKind.NFR), "M1")
        (link,) = m.affects
        assert link.label is ViolationKind.NFR

    def test_plain_goal_rejected(self, small_model):
        with pytest.raises(InvalidTargetKindError):
            small_model.attach_uncertainty(conu(), "g1")


class TestPromotion:
    def test_adaptive_task_becomes_adaptive_goal(self, small_model):
        m = small_model.add_contribution("At1", "sg1", ContributionPolarity.HELP)
        m = m.attach_uncertainty(conu(), "At1")
        m = m.promote_to_adaptive_goal("At1")
        node = m.node("At1")
        assert node.kind is NodeKind.ADAPTIVE_GOAL
        assert node.name == "At1"  # id and name preserved
        assert m.affects_on("At1")  # links preserved
        assert m.contributions[0].source == "At1"  # contributions preserved

    def test_mape_task_with_two_sources(self, small_model):
        m = small_model.add_node(
            GoalNode("M1", "monitor", NodeKind.MAPE_TASK, mape_role=MapeRole.MONITOR)
        )
        m = m.attach_uncertainty(comu("ComU1"), "M1")
        m = m.attach_uncertainty(comu("ComU2", ViolationKind.NFR), "M1")
        m = m.promote_to_adaptive_goal("M1")
        assert m.node("M1").kind is NodeKind.ADAPTIVE_GOAL
        assert m.node("M1").mape_role is None

    def test_plain_task_not_promotable(self, small_model):
        with pytest.raises(NotPromotableError):
            small_model.promote_to_adaptive_goal("t1")

    def test_without_uncertainty_not_promotable(self, small_model):
        with pytest.raises(NotPromotableError):
            small_model.promote_to_adaptive_goal("At1")


class TestMapeRefinement:
    def promoted(self, model):
        m = model.attach_uncertainty(conu(), "At1")
        return m.promote_to_adaptive_goal("At1")

    def test_four_children_in_role_order(self, small_model):
        m = self.promoted(small_model)
        m = m.refine_with_mape("At1", ("m", "a", "p", "e"), ids=("M1", "A1", "P1", "E1"))
        d = m.decomposition_of("At1")
        assert d.children == ("M1", "A1", "P1", "E1")
        assert d.mode is DecompositionMode.AND
        roles = [m.node(c).mape_role for c in d.children]
        assert roles == [MapeRole.MONITOR, MapeRole.ANALYZE, MapeRole.PLAN, MapeRole.EXECUTE]

    def test_refining_twice_rejected(self, small_model):
        m = self.promoted(small_model)
        m = m.refine_with_mape("At1", ("m", "a", "p", "e"))
        with pytest.raises(AlreadyRefinedError):
            m.refine_with_mape("At1", ("m", "a", "p", "e"))

    def test_non_adaptive_goal_rejected(self, small_model):
        with pytest.raises(NotAdaptiveGoalError):
            small_model.refine_with_mape("g1", ("m", "a", "p", "e"))


class TestPropagation:
    def test_and_parent_satisfied_by_all_children(self, small_model):
        m = small_model.decompose("g1", ("t1", "t2"), DecompositionMode.AND)
        out = m.propagate_satisfaction({"t1": SAT, "t2": SAT, "sg1": SAT, "At1": SAT})
        assert out["g1"] is SAT

    def test_or_parent_satisfied_by_one_child(self, small_model):
        m = small_model.decompose("g1", ("t1", "t2"), DecompositionMode.OR)
        out = m.propagate_satisfaction({"t1": VIOL, "t2": SAT, "sg1": SAT, "At1": SAT})
        assert out["g1"] is SAT

    def test_missing_leaf_status_rejected(self, small_model):
        m = small_model.decompose("g1", ("t1", "t2"), DecompositionMode.AND)
        with pytest.raises(MissingLeafStatusError):
            m.propagate_satisfaction({"t1": SAT})

    def test_three_level_tree_matches_recursive_oracle(self):
        m = GoalModel()
        for node_id in ("root", "g2", "g3"):
            m = m.add_node(goal(node_id))
        for node_id in ("t1", "t2", "t3", "t4"):
            m = m.add_node(goal(node_id, kind=NodeKind.TASK))
        m = m.decompose("root", ("g2", "g3"), DecompositionMode.OR)
        m = m.decompose("g2", ("t1", "t2"), DecompositionMode.AND)
        m = m.decompose("g3", ("t3", "t4"), DecompositionMode.AND)
        statuses = {"t1": SAT, "t2": VIOL, "t3": SAT, "t4": SAT}
        assert m.propagate_satisfaction(statuses) == _oracle_propagate(m, statuses)


def _oracle_propagate(model, leaf_status):
    """Independent bottom-up recursion, structured differently on purpose."""

    def value(node_id):
        decomp = model.decomposition_of(node_id)
        if decomp is None:
            return leaf_status[node_id]
        kids = [value(c) for c in decomp.children]
        if decomp.mode is DecompositionMode.AND:
            ok = all(k is SAT for k in kids)
        else:
            ok = any(k is SAT for k in kids)
        return SAT if ok else VIOL

    return {n.id: value(n.id) for n in model.nodes}


# -- property tests --------------------------------------------------------


@st.composite
def tree_models(draw):
    """A random decomposition forest with up to 12 nodes."""
    size = draw(st.integers(min_value=1, max_value=12))
    model = GoalModel()
    ids = [f"n{i}" for i in range(size)]
    for node_id in ids:
        model = model.add_node(goal(node_id))
    #每 node may claim later unowned nodes as children, keeping a forest
    unowned = set(ids[1:])
    for i, parent in enumerate(ids):
        pool = [x for x in unowned if int(x[1:]) > i]
        if not pool:
            continue
        take = draw(st.integers(min_value=0, max_value=min(3, len(pool))))
        if take == 0:
            continue
        children = pool[:take]
        mode = draw(st.sampled_from([DecompositionMode.AND, DecompositionMode.OR]))
        model = model.decompose(parent, tuple(children), mode)
        unowned -= set(children)
    return model


@settings(max_examples=120, deadline=None)
@given(tree_models(), st.data())
def test_propagation_matches_oracle_on_random_trees(model, data):
    statuses = {
        leaf: data.draw(st.sampled_from([SAT, VIOL]), label=leaf)
        for leaf in model.leaves()
    }
    assert model.propagate_satisfaction(statuses) == _oracle_propagate(model, statuses)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.sampled_from([NodeKind.ADAPTIVE_TASK, NodeKind.MAPE_TASK]),
)
def test_promote_then_refine_always_validates(extra_tasks, kind):
    model = GoalModel().add_node(goal("root"))
    role = MapeRole.MONITOR if kind is NodeKind.MAPE_TASK else None
    model = model.add_node(GoalNode("target", "target", kind, mape_role=role))
    children = ["target"]
    for i in range(extra_tasks):
        model = model.add_node(goal(f"t{i}", kind=NodeKind.TASK))
        children.append(f"t{i}")
    model = model.decompose("root", tuple(children), DecompositionMode.AND)
    model = model.attach_uncertainty(conu(), "target")
    model = model.promote_to_adaptive_goal("target")
    model = model.refine_with_mape("target", ("m", "a", "p", "e"))
    assert model.validate() == []


def test_operations_never_mutate_their_input(small_model):
    before = small_model
    snapshot = model_to_json(before)
    before.add_node(goal("x"))
    before.decompose("g1", ("t1",), DecompositionMode.AND)
    before.attach_uncertainty(conu(), "At1")
    assert model_to_json(before) == snapshot


# -- validation ------------------------------------------------------------


def test_validate_clean_on_derived_fixture():
    from redapt.hrcs.fixture import derive_goal_model

    assert derive_goal_model().validate() == []


def test_validate_reports_bad_mape_arity(small_model):
    m = small_model.attach_uncertainty(conu(), "At1").promote_to_adaptive_goal("At1")
    for i, role in enumerate((MapeRole.MONITOR, MapeRole.ANALYZE, MapeRole.PLAN)):
        m = m.add_node(GoalNode(f"x{i}", f"x{i}", NodeKind.MAPE_TASK, mape_role=role))
    m = m.decompose("At1", ("x0", "x1", "x2"), DecompositionMode.AND)
    codes = [v.code for v in m.validate()]
    assert "mape-arity" in codes

def test_validate_reports_dangling_reference():
    from dataclasses import replace
    from redapt.goalmodel import Decomposition

    m = GoalModel().add_node(goal("g1"))
    broken = replace(
        m, decompositions=(Decomposition("g1", ("deleted",), DecompositionMode.AND),)
    )
    codes = [v.code for v in broken.validate()]
    assert "dangling-decomposition" in codes


def test_validate_reports_mape_role_mismatch():
    m = GoalModel().add_node(GoalNode("t", "t", NodeKind.TASK, mape_role=MapeRole.PLAN))
    assert [v.code for v in m.validate()] == ["mape-role-mismatch"]


# -- serialization ----------------------------------------------------------


def test_json_round_trip_is_byte_identical():
    from redapt.hrcs.fixture import derive_goal_model

    model = derive_goal_model()
    text = model_to_json(model)
    again = model_to_json(model_from_json(text))
    assert again == text


def test_json_round_trip_preserves_structure(small_model):
    m = small_model.attach_uncertainty(conu(), "At1")
    m = m.add_contribution("t1", "sg1", ContributionPolarity.HURT)
    loaded = model_from_json(model_to_json(m))
    assert set(loaded.nodes) == set(m.nodes)
    assert set(loaded.affects) == set(m.affects)
    assert set(loaded.contributions) == set(m.contributions)
