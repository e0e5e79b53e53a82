import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_eval import reference_verdict
from redapt.speclang import (
    And,
    Atom,
    Cmp,
    Const,
    EvaluationError,
    Eventually,
    Exists,
    Forall,
    Formula,
    Globally,
    Implies,
    InfiniteDomainError,
    Instance,
    Next,
    Not,
    Or,
    State,
    Trace,
    UnboundVariableError,
    Until,
    Var,
    Verdict,
    evaluate,
    kleene_and,
    kleene_not,
    kleene_or,
    parse_formula,
)
from redapt.speclang.evaluate import _Evaluator

SAT, VIOL, INC = Verdict.SAT, Verdict.VIOL, Verdict.INCONCLUSIVE


def trace_of(*value_maps, instances=None):
    return Trace(
        tuple(
            State(time=float(i), values=v, instances=instances or {})
            for i, v in enumerate(value_maps)
        )
    )


class TestTemporalBasics:
    def test_globally_refuted_by_counterexample(self):
        trace = trace_of({"n": 100}, {"n": 200}, {"n": 400})
        assert evaluate(parse_formula("G(n <= 350)"), trace) is VIOL

    def test_globally_without_counterexample_is_inconclusive(self):
        trace = trace_of({"n": 100}, {"n": 200})
        assert evaluate(parse_formula("G(n <= 350)"), trace) is INC

    def test_eventually_satisfied_by_witness(self):
        trace = trace_of({"sat": False}, {"sat": False}, {"sat": True})
        assert evaluate(parse_formula("F(sat = true)"), trace) is SAT

    def test_eventually_without_witness_is_inconclusive(self):
        trace = trace_of({"sat": False}, {"sat": False})
        assert evaluate(parse_formula("F(sat = true)"), trace) is INC

    def test_next_at_last_position_is_inconclusive(self):
        trace = trace_of({"x": 1}, {"x": 2})
        assert evaluate(parse_formula("X(x = 2)"), trace, position=1) is INC
        assert evaluate(parse_formula("X(x = 2)"), trace, position=0) is SAT

    def test_until_satisfied(self):
        trace = trace_of({"a": True, "b": False}, {"a": True, "b": True})
        assert evaluate(parse_formula("a U b"), trace) is SAT

    def test_until_violated_when_lhs_fails_first(self):
        trace = trace_of({"a": False, "b": False}, {"a": True, "b": True})
        assert evaluate(parse_formula("a U b"), trace) is VIOL

    def test_until_open_is_inconclusive(self):
        trace = trace_of({"a": True, "b": False}, {"a": True, "b": False})
        assert evaluate(parse_formula("a U b"), trace) is INC


class TestAbsentValues:
    def test_absent_equals_empty_string(self):
        trace = trace_of({"f_3": None})
        assert evaluate(parse_formula('f_3 = ""'), trace) is SAT

    def test_absent_differs_from_number(self):
        trace = trace_of({"f_3": None})
        assert evaluate(parse_formula("f_3 = 5"), trace) is VIOL
        assert evaluate(parse_formula("f_3 != 5"), trace) is SAT

    def test_absent_cannot_be_ordered(self):
        trace = trace_of({"f_3": None})
        assert evaluate(parse_formula("f_3 < 5"), trace) is VIOL
        assert evaluate(parse_formula("f_3 >= 5"), trace) is VIOL

    def test_present_value_not_empty(self):
        trace = trace_of({"f_3": 14.0})
        assert evaluate(parse_formula('f_3 = ""'), trace) is VIOL


class TestKleeneTables:
    def test_connective_helpers(self):
        assert kleene_and(INC, VIOL) is VIOL
        assert kleene_and(INC, SAT) is INC
        assert kleene_or(INC, SAT) is SAT
        assert kleene_or(INC, VIOL) is INC
        assert kleene_not(INC) is INC

    def test_through_formulas(self):
        # X(...) at the last state is inconclusive; pair it with definite sides
        trace = trace_of({"x": 1})
        inconclusive = parse_formula("X(x = 1)")
        false_side = parse_formula("x = 2")
        true_side = parse_formula("x = 1")
        assert evaluate(And(inconclusive, false_side), trace) is VIOL
        assert evaluate(Or(inconclusive, true_side), trace) is SAT
        assert evaluate(And(inconclusive, true_side), trace) is INC


class TestQuantifiers:
    def sensors(self, **values):
        return {
            "I_sensor": {
                name: Instance(id=name, value=v, gauge=v is not None)
                for name, v in values.items()
            }
        }

    def test_exists_failed_sensor(self):
        trace = trace_of({}, instances=self.sensors(ir_01=15.0, ir_02=None))
        formula = parse_formula('exists s in I_sensor . s.value = ""')
        assert evaluate(formula, trace) is SAT

    def test_exists_no_failed_sensor(self):
        trace = trace_of({}, instances=self.sensors(ir_01=15.0, ir_02=14.0))
        formula = parse_formula('exists s in I_sensor . s.value = ""')
        assert evaluate(formula, trace) is VIOL

    def test_forall_matches_conjunction_expansion(self):
        trace = trace_of({}, instances=self.sensors(a=15.0, b=None, c=12.0))
        body = parse_formula('x.value != ""')
        quantified = Forall("x", "I_sensor", body)
        members = sorted(trace.states[0].instances["I_sensor"])
        expanded = None
        for name in members:
            conjunct = parse_formula(f'{name}_value != ""')
            expanded = conjunct if expanded is None else And(expanded, conjunct)
        flat = trace_of(
            {f"{k}_value": v.value for k, v in trace.states[0].instances["I_sensor"].items()}
        )
        assert evaluate(quantified, trace) is evaluate(expanded, flat)

    def test_numeric_domain(self):
        trace = trace_of({"n": 10})
        formula = parse_formula("exists k in options . n = k")
        assert evaluate(formula, trace, domains={"options": [5, 10]}) is SAT

    def test_empty_domains_are_vacuous(self):
        trace = trace_of({"n": 10})
        assert evaluate(Forall("k", "d", Cmp("=", Var("n"), Var("k"))), trace, domains={"d": []}) is SAT
        assert evaluate(parse_formula("exists k in d . n = k"), trace, domains={"d": []}) is VIOL

    def test_unknown_domain_raises(self):
        trace = trace_of({"n": 10})
        with pytest.raises(InfiniteDomainError):
            evaluate(parse_formula("exists k in nowhere . n = k"), trace)


class TestErrors:
    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse_formula("missing = 1"), trace_of({"x": 1}))

    def test_uninterpreted_function(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse_formula("p(x, y) >= 1"), trace_of({"x": 1, "y": 2}))

    def test_empty_trace(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_formula("x = 1"), Trace(()))

    def test_position_out_of_range(self):
        with pytest.raises(EvaluationError):
            evaluate(parse_formula("x = 1"), trace_of({"x": 1}), position=3)


class _Counted:
    """A state value that counts its truth tests: ``_truthy`` asks ``value != 0``."""

    def __init__(self, truth, calls):
        self.truth = truth
        self.calls = calls

    def __ne__(self, other):
        self.calls[0] += 1
        return self.truth


_COST_FORMULAS = ["G(p U q)", "G(p -> F q)", "G(p -> (p U (q && X r)))"]


class TestCost:
    """Each F/G/U subformula is computed once per position, so the work
    grows linearly with the trace.  Counted, not timed."""

    @staticmethod
    def atom_tests(formula, n):
        calls = [0]
        yes, no = _Counted(True, calls), _Counted(False, calls)
        # q holds only at the last state, so no operator is decided early
        trace = trace_of(
            *({"p": yes, "q": yes if i == n - 1 else no, "r": yes} for i in range(n))
        )
        evaluate(parse_formula(formula), trace)
        return calls[0]

    @pytest.mark.parametrize("formula", _COST_FORMULAS)
    def test_atom_tests_grow_linearly(self, formula):
        single = self.atom_tests(formula, 200)
        double = self.atom_tests(formula, 400)
        assert double <= 2.2 * single

    @pytest.mark.parametrize("formula", _COST_FORMULAS)
    def test_long_trace_needs_no_deep_recursion(self, formula):
        n = 20_000
        trace = trace_of(*({"p": True, "q": i == n - 1, "r": True} for i in range(n)))
        assert evaluate(parse_formula(formula), trace) is INC


def test_shared_subformula_reads_back_what_a_scan_filled_in():
    # one Until node under both sides of ||: the right side reads at position 3
    # what the left side's scan from position 0 filled in.  Its lhs is
    # inconclusive at 0 (p fails, G q is open) and true later, so the verdicts
    # along the scan differ: U is INCONCLUSIVE at 0 and SAT at 1..4.
    until = Until(Or(Atom(Var("p")), Globally(Atom(Var("q")))), Atom(Var("b")))
    trace = trace_of(*({"p": i > 0, "q": True, "b": i == 4} for i in range(5)))
    assert evaluate(until, trace) is INC
    assert evaluate(until, trace, 3) is SAT
    assert evaluate(Or(until, Next(Next(Next(until)))), trace) is SAT


# -- cross-checks against the independent reference evaluator ----------------


def _bool_states(bits):
    return [{"p": bool(b & 1), "q": bool(b & 2)} for b in bits]


def _mini_formulas():
    """All formulas of height <= 2 over {p, q} with a compact operator set."""
    atoms = [Atom(Var("p")), Atom(Var("q"))]
    height2 = []
    for f in atoms:
        height2 += [Not(f), Next(f), Eventually(f), Globally(f)]
    for f, g in itertools.product(atoms, repeat=2):
        height2 += [And(f, g), Or(f, g), Implies(f, g), Until(f, g)]
    return atoms + height2


def test_exhaustive_mini_oracle_equivalence():
    formulas = _mini_formulas()
    for length in range(1, 5):
        for bits in itertools.product(range(4), repeat=length):
            states = _bool_states(bits)
            trace = trace_of(*states)
            for formula in formulas:
                assert evaluate(formula, trace) is reference_verdict(formula, trace.states)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_duality_of_globally_and_eventually(data):
    from formula_gen import random_formula
    import random as _random

    rng = _random.Random(data.draw(st.integers(0, 2**32 - 1)))
    bits = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    trace = trace_of(*_bool_states(bits))
    body = _project_boolean(random_formula(rng, 2))
    left = evaluate(Not(Globally(body)), trace)
    right = evaluate(Eventually(Not(body)), trace)
    assert left is right


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_definitive_verdicts_stable_under_extension(data):
    from formula_gen import random_formula
    import random as _random

    rng = _random.Random(data.draw(st.integers(0, 2**32 - 1)))
    prefix_bits = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    extension_bits = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    formula = _project_boolean(random_formula(rng, 3))
    prefix = trace_of(*_bool_states(prefix_bits))
    full = trace_of(*_bool_states(prefix_bits + extension_bits))
    before = evaluate(formula, prefix)
    if before is not INC:
        assert evaluate(formula, full) is before


def _project_boolean(formula):
    """Rewrite generated formulas onto the two boolean state variables."""
    from redapt.speclang import Exists, Func

    Impl = Implies

    def fix_term(term):
        if isinstance(term, (Func,)):
            return Var("p")
        if isinstance(term, Var):
            return Var("p" if hash(term.name) % 2 else "q")
        return term

    def walk(node):
        if isinstance(node, Atom):
            return Atom(fix_term(node.term))
        if isinstance(node, Cmp):
            return Atom(fix_term(node.lhs))
        if isinstance(node, Not):
            return Not(walk(node.operand))
        if isinstance(node, Next):
            return Next(walk(node.operand))
        if isinstance(node, Eventually):
            return Eventually(walk(node.operand))
        if isinstance(node, Globally):
            return Globally(walk(node.operand))
        if isinstance(node, And):
            return And(walk(node.lhs), walk(node.rhs))
        if isinstance(node, Or):
            return Or(walk(node.lhs), walk(node.rhs))
        if isinstance(node, Impl):
            return Impl(walk(node.lhs), walk(node.rhs))
        if isinstance(node, Until):
            return Until(walk(node.lhs), walk(node.rhs))
        if isinstance(node, (Forall, Exists)):
            return walk(node.body)
        return Atom(Var("p"))

    return walk(formula)


# -- long traces, random start positions --------------------------------------

_LEVELS = (0.0, 150.0, 300.0)


def _sticky_trace(rng, length):
    """Each value keeps its previous one with probability 0.9, so temporal
    operators scan runs of several states before one decides them."""

    def fresh():
        return {
            "p": rng.random() < 0.5,
            "q": rng.random() < 0.5,
            "n": None if rng.random() < 0.15 else float(rng.randrange(0, 400, 25)),
            "sensors": {
                f"ir_{k:02d}": Instance(
                    id=f"ir_{k:02d}",
                    value=None if rng.random() < 0.2 else float(rng.randrange(0, 400, 50)),
                    select=rng.random() < 0.7,
                )
                for k in range(rng.randrange(4))
            },
        }

    states, current = [], fresh()
    for i in range(length):
        current = {k: current[k] if rng.random() < 0.9 else v for k, v in fresh().items()}
        values = {k: v for k, v in current.items() if k != "sensors"}
        states.append(State(float(i), values, {"I_sensor": current["sensors"]}))
    return Trace(tuple(states))


def _random_leaf(rng, bound):
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    roll = rng.randrange(4)
    if roll == 0 and bound:
        var, domain = rng.choice(bound)
        if domain == "I_sensor":
            if rng.random() < 0.5:
                return Atom(Var(f"{var}.select"))
            return Cmp(op, Var(f"{var}.value"), Const(float(rng.randrange(0, 400, 50))))
        return Cmp(op, Var("n"), Var(var))
    if roll == 1:
        return Cmp(op, Var("n"), Const(float(rng.randrange(0, 400, 25))))
    return Atom(Var(rng.choice(["p", "q"])))


# the temporal operators twice, so that most formulas nest them
_OPERATORS = (Not, Next, And, Or, Implies, Exists, Forall) + (Eventually, Globally, Until) * 2


def _random_long_formula(rng, depth, bound=()):
    if depth == 0 or rng.random() < 0.1:
        return _random_leaf(rng, bound)
    op = rng.choice(_OPERATORS)
    if op in (Exists, Forall):
        var, domain = f"v{depth}", "I_sensor" if op is Exists else "levels"
        return op(var, domain, _random_long_formula(rng, depth - 1, bound + ((var, domain),)))
    if op in (And, Or, Implies, Until):
        lhs = _random_long_formula(rng, depth - 1, bound)
        return op(lhs, _random_long_formula(rng, depth - 1, bound))
    return op(_random_long_formula(rng, depth - 1, bound))


def _subformulas(node):
    yield node
    for name in ("operand", "lhs", "rhs", "body"):
        child = getattr(node, name, None)
        if isinstance(child, Formula):
            yield from _subformulas(child)


def _check_memo(formula, trace, pos, domains):
    """Every verdict the evaluator filled in, at every position and binding,
    is the oracle's verdict there: a wrong fill-back that the queried
    position happens not to read still fails."""
    evaluator = _Evaluator(trace, domains)
    evaluator.run(formula, pos, {})
    nodes = {id(node): node for node in _subformulas(formula)}
    for (node_id, bindings), verdicts in evaluator.memo.items():
        env = {var: value for var, _, value in bindings}
        for j, verdict in verdicts.items():
            expected = reference_verdict(nodes[node_id], trace.states[j:], env, domains)
            assert verdict is expected, (nodes[node_id], j, env)


def test_long_traces_match_oracle_from_any_position():
    rng = random.Random(20020408)
    domains = {"levels": _LEVELS}
    for _ in range(300):
        formula = _random_long_formula(rng, 4)
        trace = _sticky_trace(rng, rng.randint(20, 60))
        positions = rng.sample(range(len(trace)), 3)
        for pos in positions:
            expected = reference_verdict(formula, trace.states[pos:], domains=domains)
            assert evaluate(formula, trace, pos, domains=domains) is expected, (formula, pos)
        _check_memo(formula, trace, positions[0], domains)
