import pytest

from redapt.speclang import (
    And,
    Atom,
    Cmp,
    Const,
    DuplicateEntityError,
    EntityKind,
    Eventually,
    Exists,
    Forall,
    Func,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    ParseError,
    Phase,
    ProcedureRef,
    Slot,
    Until,
    Var,
    check_wellformed,
    parse_document,
    parse_formula,
    variable_names,
)


class TestFormulaParsing:
    def test_percent_literal_scales_to_fraction(self):
        f = parse_formula("G(p >= 50% && n <= 350)")
        assert f == Globally(
            And(Cmp(">=", Var("p"), Const(0.5)), Cmp("<=", Var("n"), Const(350.0)))
        )

    def test_exists_over_class_with_field_access(self):
        f = parse_formula('exists s in I_sensor . s.value = ""')
        assert f == Exists("s", "I_sensor", Cmp("=", Var("s.value"), Const("")))

    def test_until_is_right_associative(self):
        f = parse_formula("a U b U c")
        assert f == Until(Atom(Var("a")), Until(Atom(Var("b")), Atom(Var("c"))))

    def test_implies_is_right_associative_and_loosest(self):
        f = parse_formula("a -> b || c && !d -> e")
        assert f == Implies(
            Atom(Var("a")),
            Implies(
                Or(Atom(Var("b")), And(Atom(Var("c")), Not(Atom(Var("d"))))),
                Atom(Var("e")),
            ),
        )

    def test_temporal_binds_tighter_than_not(self):
        assert parse_formula("!G(x)") == Not(Globally(Atom(Var("x"))))

    def test_uppercase_f_is_a_variable_before_comparison(self):
        assert parse_formula("F >= 15") == Cmp(">=", Var("F"), Const(15.0))

    def test_uppercase_f_is_an_operator_before_operand(self):
        f = parse_formula("F(p(td, F) >= 50%)")
        assert f == Eventually(
            Cmp(">=", Func("p", (Var("td"), Var("F"))), Const(0.5))
        )

    def test_quantifier_binds_loosest(self):
        f = parse_formula("forall t in D . a && b")
        assert f == Forall("t", "D", And(Atom(Var("a")), Atom(Var("b"))))

    def test_function_application_and_strings(self):
        f = parse_formula('Prior("safety efficiency", "pass efficiency", t)')
        assert f == Atom(
            Func("Prior", (Const("safety efficiency"), Const("pass efficiency"), Var("t")))
        )

    def test_negative_number_constant(self):
        assert parse_formula("x = -2.5") == Cmp("=", Var("x"), Const(-2.5))

    def test_booleans_are_constants(self):
        assert parse_formula("gauge = true") == Cmp("=", Var("gauge"), Const(True))

    def test_unbalanced_parenthesis_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("G(p >= 50% && n <= 350")
        assert err.value.line == 1
        assert err.value.col == 23

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("a && b c")

    def test_comparison_of_parenthesized_non_term_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("(a && b) = 3")


ADAPTIVE_GOAL_BLOCK = """
adaptive_goal "Determine t_dispatch to make p > 50% and n < 350" {
  attributes:
    numeric t_dispatch, f_i, F, p, n
    class I_sensor
  init.post: t_dispatch = ""
  invariant: G(p >= 50% && n <= 350)
}
"""

UNCERTAINTY_BLOCK = """
context_uncertainty "Vehicle Flow" {
  affected_goal: "Determine t_dispatch to make p > 50% and n < 350" FR
  attributes:
    numeric f_i, F, t_dispatch
    class I_sensor
  violation: exists F in flow_levels . (p(t_dispatch, F) < 50% || n(t_dispatch, F) > 350)
}
"""


class TestDocumentParsing:
    def test_adaptive_goal_block(self):
        doc = parse_document(ADAPTIVE_GOAL_BLOCK)
        (entity,) = doc.entities
        assert entity.kind is EntityKind.ADAPTIVE_GOAL
        assert entity.invariant == parse_formula("G(p >= 50% && n <= 350)")
        assert entity.condition(Phase.INIT, Slot.POST) == parse_formula('t_dispatch = ""')
        attrs = {a.name: a for a in entity.attributes}
        assert attrs["f_i"].indexed and not attrs["p"].indexed
        assert attrs["I_sensor"].class_name == "I_sensor"

    def test_uncertainty_block_carries_affect(self):
        doc = parse_document(ADAPTIVE_GOAL_BLOCK + UNCERTAINTY_BLOCK)
        uncertainty = doc.entities[1]
        assert uncertainty.kind is EntityKind.CONTEXT_UNCERTAINTY
        assert uncertainty.affected_goal == doc.entities[0].name
        assert uncertainty.affected_violation_kind == "FR"
        assert isinstance(uncertainty.violation, Exists)

    def test_procedure_trigger(self):
        doc = parse_document(
            ADAPTIVE_GOAL_BLOCK
            + """
plan "Decide" {
  from_goal: "Determine t_dispatch to make p > 50% and n < 350"
  attributes:
    numeric t_dispatch
  output: t_dispatch_new
  fulfill.trigger: procedure step_dispatch_interval
}
"""
        )
        plan = doc.entities[1]
        assert plan.condition(Phase.FULFILL, Slot.TRIGGER) == ProcedureRef(
            "step_dispatch_interval"
        )

    def test_duplicate_entity_names_rejected(self):
        with pytest.raises(DuplicateEntityError):
            parse_document(ADAPTIVE_GOAL_BLOCK + ADAPTIVE_GOAL_BLOCK)

    def test_duplicate_entity_is_reported_at_its_header(self):
        with pytest.raises(ParseError) as err:
            parse_document('goal "g" {\n}\nsoftgoal "h" {}\n  goal "g" {}')
        assert isinstance(err.value, DuplicateEntityError)
        assert (err.value.line, err.value.col) == (4, 3)
        assert str(err.value) == "4:3: duplicate entity name 'g'"

    def test_syntax_error_position(self):
        bad = 'goal "x" {\n  invariant: G(p >= )\n}\n'
        with pytest.raises(ParseError) as err:
            parse_document(bad)
        assert err.value.line == 2

    @pytest.mark.parametrize("clause, first, second", [
        ("invariant", "G(p >= 1)", "G(p >= 2)"),
        ("attributes", "\n    numeric p", "\n    numeric q"),
        ("init.pre", "p >= 1", "procedure reset"),
    ])
    def test_a_clause_given_twice_is_rejected_at_the_second(self, clause, first, second):
        text = f'goal "x" {{\n  {clause}: {first}\n  {clause}: {second}\n}}\n'
        with pytest.raises(ParseError) as err:
            parse_document(text)
        line = text.count("\n", 0, text.rindex(f"  {clause}:")) + 1
        assert str(err.value) == f"{line}:3: clause {clause!r} given twice"

    def test_bundled_document_parses(self, bundled_spec):
        assert len(bundled_spec.entities) == 16
        kinds = {e.kind for e in bundled_spec.entities}
        assert EntityKind.MONITOR in kinds and EntityKind.PLAN in kinds


class TestWellformed:
    def test_bundled_document_is_clean(self, bundled_spec):
        assert check_wellformed(bundled_spec) == []

    def test_undeclared_symbol_reported(self):
        doc = parse_document('goal "x" {\n  attributes:\n    numeric p\n  invariant: G(q >= 1)\n}')
        (diag,) = check_wellformed(doc)
        assert diag.code == "undeclared-symbol" and "q" in diag.message

    def test_monitor_without_a_class_reported_at_its_header(self):
        doc = parse_document(
            'goal "g" {\n}\nmonitor "m" {\n  from_goal: "g"\n  attributes:\n    numeric v\n}'
        )
        (diag,) = check_wellformed(doc)
        assert (diag.code, diag.entity, diag.line, diag.col) == ("missing-class", "m", 3, 1)

    def test_dangling_from_goal_reported(self):
        doc = parse_document(
            'monitor "m" {\n  from_goal: "missing"\n  attributes:\n    class I_sensor\n}'
        )
        codes = {d.code for d in check_wellformed(doc)}
        assert "dangling-reference" in codes

    def test_missing_from_goal_reported(self):
        doc = parse_document('analyze "a" {\n  attributes:\n    boolean sat\n}')
        codes = {d.code for d in check_wellformed(doc)}
        assert "missing-from-goal" in codes

    def test_invariant_on_monitor_rejected(self):
        doc = parse_document(
            ADAPTIVE_GOAL_BLOCK
            + 'monitor "m" {\n  from_goal: "Determine t_dispatch to make p > 50% and n < 350"\n'
            + "  attributes:\n    numeric v\n  invariant: G(v >= 0)\n}"
        )
        codes = {d.code for d in check_wellformed(doc)}
        assert "invariant-not-allowed" in codes

    def test_quantifier_shadowing_rejected(self):
        doc = parse_document(
            'goal "x" {\n  attributes:\n    numeric v\n'
            "  invariant: forall s in D . forall s in D . v >= 0\n}"
        )
        codes = {d.code for d in check_wellformed(doc)}
        assert "quantifier-shadowing" in codes

    def test_field_access_requires_declared_class(self):
        doc = parse_document(
            'goal "x" {\n  attributes:\n    numeric v\n'
            '  invariant: exists s in Mystery . s.value = ""\n}'
        )
        codes = {d.code for d in check_wellformed(doc)}
        assert "undeclared-class" in codes

    def test_indexed_family_covers_members(self):
        doc = parse_document(
            'goal "x" {\n  attributes:\n    numeric f_i\n  invariant: G(f_3 >= 0)\n}'
        )
        assert check_wellformed(doc) == []

    def test_input_and_output_must_be_declared(self):
        doc = parse_document(
            'goal "g" {\n}\n'
            'plan "p" {\n  from_goal: "g"\n  attributes:\n    numeric f_i, x\n'
            "  input: f_i, f_2, y\n  output: x_new\n}"
        )
        diags = check_wellformed(doc)
        assert [(d.code, d.line, d.col) for d in diags] == [
            ("undeclared-io", 7, 3), ("undeclared-io", 8, 3)
        ]
        assert "'y'" in diags[0].message and "'x_new'" in diags[1].message

    def test_io_none_is_allowed(self):
        doc = parse_document(
            'goal "g" {\n}\nmonitor "m" {\n  from_goal: "g"\n  attributes:\n    numeric v\n'
            "    class I_v\n  input: none\n  output: v\n}"
        )
        assert check_wellformed(doc) == []


class TestVariableNames:
    def test_every_operator_and_term_is_walked(self):
        formula = Implies(
            Or(
                Globally(And(Cmp(">=", Var("p"), Const(0.5)), Atom(Var("ok")))),
                Until(Next(Atom(Var("a"))), Eventually(Not(Atom(Var("b"))))),
            ),
            Forall("s", "I_sensor", Exists(
                "v", "levels", Cmp("=", Func("unstable", (Var("s.value"),)), Var("v"))
            )),
        )
        assert variable_names(formula) == {"p", "ok", "a", "b", "s.value", "v"}

    def test_constants_and_procedures_name_nothing(self):
        assert variable_names(Cmp("<", Const(1.0), Const(2.0))) == frozenset()
        assert variable_names(ProcedureRef("swap")) == frozenset()

    def test_bundled_invariants(self, bundled_spec):
        names = set()
        for entity in bundled_spec.entities:
            if entity.invariant is not None:
                names |= variable_names(entity.invariant)
        assert names == {"p", "n", "U_safety", "U_pass"}

    def test_parsed_dotted_name(self):
        assert variable_names(parse_formula('exists s in I_sensor . s.value = ""')) == {"s.value"}
