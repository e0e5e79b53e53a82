"""Property tests: malformed input ends in a documented exit code or a
documented exception, never in another exception.

Four inputs are mutated: the bundled spec (one-character edits, through
``check`` and, when that is clean, ``verify``), a small recorded trace
(through ``verify``), the engine configuration (through ``from_dict`` laid
over the crossing's settings) and a scenario (through
``ScenarioConfig.from_dict``; an accepted one must build a simulator that
describes t = 0, and spares for each of its slots, none of them bound and
no two alike).  The generated numbers stay small, so that each accepted
scenario builds quickly; ``validate()`` bounds the arrivals in the flow
window, the sensor counts and the standby spares, in proportion to which the
simulator allocates.
"""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redapt
from redapt import cli
from redapt.engine import EngineConfig
from redapt.hrcs import (
    FLOW_CLASS, LUX_CLASS, ScenarioConfig, Simulator, run_scenario, trace_to_csv,
)
from redapt.hrcs.runner import PLANNING_SETTINGS, build_pool

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_DIAGNOSTICS, cli.EXIT_IO, cli.EXIT_PLAN_FAILED}
DOCUMENTED = (ValueError, TypeError, KeyError)

SPEC_TEXT = redapt.data_path("hrcs.agmspec").read_text()
SCENARIO = json.loads(redapt.data_path("experiment1.json").read_text())

fuzz = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# characters that matter to the spec language and to CSV, and a few that do not
CHARS = st.sampled_from(list('{}()[]",.:;=<>!&|-+*/%#_ \n\t0123456789aeGFXUpnt\xe9\xb2'))


def edited(text, data):
    """``text`` with one character deleted, inserted or replaced."""
    at = data.draw(st.integers(0, len(text)))
    kind = data.draw(st.sampled_from(["delete", "insert", "replace"]))
    if kind == "insert":
        return text[:at] + data.draw(CHARS) + text[at:]
    cut = text[:at] + text[at + 1:]
    return cut if kind == "delete" else cut[:at] + data.draw(CHARS) + cut[at:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The bundled spec and the trace of a three-minute run, on disk."""
    root = tmp_path_factory.mktemp("fuzz")
    scenario = ScenarioConfig.from_dict({**SCENARIO, "duration_min": 3.0})
    trace = trace_to_csv(run_scenario(redapt.load_bundled_spec(), scenario).trace)
    (root / "trace.csv").write_text(trace)
    (root / "spec.agmspec").write_text(SPEC_TEXT)
    return root


def exit_code(*argv):
    code = cli.main(list(argv))
    assert code in EXIT_CODES
    return code


@fuzz
@given(data=st.data())
def test_spec_edits_end_in_an_exit_code(files, data):
    spec = files / "edited.agmspec"
    spec.write_text(edited(SPEC_TEXT, data), encoding="utf-8")
    if exit_code("check", "--spec", str(spec)) == cli.EXIT_OK:
        exit_code("verify", "--spec", str(spec), str(files / "trace.csv"))


@fuzz
@given(data=st.data())
def test_trace_edits_end_in_an_exit_code(files, data):
    trace = files / "edited.csv"
    trace.write_text(edited((files / "trace.csv").read_text(), data), encoding="utf-8")
    exit_code("verify", "--spec", str(files / "spec.agmspec"), str(trace))


FIELDS = [
    "desired_utilities", "param_step", "param_domains", "max_plan_iterations",
    "noise_window", "noise_std_threshold", "cycle_period_s", "U_safety", "t_dispatch",
]
SCALARS = (
    st.none() | st.booleans() | st.integers(-5, 40) | st.text(max_size=3)
    | st.sampled_from([0.0, -0.5, 0.7, 1.5, 6.5, 30.0, math.nan, math.inf, -math.inf])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=3),
    max_leaves=8,
)


@fuzz
@given(data=JSON)
def test_engine_config_is_accepted_or_rejected_as_documented(data):
    try:
        cfg = EngineConfig.from_dict(data, PLANNING_SETTINGS)
    except DOCUMENTED:
        return
    assert all(low <= high for low, high in cfg.param_domains.values())
    assert all(math.isfinite(step) for step in cfg.param_step.values())


# near the bounds that validate() checks: the gate intervals' (1, 4] and
# [4, 7), the 20 lx dark bound, zero and the non-finite
NUMBERS = st.integers(-3, 30) | st.floats(-10.0, 1000.0) | st.sampled_from(
    [0.0, 1.0, 2.5, 4.0, 6.5, 7.0, 10.0, 20.0, 100.0, math.nan, math.inf, -math.inf]
)
FIELD_VALUES = (
    NUMBERS | st.none() | st.booleans() | st.text(max_size=3)
    | st.lists(st.lists(NUMBERS, max_size=3), max_size=3)
    | st.lists(
        st.fixed_dictionaries(
            {
                "slot": st.sampled_from(["f_1", "e_2", "f_99"]),
                "mode": st.sampled_from(["fail", "noise", "x"]),
            },
            optional={"at_s": NUMBERS, "sigma": NUMBERS},
        ),
        max_size=2,
    )
)
SCENARIO_KEYS = st.sampled_from([f.name for f in fields(ScenarioConfig)] + ["name", "unknown"])


@settings(fuzz, max_examples=400)  # cheap examples, most of them rejected
@given(edits=st.dictionaries(SCENARIO_KEYS, FIELD_VALUES, min_size=1, max_size=3))
def test_accepted_scenario_describes_its_first_instant(edits):
    try:
        scenario = ScenarioConfig.from_dict({**SCENARIO, **edits})
    except DOCUMENTED:
        return
    sim = Simulator(scenario)
    sim.run_until(0.0)
    assert sim.trace().rows[0].time == 0.0
    bound = dict(pair for c in (FLOW_CLASS, LUX_CLASS) for pair in sim.instances(c))
    spares = build_pool(scenario)
    assert spares.keys() == bound.keys()
    taken = [instance for standby in spares.values() for instance in standby]
    # at the first instant no spare is bound, and no two spares share an id
    assert set(bound.values()).isdisjoint(taken) and len(set(taken)) == len(taken)
