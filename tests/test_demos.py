"""Each demo runs to completion, and demo 02 prints what it printed when pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import redapt

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# demo 02: the bundled dispatch goal in canonical form and the ASTs it parses
SPEC_LANGUAGE_STDOUT = """\
parsed 16 entities; diagnostics: []

adaptive_goal "Determine t_dispatch to make p > 50% and n < 350" {
  attributes:
    numeric t_dispatch
    numeric t_dispatch_new
    numeric f_i
    numeric F
    numeric p
    numeric n
    class I_sensor
  init.pre: !fulfilled("Dispatch train according to t_dispatch")
  init.trigger: activated("Dispatch train according to t_dispatch")
  init.post: t_dispatch = ""
  fulfill.pre: exists td in t_dispatch_domain . F(p(td, F) >= 0.5 && n(td, F) <= 350)
  fulfill.trigger: exists td_new in t_dispatch_domain . p(td_new, F) >= 0.5 && n(td_new, F) <= 350
  fulfill.post: t_dispatch = t_dispatch_new
  invariant: G(p >= 0.5 && n <= 350)
}

invariant: Globally(operand=And(lhs=Cmp(op='>=', lhs=Var(name='p'), rhs=Const(value=0.5)), \
rhs=Cmp(op='<=', lhs=Var(name='n'), rhs=Const(value=350.0))))
healthy trace   -> inconclusive
congested trace -> viol

parsed: Eventually(operand=Cmp(op='>=', lhs=Func(name='p', args=(Var(name='td'), Var(name='F'))), \
rhs=Const(value=0.5)))
"""


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(Path(redapt.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_zero(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr


def test_specification_language_demo_output_is_pinned():
    assert run_demo("02_specification_language.py").stdout == SPEC_LANGUAGE_STDOUT
