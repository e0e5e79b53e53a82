"""Utility functions trading safety efficiency against pass efficiency.

Under good illumination both gate intervals sit at their 4 s optimum and the
safety utility is pinned at 1.  Under low illumination (at or below 20 lx)
the close interval may be shortened within (1, 4] and the open interval
lengthened within [4, 7); safety utility then grows exactly as fast as pass
utility shrinks, so any admissible retiming moves along a Pareto frontier
with marginal rate of substitution 1.
"""

from __future__ import annotations

from dataclasses import dataclass

DARK_LUX_BOUND = 20.0
OPTIMAL_INTERVAL_S = 4.0


class DomainError(ValueError):
    """Inputs outside the admissible gate-timing domains."""


@dataclass(frozen=True)
class Utilities:
    u_e: float
    u_close: float
    u_open: float
    u_safety: float
    u_pass: float


def check_gate_timing(t_close: float, t_open: float, illuminance: float) -> None:
    """Raise ``DomainError`` unless the gate timing is admissible under the light level."""
    if illuminance > DARK_LUX_BOUND:
        if t_close != OPTIMAL_INTERVAL_S or t_open != OPTIMAL_INTERVAL_S:
            raise DomainError(
                f"above {DARK_LUX_BOUND:g} lx both intervals must be "
                f"{OPTIMAL_INTERVAL_S:g} s, got close={t_close!r} open={t_open!r}"
            )
    elif not 1.0 < t_close <= 4.0:
        raise DomainError(f"close interval {t_close!r} outside (1, 4] seconds")
    elif not 4.0 <= t_open < 7.0:
        raise DomainError(f"open interval {t_open!r} outside [4, 7) seconds")


def eval_utilities(t_close: float, t_open: float, illuminance: float) -> Utilities:
    """Satisfaction degrees for one gate timing under one light level."""
    check_gate_timing(t_close, t_open, illuminance)
    u_e = 1.0 if illuminance > DARK_LUX_BOUND else 0.0
    u_open = (7.0 - t_open) / 3.0
    u_close = (t_close - 1.0) / 3.0
    sgn = 1.0 if u_e > 0 else 0.0
    u_safety = u_e + 0.5 * (1.0 - sgn) * abs(u_open + u_close - 2.0)
    u_pass = (u_open + u_close) / 2.0
    return Utilities(u_e=u_e, u_close=u_close, u_open=u_open, u_safety=u_safety, u_pass=u_pass)
