"""Output checks written apart from the program.

Each checker reads the artifacts a workload produced and raises
``CheckError`` on the first disagreement.  The references here follow
``docs/specification-language.md`` and the scenario files; they do not call
the code they check, except that the exp2 check asks the simulator for the
two model runs whose vehicles it then scores itself.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Iterable, Union

SAT, INC, VIOL = 1, 0, -1
VERDICT_NAMES = {SAT: "sat", INC: "inconclusive", VIOL: "viol"}

NOISE_WINDOW = 5  # EngineConfig's default, which every workload runs with
P_TIME_THRESHOLD_S = 400.0  # ScenarioConfig's default crossing-time bound
DARK_LUX = 20.0
SAFETY_THRESHOLD = 0.7


class CheckError(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- formulas, as nested tuples, with a backward-pass reference evaluator ------

Formula = tuple
Value = Union[float, str, None]


def cmp(var: str, op: str, const: Union[float, str]) -> Formula:
    return ("cmp", op, var, const)


def not_(f: Formula) -> Formula:
    return ("not", f)


def and_(a: Formula, b: Formula) -> Formula:
    return ("and", a, b)


def or_(a: Formula, b: Formula) -> Formula:
    return ("or", a, b)


def implies(a: Formula, b: Formula) -> Formula:
    return ("->", a, b)


def X(f: Formula) -> Formula:
    return ("X", f)


def F(f: Formula) -> Formula:
    return ("F", f)


def G(f: Formula) -> Formula:
    return ("G", f)


def U(a: Formula, b: Formula) -> Formula:
    return ("U", a, b)


def to_text(f: Formula) -> str:
    """Spec-language text, fully parenthesised."""
    kind = f[0]
    if kind == "cmp":
        _, op, var, const = f
        literal = f'"{const}"' if isinstance(const, str) else repr(float(const))
        return f"{var} {op} {literal}"
    if kind == "not":
        return f"!({to_text(f[1])})"
    if kind in ("X", "F", "G"):
        return f"{kind}({to_text(f[1])})"
    symbol = {"and": "&&", "or": "||", "->": "->", "U": "U"}[kind]
    return f"({to_text(f[1])}) {symbol} ({to_text(f[2])})"


def _is_number(v: Value) -> bool:
    return isinstance(v, float)


def compare(op: str, value: Value, const: Union[float, str]) -> int:
    if op in ("=", "!="):
        a = "" if value is None else value
        same = (
            (isinstance(a, str) and isinstance(const, str) and a == const)
            or (_is_number(a) and not isinstance(const, str) and a == float(const))
        )
        return (SAT if same else VIOL) if op == "=" else (VIOL if same else SAT)
    if not _is_number(value) or isinstance(const, str):
        return VIOL
    c = float(const)
    held = {"<": value < c, "<=": value <= c, ">": value > c, ">=": value >= c}[op]
    return SAT if held else VIOL


def verdicts(f: Formula, rows: list[dict]) -> list[int]:
    """Verdict of ``f`` at every position, computed right to left in one pass
    per subformula: F, G and U fold from the end of the trace, past which
    every temporal verdict is inconclusive."""
    kind = f[0]
    if kind == "cmp":
        _, op, var, const = f
        return [compare(op, row.get(var), const) for row in rows]
    if kind == "not":
        return [-v for v in verdicts(f[1], rows)]
    if kind in ("and", "or", "->"):
        a, b = verdicts(f[1], rows), verdicts(f[2], rows)
        if kind == "and":
            return [min(x, y) for x, y in zip(a, b)]
        if kind == "or":
            return [max(x, y) for x, y in zip(a, b)]
        return [max(-x, y) for x, y in zip(a, b)]
    if kind == "X":
        return verdicts(f[1], rows)[1:] + [INC]
    out = [INC] * len(rows)
    acc = INC
    if kind == "U":
        a, b = verdicts(f[1], rows), verdicts(f[2], rows)
        for i in range(len(rows) - 1, -1, -1):
            acc = max(b[i], min(a[i], acc))
            out[i] = acc
        return out
    inner = verdicts(f[1], rows)
    stop = SAT if kind == "F" else VIOL
    for i in range(len(rows) - 1, -1, -1):
        if inner[i] == stop:
            acc = stop
        out[i] = acc
    return out


BUNDLED_INVARIANTS: dict[str, Formula] = {
    "Determine t_dispatch to make p > 50% and n < 350": G(
        and_(cmp("p", ">=", 0.5), cmp("n", "<=", 350.0))
    ),
    "Maintain safety efficiency": not_(G(cmp("U_safety", "<=", 0.0))),
    "Maintain pass efficiency": not_(G(cmp("U_pass", "<=", 0.0))),
}


# -- artifacts -----------------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row: dict[str, Value] = {}
        for name, cell in zip(header, line.split(",")):
            if cell == "":
                row[name] = None
            else:
                try:
                    row[name] = float(cell)
                except ValueError:
                    row[name] = cell
        rows.append(row)
    return rows


def read_cycles(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def read_vehicles(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["vehicles"]


def nine_digit_slack(t: float) -> float:
    """Largest error of a value printed with 9 significant digits."""
    if t == 0:
        return 1e-12
    return 0.5 * 10 ** (math.floor(math.log10(abs(t))) - 8) * 1.01


# -- verify --------------------------------------------------------------------


def check_verify(stdout: str, code: int, invariants: dict[str, Formula], rows: list[dict]) -> None:
    """`redapt verify` prints one line per invariant, in document order, and
    exits 1 exactly when one is violated."""
    expected = {name: verdicts(f, rows)[0] for name, f in invariants.items()}
    lines = [f"{name}: invariant: {VERDICT_NAMES[v]}" for name, v in expected.items()]
    got = stdout.splitlines()
    require(got == lines, f"verify printed {got!r}, the reference scan gives {lines!r}")
    want_code = 1 if VIOL in expected.values() else 0
    require(code == want_code, f"verify exited {code}, the reference scan gives {want_code}")


# -- exp2-adapt ------------------------------------------------------------------


class Occupancy:
    """Vehicles inside the crossing at an instant, from their entry and exit
    times, with the uncertainty that 9-digit rounding leaves."""

    def __init__(self, vehicles: list[dict]):
        self.entries = sorted(v["entry_time"] for v in vehicles)
        self.exits = sorted(v["exit_time"] for v in vehicles if v["exit_time"] is not None)

    def bounds(self, t: float) -> tuple[int, int]:
        e = nine_digit_slack(t)
        entered_lo = bisect.bisect_left(self.entries, t - e)
        entered_hi = bisect.bisect_right(self.entries, t + e)
        exited_lo = bisect.bisect_left(self.exits, t - e)
        exited_hi = bisect.bisect_right(self.exits, t + e)
        return entered_lo - exited_hi, entered_hi - exited_lo


def crossing_share(vehicles: list[dict], direction: str, threshold: float) -> tuple[float, float]:
    """Bounds on the share of completed crossings faster than ``threshold``."""
    done = [v for v in vehicles if v["direction"] == direction and v["exit_time"] is not None]
    if not done:
        return 1.0, 1.0
    fast = sure = 0
    for v in done:
        took = v["exit_time"] - v["entry_time"]
        slack = nine_digit_slack(v["exit_time"]) + nine_digit_slack(v["entry_time"])
        if took < threshold - slack:
            sure += 1
        if took < threshold + slack:
            fast += 1
    return sure / len(done), fast / len(done)


def check_metrics(out: Path, scenario: dict, rows: list[dict], vehicles: list[dict]) -> None:
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    threshold = scenario.get("p_time_threshold_s", P_TIME_THRESHOLD_S)
    for direction in ("north", "south"):
        lo, hi = crossing_share(vehicles, direction, threshold)
        got = metrics[f"p_{direction}"]
        require(lo - 1e-12 <= got <= hi + 1e-12, f"p_{direction} {got} outside [{lo}, {hi}]")
        mean = sum(1 for v in vehicles if v["direction"] == direction) / scenario["duration_min"]
        require(abs(metrics[f"mean_f_{direction}"] - mean) <= 1e-9 * max(1.0, mean),
                f"mean_f_{direction} {metrics[f'mean_f_{direction}']} != {mean}")
    peak = max(int(r["n"]) for r in rows)
    require(metrics["n_peak"] == peak, f"n_peak {metrics['n_peak']} != trace maximum {peak}")


def check_occupancy(rows: list[dict], vehicles: list[dict]) -> None:
    occupancy = Occupancy(vehicles)
    for row in rows:
        lo, hi = occupancy.bounds(row["time"])
        require(lo <= row["n"] <= hi,
                f"row at t={row['time']:g} has n={row['n']:g}; vehicles.json puts {lo}..{hi} inside")


def model_outcome(vehicles: list[dict], scenario: dict) -> tuple[float, float, int, int]:
    """Bounds on (p, n_peak) of a model run, scored from its vehicles alone:
    p is the lower of the two directions' fast shares, n_peak the most
    vehicles inside at a sample instant."""
    threshold = scenario.get("p_time_threshold_s", P_TIME_THRESHOLD_S)
    shares = [crossing_share(vehicles, d, threshold) for d in ("north", "south")]
    occupancy = Occupancy(vehicles)
    sample = scenario.get("sample_interval_s", 1.0)
    steps = int(round(scenario["duration_min"] * 60.0 / sample))
    peaks = [occupancy.bounds(k * sample) for k in range(steps + 1)]
    return (
        min(lo for lo, _ in shares), min(hi for _, hi in shares),
        max(lo for lo, _ in peaks), max(hi for _, hi in peaks),
    )


def check_dispatch_step(
    out: Path, scenario: dict, rows: list[dict], cycles: list[dict],
    model_run: Callable[[float], list[dict]],
) -> None:
    """Exactly one parametric change, t_dispatch 5 -> 6, which model runs at
    5 and 6 justify: 5 misses p >= 50% and n <= 350, 6 meets both."""
    changes = [
        (goal, r)
        for c in cycles
        for goal, r in c["reconfiguration"].items()
        if r["kind"] == "parametric"
    ]
    require(len(changes) == 1, f"expected one parametric change, found {len(changes)}")
    goal, reconfig = changes[0]
    require(goal.startswith("Determine t_dispatch"), f"the change serves {goal!r}")
    require(reconfig["changes"] == [{"param": "t_dispatch", "value": 6.0}],
            f"the change is {reconfig['changes']!r}")
    seen = [r["t_dispatch"] for r in rows]
    steps = [(a, b) for a, b in zip(seen, seen[1:]) if a != b]
    require(seen[0] == 5.0 and steps == [(5.0, 6.0)], f"t_dispatch in trace.csv moves {steps!r}")
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    require(metrics["final_parameters"]["t_dispatch"] == 6.0, "final t_dispatch is not 6")
    p_min = scenario.get("p_min", 0.5)
    n_limit = scenario.get("n_limit", 350)
    _, p5_hi, n5_lo, _ = model_outcome(model_run(5.0), scenario)
    p6_lo, _, _, n6_hi = model_outcome(model_run(6.0), scenario)
    require(p5_hi < p_min or n5_lo > n_limit, f"model at 5 min meets the goal (p<={p5_hi}, n>={n5_lo})")
    require(p6_lo >= p_min and n6_hi <= n_limit, f"model at 6 min misses the goal (p>={p6_lo}, n<={n6_hi})")


def check_exp2(out: Path, scenario: dict, model_run: Callable[[float], list[dict]]) -> None:
    rows = read_csv(out / "trace.csv")
    vehicles = read_vehicles(out / "vehicles.json")
    check_metrics(out, scenario, rows, vehicles)
    check_occupancy(rows, vehicles)
    check_dispatch_step(out, scenario, rows, read_cycles(out / "cycles.jsonl"), model_run)


# -- faults and dark episodes (soak-mixed, and the verify-nested recording) ------


def dark_episodes(scenario: dict) -> list[tuple[float, float]]:
    episodes = []
    profile = scenario["illuminance_profile"]
    end = scenario["duration_min"] * 60.0
    for k, (t, lux) in enumerate(profile):
        if lux <= DARK_LUX:
            until = profile[k + 1][0] if k + 1 < len(profile) else end
            episodes.append((float(t), float(until)))
    return episodes


def safety_utility(t_close: float, t_open: float) -> float:
    """U_safety under low light, from the closed-form utilities."""
    u_close = (t_close - 1.0) / 3.0
    u_open = (7.0 - t_open) / 3.0
    return 0.5 * abs(u_open + u_close - 2.0)


def family(slot: str) -> set[str]:
    """A flow slot's instance and its two standbys, whose serials step by 10
    (the larger of the flow and lux sensor counts)."""
    index = int(slot.split("_")[1])
    return {f"ir_{index + k * 10:02d}" for k in range(3)}


def check_faults(out: Path, scenario: dict, goals: tuple[str, str]) -> None:
    monitor_goal, gate_goal = goals
    cycles = read_cycles(out / "cycles.jsonl")
    rows = {r["time"]: r for r in read_csv(out / "trace.csv")}
    times = [c["sim_time"] for c in cycles]

    for c in cycles:
        require(not c["errors"], f"cycle {c['cycle_index']} records errors {c['errors']!r}")

    swaps: dict[int, dict[str, str]] = {}
    for i, c in enumerate(cycles):
        r = c["reconfiguration"].get(monitor_goal)
        if r is not None and r["kind"] == "structural":
            swaps[i] = {x["slot"]: x["instance"] for x in r["replacements"]}

    noisy: list[tuple[str, float, float]] = []  # slot, from, swap time
    answered: set[tuple[int, str]] = set()
    for fault in scenario["sensor_faults"]:
        slot, at = fault["slot"], float(fault["at_s"])
        first = bisect.bisect_left(times, at)
        reach = 1 if fault["mode"] == "fail" else NOISE_WINDOW
        hit = next((i for i in range(first, min(first + reach, len(cycles))) if slot in swaps.get(i, {})), None)
        require(hit is not None,
                f"{fault['mode']} fault on {slot} at {at:g} s is not swapped within {reach} cycle(s)")
        answered.add((hit, slot))
        if fault["mode"] == "noise":
            noisy.append((slot, at, times[hit]))
    for i, replaced in swaps.items():
        for slot in replaced:
            require((i, slot) in answered, f"cycle {i} swaps healthy {slot}")

    active = {r["variable"]: r["sensor_id"] for r in cycles[0]["readings"]}
    for i, c in enumerate(cycles):
        seen = {r["variable"]: r["sensor_id"] for r in c["readings"]}
        require(seen == active, f"cycle {i} reads {seen!r}, the swaps so far give {active!r}")
        require(len(set(seen.values())) == len(seen), f"cycle {i}: an instance is active in two slots")
        for slot, instance in swaps.get(i, {}).items():
            require(instance in family(slot), f"cycle {i}: {instance} is not in {slot}'s standby family")
            require(instance != active[slot], f"cycle {i}: {slot} is swapped onto itself")
            active[slot] = instance

    retimed = [
        (c["sim_time"], c["reconfiguration"][gate_goal])
        for c in cycles
        if c["reconfiguration"].get(gate_goal, {}).get("kind") == "parametric"
    ]
    episodes = dark_episodes(scenario)
    require(len(retimed) == len(episodes), f"{len(retimed)} retimings for {len(episodes)} dark episodes")
    for (start, end), (t, reconfig) in zip(episodes, retimed):
        first = times[bisect.bisect_left(times, start)]
        require(t == first < end, f"episode {start:g}-{end:g} s retimed at {t:g} s, not at {first:g} s")
        values = {x["param"]: x["value"] for x in reconfig["changes"]}
        u = safety_utility(values["t_close"], values["t_open"])
        require(u >= SAFETY_THRESHOLD, f"retiming at {t:g} s gives U_safety {u:.3f}")

    for c in cycles:
        t = c["sim_time"]
        row = rows.get(t)
        require(row is not None, f"trace.csv has no row at cycle time {t:g}")
        for r in c["readings"]:
            if any(s == r["variable"] and a <= t <= until for s, a, until in noisy):
                continue  # a noisy sensor is read twice at one instant; see CHANGES.md
            cell = row[r["variable"]]
            want = None if r["value"] is None else float(f"{r['value']:.9g}")
            require(cell == want, f"t={t:g} {r['variable']}: cycles.jsonl {want!r}, trace.csv {cell!r}")


# -- corpus ----------------------------------------------------------------------


def check_corpus(got: Iterable, pairs: list, domains: dict, reference: Callable) -> None:
    for k, (verdict, (formula, trace)) in enumerate(zip(got, pairs)):
        want = reference(formula, trace.states, None, domains)
        require(verdict is want, f"corpus pair {k}: evaluate gives {verdict}, the oracle {want}")


def hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }
