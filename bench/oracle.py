"""Output oracles: the benchmark's own pricing, critical path and statistics.

Nothing here imports cosmos. Rate cards and generated documents are read as
plain JSON and priced with this module's own arithmetic, so a defect in the
program cannot hide behind the same defect in its checker. Every check
returns None for a correct output and a one-line reason otherwise.

Arithmetic mirrors the program's documented contract, not its code: each
component charge is an exact product rounded half-even to 12 decimals, a
function's cost is the sum of its charges, and a fixed monthly charge shared
by several functions on one platform is billed once, for the longest window.
"""

from __future__ import annotations

import itertools
import json
from decimal import ROUND_HALF_EVEN, Context, Decimal
from pathlib import Path

CTX = Context(prec=60, rounding=ROUND_HALF_EVEN)
QUANTUM = Decimal("1e-12")
ZERO = Decimal(0)

#: Declared rate scale -> (multiplier, divisor) reaching base units.
SCALES = {"base": (1, 1), "per-1m-requests": (1, 10**6), "per-month": (1, 1), "per-hour": (730, 1)}

#: Report field of each per-request driver; BaaS charges come from baas_usage.
DRIVER_FIELD = {
    "Invocation": "invocation",
    "Compute": "compute",
    "StateManagement": "state",
    "DataTransfer": "transfer",
}
FIELDS = ("invocation", "compute", "baas", "transfer", "state")


def q(value: Decimal) -> Decimal:
    return CTX.quantize(value, QUANTUM)


def mul(*factors: Decimal) -> Decimal:
    out = Decimal(1)
    for f in factors:
        out = CTX.multiply(out, f)
    return out


def read_card(path: Path) -> dict:
    """A rate card as {"id", "components": [(id, driver, unit, base_rate)]}."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    comps = []
    for c in doc["components"]:
        m, d = SCALES[c.get("scale", "base")]
        comps.append((c["id"], c["driver"], c["unit"], CTX.divide(mul(Decimal(c["rate"]), Decimal(m)), Decimal(d))))
    return {"id": doc["platform_id"], "components": comps, "by_id": {c[0]: c for c in comps}}


def resolve_latency(block: dict | None, function_ids) -> dict:
    """(function, platform) -> ms from explicit entries plus reference factors."""
    table: dict[tuple[str, str], Decimal] = {}
    if not block:
        return table
    for fid, per in block.get("entries", {}).items():
        for pid, ms in per.items():
            table[(fid, pid)] = Decimal(ms)
    ref = block.get("reference_platform")
    for pid, factor in block.get("factors", {}).items():
        for fid in function_ids:
            if (fid, pid) not in table and (fid, ref) in table:
                table[(fid, pid)] = mul(table[(fid, ref)], Decimal(factor))
    return table


def preds_of(function_ids, edges) -> dict[str, list[str]]:
    preds = {fid: [] for fid in function_ids}
    for src, dst in edges:
        preds[dst].append(src)
    return preds


def critical_path(preds: dict[str, list[str]], weight) -> Decimal:
    """Longest weighted path through the DAG; weight(fid) is a node's latency."""
    dist: dict[str, Decimal] = {}

    def finish(fid: str) -> Decimal:
        if fid not in dist:
            dist[fid] = max((finish(p) for p in preds[fid]), default=ZERO) + weight(fid)
        return dist[fid]

    return max((finish(fid) for fid in preds), default=ZERO)


def is_series_parallel(function_ids, edges) -> bool:
    """Two-terminal series-parallel test by series and parallel reductions.

    A super-source feeds every source and every sink feeds a super-sink; the
    DAG is series-parallel iff the reductions leave the single edge s -> t.
    """
    has_in = {dst for _, dst in edges}
    has_out = {src for src, _ in edges}
    # A set of edges: a parallel copy collapses on insertion (parallel reduction).
    left = {tuple(e) for e in edges}
    left |= {("<s>", f) for f in function_ids if f not in has_in}
    left |= {(f, "<t>") for f in function_ids if f not in has_out}
    reduced = True
    while reduced:
        reduced = False
        for node in {n for e in left for n in e} - {"<s>", "<t>"}:
            ins = [e for e in left if e[1] == node]
            outs = [e for e in left if e[0] == node]
            if len(ins) == 1 and len(outs) == 1:  # series reduction
                left -= {ins[0], outs[0]}
                left.add((ins[0][0], outs[0][1]))
                reduced = True
                break
    return left == {("<s>", "<t>")}


class Pricing:
    """Per-(function, platform) cost of one workflow document on rate cards."""

    def __init__(self, workflow_doc: dict, cards: dict[str, dict]):
        self.functions = {f["function_id"]: f for f in workflow_doc["functions"]}
        self.function_ids = [f["function_id"] for f in workflow_doc["functions"]]
        self.preds = preds_of(self.function_ids, workflow_doc.get("edges", []))
        self.cards = cards
        self.latency = resolve_latency(workflow_doc.get("latency"), self.function_ids)
        self._drivers: dict = {}

    def drivers(self, fid: str, pid: str, volume: Decimal | None = None) -> dict[str, Decimal]:
        """Driver subtotals of one function on one platform."""
        key = (fid, pid, volume)
        if key not in self._drivers:
            self._drivers[key] = self._price(fid, pid, volume)
        return self._drivers[key]

    def _price(self, fid, pid, volume):
        f, card = self.functions[fid], self.cards[pid]
        n = Decimal(f.get("n", "0")) if volume is None else volume
        t = Decimal(f.get("t_overrides", {}).get(pid, f.get("t", "0")))
        stored = Decimal(f.get("d", "0")) + mul(Decimal(f.get("d_per_request", "0")), n)
        out = dict.fromkeys(FIELDS, ZERO)
        for _cid, driver, unit, rate in card["components"]:
            if driver == "Invocation":
                extra = (self.latency[(fid, pid)],) if unit == "PerMsPerRequest" else ()
                amount = q(mul(n, *extra, rate))
            elif driver == "Compute":
                amount = q(mul(n, t, Decimal(f.get("mem", "0")), rate))
            elif driver == "StateManagement":
                amount = q(mul(stored, rate))
            elif driver == "DataTransfer":
                per = {"PerGBTransferredIn": f.get("r_in", "0"), "PerGBTransferredOut": f.get("r_out", "0")}
                amount = q(mul(n, Decimal(per.get(unit, "1")), rate))
            else:
                continue
            out[DRIVER_FIELD[driver]] += amount
        for usage in f.get("baas_usage", []):
            if "platforms" in usage and pid not in usage["platforms"]:
                continue
            _cid, driver, _unit, rate = card["by_id"][usage["component_id"]]
            qty = Decimal(usage.get("quantity", "1"))
            out["baas"] += q(mul(qty, rate)) if driver == "BaasFixed" else q(mul(n, qty, rate))
        return out

    def cost(self, fid: str, pid: str, volume: Decimal | None = None) -> Decimal:
        return sum(self.drivers(fid, pid, volume).values(), ZERO)

    def fixed(self, fid: str, pid: str) -> list[tuple[str, Decimal, Decimal]]:
        """(component, months, rate) of each fixed BaaS charge the pair pays."""
        card = self.cards[pid]
        out = []
        for usage in self.functions[fid].get("baas_usage", []):
            if "platforms" in usage and pid not in usage["platforms"]:
                continue
            cid, driver, _unit, rate = card["by_id"][usage["component_id"]]
            if driver == "BaasFixed":
                out.append((cid, Decimal(usage.get("quantity", "1")), rate))
        return out

    def workflow_cost(self, placement: dict[str, str], volume: Decimal | None = None) -> Decimal:
        total = sum((self.cost(fid, pid, volume) for fid, pid in placement.items()), ZERO)
        return total - shared_credit(placement, self.fixed)

    def curve(self, placement: dict[str, str]) -> tuple[Decimal, Decimal]:
        """(fixed, slope) of the workflow's cost-vs-volume line."""
        fixed = self.workflow_cost(placement, ZERO)
        return fixed, self.workflow_cost(placement, Decimal(1)) - fixed


def shared_credit(placement: dict[str, str], fixed_of) -> Decimal:
    """Fixed charges billed more than once under a placement, to be credited back."""
    months: dict[tuple[str, str], list[Decimal]] = {}
    rates: dict[tuple[str, str], Decimal] = {}
    for fid, pid in placement.items():
        for cid, m, rate in fixed_of(fid, pid):
            months.setdefault((pid, cid), []).append(m)
            rates[(pid, cid)] = rate
    return sum((q(mul(sum(ms) - max(ms), rates[k])) for k, ms in months.items() if len(ms) > 1), ZERO)


# --- placement search ----------------------------------------------------------


class SearchSpace:
    """Every placement's (cost, latency), brute-forced from per-pair tables."""

    def __init__(self, function_ids, platforms, preds, cost, latency, fixed=None):
        self.function_ids = list(function_ids)
        self.platforms = list(platforms)
        self.cost = cost  # (fid, pid) -> Decimal, no shared-charge credit
        self.latency = latency  # (fid, pid) -> Decimal
        self.fixed = fixed or (lambda fid, pid: ())
        self.preds = preds
        self.values: dict[tuple[str, ...], tuple[Decimal, Decimal]] = {}
        for combo in itertools.product(self.platforms, repeat=len(self.function_ids)):
            self.values[combo] = self._evaluate(combo)
        self.c_star = min(c for c, _ in self.values.values())
        self.t_star = min(t for _, t in self.values.values())

    def _evaluate(self, combo) -> tuple[Decimal, Decimal]:
        placement = dict(zip(self.function_ids, combo))
        cost = sum((self.cost[(f, p)] for f, p in placement.items()), ZERO)
        cost -= shared_credit(placement, self.fixed)
        return cost, critical_path(self.preds, lambda f: self.latency[(f, placement[f])])

    def key(self, placement: dict) -> tuple[str, ...]:
        return tuple(placement[f] for f in self.function_ids)

    def points(self) -> list[tuple[str, Decimal, Decimal]]:
        return [(f"{f}@{p}", self.cost[(f, p)], self.latency[(f, p)]) for f in self.function_ids for p in self.platforms]

    def quantile_bounds(self, share: float) -> tuple[Decimal, Decimal]:
        """(budget, slo) at the given share of the sorted costs and latencies."""
        costs = sorted(c for c, _ in self.values.values())
        lats = sorted(t for _, t in self.values.values())
        i = int(share * (len(costs) - 1))
        return costs[i], lats[i]


def front_keys(points) -> set[tuple[Decimal, Decimal]]:
    """Quadratic dominance: (cost, latency) values no other value weakly dominates."""
    values = {(c, t) for _, c, t in points}
    return {(c, t) for c, t in values if not any(c2 <= c and t2 <= t and (c2, t2) != (c, t) for c2, t2 in values)}


def check_front(reported: list[dict], points) -> str | None:
    by_label = {label: (c, t) for label, c, t in points}
    got = []
    for p in reported:
        value = (Decimal(p["cost"]), Decimal(p["latency_ms"]))
        if by_label.get(p["label"]) != value:
            return f"front point {p['label']} is not an evaluated point"
        got.append(value)
    if len(set(got)) != len(got) or set(got) != front_keys(points):
        return "front differs from the dominance check"
    return None


def check_optimize(out: dict, space: SearchSpace, budget: Decimal, slo: Decimal) -> str | None:
    feasible = {k: v for k, v in space.values.items() if v[0] <= budget and v[1] <= slo}
    if out["total_count"] != len(space.values) or out["feasible_count"] != len(feasible):
        return "placement counts differ"
    if Decimal(out["c_star"]) != space.c_star or Decimal(out["t_star"]) != space.t_star:
        return "anchors differ"
    if space.values[space.key(out["c_star_placement"])][0] != space.c_star:
        return "C* placement does not reach C*"
    if space.values[space.key(out["t_star_placement"])][1] != space.t_star:
        return "T* placement does not reach T*"
    best = space.key(out["placement"])
    if best not in feasible:
        return "chosen placement is infeasible"
    cost, latency = space.values[best]
    if Decimal(out["cost"]) != cost or Decimal(out["latency_ms"]) != latency:
        return "chosen placement's cost or latency differs"

    def objective(value):
        return CTX.divide(value[0], space.c_star) + CTX.divide(value[1], space.t_star)

    mine = objective(space.values[best])
    if mine > min(objective(v) for v in feasible.values()) + Decimal("2e-9"):
        return "a feasible placement has a lower objective"
    if abs(Decimal(repr(out["objective"])) - mine) > Decimal("1e-9") * max(mine, Decimal(1)):
        return "reported objective differs"
    return check_front(out["front"], space.points())


# --- usage-log ingest ----------------------------------------------------------


def nearest_rank_p90(sorted_values: list[int]) -> int:
    return sorted_values[-((-9 * len(sorted_values)) // 10) - 1]


def ms(milli: int) -> Decimal:
    return Decimal(milli).scaleb(-3)


def check_ingest(out: dict, durations: dict[str, list[int]], errors: dict[str, int]) -> str | None:
    """durations: "fid:pid" -> sorted ok durations in thousandths of a ms."""
    if set(out) != set(durations):
        return "reported pairs differ"
    for key, values in durations.items():
        row = out[key]
        total = sum(values)
        # Mean rounded half-even to 1e-9 ms, in exact integer arithmetic.
        quotient, rest = divmod(total * 10**6, len(values))
        if 2 * rest > len(values) or (2 * rest == len(values) and quotient % 2):
            quotient += 1
        expected = (
            len(values),
            Decimal(quotient).scaleb(-9),
            ms(values[0]),
            ms(values[-1]),
            ms(nearest_rank_p90(values)),
            errors.get(key, 0),
        )
        got = (
            row["count"],
            Decimal(row["mean_ms"]),
            Decimal(row["min_ms"]),
            Decimal(row["max_ms"]),
            Decimal(row["p90_ms"]),
            row["errors"],
        )
        if got != expected:
            return f"statistics differ for {key}"
    return None


# --- reports -------------------------------------------------------------------


def check_cost(out: dict, pricing: Pricing, platform: str) -> str | None:
    placement = {fid: platform for fid in pricing.function_ids}
    sums = dict.fromkeys(FIELDS, ZERO)
    for fid in pricing.function_ids:
        row, mine = out["functions"][fid], pricing.drivers(fid, platform)
        for name in FIELDS:
            if Decimal(row[name]) != mine[name]:
                return f"{fid} {name} differs"
            sums[name] += mine[name]
        if Decimal(row["total"]) != sum(mine.values(), ZERO):
            return f"{fid} total differs"
    sums["baas"] -= shared_credit(placement, pricing.fixed)
    wf = out["workflow"]
    if any(Decimal(wf[name]) != sums[name] for name in FIELDS):
        return "workflow row differs"
    if Decimal(wf["total"]) != pricing.workflow_cost(placement):
        return "workflow total differs"
    return None


def check_breakdown(out: dict, pricing: Pricing, platform: str, volume: Decimal) -> str | None:
    for fid in pricing.function_ids:
        report = out["functions"][fid]
        total = Decimal(report["subtotals"]["total"])
        if sum((Decimal(c["amount"]) for c in report["components"]), ZERO) != total:
            return f"{fid} components do not add up to its total"
        if total != pricing.cost(fid, platform, volume):
            return f"{fid} total differs"
        shares = sum((Decimal(v) for v in report["shares_percent"].values()), ZERO)
        if total and abs(shares - 100) > Decimal("0.00001"):
            return f"{fid} shares do not add up to 100%"
    return None


def check_curve(out: dict, pricing: Pricing, platform: str) -> str | None:
    fixed, slope = pricing.curve({fid: platform for fid in pricing.function_ids})
    if Decimal(out["fixed"]) != fixed or Decimal(out["slope_per_request"]) != slope:
        return "curve line differs"
    for sample in out["samples"]:
        n = Decimal(sample["n"])
        if Decimal(sample["cost"]) != q(fixed + mul(slope, n)):
            return f"curve value at {n} differs"
    return None


def check_crossover(out: dict, pricing: Pricing, left: str, right: str) -> str | None:
    (fa, sa), (fb, sb) = (pricing.curve({f: p for f in pricing.function_ids}) for p in (left, right))
    if sa == sb:
        expected = "coincident" if fa == fb else "none"
    else:
        expected = "crossover" if CTX.divide(fb - fa, sa - sb) >= 0 else "none"
    if out["result"] != expected:
        return f"expected {expected}, got {out['result']}"
    if expected != "crossover":
        return None
    n = Decimal(out["n_star_requests"])
    left_cost, right_cost = fa + mul(sa, n), fb + mul(sb, n)
    # Both lines must meet at n*. Reports print n* to 28 significant digits,
    # so the two costs there may differ by the slope gap times that rounding.
    if abs(left_cost - right_cost) > abs(sa - sb) * abs(n) * Decimal("1e-26") + Decimal("1e-30"):
        return "the two costs differ at n*"
    if Decimal(out["cost"]) != q(left_cost):
        return "cost at n* differs"
    return None


def check_pareto(out: dict, pricing: Pricing) -> str | None:
    points = [
        (f"{f}@{p}", pricing.cost(f, p), pricing.latency[(f, p)])
        for f in pricing.function_ids
        for p in sorted(pricing.cards)
    ]
    reported = {(p["label"], Decimal(p["cost"]), Decimal(p["latency_ms"])) for p in out["points"]}
    if reported != set(points):
        return "evaluated points differ"
    problem = check_front(out["front"], points)
    if problem:
        return problem
    front = {p["label"] for p in out["front"]}
    if not {p["label"] for p in out["optimal_line"]} <= front:
        return "trade-off line leaves the front"
    return None
