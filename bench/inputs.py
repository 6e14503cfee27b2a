"""Seeded inputs for the four benchmark workloads.

Every generator takes the seed and a directory, writes the documents the
program reads, and returns an Instance: the command cycle, the checker for
its outputs, and the input properties the program's behaviour depends on.
The shapes (function counts, edge counts, row counts, command mix) are fixed
and only the values vary with the seed, so a run's cost does not drift
between seeds while its data does.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from decimal import Decimal
from pathlib import Path
from typing import Callable

import oracle

PLATFORMS = ("aws-x86", "aws-arm", "aws-lambda-edge", "gcp", "leo")

#: Share of sorted costs and latencies where budget and SLO sit.
BOUND_SHARE = 0.6


@dataclass
class Instance:
    """One workload's generated inputs and how to run and check them."""

    commands: list[list[str]]  # argv of each operation, run in cycle order
    check: Callable[[int, dict], str | None]  # (command index, parsed JSON) -> problem
    corrupt: Callable[[int, dict], list[tuple[str, dict]]]  # self-test corruptions
    items: str  # what one operation works through: placements, rows or reports
    items_per_op: int
    properties: dict
    setup: dict  # what a fresh interpreter loads before the first operation
    counts: Callable[[dict], dict] = field(default=lambda out: {})


def _decimal(rng: random.Random, low: int, high: int, places: int) -> str:
    """A decimal string drawn in integer units of 10**-places."""
    return str(Decimal(rng.randrange(low, high)).scaleb(-places))


def _cards(root: Path) -> dict[str, dict]:
    catalogs = root / "src" / "cosmos" / "catalogs"
    return {pid: oracle.read_card(catalogs / f"{pid}.json") for pid in PLATFORMS}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _profile(rng: random.Random, fid: str, baas: list[dict]) -> dict:
    t = rng.randrange(50, 900)
    return {
        "function_id": fid,
        "n": str(rng.randrange(200, 5000) * 1000),
        "t": _decimal(rng, t, t + 1, 3),
        "mem": rng.choice(["0.125", "0.25", "0.5", "1"]),
        "d": _decimal(rng, 0, 5000, 2),
        "d_per_request": _decimal(rng, 1, 9, 6),
        "baas_usage": [{"component_id": "http-gateway", "quantity": "1"}] + baas,
        "t_overrides": {
            "aws-lambda-edge": _decimal(rng, t * 100, t * 140, 5),
            "gcp": _decimal(rng, t * 80, t * 400, 5),
        },
    }


def _latency_block(rng: random.Random, function_ids) -> dict:
    entries = {}
    for fid in function_ids:
        base = rng.randrange(500, 4000)
        entries[fid] = {
            "aws-x86": _decimal(rng, base, base + 1, 1),
            "aws-arm": _decimal(rng, base, base * 11 // 10, 1),
            "gcp": _decimal(rng, base * 8 // 10, base * 13 // 10, 1),
            "leo": _decimal(rng, base // 5, base * 2 // 5, 1),
        }
    return {
        "reference_platform": "aws-x86",
        "entries": entries,
        "factors": {"aws-lambda-edge": _decimal(rng, 45, 65, 2)},
    }


def _provisioned(rng: random.Random, function_ids, shared: int) -> dict[str, list[dict]]:
    """BaaS usage per function; `shared` functions share ml-provisioning."""
    baas = {fid: [] for fid in function_ids}
    months = rng.sample(range(1, 13), shared)
    for fid, m in zip(rng.sample(list(function_ids), shared), months):
        baas[fid].append({"component_id": "ml-provisioning", "quantity": str(m)})
        baas[fid].append({"component_id": "ml-inference", "quantity": "1"})
    etl = rng.sample(list(function_ids), max(1, len(function_ids) // 3))
    for i, fid in enumerate(etl):
        entry = {"component_id": "etl-engine", "quantity": "1"}
        if i == 0:  # a service consumed on two providers only
            entry["platforms"] = ["aws-x86", "aws-arm"]
        baas[fid].append(entry)
    return baas


def _optimize_instance(argv, space, budget, slo, properties, setup) -> Instance:
    def check(_i, out):
        return oracle.check_optimize(out, space, budget, slo)

    def corrupt(_i, out):
        swapped = dict(out["placement"])
        fids = space.function_ids
        a = next((f for f in fids if swapped[f] != swapped[fids[0]]), None)
        if a is None:
            swapped[fids[0]] = next(p for p in space.platforms if p != swapped[fids[0]])
        else:
            swapped[fids[0]], swapped[a] = swapped[a], swapped[fids[0]]
        return [
            ("swapped placement", {**out, "placement": swapped}),
            ("cost off by one quantum", {**out, "cost": str(Decimal(out["cost"]) + oracle.QUANTUM)}),
            ("feasible count off by one", {**out, "feasible_count": out["feasible_count"] + 1}),
            ("front point dropped", {**out, "front": out["front"][1:]}),
        ]

    size = len(space.values)
    properties = {
        "search_space": size,
        "feasible_share": round(sum(1 for c, t in space.values.values() if c <= budget and t <= slo) / size, 4),
        **properties,
    }
    return Instance(
        commands=[argv],
        check=check,
        corrupt=corrupt,
        items="placements",
        items_per_op=size,
        properties=properties,
        setup=setup,
        counts=lambda out: {"feasible": out["feasible_count"], "placements": out["total_count"]},
    )


def chain_catalog(seed: int, root: Path, work: Path) -> Instance:
    """A 5-function chain on the five bundled rate cards, priced by CatalogModel."""
    rng = random.Random(f"chain-catalog:{seed}")
    fids = [f"stage-{i}" for i in range(1, 6)]
    baas = _provisioned(rng, fids, shared=3)
    doc = {
        "workflow_id": f"chain-{seed}",
        "functions": [_profile(rng, fid, baas[fid]) for fid in fids],
        "edges": [[a, b] for a, b in zip(fids, fids[1:])],
        "latency": _latency_block(rng, fids),
    }
    pricing = oracle.Pricing(doc, _cards(root))
    platforms = sorted(PLATFORMS)
    space = oracle.SearchSpace(
        fids,
        platforms,
        pricing.preds,
        {(f, p): pricing.cost(f, p) for f in fids for p in platforms},
        pricing.latency,
        pricing.fixed,
    )
    budget, slo = space.quantile_bounds(BOUND_SHARE)
    path = _write(work / "chain.json", doc)
    argv = ["optimize", "--workflow", path, *(a for p in PLATFORMS for a in ("--platform", p))]
    argv += ["--budget", str(budget), "--latency-slo", str(slo), "--format", "json"]
    properties = {
        "functions": len(fids),
        "platforms": len(platforms),
        "shared_fixed_charge_share": sum(1 for f in fids if pricing.fixed(f, "aws-x86")) / len(fids),
        "per_ms_pricing": any(u == "PerMsPerRequest" for c in pricing.cards.values() for _, _, u, _ in c["components"]),
        "series_parallel": oracle.is_series_parallel(fids, doc["edges"]),
    }
    return _optimize_instance(argv, space, budget, slo, properties, {"platforms": PLATFORMS, "workflow": path})


#: The N-shaped subgraph a->c, a->d, b->d makes this DAG not series-parallel.
DAG_EDGES = [("a", "c"), ("a", "d"), ("b", "d"), ("c", "e"), ("d", "e"), ("e", "f")]


def dag_points(seed: int, root: Path, work: Path) -> Instance:
    """A 6-function general DAG priced from a measured point table."""
    rng = random.Random(f"dag-points:{seed}")
    fids = ["a", "b", "c", "d", "e", "f"]
    speed = {p: rng.randrange(30, 150) for p in PLATFORMS}  # latency factor, percent
    cost, latency, points = {}, {}, []
    for fid in fids:
        base_ms, base_usd = rng.randrange(2000, 30000), rng.randrange(10000, 90000)
        for pid in PLATFORMS:
            ms = _decimal(rng, base_ms * speed[pid] // 100, base_ms * speed[pid] // 90, 2)
            usd = _decimal(rng, base_usd * (180 - speed[pid]) // 100, base_usd * (200 - speed[pid]) // 100, 4)
            cost[(fid, pid)], latency[(fid, pid)] = Decimal(usd), Decimal(ms)
            points.append({"function_id": fid, "platform_id": pid, "latency_ms": ms, "cost": usd})
    doc = {"workflow_id": f"dag-{seed}", "functions": [{"function_id": f} for f in fids], "edges": DAG_EDGES}
    space = oracle.SearchSpace(fids, sorted(PLATFORMS), oracle.preds_of(fids, DAG_EDGES), cost, latency)
    budget, slo = space.quantile_bounds(BOUND_SHARE)
    wf_path = _write(work / "dag.json", doc)
    pt_path = _write(work / "points.json", {"points": points})
    argv = ["optimize", "--workflow", wf_path, "--points", pt_path]
    argv += ["--budget", str(budget), "--latency-slo", str(slo), "--format", "json"]
    properties = {
        "functions": len(fids),
        "platforms": len(PLATFORMS),
        "shared_fixed_charge_share": 0.0,
        "per_ms_pricing": False,
        "series_parallel": oracle.is_series_parallel(fids, DAG_EDGES),
    }
    return _optimize_instance(argv, space, budget, slo, properties, {"workflow": wf_path, "points": pt_path})


LOG_ROWS = 200_000
ERROR_SHARE = 0.01


def ingest_log(seed: int, root: Path, work: Path) -> Instance:
    """A 200,000-row usage log over 8 functions x 5 platforms."""
    rng = random.Random(f"ingest-log:{seed}")
    fids = [f"fn-{i}" for i in range(1, 9)]
    pairs = [(f, p) for f in fids for p in PLATFORMS]
    mean = {pair: rng.randrange(20_000, 400_000) for pair in pairs}  # thousandths of a ms
    durations: dict[str, list[int]] = {f"{f}:{p}": [] for f, p in pairs}
    errors: Counter = Counter()
    start = datetime(2024, 11, 4, 9)
    lines = ["timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status"]
    for i in range(LOG_ROWS):
        fid, pid = pair = pairs[rng.randrange(len(pairs))]
        milli = mean[pair] // 2 + rng.randrange(mean[pair])
        status = "error" if rng.random() < ERROR_SHARE else "ok"
        if status == "ok":
            durations[f"{fid}:{pid}"].append(milli)
        else:
            errors[f"{fid}:{pid}"] += 1
        stamp = (start + timedelta(seconds=i)).isoformat() + "Z"
        lines.append(
            f"{stamp},{fid},{pid},{milli // 1000}.{milli % 1000:03d},"
            f"{rng.randrange(1000, 2_000_000)},{rng.randrange(1000, 500_000)},{status}"
        )
    log_path = work / "usage.csv"
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for values in durations.values():
        values.sort()
    doc = {
        "workflow_id": f"ingest-{seed}",
        "functions": [_profile(rng, fid, []) for fid in fids],
        "edges": [[a, b] for a, b in zip(fids, fids[1:])],
    }
    wf_path = _write(work / "ingest.json", doc)
    ok_rows = sum(len(v) for v in durations.values())

    def corrupt(_i, out):
        key = next(iter(sorted(durations)))
        values = durations[key]
        p90 = oracle.nearest_rank_p90(values)
        # The largest duration below the p90: the p90 one distinct rank too low.
        off = next(v for v in reversed(values) if v < p90)
        row = out[key]
        return [
            ("p90 off by one rank", {**out, key: {**row, "p90_ms": str(oracle.ms(off))}}),
            ("mean off by 1e-9", {**out, key: {**row, "mean_ms": str(Decimal(row["mean_ms"]) + Decimal("1e-9"))}}),
            ("error tally off by one", {**out, key: {**row, "errors": row["errors"] + 1}}),
            ("pair dropped", {k: v for k, v in out.items() if k != key}),
        ]

    return Instance(
        commands=[["ingest", "--log", str(log_path), "--workflow", wf_path, "--format", "json"]],
        check=lambda _i, out: oracle.check_ingest(out, durations, errors),
        corrupt=corrupt,
        items="rows",
        items_per_op=LOG_ROWS,
        properties={
            "rows": LOG_ROWS,
            "pairs": len(pairs),
            "error_row_share": round(sum(errors.values()) / LOG_ROWS, 5),
            "distinct_duration_ratio": round(len({v for vs in durations.values() for v in vs}) / ok_rows, 4),
        },
        setup={"workflow": wf_path},
        counts=lambda out: {
            "rows_ok": sum(r["count"] for r in out.values()),
            "rows_error": sum(r["errors"] for r in out.values()),
        },
    )


REPORT_FUNCTIONS = 20
REPORT_EXTRA_EDGES = 10
REPORT_CYCLE = 200  # commands; an equal number of each of the five kinds


def report_mix(seed: int, root: Path, work: Path) -> Instance:
    """A seeded cycle of cost/breakdown/curve/crossover/pareto on a 20-function DAG."""
    rng = random.Random(f"report-mix:{seed}")
    fids = [f"fn-{i:02d}" for i in range(1, REPORT_FUNCTIONS + 1)]
    edges = {(fids[rng.randrange(j)], fids[j]) for j in range(1, len(fids))}
    while len(edges) < len(fids) - 1 + REPORT_EXTRA_EDGES:
        i, j = sorted(rng.sample(range(len(fids)), 2))
        edges.add((fids[i], fids[j]))
    baas = _provisioned(rng, fids, shared=6)
    doc = {
        "workflow_id": f"report-{seed}",
        "functions": [_profile(rng, fid, baas[fid]) for fid in fids],
        "edges": sorted(list(e) for e in edges),
        "latency": _latency_block(rng, fids),
    }
    pricing = oracle.Pricing(doc, _cards(root))
    path = _write(work / "reports.json", doc)
    base = ["--workflow", path]
    fmt = ["--format", "json"]
    per_kind = REPORT_CYCLE // 5
    pairs = [(a, b) for i, a in enumerate(PLATFORMS) for b in PLATFORMS[i + 1:]]
    volumes = [str(rng.randrange(1, 500) * 10_000) for _ in range(per_kind)]
    commands, checks, kinds = [], [], []
    for i in range(per_kind):
        p = PLATFORMS[i % len(PLATFORMS)]
        left, right = pairs[i % len(pairs)]
        samples = sorted(rng.sample(range(0, 100), 3))
        volume = Decimal(volumes[i])
        commands += [
            ["cost", *base, "--platform", p, *fmt],
            ["breakdown", *base, "--platform", "leo", "--volume", volumes[i], *fmt],
            ["curve", *base, "--platform", p, *(a for s in samples for a in ("--sample", str(s * 1_000_000))), *fmt],
            ["crossover", *base, "--platform", left, "--platform", right, *fmt],
            ["pareto", *base, *(a for q in PLATFORMS for a in ("--platform", q)), *fmt],
        ]
        checks += [
            lambda out, p=p: oracle.check_cost(out, pricing, p),
            lambda out, v=volume: oracle.check_breakdown(out, pricing, "leo", v),
            lambda out, p=p: oracle.check_curve(out, pricing, p),
            lambda out, a=left, b=right: oracle.check_crossover(out, pricing, a, b),
            lambda out: oracle.check_pareto(out, pricing),
        ]
        kinds += ["cost", "breakdown", "curve", "crossover", "pareto"]
    order = list(range(len(commands)))
    rng.shuffle(order)

    def corrupt(i, out):
        kind = kinds[order[i]]
        if kind == "cost":
            wf = out["workflow"]
            return [("workflow total off", {**out, "workflow": {**wf, "total": str(Decimal(wf["total"]) + oracle.QUANTUM)}})]
        if kind == "breakdown":
            fid = next(iter(out["functions"]))
            fn = out["functions"][fid]
            comps = [{**fn["components"][0], "amount": str(Decimal(fn["components"][0]["amount"]) + oracle.QUANTUM)}]
            fn = {**fn, "components": comps + fn["components"][1:]}
            return [("component amount off", {**out, "functions": {**out["functions"], fid: fn}})]
        if kind == "curve":
            s = [{**out["samples"][-1], "cost": str(Decimal(out["samples"][-1]["cost"]) + oracle.QUANTUM)}]
            return [("sampled value off", {**out, "samples": out["samples"][:-1] + s})]
        if kind == "crossover":
            if out["result"] != "crossover":
                return [("result flipped", {**out, "result": "crossover" if out["result"] == "none" else "none"})]
            n = Decimal(out["n_star_requests"]) + 1
            return [("n* moved by one request", {**out, "n_star_requests": str(n)})]
        return [
            ("front point dropped", {**out, "front": out["front"][1:]}),
            ("dominated point added", {**out, "front": out["front"] + [_dominated(out)]}),
        ]

    kind_counts = Counter(kinds)
    results = Counter()
    for a, b in pairs:
        (fa, sa), (fb, sb) = (pricing.curve({f: p for f in fids}) for p in (a, b))
        results["crossover" if sa != sb and oracle.CTX.divide(fb - fa, sa - sb) >= 0 else "none"] += 1
    return Instance(
        commands=[commands[j] for j in order],
        check=lambda i, out: checks[order[i]](out),
        corrupt=corrupt,
        items="reports",
        items_per_op=1,
        properties={
            "functions": len(fids),
            "edges": len(edges),
            "series_parallel": oracle.is_series_parallel(fids, edges),
            "shared_fixed_charge_share": 6 / len(fids),
            "per_ms_pricing": True,
            "commands": dict(sorted(kind_counts.items())),
            "platform_pairs_with_crossover": results["crossover"],
        },
        setup={"platforms": PLATFORMS, "workflow": path},
    )


def _dominated(out: dict) -> dict:
    """A point of the report that the front dominates."""
    front = {p["label"] for p in out["front"]}
    return next(p for p in reversed(out["points"]) if p["label"] not in front)


WORKLOADS = {
    "chain-catalog": chain_catalog,
    "dag-points": dag_points,
    "ingest-log": ingest_log,
    "report-mix": report_mix,
}
