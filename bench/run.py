#!/usr/bin/env python3
"""Benchmark of the cosmos command line, end to end and per layer.

    python3 bench/run.py --workload chain-catalog --seed 1 --seconds 12 --trace 0

Run from the repository root. The run generates its inputs from --seed,
then calls cosmos.cli.main(argv) in-process, as a user runs the CLI, in a
closed loop from one thread: each command starts when the previous one has
finished. Stdout goes to an in-memory buffer and --out is never given, so
disk writes stay out of the timing. Every output is checked by the oracles
in oracle.py outside the timed region, and each oracle must reject
deliberately corrupted copies of the real outputs (the self-test).

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters), the time of one command in units of fixed reference tasks
timed in the same run (see op_ref), and peak heap of one command from an
untimed tracemalloc pass; wall times of one command and the work done per
second are printed too. --trace 1 spends the first part of the run
untraced and the rest with spans.Tracer installed, and prints the
per-layer metrics. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import mmap
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import inputs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_PROBES = 9
MIN_OPS = 2
#: Least seconds between two timings of the reference tasks in a loop.
REF_EVERY = 0.25
REF_REPEATS = 2
REF_PAGES_BYTES = 8 << 20
REF_STEP = Decimal("0.0001")
#: Share of a --trace 1 run spent untraced, as the overhead baseline.
UNTRACED_SHARE = 0.4


def run_op(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Op(NamedTuple):
    k: int  # index of the command in the cycle
    seconds: float
    code: int
    out: str


def _integers() -> None:
    total = 0
    for i in range(20000):
        total += i * i % 7


def _decimals() -> None:
    acc, table, rows = Decimal(0), {}, []
    for i in range(2000):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0) + i * i % 7
        acc += Decimal(i) * REF_STEP
        rows.append((key, str(acc), i / 7))
    rows.sort(key=lambda row: row[2], reverse=True)


def _objects() -> None:
    rows = [(str(i), i / 3, [i]) for i in range(30000)]
    rows.sort(key=lambda row: row[1], reverse=True)


def _pages() -> None:
    with mmap.mmap(-1, REF_PAGES_BYTES) as pages:
        for offset in range(0, REF_PAGES_BYTES, mmap.PAGESIZE):
            pages[offset] = 1


#: Fixed pure-Python tasks of a few ms that do not use cosmos: integer
#: arithmetic; Decimal sums, dict updates and string building; a few MB of
#: small objects built, sorted and freed; fresh memory pages touched. The
#: host slows each kind of work by its own factor, so all four are timed.
REFERENCE_TASKS = {"integers": _integers, "decimals": _decimals, "objects": _objects, "pages": _pages}


def closed_loop(cli, commands, seconds: float, first: int = 0, run=run_op) -> tuple[list[Op], dict]:
    """Each command run, and the seconds of each timing of each reference task.

    Runs at least MIN_OPS whole cycles of the commands. Between commands, at most every REF_EVERY seconds, each reference task
    is timed REF_REPEATS times, so their timings cover the run as the
    commands do.
    """
    ops, refs = [], {name: [] for name in REFERENCE_TASKS}
    deadline = time.perf_counter() + seconds
    last_ref = -REF_EVERY
    i = first
    while time.perf_counter() < deadline or len(ops) < MIN_OPS * len(commands):
        if time.perf_counter() - last_ref >= REF_EVERY:
            for name, task in REFERENCE_TASKS.items():
                for _ in range(REF_REPEATS):
                    t0 = time.perf_counter()
                    task()
                    refs[name].append(time.perf_counter() - t0)
            last_ref = time.perf_counter()
        k = i % len(commands)
        t0 = time.perf_counter()
        code, out = run(cli, commands[k])
        ops.append(Op(k, time.perf_counter() - t0, code, out))
        i += 1
    return ops, refs


def reference_seconds(refs: dict) -> float:
    """Geometric mean over the reference tasks of each one's mean time."""
    return statistics.geometric_mean(statistics.fmean(v) for v in refs.values())


def op_ref(ops: list[Op], refs: dict) -> float:
    """Time of one command in units of the reference time of the same run.

    Per command of the cycle, its mean time; the mean of these over the
    cycle; divided by reference_seconds. The shared host's speed drifts by
    up to 2x over seconds to hours with other tenants' load, and wall times
    follow it; the reference tasks, timed on the same core all through the
    run, slow with it, so the ratio moves less between runs than the time.
    Means, not medians, weigh slow and fast stretches of the run alike on
    both sides of the ratio.
    """
    times: dict[int, list[float]] = {}
    for op in ops:
        times.setdefault(op.k, []).append(op.seconds)
    return statistics.fmean(statistics.fmean(v) for v in times.values()) / reference_seconds(refs)


def problem(inst, k: int, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        parsed = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    return inst.check(k, parsed)


def verify(inst, ops) -> tuple[int, list[str]]:
    """Failed operations, and the oracle self-test's findings."""
    verdicts: dict[tuple[int, str], str | None] = {}
    for op in ops:
        if (op.k, op.out) not in verdicts:
            verdicts[(op.k, op.out)] = problem(inst, op.k, op.code, op.out)
    failed = sum(1 for op in ops if verdicts[(op.k, op.out)] is not None)
    findings = [f"command {k}: {p}" for (k, _), p in verdicts.items() if p is not None][:5]
    tested = set()
    for (k, out), verdict in verdicts.items():
        if verdict is not None or k in tested:
            continue
        tested.add(k)
        for name, corrupted in inst.corrupt(k, json.loads(out)):
            if inst.check(k, corrupted) is None:
                findings.append(f"self-test: oracle accepted a corrupted output ({name})")
    return failed, findings


def setup_times(inst, probes: int) -> list[float]:
    """Wall times of fresh interpreters importing cosmos and loading the inputs."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), json.dumps(inst.setup)]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_heap(cli, inst) -> int:
    """Peak traced heap, in bytes, of one command of each kind, untimed."""
    firsts = {}
    for k, argv in enumerate(inst.commands):
        firsts.setdefault(argv[0], k)
    peaks = []
    for k in firsts.values():
        gc.collect()
        tracemalloc.start()
        run_op(cli, inst.commands[k])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return max(peaks)


def end_to_end(cli, inst, seconds: float) -> tuple[dict, list, list[str]]:
    # Half the set-up probes run before the timed loop and half after it, so
    # their median is not taken from a single moment of the host's speed.
    before = setup_times(inst, SETUP_PROBES - SETUP_PROBES // 2)
    ops, refs = closed_loop(cli, inst.commands, seconds)
    setup = statistics.median(before + setup_times(inst, SETUP_PROBES // 2))
    times = [op.seconds for op in ops]
    metrics = {
        "setup_s": (setup, "s"),
        "op_mean_ref": (op_ref(ops, refs), "ref"),
        "peak_mem_mb": (peak_heap(cli, inst) / 1e6, "MB"),
    }
    # Wall times follow the host's drifting speed (see op_ref), so they are
    # printed but not in BENCHMARK.json.
    items_per_s = inst.items_per_op * len(ops) / sum(times)
    notes = [
        f"{'op_p50_ms':<36} {statistics.median(times) * 1e3:.6g} ms",
        f"{'reference_ms':<36} {reference_seconds(refs) * 1e3:.6g} ms",
        f"{inst.items + '_per_s':<36} {items_per_s:.6g} 1/s",
    ]
    if len(ops) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        notes.append(f"{'op_p90_ms':<36} {p90 * 1e3:.6g} ms  (n={len(ops)})")
    else:
        notes.append(f"{'op_p90_ms':<36} not reported: {len(ops)} operations, fewer than 100")
    return metrics, ops, notes


def per_layer(cli, inst, seconds: float, spans_path: Path) -> tuple[dict, list, list[str]]:
    untraced, untraced_refs = closed_loop(cli, inst.commands, seconds * UNTRACED_SHARE)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_op = tracer.wrap(spans.ROOT_SPAN, run_op)

        def run(cli, argv):
            tracer.op_id += 1
            return traced_op(cli, argv)

        traced, traced_refs = closed_loop(cli, inst.commands, seconds * (1 - UNTRACED_SHARE), len(untraced), run)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    inclusive, calls, self_time = tracer.summary()
    n = len(traced)
    op_total = inclusive[spans.ROOT_SPAN]
    counts: dict[str, int] = {}
    for op in traced:
        if op.code == 0:
            for key, value in inst.counts(json.loads(op.out)).items():
                counts[key] = counts.get(key, 0) + value
    rows = counts.get("rows_ok", 0) + counts.get("rows_error", 0)
    placements = counts.get("placements", 0)

    def incl(name):
        return inclusive.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    peak_bytes_per_row = ratio(peak_heap(cli, inst), inst.items_per_op) if rows else 0.0
    m = {}
    for name in ("component_charges", "function_cost", "workflow_cost"):
        m[f"engine.{name}_us"] = (incl(f"engine.{name}") / n * 1e6, "us")
        m[f"engine.{name}_calls"] = (calls.get(f"engine.{name}", 0) / n, "count")
    m["money.money_product_calls"] = (calls.get("money.money_product", 0) / n, "count")
    m["money.quantize_money_calls"] = (calls.get("money.quantize_money", 0) / n, "count")
    m["workflow.workflow_latency_us"] = (incl("workflow.workflow_latency") / n * 1e6, "us")
    m["workflow.workflow_latency_calls"] = (calls.get("workflow.workflow_latency", 0) / n, "count")
    m["workflow.load_document_ms"] = (incl("workflow.load_workflow_document") / n * 1e3, "ms")
    m["catalog.load_platform_ms"] = (incl("catalog.load_platform") / n * 1e3, "ms")
    m["catalog.load_platform_calls"] = (calls.get("catalog.load_platform", 0) / n, "count")
    m["optimizer.min_cost_s"] = (incl("optimizer.min_cost") / n, "s")
    m["optimizer.min_time_s"] = (incl("optimizer.min_time") / n, "s")
    search_self = incl("optimizer.optimize") - incl("optimizer.min_cost") - incl("optimizer.min_time")
    m["optimizer.search_self_s"] = (search_self / n, "s")
    m["optimizer.us_per_placement"] = (ratio(incl("optimizer.optimize"), placements) * 1e6, "us")
    m["optimizer.enumeration_passes"] = (
        ratio(calls.get("optimizer.enumerate_placements", 0), calls.get("optimizer.optimize", 0)), "count"
    )
    m["optimizer.feasible_ratio"] = (ratio(counts.get("feasible", 0), placements), "ratio")
    m["optimizer.pareto_front_us_per_point"] = (
        ratio(incl("optimizer.pareto_front"), tracer.points.get("optimizer.pareto_front", 0)) * 1e6, "us"
    )
    m["telemetry.scan_us_per_row"] = (ratio(incl("telemetry.scan_usage_log"), rows) * 1e6, "us")
    m["telemetry.summarize_us_per_row"] = (ratio(incl("telemetry.summarize_usage"), rows) * 1e6, "us")
    m["telemetry.calibrate_ms"] = (incl("telemetry.calibrate") / n * 1e3, "ms")
    m["telemetry.rows_ok"] = (counts.get("rows_ok", 0) / n, "count")
    m["telemetry.rows_error"] = (counts.get("rows_error", 0) / n, "count")
    m["telemetry.peak_bytes_per_row"] = (peak_bytes_per_row, "B")
    m["cli.self_ms"] = (self_time.get("cli", 0.0) / n * 1e3, "ms")
    m["cli.exit_nonzero"] = (sum(1 for op in untraced + traced if op.code != 0), "count")
    for layer in spans.LAYERS:
        m[f"{layer}.self_share"] = (self_time.get(layer, 0.0) / op_total, "ratio")
    m["trace.overhead_ratio"] = (op_ref(traced, traced_refs) / op_ref(untraced, untraced_refs), "ratio")
    m["trace.spans_per_op"] = ((len(tracer.name_of) - n) / n, "count")
    notes = [f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.name_of)} spans, {n} traced operations)"]
    return m, untraced + traced, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cosmos" / "cli.py").is_file():
        print(f"error: no cosmos sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from cosmos import cli

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inst = inputs.WORKLOADS[args.workload](args.seed, ROOT, Path(tmp))
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}.tsv"  # the latest traced run only
            metrics, ops, notes = per_layer(cli, inst, args.seconds, spans_path)
        else:
            metrics, ops, notes = end_to_end(cli, inst, args.seconds)
    failed, findings = verify(inst, ops)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, closed loop, 1 client")
    print(f"inputs: {json.dumps(inst.properties, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    for line in notes:
        print(line)
    print(f"{'fail_ratio':<36} {failed / len(ops):.6g}  ({failed} of {len(ops)} operations)")
    for line in findings:
        print(line)
    result = {
        "correct": failed == 0 and not findings,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
