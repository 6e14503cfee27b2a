"""Command-line interface: reproducible cost, crossover, trade-off, and ingest reports.

Exit codes: 0 success, 2 input validation failure, 3 computation failure,
4 infeasible optimization; each error class in ``errors`` declares its own
code as ``exit_code``. Display values round half-even to 4 decimals;
files written under --out carry full precision and re-ingest losslessly.
Every report directory also receives a run manifest with content digests of
all inputs, so identical inputs are recognizable by identical digests.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from decimal import Decimal
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .catalog import PlatformCatalog, catalog_dir, load_catalog, load_platform, platform_path
from .engine import (
    COINCIDENT_CURVES,
    DRIVER_FIELDS,
    ZERO,
    CostBreakdown,
    component_charges,
    crossover,
    driver_shares,
    function_cost_curve,
    placement_costs,
    workflow_cost_curve,
)
from .errors import (
    CosmosError,
    DomainError,
    NoDataError,
    RowError,
    SchemaError,
    UnknownFunctionError,
    UnknownPlatformError,
    UnplacedFunctionError,
)
from .money import CONTEXT, dec, fmt, fmt_full
from .optimizer import (
    CatalogModel,
    OptimizationConfig,
    ParetoPoint,
    PlacementModel,
    load_point_table,
    optimal_line,
    optimize,
    pareto_front,
)
from .telemetry import ROW_ERRORS_SHOWN, UsageLog, calibrate, summarize_usage
from .workflow import Placement, WorkflowSpec, load_workflow_document, serialize_workflow

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    args.inputs = []  # each input path, once read, for the run manifest
    try:
        # Looked up by name on each call, so a rebound cmd_* handler is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except CosmosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key, value in sorted(getattr(exc, "diagnostics", {}).items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # exit codes are a contract: nothing else may leak out
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on its first call, then reused, since
    parsing leaves a parser unchanged."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmos",
        description="Cost and performance trade-off reports for serverless workflows",
    )
    parser.add_argument("--version", action="version", version=f"cosmos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, placement=True, volume=True):
        p.add_argument("--workflow", required=True, help="workflow document path")
        p.add_argument("--catalog", action="append", default=[], help="catalog document path (repeatable)")
        p.add_argument("--platform", action="append", default=[],
                       help="platform id resolved against the catalog directory (repeatable)")
        if placement:
            p.add_argument("--assign", action="append", default=[], metavar="FUNCTION=PLATFORM",
                           help="assign one function to a platform (repeatable)")
        if volume:
            p.add_argument("--volume", type=_quantity,
                           help="request volume overriding every function's own count")
        p.add_argument("--out", help="directory for report files and the run manifest")
        p.add_argument("--format", choices=("csv", "json", "tsv"), default=None,
                       help="print machine-readable output instead of the table view")

    p_cost = sub.add_parser("cost", help="per-function and workflow cost breakdown")
    common(p_cost)

    p_break = sub.add_parser("breakdown", help="per-driver shares and component itemization")
    common(p_break)

    p_curve = sub.add_parser("curve", help="cost-vs-volume line and sampled points")
    common(p_curve, volume=False)
    p_curve.add_argument("--function", help="limit to one function's curve")
    p_curve.add_argument("--sample", action="append", default=[], type=_quantity,
                         help="request volume to tabulate (repeatable)")

    p_cross = sub.add_parser("crossover", help="break-even volume between two platforms")
    common(p_cross, placement=False, volume=False)
    p_cross.add_argument("--function", help="compare one function instead of the whole workflow")

    p_pareto = sub.add_parser("pareto", help="evaluated points, dominance front, and trade-off line")
    common(p_pareto, placement=False)
    p_pareto.add_argument("--points", help="measured (function, platform) point table document")

    p_opt = sub.add_parser("optimize", help="constrained weighted placement optimization")
    common(p_opt, placement=False)
    p_opt.add_argument("--points", help="measured (function, platform) point table document")
    p_opt.add_argument("--budget", type=_bound, help="maximum workflow cost in USD")
    p_opt.add_argument("--latency-slo", type=_bound, help="maximum workflow latency in ms")
    p_opt.add_argument("--scope", choices=("workflow", "per-function"), default="workflow")
    p_opt.add_argument("--alpha", type=_quantity, help="manual cost weight (1/USD); requires --beta")
    p_opt.add_argument("--beta", type=_quantity, help="manual latency weight (1/ms); requires --alpha")

    p_ingest = sub.add_parser("ingest", help="aggregate a usage log into latency statistics")
    p_ingest.add_argument("--log", required=True, help="usage log CSV path")
    p_ingest.add_argument("--workflow", help="workflow document to calibrate")
    p_ingest.add_argument("--out", help="directory for report files and the run manifest")
    p_ingest.add_argument("--format", choices=("csv", "json", "tsv"), default=None)

    return parser


def _quantity(text: str) -> Decimal:
    """A finite, nonnegative decimal flag value; argparse exits 2 naming the flag otherwise."""
    try:
        value = dec(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _bound(text: str) -> Decimal:
    """A positive _quantity, as OptimizationConfig requires of a budget or SLO."""
    if (value := _quantity(text)) == 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


# --- shared plumbing --------------------------------------------------------


def _read(args, load, path):
    """load(path), recording the path as an input of the run manifest."""
    loaded = load(path)
    args.inputs.append(Path(path))
    return loaded


def _load_catalogs(args) -> dict[str, PlatformCatalog]:
    catalogs: dict[str, PlatformCatalog] = {}
    paths: dict[str, str] = {}
    for path in args.catalog:
        loaded = _read(args, load_catalog, path)
        pid = loaded.platform_id
        if pid in catalogs:
            raise SchemaError(f"--catalog {paths[pid]} and --catalog {path} both define platform {pid!r}")
        catalogs[pid], paths[pid] = loaded, path
    directory = catalog_dir()
    for pid in args.platform:
        if pid not in catalogs:
            catalogs[pid] = load_platform(pid, directory)
            args.inputs.append(platform_path(pid, directory))
    if not catalogs:
        raise SchemaError("no catalogs given; use --catalog or --platform")
    return catalogs


def _placement(args, workflow: WorkflowSpec, catalogs: Mapping[str, PlatformCatalog]) -> Placement:
    if args.assign:
        mapping: dict[str, str] = {}
        for item in args.assign:
            if "=" not in item:
                raise SchemaError(f"--assign expects FUNCTION=PLATFORM, got {item!r}")
            fid, pid = item.split("=", 1)
            if fid in mapping:
                raise SchemaError(f"--assign names function {fid!r} twice")
            mapping[fid] = pid
        missing = [fid for fid in workflow.function_ids if fid not in mapping]
        if missing:
            raise UnplacedFunctionError(f"--assign misses function(s): {missing}")
        unknown = [fid for fid in mapping if fid not in workflow.function_ids]
        if unknown:
            raise UnknownFunctionError(f"--assign names unknown function(s): {unknown}")
        placement = Placement.of({fid: mapping[fid] for fid in workflow.function_ids})
    elif len(catalogs) == 1:
        placement = Placement.uniform(workflow, next(iter(catalogs)))
    else:
        raise SchemaError("give --assign pairs or exactly one platform for a uniform placement")
    for pid in placement.platforms():
        if pid not in catalogs:
            raise UnknownPlatformError(f"no catalog loaded for platform {pid!r}")
    return placement


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _manifest(args, outputs: list[str], counters: dict[str, int] | None) -> dict:
    records = [{"path": str(p), "sha256": _sha256(p)} for p in sorted(args.inputs)]
    combined = hashlib.sha256("".join(r["sha256"] for r in records).encode()).hexdigest()
    manifest = {
        "command": args.command,
        "inputs": records,
        "catalog_ids": sorted(getattr(args, "platform", [])) or None,
        "outputs": sorted(outputs),
        "version": __version__,
        "input_digest": combined,
    }
    if counters is not None:
        manifest["counters"] = counters
    return manifest


def _render(kind: str, payload) -> str:
    """The text of one machine view: a JSON document, or rows as CSV or TSV.

    A JSON document has the bytes json.dumps(payload, indent=2,
    sort_keys=True, ensure_ascii=False) gives it, written in one pass; its
    keys must be strings. CSV and TSV differ only in the separator; a cell
    holding the separator, a quote or a newline is quoted.
    """
    if kind == "json":
        return _json(payload, "") + "\n"
    text = io.StringIO()
    csv.writer(text, delimiter="\t" if kind == "tsv" else ",", lineterminator="\n").writerows(payload)
    return text.getvalue()


#: A string as a JSON string, non-ASCII characters kept (json's own encoder).
_json_string = json.encoder.encode_basestring

_INF = float("inf")


def _json(value, pad: str) -> str:
    """value as JSON, indented two spaces per level, keys sorted; ``pad`` is
    the indentation of the line value starts on. Python 3.11's json takes
    its pure-Python encoder whenever it indents, at several calls per
    value; this joins each container's items once."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_string(v) if v.__class__ is str else _json(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            _json_string(k) + ": " + (_json_string(v) if v.__class__ is str else _json(v, inner))
            for k, v in sorted(value.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _report(args, doc: dict, rows, table, files: dict, counters: dict[str, int] | None = None) -> None:
    """Print the view --format selects; with --out, also write each file and the manifest.

    ``doc`` is the json view. ``rows`` builds the csv and tsv rows (header
    first) and ``table`` the lines of the table view; each runs only when
    its view is printed or written, and at most once. ``files`` maps each
    file name to its payload, ``rows`` standing for the rows it builds; a
    file is rendered as its suffix says. ``counters``, when given, go into
    the manifest as they are.
    """
    built = functools.cache(rows)
    if args.format == "json":
        sys.stdout.write(_render("json", doc))
    elif args.format:
        sys.stdout.write(_render(args.format, built()))
    else:
        print("\n".join(table()))
    if not args.out:
        return
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, payload in files.items():
        payload = built() if payload is rows else payload
        (out_dir / filename).write_text(_render(Path(filename).suffix[1:], payload), encoding="utf-8")
    manifest = _manifest(args, [*files, "manifest.json"], counters)
    (out_dir / "manifest.json").write_text(_render("json", manifest), encoding="utf-8")


def _money_row(breakdown) -> dict[str, str]:
    return {k: fmt_full(v) for k, v in breakdown.as_dict().items()}


def _point_row(point: ParetoPoint) -> dict[str, str]:
    """A point as label, latency and cost, in the column order of the point tables."""
    return {"label": point.label, "latency_ms": fmt_full(point.latency), "cost": fmt_full(point.cost)}


# --- subcommands ------------------------------------------------------------


def cmd_cost(args) -> int:
    workflow, latencies = _read(args, load_workflow_document, args.workflow)
    catalogs = _load_catalogs(args)
    placement = _placement(args, workflow, catalogs)

    parts, credit = placement_costs(
        workflow, placement, catalogs, latencies=latencies, volume=args.volume
    )
    total = CostBreakdown.combine(parts.values(), credit)

    label = _placement_label(placement)
    entries = [(fid, placement.platform_for(fid), b) for fid, b in parts.items()]
    if credit:
        # A fixed charge several functions share on one platform is billed
        # once; this row takes the rest off, so each column adds up.
        entries.append(("shared-credit", label, CostBreakdown.build(ZERO, ZERO, ZERO, ZERO, -credit)))
    entries.append(("workflow", label, total))
    amounts = [_money_row(b) for _, _, b in entries]
    report = {
        "workflow_id": workflow.workflow_id,
        "volume": fmt_full(args.volume) if args.volume is not None else None,
        "placement": placement.as_dict(),
        "functions": {
            fid: {"platform": pid, **row} for (fid, pid, _), row in zip(entries[:len(parts)], amounts)
        },
        "workflow": amounts[-1],
    }
    if credit:
        report["shared_credit"] = amounts[-2]

    def rows():
        return [["function", "platform", *DRIVER_FIELDS, "total"],
                *([fid, pid, *row.values()] for (fid, pid, _), row in zip(entries, amounts))]

    def table():
        columns = (*DRIVER_FIELDS, "total")
        lines = [f"{'function':<18} {'platform':<16} " + " ".join(f"{c:>12}" for c in columns)]
        for fid, pid, b in entries:
            cells = [fmt(getattr(b, c)) for c in columns]
            lines.append(f"{fid:<18} {pid:<16} " + " ".join(f"{c:>12}" for c in cells))
        return lines

    _report(args, report, rows, table, {"cost.csv": rows, "cost.json": report})
    return EXIT_OK


def _placement_label(placement: Placement) -> str:
    platforms = set(placement.platforms())
    return platforms.pop() if len(platforms) == 1 else "mixed"


def cmd_breakdown(args) -> int:
    workflow, latencies = _read(args, load_workflow_document, args.workflow)
    catalogs = _load_catalogs(args)
    placement = _placement(args, workflow, catalogs)

    priced = []
    report_functions = {}
    for profile in workflow.functions:
        fid = profile.function_id
        pid = placement.platform_for(fid)
        charges = component_charges(profile, catalogs[pid], latencies=latencies, volume=args.volume)
        breakdown = CostBreakdown.fold(charges)
        shares = driver_shares(breakdown)
        priced.append((fid, pid, charges, breakdown, shares))
        report_functions[fid] = {
            "platform": pid,
            "components": [
                {
                    "component_id": i.component_id,
                    "driver": i.driver.value,
                    "amount": fmt_full(i.amount),
                }
                for i in charges
            ],
            "subtotals": _money_row(breakdown),
            "shares_percent": {name: fmt_full(shares[name]) for name in DRIVER_FIELDS},
        }
    report = {"workflow_id": workflow.workflow_id,
              "volume": fmt_full(args.volume) if args.volume is not None else None,
              "functions": report_functions}

    def rows():
        return [["function", "platform", "component", "driver", "amount"],
                *([fid, entry["platform"], c["component_id"], c["driver"], c["amount"]]
                  for fid, entry in report_functions.items() for c in entry["components"])]

    def table():
        lines = []
        for fid, pid, charges, breakdown, shares in priced:
            lines.append(f"{fid} on {pid} (total {fmt(breakdown.total)})")
            lines += (f"  {i.component_id:<20} {i.driver.value:<16} {fmt(i.amount):>12}" for i in charges)
            lines.append(
                "  shares: " + ", ".join(f"{name} {fmt(shares[name], 1)}%" for name in DRIVER_FIELDS)
            )
        return lines

    _report(args, report, rows, table, {"breakdown.csv": rows, "breakdown.json": report})
    return EXIT_OK


DEFAULT_SAMPLES = tuple(map(Decimal, ("0", "1000000", "20000000", "40000000", "60000000")))


def cmd_curve(args) -> int:
    workflow, latencies = _read(args, load_workflow_document, args.workflow)
    catalogs = _load_catalogs(args)
    placement = _placement(args, workflow, catalogs)
    curve = _curve_for(args.function, workflow, placement, catalogs, latencies)

    samples = args.sample or DEFAULT_SAMPLES
    points = [(s, curve.evaluate(s)) for s in samples]
    full = [(fmt_full(n), fmt_full(c)) for n, c in points]
    per_million = CONTEXT.scaleb(curve.slope, 6)
    report = {
        "fixed": fmt_full(curve.fixed),
        "slope_per_request": fmt_full(curve.slope),
        "slope_per_million": fmt_full(per_million),
        "samples": [{"n": n, "cost": c} for n, c in full],
    }

    def rows():
        return [["n_requests", "cost_usd"], *(list(sample) for sample in full)]

    def table():
        return [
            f"fixed: {fmt(curve.fixed)}",
            f"slope per 1M requests: {fmt(per_million)}",
            "n_requests -> cost:",
        ] + [f"  {n:>14} {fmt(c):>14}" for (n, _), (_, c) in zip(full, points)]

    _report(args, report, rows, table, {"curve.tsv": rows, "curve.json": report})
    return EXIT_OK


def _curve_for(function, workflow, placement, catalogs, latencies):
    if function:
        profile = workflow.function(function)
        catalog = catalogs[placement.platform_for(function)]
        return function_cost_curve(profile, catalog, latencies=latencies)
    return workflow_cost_curve(workflow, placement, catalogs, latencies=latencies)


def cmd_crossover(args) -> int:
    workflow, latencies = _read(args, load_workflow_document, args.workflow)
    catalogs = _load_catalogs(args)
    if len(args.platform) != 2:
        raise SchemaError("crossover needs exactly two --platform ids")
    first, second = args.platform
    curves = [
        _curve_for(args.function, workflow, Placement.uniform(workflow, pid), catalogs, latencies)
        for pid in (first, second)
    ]
    point = crossover(curves[0], curves[1])

    if point is COINCIDENT_CURVES:
        report = {"result": "coincident"}
    elif point is None:
        report = {"result": "none"}
    else:
        report = {
            "result": "crossover",
            "n_star_requests": fmt_full(point.n_star),
            "n_star_millions": fmt_full(point.n_star_millions),
            "cost": fmt_full(point.cost),
        }
    report.update({"left": first, "right": second, "function": args.function})

    def rows():
        return [["left", "right", "result"], [first, second, report["result"]]]

    def table():
        if point is COINCIDENT_CURVES:
            return [f"{first} and {second}: coincident curves (equal cost at every volume)"]
        if point is None:
            return [f"{first} and {second}: none (no crossover at nonnegative volume)"]
        return [
            f"crossover of {first} vs {second}"
            + (f" for {args.function}" if args.function else " for the workflow"),
            f"  n* = {fmt(point.n_star, 0)} requests"
            f" ({fmt(point.n_star_millions)}M)",
            f"  cost at crossover: {fmt(point.cost)}",
        ]

    _report(args, report, rows, table, {"crossover.json": report})
    return EXIT_OK


def _points_and_model(args, workflow, latencies):
    """Build the evaluated point set and matching placement model."""
    if getattr(args, "points", None):
        if args.volume is not None:
            raise SchemaError("--volume is not read with --points: a point table holds fixed measurements")
        table = _read(args, load_point_table, args.points)
        model = PlacementModel(workflow, table)
        platforms = sorted({pid for _, pid in table})
        pairs = sorted(model.table.items())
    else:
        catalogs = _load_catalogs(args)
        if latencies is None:
            raise SchemaError(
                "workflow document has no latency block; give --points or add latencies"
            )
        model = CatalogModel(workflow, catalogs, latencies=latencies, volume=args.volume)
        platforms = sorted(catalogs)
        pairs = model.table.items()  # in function order, then sorted platform id
    points = [ParetoPoint(f"{fid}@{pid}", e.cost, e.latency) for (fid, pid), e in pairs]
    return points, model, platforms


def cmd_pareto(args) -> int:
    workflow, latencies = _read(args, load_workflow_document, args.workflow)
    points, _, _ = _points_and_model(args, workflow, latencies)
    front = pareto_front(points)
    line = optimal_line(front)
    front_keys = {(p.cost, p.latency) for p in front}
    line_keys = {(p.cost, p.latency) for p in line}

    ordered = sorted(points, key=lambda p: (p.latency, p.cost, p.label))
    point_rows = [_point_row(p) for p in ordered]
    # The front and the line hold points of the evaluated set: each keeps its row.
    row_of = {id(p): row for p, row in zip(ordered, point_rows)}
    report = {
        "points": point_rows,
        "front": [row_of[id(p)] for p in front],
        "optimal_line": [row_of[id(p)] for p in line],
    }

    def rows():
        rows = [["label", "latency_ms", "cost_usd", "on_front", "on_line"]]
        for p, row in zip(ordered, point_rows):
            key = (p.cost, p.latency)
            rows.append([*row.values(), str(int(key in front_keys)), str(int(key in line_keys))])
        return rows

    def table():
        lines = [f"evaluated {len(points)} points; {len(front)} on the front, {len(line)} on the trade-off line"]
        for p in ordered:
            marks = ("front" if (p.cost, p.latency) in front_keys else "") + (
                " line" if (p.cost, p.latency) in line_keys else ""
            )
            lines.append(f"  {p.label:<34} {fmt(p.latency):>10} ms {fmt(p.cost):>14} USD  {marks.strip()}")
        return lines

    _report(args, report, rows, table, {"pareto.tsv": rows, "pareto.json": report})
    return EXIT_OK


def cmd_optimize(args) -> int:
    workflow, latencies = _read(args, load_workflow_document, args.workflow)
    points, model, platforms = _points_and_model(args, workflow, latencies)
    if (args.alpha is None) != (args.beta is None):
        raise SchemaError("manual weighting needs both --alpha and --beta")
    if args.alpha == 0 and args.beta == 0:
        raise SchemaError("--alpha and --beta must not both be zero")
    config = OptimizationConfig(
        budget=args.budget,
        latency_slo=args.latency_slo,
        alpha=args.alpha,
        beta=args.beta,
        scope=args.scope.replace("-", "_"),
    )
    result = optimize(workflow, platforms, model, config)

    front_rows = [_point_row(p) for p in pareto_front(points)]
    report = {
        "placement": result.best.as_dict(),
        "cost": fmt_full(result.cost),
        "latency_ms": fmt_full(result.latency),
        "objective": result.objective,
        "alpha": result.alpha,
        "beta": result.beta,
        "c_star": fmt_full(result.c_star),
        "t_star": fmt_full(result.t_star),
        "c_star_placement": result.c_star_placement.as_dict(),
        "t_star_placement": result.t_star_placement.as_dict(),
        "feasible_count": result.feasible_count,
        "total_count": result.total_count,
        "front": front_rows,
    }

    def rows():
        return [["label", "latency_ms", "cost_usd"], *(list(row.values()) for row in front_rows)]

    def table():
        return [
            "chosen placement:",
            *(f"  {fid} -> {pid}" for fid, pid in result.best.assignments),
            f"cost: {fmt(result.cost)} USD",
            f"latency: {fmt(result.latency)} ms",
            f"objective: {result.objective:.6f} (alpha={result.alpha:.7f}, beta={result.beta:.7f})",
            f"anchors: C*={fmt(result.c_star)} USD, T*={fmt(result.t_star)} ms",
            f"feasible placements: {result.feasible_count} of {result.total_count}",
        ]

    # The counters go only into the manifest, so they are built only for --out.
    counters = result.counters._asdict() if args.out else None
    _report(args, report, rows, table, {"optimize.json": report, "front.tsv": rows}, counters)
    return EXIT_OK


def cmd_ingest(args) -> int:
    document = _read(args, load_workflow_document, args.workflow) if args.workflow else None
    log = UsageLog(args.log)
    try:
        summaries = summarize_usage(log)
    except RowError:
        for err in log.errors:
            print(f"error: {err}", file=sys.stderr)
        if log.error_count > len(log.errors):
            print(f"… and {log.error_count - len(log.errors)} more", file=sys.stderr)
        print(f"error: {log.error_count} malformed row(s) in {args.log}", file=sys.stderr)
        return EXIT_VALIDATION
    if not log.rows:
        raise NoDataError(f"usage log {args.log} has no data rows")
    args.inputs.append(Path(args.log))

    report, rows, table = _stats_views(summaries)
    files = {"stats.csv": rows, "stats.json": report}
    if document is not None:
        files["calibrated-workflow.json"] = serialize_workflow(*calibrate(*document, summaries))
    counters = {
        "rows": log.rows,
        "rows_ok": sum(s.ok_count for s in summaries.values()),
        "rows_error": sum(s.error_count for s in summaries.values()),
        "pairs": len(summaries),
    }
    _report(args, report, rows, table, files, counters)
    return EXIT_OK


def _stats_views(summaries) -> tuple[dict, Callable, Callable]:
    """ingest's JSON report, and the functions that build its CSV/TSV rows
    and its table lines. Kept apart from cmd_ingest so that the cells these
    closures share are not held while the log is folded."""
    pairs = []
    report = {}
    for (fid, pid), summary in summaries.items():
        s = summary.stats
        # A pair with error rows only has count 0 and no statistics: empty
        # cells in the table and CSV/TSV views, null in JSON.
        stats = (None,) * 4 if s is None else (s.mean, s.min, s.max, s.p90)
        full = [None if v is None else fmt_full(v) for v in stats]
        pairs.append((fid, pid, summary, stats, full))
        report[f"{fid}:{pid}"] = {
            "count": summary.ok_count,
            **dict(zip(("mean_ms", "min_ms", "max_ms", "p90_ms"), full)),
            "errors": summary.error_count,
        }

    def rows():
        return [["function_id", "platform_id", "count", "mean_ms", "min_ms", "max_ms", "p90_ms", "errors"],
                *([fid, pid, str(summary.ok_count), *(v or "" for v in full), str(summary.error_count)]
                  for fid, pid, summary, _, full in pairs)]

    def table():
        lines = [
            f"{'function':<18} {'platform':<16} {'count':>6} {'mean':>10} {'min':>8} "
            f"{'max':>8} {'p90':>8} {'errors':>6}"
        ]
        for fid, pid, summary, stats, _ in pairs:
            shown = ["" if v is None else fmt(v, places) for v, places in zip(stats, (4, 1, 1, 1))]
            lines.append(
                f"{fid:<18} {pid:<16} {summary.ok_count:>6} {shown[0]:>10} {shown[1]:>8} "
                f"{shown[2]:>8} {shown[3]:>8} {summary.error_count:>6}"
            )
        return lines

    return report, rows, table


if __name__ == "__main__":
    sys.exit(main())
