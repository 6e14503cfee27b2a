"""Usage-log ingestion and aggregation into calibration statistics.

Logs are CSV with the exact header
``timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status``
(UTF-8, RFC-4180 quoting). Only ok-status rows feed the statistics; error
rows are counted and reported but never priced or averaged. A pair with
error rows only is reported with its error tally and no statistics.

Aggregation is one streaming pass: each row is parsed once, folded into the
accumulator of its (function, platform) pair and dropped. An accumulator
keeps one Decimal per ok row and no record, and accumulators merge exactly.

The fold loop checks each row inline and adds it. Only a row that fails
those checks goes through ``_parse_row``, the one definition of a valid row
and of each fault's message: it raises the row's RowError or returns the row
to be added, so the inline checks never drop a row that it accepts.
"""

from __future__ import annotations

import csv
import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal, localcontext
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .errors import CoverageError, DomainError, HeaderError, RowError
from .money import CONTEXT, div
from .workflow import ZERO, FunctionProfile, LatencyTable, WorkflowSpec, _not_utf8

USAGE_FIELDS = (
    "timestamp",
    "function_id",
    "platform_id",
    "duration_ms",
    "bytes_in",
    "bytes_out",
    "status",
)

USAGE_HEADER = ",".join(USAGE_FIELDS)

STATUSES = ("ok", "error")

BYTES_PER_GB = Decimal(10) ** 9  # decimal GB, the cloud billing convention

#: Aggregated means are quantized here. The sum behind a mean is taken over
#: the pair's ok durations in ascending order, so neither the order of a
#: fold nor that of a UsageFold.merge can change it.
MEAN_QUANTUM = Decimal("1e-9")

#: Rows with a duration_ms at or above this are malformed. The mean of
#: durations below it quantizes to MEAN_QUANTUM within money.CONTEXT's
#: precision, with one digit to spare for the rounding of the sum.
_DURATION_LIMIT = Decimal(1).scaleb(CONTEXT.prec + MEAN_QUANTUM.adjusted() - 1)

#: Malformed rows a UsageLog keeps as RowErrors; the rest are only counted.
ROW_ERRORS_SHOWN = 20


@dataclass(frozen=True)
class LatencyStats:
    """Latency summary of the ok-status rows for one (function, platform)."""

    count: int
    mean: Decimal
    min: Decimal
    max: Decimal
    p90: Decimal


@dataclass(frozen=True)
class UsageSummary:
    """LatencyStats plus byte totals and the excluded-error tally.

    ``stats`` is None for a pair with error rows only.
    """

    stats: LatencyStats | None
    ok_count: int
    error_count: int
    bytes_in_total: int
    bytes_out_total: int


def _parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    return datetime.fromisoformat(text)


def _parse_count(line: int, key: str, raw: str) -> int:
    try:
        count = int(raw)
    except ValueError:
        raise RowError(line, f"bad {key} {raw!r}") from None
    if count < 0:
        raise RowError(line, f"{key} must be >= 0, got {raw!r}")
    return count


def _parse_row(line: int, row: Sequence[str]) -> tuple:
    """The fields of one CSV row, checked and typed in UsageFold.add order.
    The timestamp is checked and dropped."""
    if len(row) != len(USAGE_FIELDS):
        raise RowError(line, f"expected {len(USAGE_FIELDS)} fields, got {len(row)}")
    stamp, function_id, platform_id, raw_duration, raw_in, raw_out, status = row
    try:
        _parse_timestamp(stamp)
    except ValueError:
        raise RowError(line, f"bad timestamp {stamp!r}") from None
    try:
        duration = Decimal(raw_duration)
    except Exception:
        raise RowError(line, f"bad duration_ms {raw_duration!r}") from None
    if not duration.is_finite() or duration < 0:
        raise RowError(line, f"duration_ms must be finite and >= 0, got {raw_duration!r}")
    if duration >= _DURATION_LIMIT:
        raise RowError(line, f"duration_ms must be < {_DURATION_LIMIT}, got {raw_duration!r}")
    bytes_in = _parse_count(line, "bytes_in", raw_in)
    bytes_out = _parse_count(line, "bytes_out", raw_out)
    if status not in STATUSES:
        raise RowError(line, f"status must be ok or error, got {status!r}")
    return function_id, platform_id, duration, bytes_in, bytes_out, status


class _Pair:
    """Accumulator of one (function, platform): the ok durations in the
    order they were added, byte totals of the ok rows, and the error-row
    tally."""

    __slots__ = ("durations", "bytes_in_total", "bytes_out_total", "error_count")

    def __init__(self):
        self.durations: list[Decimal] = []
        self.bytes_in_total = 0
        self.bytes_out_total = 0
        self.error_count = 0

    def summary(self) -> UsageSummary:
        """Count, mean, min, max and nearest-rank p90 (the value at 1-based
        index ceil(0.9 * count) of the ascending sort). The sort is stable,
        so of equal values written differently (1.0, 1.00) min, max and p90
        carry the one at that rank in the order added. The mean's sum is
        taken in ascending order under money.CONTEXT before it is quantized.
        With no ok duration there are no statistics."""
        values = sorted(self.durations)
        count = len(values)
        stats = None
        if values:
            with localcontext(CONTEXT):
                total = sum(values, Decimal(0))
            stats = LatencyStats(
                count=count,
                mean=CONTEXT.quantize(div(total, Decimal(count)), MEAN_QUANTUM),
                min=values[0],
                max=values[-1],
                p90=values[-((-9 * count) // 10) - 1],
            )
        return UsageSummary(
            stats=stats,
            ok_count=count,
            error_count=self.error_count,
            bytes_in_total=self.bytes_in_total,
            bytes_out_total=self.bytes_out_total,
        )


class UsageFold:
    """Per-(function, platform) accumulators of usage rows.

    Rows are added one at a time. ``a.merge(b)`` summarizes exactly as one
    fold of a's rows followed by b's. Any order or split of the same rows
    gives summaries equal by value; only which of two equal durations
    written differently (1.0, 1.00) is reported can follow the order.
    """

    def __init__(self):
        self._pairs: dict[tuple[str, str], _Pair] = {}

    def add(
        self,
        function_id: str,
        platform_id: str,
        duration_ms: Decimal,
        bytes_in: int,
        bytes_out: int,
        status: str,
    ) -> None:
        """Add one row. The duration and byte counts are trusted as given:
        UsageLog.fold passes only rows that passed the row checks. A status
        other than ok or error raises DomainError and adds nothing."""
        pair = self._pairs.get((function_id, platform_id))
        if pair is None:
            if status not in STATUSES:
                raise _bad_status(status)
            pair = self._pairs[(function_id, platform_id)] = _Pair()
        if status == "ok":
            pair.durations.append(duration_ms)
            pair.bytes_in_total += bytes_in
            pair.bytes_out_total += bytes_out
        elif status == "error":
            pair.error_count += 1
        else:
            raise _bad_status(status)

    def merge(self, other: UsageFold) -> UsageFold:
        """Add other's rows to this fold; returns self."""
        for key, theirs in other._pairs.items():
            mine = self._pairs.get(key)
            if mine is None:
                mine = self._pairs[key] = _Pair()
            mine.durations.extend(theirs.durations)
            mine.bytes_in_total += theirs.bytes_in_total
            mine.bytes_out_total += theirs.bytes_out_total
            mine.error_count += theirs.error_count
        return self

    def summaries(self) -> dict[tuple[str, str], UsageSummary]:
        """One summary per pair, in sorted key order."""
        return {key: self._pairs[key].summary() for key in sorted(self._pairs)}


def _bad_status(status: str) -> DomainError:
    return DomainError(f"status must be ok or error, got {status!r}")


class UsageLog:
    """A usage log, read in one pass each time it is folded.

    ``fold`` adds each well-formed row to a new UsageFold, in file order.
    Malformed rows are skipped: ``error_count`` counts them and ``errors``
    keeps the first ROW_ERRORS_SHOWN of their RowErrors. ``rows`` counts the
    data rows read, blank lines excluded. A path is opened again on each
    fold; an open file can be read once.
    """

    def __init__(self, source: str | Path | IO[str]):
        self.source = source
        self.rows = 0
        self.error_count = 0
        self.errors: list[RowError] = []

    def fold(self) -> UsageFold:
        self.rows = self.error_count = 0
        self.errors = []
        fold = UsageFold()
        add = fold.add
        fromisoformat = datetime.fromisoformat

        def reject(exc: RowError) -> None:
            self.error_count += 1
            if len(self.errors) < ROW_ERRORS_SHOWN:
                self.errors.append(exc)

        opened = (
            nullcontext(self.source)
            if hasattr(self.source, "read")
            else open(self.source, "r", encoding="utf-8", newline="")
        )
        try:
            with opened as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise HeaderError("usage log is empty; expected header row") from None
                except csv.Error as exc:
                    raise HeaderError(f"unreadable header row: {exc}") from None
                if header != list(USAGE_FIELDS):
                    raise HeaderError(
                        f"expected header {USAGE_HEADER!r}, got {','.join(header)!r}"
                    )
                line, rows = 1, enumerate(reader, start=2)
                while True:
                    try:
                        for line, row in rows:
                            if not row:
                                continue
                            self.rows += 1
                            try:
                                stamp, fid, pid, raw_duration, raw_in, raw_out, status = row
                                try:
                                    fromisoformat(stamp)
                                except ValueError:  # padded, or a Z before Python 3.11
                                    _parse_timestamp(stamp)
                                duration = Decimal(raw_duration)
                                bytes_in = int(raw_in)
                                bytes_out = int(raw_out)
                                checked = (
                                    duration.is_finite()
                                    and ZERO <= duration < _DURATION_LIMIT
                                    and bytes_in >= 0
                                    and bytes_out >= 0
                                    and status in STATUSES
                                )
                            except (ValueError, ArithmeticError):
                                checked = False
                            if checked:
                                add(fid, pid, duration, bytes_in, bytes_out, status)
                                continue
                            try:
                                add(*_parse_row(line, row))
                            except RowError as exc:
                                reject(exc)
                        return fold
                    except csv.Error as exc:
                        # The reader cannot read this row (a field over the csv
                        # module's size limit); it goes on at the next line.
                        line += 1
                        self.rows += 1
                        reject(RowError(line, str(exc)))
                        rows = enumerate(reader, start=line + 1)
        except UnicodeDecodeError as exc:
            raise _not_utf8(self.source, exc) from None


def summarize_usage(log: UsageLog) -> dict[tuple[str, str], UsageSummary]:
    """Fold a usage log and summarize each (function, platform) pair, in
    sorted key order.

    If any row is malformed the whole log is still read, so its ``errors``
    and ``error_count`` are complete, and then its first RowError is raised:
    no statistic is computed from a log with malformed rows.
    """
    fold = log.fold()
    if log.error_count:
        raise log.errors[0]
    return fold.summaries()


def calibrate(
    workflow: WorkflowSpec,
    summaries: Mapping[tuple[str, str], UsageSummary],
    required_pairs: Iterable[tuple[str, str]] | None = None,
) -> tuple[WorkflowSpec, LatencyTable]:
    """Fold measured statistics into the workflow's profiles and latency table.

    Latency entries are the per-pair means. Each profile's r_in/r_out become
    its overall mean bytes per request, in decimal GB. A pair with no
    statistics (error rows only) is skipped. Pairs listed in required_pairs
    but without statistics raise CoverageError.
    """
    summaries = {key: s for key, s in summaries.items() if s.stats is not None}
    if required_pairs is not None:
        missing = sorted(set(required_pairs) - set(summaries))
        if missing:
            raise CoverageError(missing)

    entries = {key: summary.stats.mean for key, summary in summaries.items()}

    profiles: list[FunctionProfile] = []
    for profile in workflow.functions:
        mine = [s for (fid, _), s in summaries.items() if fid == profile.function_id]
        if not mine:
            profiles.append(profile)
            continue
        count = sum(s.ok_count for s in mine)
        r_in = _bytes_to_gb(sum(s.bytes_in_total for s in mine), count)
        r_out = _bytes_to_gb(sum(s.bytes_out_total for s in mine), count)
        profiles.append(dataclasses.replace(profile, r_in=r_in, r_out=r_out))

    calibrated = WorkflowSpec(
        workflow_id=workflow.workflow_id, functions=tuple(profiles), edges=workflow.edges
    )
    return calibrated, LatencyTable(entries=entries)


def _bytes_to_gb(total_bytes: int, count: int) -> Decimal:
    per_request = div(Decimal(total_bytes), Decimal(count))
    return CONTEXT.quantize(div(per_request, BYTES_PER_GB), Decimal("1e-12"))
