"""Usage-log ingestion and aggregation into calibration statistics.

Logs are CSV with the exact header
``timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status``
(UTF-8, RFC-4180 quoting). Only ok-status rows feed the statistics; error
rows are counted and reported but never priced or averaged. A pair with
error rows only is reported with its error tally and no statistics.

Aggregation is one streaming pass: each row is parsed once, folded into the
accumulator of its (function, platform) pair and dropped. An accumulator
keeps each ok duration by value, as an integer scaled to the pair's finest
exponent, in 4 bytes while it fits, 8 after and a Python int past 2**63, and
no record. Accumulators merge exactly: a merge summarizes as one fold of the
same rows, down to the spelling of each statistic. A pair is summarized
without a sort: its p90 is picked with a heap of a tenth of its rows.

A row takes one of two paths. The fold loop checks inline a row whose
duration is spelled as at most 18 ASCII digits with at most one point,
reads the duration straight to its coefficient and exponent, and adds it.
Every other row goes through ``_parse_row``, the one definition of a valid
row and of each fault's message: it raises the row's RowError or returns
the row, which UsageFold.add adds. The rule of a duration is written once,
in ``_duration_parts``, and both _parse_row and UsageFold.add apply it, so
the inline checks never drop a row that _parse_row accepts, and
UsageFold.add refuses exactly the durations that _parse_row does.
"""

from __future__ import annotations

import csv
import dataclasses
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from heapq import heapify, heapreplace
from itertools import islice
from pathlib import Path
from typing import IO, Mapping, Sequence

from .errors import DomainError, HeaderError, RowError, UnknownFunctionError
from .money import CONTEXT, div
from .workflow import FunctionProfile, LatencyTable, WorkflowSpec, _not_utf8

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

#: Aggregated means are quantized here. The sum behind a mean is the exact
#: integer sum of the pair's scaled durations, rounded once, so neither the
#: order of a fold nor that of a UsageFold.merge can change it.
MEAN_QUANTUM = Decimal("1e-9")

#: Rows with a duration_ms at or above this are malformed. The mean of
#: durations below it quantizes to MEAN_QUANTUM within money.CONTEXT's
#: precision, with one digit to spare for the rounding of the sum.
_DURATION_LIMIT = Decimal(1).scaleb(CONTEXT.prec + MEAN_QUANTUM.adjusted() - 1)

#: Malformed rows a UsageLog keeps as RowErrors; the rest are only counted.
ROW_ERRORS_SHOWN = 20

#: Exponents a pair scales its durations to, so that the powers of ten that
#: scale them stay small: a duration must be a multiple of 1E-64, and below
#: _DURATION_LIMIT a scaled duration then has at most 104 digits.
_EXPONENTS = range(-64, 64)

#: Reads any finite Decimal exactly, to drop the trailing zeros of its spelling.
_UNBOUNDED = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

#: Scaled durations below these fit the 4-byte array a pair
#: starts with and the 8-byte array it widens to; past them it keeps Python ints.
_NARROW_LIMIT, _WIDE_LIMIT = 2**31, 2**63


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
    try:
        _duration_parts(duration)
    except ValueError as exc:
        raise RowError(line, f"duration_ms {exc}, got {raw_duration!r}") from None
    bytes_in = _parse_count(line, "bytes_in", raw_in)
    bytes_out = _parse_count(line, "bytes_out", raw_out)
    if status not in STATUSES:
        raise RowError(line, f"status must be ok or error, got {status!r}")
    return function_id, platform_id, duration, bytes_in, bytes_out, status


def _duration_parts(duration: Decimal) -> tuple[int, int]:
    """The coefficient and the exponent of a valid duration, the exponent in
    _EXPONENTS: its _parts, or, for one spelled with an exponent outside
    them, the _parts with the trailing zeros of its spelling dropped, as
    Decimal.normalize drops them (a zero is 0E0). The rule of a duration,
    for _parse_row and UsageFold.add alike: ValueError, stating the rule,
    for one that is not finite, is negative, is _DURATION_LIMIT or more,
    or has a nonzero digit finer than 1E-64."""
    if not duration.is_finite() or duration < 0:
        raise ValueError("must be finite and >= 0")
    if duration >= _DURATION_LIMIT:
        raise ValueError(f"must be < {_DURATION_LIMIT}")
    coefficient, exponent = _parts(duration)
    if exponent not in _EXPONENTS:
        coefficient, exponent = _parts(duration.normalize(_UNBOUNDED))
        if exponent < _EXPONENTS.start:
            raise ValueError(f"must be a multiple of 1E{_EXPONENTS.start}")
    return coefficient, exponent


def _parts(duration: Decimal) -> tuple[int, int]:
    """The coefficient and the exponent of a finite Decimal, as as_tuple()
    gives them, without the sign: a valid duration's only sign is a zero's."""
    _, digits, exponent = duration.as_tuple()
    return int(Decimal((0, digits, 0))), exponent


def _decimal(coefficient: int, exponent: int) -> Decimal:
    """The Decimal of a finite duration's _parts, spelled with exactly that
    coefficient and exponent."""
    return Decimal(f"{coefficient}E{exponent}")


def _peak(values: array | list[int], factor: int) -> int:
    """The largest of the values, which are nonnegative, times factor."""
    return max(values, default=0) * factor


class _Pair:
    """Accumulator of one (function, platform): the ok durations in the
    order they were added, byte totals of the ok rows, and the error-row
    tally.

    The ok durations are kept by value, not by spelling: ``scaled`` holds
    each one as a nonnegative integer at ``exponent``, the finest exponent
    of the pair's rows, so 1.5 and 1.50 are the same integer and -0 is 0.
    ``scaled`` is a 4-byte array ('i') until a value does not fit; it then
    widens to 8 bytes ('q'), and past 2**63 to a list of Python ints.
    Durations of up to nine digits at the pair's exponent thus take 4 bytes
    a row, however they are spelled. Each statistic is spelled at
    ``exponent``, so the order and split of the rows change no byte of a
    summary.
    """

    __slots__ = ("scaled", "exponent", "bytes_in_total", "bytes_out_total", "error_count")

    def __init__(self):
        self.scaled: array | list[int] = array("i")
        self.exponent = _EXPONENTS[-1]  # no row yet: at or above any row's
        self.bytes_in_total = 0
        self.bytes_out_total = 0
        self.error_count = 0

    def add(self, coefficient: int, exponent: int) -> None:
        """Add the ok duration of _duration_parts (coefficient, exponent)."""
        if exponent < self.exponent:
            self._rescale(exponent)
        value = coefficient * 10 ** (exponent - self.exponent)
        self._widen(value)
        self.scaled.append(value)

    def extend(self, other: _Pair) -> None:
        """Add other's rows after this pair's."""
        self.bytes_in_total += other.bytes_in_total
        self.bytes_out_total += other.bytes_out_total
        self.error_count += other.error_count
        if not other.scaled:
            return  # no ok row
        if other.exponent < self.exponent:
            self._rescale(other.exponent)
        factor = 10 ** (other.exponent - self.exponent)
        self._widen(_peak(other.scaled, factor))
        scaled = self.scaled
        if factor == 1 and (isinstance(scaled, list) or scaled.typecode == other.scaled.typecode):
            scaled.extend(other.scaled)
        else:
            scaled.extend(map(factor.__mul__, other.scaled))

    def _widen(self, peak: int) -> None:
        """Widen ``scaled`` to the narrowest of 4 bytes, 8 bytes and Python
        ints that a value of peak fits."""
        scaled = self.scaled
        if peak >= _NARROW_LIMIT and isinstance(scaled, array):
            if peak >= _WIDE_LIMIT:
                self.scaled = scaled.tolist()
            elif scaled.typecode == "i":
                self.scaled = array("q", scaled)

    def _rescale(self, exponent: int) -> None:
        """Scale the kept values to the finer exponent."""
        factor = 10 ** (self.exponent - exponent)
        self._widen(_peak(self.scaled, factor))
        scaled = self.scaled
        for i in range(len(scaled)):
            scaled[i] *= factor
        self.exponent = exponent

    def summary(self) -> UsageSummary:
        """Count, mean, min, max and nearest-rank p90 (the value at 1-based
        rank ceil(0.9 * count) of the ascending sort). The mean is the exact
        integer sum of the scaled values, rounded once to money.CONTEXT,
        over the count, quantized. The values are not sorted: the p90 is the
        smallest of the count - rank + 1 largest, picked with a heap of that
        size. Min, max and p90 are spelled at the pair's exponent. With no
        ok duration there are no statistics."""
        scaled = self.scaled
        count = len(scaled)
        stats = None
        if count:
            total = Decimal(sum(scaled)).scaleb(self.exponent, CONTEXT)
            rank = -((-9 * count) // 10)
            heap = scaled[: count - rank + 1]
            if isinstance(heap, array):
                heap = heap.tolist()
            heapify(heap)
            top = heap[0]
            for value in islice(scaled, len(heap), None):
                if value > top:
                    heapreplace(heap, value)
                    top = heap[0]
            low, high, p90 = (_decimal(v, self.exponent) for v in (min(scaled), max(heap), top))
            stats = LatencyStats(
                count=count,
                mean=CONTEXT.quantize(div(total, Decimal(count)), MEAN_QUANTUM),
                min=low,
                max=high,
                p90=p90,
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

    Rows are added one at a time. ``a.merge(b)``, like any order or split
    of the same rows, gives the summaries of one fold of a's rows followed
    by b's, equal in value and in the spelling of each statistic.
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
        """Add one row. A duration that breaks the rule of a row's
        duration_ms (_duration_parts: not finite, negative, 1E+40 or more,
        or with a nonzero digit finer than 1E-64), or a status other than ok
        or error, raises DomainError naming the pair and the rule, and adds
        nothing; the byte counts are trusted as given: UsageLog.fold passes
        only rows that passed the row checks."""
        try:
            coefficient, exponent = _duration_parts(duration_ms)
        except ValueError as exc:
            raise DomainError(f"duration ({function_id}, {platform_id}) {exc}, got {duration_ms}") from None
        self._add(function_id, platform_id, coefficient, exponent, bytes_in, bytes_out, status)

    def _add(self, function_id: str, platform_id: str, coefficient: int, exponent: int,
             bytes_in: int, bytes_out: int, status: str) -> None:
        """add, with a valid duration as its _duration_parts."""
        pair = self._pairs.get((function_id, platform_id))
        if pair is None:
            if status not in STATUSES:
                raise _bad_status(status)
            pair = self._pairs[(function_id, platform_id)] = _Pair()
        if status == "ok":
            # _Pair.add's common case, inlined: a row at its pair's finest
            # exponent is one append.
            if exponent == pair.exponent:
                try:
                    pair.scaled.append(coefficient)
                except OverflowError:  # it does not fit scaled: widen it
                    pair.add(coefficient, exponent)
            else:
                pair.add(coefficient, exponent)
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
            mine.extend(theirs)
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
        add, add_parts = fold.add, fold._add
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
                                whole, _, fraction = raw_duration.partition(".")
                                digits = whole + fraction
                                if raw_duration.isascii() and digits.isdecimal() and len(digits) < 19:
                                    # Its Decimal is (0, int(digits), -len(fraction)),
                                    # below 1e18, so it passes the duration checks.
                                    coefficient, exponent = int(digits), -len(fraction)
                                    checked = True
                                else:
                                    checked = False
                                bytes_in = int(raw_in)
                                bytes_out = int(raw_out)
                                checked = (
                                    checked
                                    and bytes_in >= 0
                                    and bytes_out >= 0
                                    and status in STATUSES
                                )
                            except ValueError:
                                checked = False
                            if checked:
                                add_parts(fid, pid, coefficient, exponent, bytes_in, bytes_out, status)
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
    latencies: LatencyTable | None,
    summaries: Mapping[tuple[str, str], UsageSummary],
) -> tuple[WorkflowSpec, LatencyTable]:
    """Fold measured statistics into the workflow's profiles and its latency
    table (None when the workflow document has none).

    Each measured pair's mean replaces its latency entry; every other entry
    is kept. Each profile's r_in/r_out become its overall mean bytes per
    request, in decimal GB. A pair with no statistics (error rows only) is
    skipped: it keeps the entry it had, if any. Raises UnknownFunctionError
    for a pair whose function the workflow does not declare.
    """
    declared = set(workflow.function_ids)
    for fid, _ in summaries:
        if fid not in declared:
            raise UnknownFunctionError(f"usage log names unknown function {fid!r}")
    summaries = {key: s for key, s in summaries.items() if s.stats is not None}

    entries = dict(latencies.entries) if latencies is not None else {}
    entries.update((key, summary.stats.mean) for key, summary in summaries.items())

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
