"""Usage-log ingestion and aggregation into calibration statistics.

Logs are CSV with the exact header
``timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status``
(UTF-8, RFC-4180 quoting). Only ok-status rows feed the statistics; error
rows are counted and reported but never priced or averaged. A pair with
error rows only is reported with its error tally and no statistics.

Aggregation is one streaming pass: each row is parsed once, folded into the
accumulator of its (function, platform) pair and dropped. An accumulator
keeps each ok duration as an integer scaled to the pair's finest exponent,
in 4 bytes while it fits and 8 after, plus one byte for the row's own
exponent and sign once the pair's rows are not all spelled alike, and no
record; accumulators merge exactly. A pair is summarized without a sort:
its p90 is picked with a heap of a tenth of its rows.

The fold loop checks each row inline and adds it. A duration spelled as
ASCII digits with at most one point is read straight to its coefficient and
exponent; any other spelling goes through Decimal. Only a row that fails
those checks goes through ``_parse_row``, the one definition of a valid row
and of each fault's message: it raises the row's RowError or returns the row
to be added, so the inline checks never drop a row that it accepts.
"""

from __future__ import annotations

import csv
import dataclasses
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal, localcontext
from heapq import heapify, heapreplace
from itertools import islice
from pathlib import Path
from typing import IO, Mapping, Sequence

from .errors import DomainError, HeaderError, RowError, UnknownFunctionError
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

#: Row exponents a pair keeps compact: 2 * exponent + sign fits a signed byte.
_EXPONENTS = range(-64, 64)

#: Scaled durations a pair keeps compact are below this in magnitude.
_SCALED_LIMIT = 2**63

#: Scaled durations below this in magnitude fit the 4-byte array a pair starts with.
_NARROW_LIMIT = 2**31


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


def _parts(duration: Decimal) -> tuple[int, int, int | str]:
    """The sign, coefficient and exponent of a Decimal, as as_tuple() gives
    them: the exponent of a NaN or an infinity is a letter."""
    sign, digits, exponent = duration.as_tuple()
    return sign, int(Decimal((0, digits, 0))), exponent


def _decimal(sign: int, coefficient: int, exponent: int) -> Decimal:
    """The Decimal of a finite duration's _parts, spelled with exactly that
    coefficient and exponent."""
    return Decimal(f"{'-' * sign}{coefficient}E{exponent}")


def _peak(values: array, factor: int) -> int:
    """The largest magnitude of the values times factor."""
    return max(max(values, default=0), -min(values, default=0)) * factor


class _Pair:
    """Accumulator of one (function, platform): the ok durations in the
    order they were added, byte totals of the ok rows, and the error-row
    tally.

    A finite Decimal is exactly its sign, coefficient and exponent, so the
    ok durations are kept compact: ``scaled`` holds each one as an integer
    at ``exponent``, the finest exponent of the pair's rows, and each row's
    own exponent and sign, as the tag 2 * exponent + sign, rebuild the
    row's Decimal, spelling included. ``scaled`` is a 4-byte array ('i')
    until a value does not fit; it then widens once to 8 bytes ('q'). While
    every row has the same tag the pair keeps that one ``tag`` and no
    ``tags``; the first row or merged pair with another tag builds
    ``tags``, one byte a row (array 'b'). Durations of up to nine digits
    in one spelling thus take 4 bytes a row. A row whose scaled value
    passes 2**63 in magnitude, or whose exponent is outside _EXPONENTS,
    makes the pair fall back for good to ``durations``, a list of its
    Decimals; its ``exponent`` is then None.
    """

    __slots__ = ("scaled", "tag", "tags", "exponent", "durations", "bytes_in_total",
                 "bytes_out_total", "error_count")

    def __init__(self):
        self.scaled = array("i")
        self.tag: int | None = None  # the tag of every row, while they share one
        self.tags: array | None = None
        self.exponent: int | None = _EXPONENTS[-1]  # no row yet: at or above any row's
        self.durations: list[Decimal] | None = None
        self.bytes_in_total = 0
        self.bytes_out_total = 0
        self.error_count = 0

    def add(self, sign: int, coefficient: int, exponent: int) -> None:
        """Add the ok duration of _parts (sign, coefficient, exponent)."""
        if self.durations is None and exponent in _EXPONENTS:
            if exponent < self.exponent:
                self._rescale(exponent)
            if self.durations is None:
                value = coefficient * 10 ** (exponent - self.exponent)
                if value < _SCALED_LIMIT:
                    tag = 2 * exponent + sign
                    if not self.scaled:
                        self.tag = tag
                    elif self.tags is not None or tag != self.tag:
                        self._mix().append(tag)
                    self._widen(value)
                    self.scaled.append(-value if sign else value)
                    return
        self.fallback().append(_decimal(sign, coefficient, exponent))

    def extend(self, other: _Pair) -> None:
        """Add other's rows after this pair's."""
        self.bytes_in_total += other.bytes_in_total
        self.bytes_out_total += other.bytes_out_total
        self.error_count += other.error_count
        if not other.scaled and other.durations is None:
            return  # no ok row
        if self.durations is None and other.durations is None:
            if other.exponent < self.exponent:
                self._rescale(other.exponent)
            if self.durations is None:
                factor = 10 ** (other.exponent - self.exponent)
                peak = _peak(other.scaled, factor)
                if peak < _SCALED_LIMIT:
                    if not self.scaled:
                        self.tag = other.tag
                        self.tags = None if other.tags is None else array("b", other.tags)
                    elif self.tags is not None or other.tag != self.tag:
                        self._mix().extend(other._row_tags())
                    self._widen(peak)
                    scaled = self.scaled
                    if factor == 1 and scaled.typecode == other.scaled.typecode:
                        scaled.extend(other.scaled)
                    else:
                        scaled.extend(map(factor.__mul__, other.scaled))
                    return
        self.fallback().extend(other.decimals())

    def _widen(self, peak: int) -> None:
        """Widen ``scaled`` to 8 bytes a value if a magnitude of peak does not
        fit its 4."""
        if peak >= _NARROW_LIMIT and self.scaled.typecode == "i":
            self.scaled = array("q", self.scaled)

    def _rescale(self, exponent: int) -> None:
        """Scale the kept values to the finer exponent, or fall back when
        one would pass _SCALED_LIMIT."""
        factor = 10 ** (self.exponent - exponent)
        peak = _peak(self.scaled, factor)
        if peak >= _SCALED_LIMIT:
            self.fallback()
            return
        self._widen(peak)
        scaled = self.scaled
        for i in range(len(scaled)):
            scaled[i] *= factor
        self.exponent = exponent

    def _row_tags(self) -> array:
        """The tag of each compact row of a pair that has one."""
        if self.tags is not None:
            return self.tags
        return array("b", [self.tag]) * len(self.scaled)

    def _mix(self) -> array:
        """Keep a tag per row from now on, in a pair that has a row; returns
        ``tags``."""
        self.tags, self.tag = self._row_tags(), None
        return self.tags

    def fallback(self) -> list[Decimal]:
        """The ok durations as a list of Decimals, kept as such from now on."""
        if self.durations is None:
            self.durations = self.decimals()
            self.scaled, self.tag, self.tags, self.exponent = array("i"), None, None, None
        return self.durations

    def decimals(self) -> list[Decimal]:
        """The ok durations in the order added."""
        if self.durations is not None:
            return self.durations
        return [self._row(index) for index in range(len(self.scaled))]

    def _row(self, index: int) -> Decimal:
        tag = self.tag if self.tags is None else self.tags[index]
        exponent = tag >> 1
        scale = 10 ** (exponent - self.exponent)
        return _decimal(tag & 1, abs(self.scaled[index]) // scale, exponent)

    def _occurrence(self, value: int, number: int) -> Decimal:
        """The row of the number-th (1-based) occurrence of the scaled
        value, in the order added."""
        index = -1
        for _ in range(number):
            index = self.scaled.index(value, index + 1)
        return self._row(index)

    def summary(self) -> UsageSummary:
        """Count, mean, min, max and nearest-rank p90 (the value at 1-based
        rank ceil(0.9 * count) of the ascending stable sort, so of equal
        values written differently (1.0, 1.00) min, max and p90 carry the
        one at that rank in the order added). The mean's sum is taken in
        ascending order under money.CONTEXT before it is quantized; the
        integer sum of a compact pair is exact, and equal, since it needs
        far fewer than 50 digits. A compact pair is not sorted: its p90 is
        the smallest of its count - rank + 1 largest values, picked with a
        heap of that size. With no ok duration there are no statistics."""
        stats = None
        if self.durations is None:
            scaled = self.scaled
            count = len(scaled)
            if count:
                total = Decimal(sum(scaled)).scaleb(self.exponent, CONTEXT)
                rank = -((-9 * count) // 10)
                heap = scaled[: count - rank + 1].tolist()
                heapify(heap)
                top = heap[0]
                for value in islice(scaled, len(heap), None):
                    if value > top:
                        heapreplace(heap, value)
                        top = heap[0]
                # Every value above top is in the heap, and so are the last
                # heap.count(top) of top's occurrences in the stable sort:
                # the p90 is the first of those, the max the last of its own.
                ties, high = scaled.count(top), max(heap)
                low = self._occurrence(min(scaled), 1)
                high = self._occurrence(high, ties if high == top else heap.count(high))
                p90 = self._occurrence(top, ties - heap.count(top) + 1)
        else:
            values = sorted(self.durations)
            count = len(values)
            if count:
                with localcontext(CONTEXT):
                    total = sum(values, Decimal(0))
                low, high, p90 = values[0], values[-1], values[-((-9 * count) // 10) - 1]
        if count:
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
        """Add one row. A duration that is not finite, or a status other
        than ok or error, raises DomainError and adds nothing; the rest of
        the duration and the byte counts are trusted as given: UsageLog.fold
        passes only rows that passed the row checks."""
        if not duration_ms.is_finite():
            raise DomainError(
                f"duration ({function_id}, {platform_id}) must be finite, got {duration_ms}"
            )
        self._add(function_id, platform_id, *_parts(duration_ms), bytes_in, bytes_out, status)

    def _add(self, function_id: str, platform_id: str, sign: int, coefficient: int,
             exponent: int, bytes_in: int, bytes_out: int, status: str) -> None:
        """add, with a finite duration as its _parts."""
        pair = self._pairs.get((function_id, platform_id))
        if pair is None:
            if status not in STATUSES:
                raise _bad_status(status)
            pair = self._pairs[(function_id, platform_id)] = _Pair()
        if status == "ok":
            # _Pair.add's common case, inlined: a row at its pair's finest
            # exponent is one append, and a second one when the pair keeps a
            # tag per row.
            if exponent == pair.exponent and (pair.tags is not None or 2 * exponent + sign == pair.tag):
                try:
                    pair.scaled.append(-coefficient if sign else coefficient)
                except OverflowError:  # it does not fit scaled: widen or fall back
                    pair.add(sign, coefficient, exponent)
                else:
                    if pair.tags is not None:
                        pair.tags.append(2 * exponent + sign)
            else:
                pair.add(sign, coefficient, exponent)
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
                                    sign, coefficient, exponent = 0, int(digits), -len(fraction)
                                    checked = True
                                else:
                                    duration = Decimal(raw_duration)
                                    checked = duration.is_finite() and ZERO <= duration < _DURATION_LIMIT
                                    sign, coefficient, exponent = _parts(duration)
                                bytes_in = int(raw_in)
                                bytes_out = int(raw_out)
                                checked = (
                                    checked
                                    and bytes_in >= 0
                                    and bytes_out >= 0
                                    and status in STATUSES
                                )
                            except (ValueError, ArithmeticError):
                                checked = False
                            if checked:
                                add_parts(fid, pid, sign, coefficient, exponent, bytes_in,
                                          bytes_out, status)
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
