import csv
import io
import itertools
import random
import tracemalloc
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cosmos import telemetry
from cosmos.errors import (
    DomainError,
    HeaderError,
    MissingLatencyError,
    RowError,
    UnknownFunctionError,
)
from cosmos.money import CONTEXT
from cosmos.telemetry import (
    ROW_ERRORS_SHOWN,
    USAGE_HEADER,
    LatencyStats,
    UsageFold,
    UsageLog,
    UsageSummary,
    calibrate,
    summarize_usage,
)
from cosmos.workflow import LATENCY_LIMIT, FunctionProfile, LatencyTable, WorkflowSpec

D = Decimal


def _log(*rows):
    return io.StringIO("\n".join([USAGE_HEADER, *rows]) + "\n")


def _row(duration, fid="f", pid="p", status="ok", bytes_in=0, bytes_out=0):
    return f"2024-11-04T09:00:00Z,{fid},{pid},{duration},{bytes_in},{bytes_out},{status}"


def _summaries(*rows):
    return summarize_usage(UsageLog(_log(*rows)))


def _stats(*durations):
    """Statistics of the pair (f, p) over one ok row per duration."""
    return _summaries(*map(_row, durations))[("f", "p")].stats


# --- parsing -----------------------------------------------------------------


def test_parse_well_formed_rows():
    log = UsageLog(_log(_row(100), _row(200), _row(300)))
    stats = summarize_usage(log)[("f", "p")].stats
    assert (log.rows, log.error_count, stats.count) == (3, 0, 3)
    assert (stats.min, stats.max) == (D(100), D(300))


def test_negative_duration_is_row_error_with_line():
    with pytest.raises(RowError) as exc:
        _summaries(_row(100), _row(-5))
    assert exc.value.line == 3


def test_empty_body_with_header_is_empty_list():
    assert list(_summaries()) == []


def test_missing_header_is_header_error():
    with pytest.raises(HeaderError):
        summarize_usage(UsageLog(io.StringIO("1,2,3\n")))
    with pytest.raises(HeaderError):
        summarize_usage(UsageLog(io.StringIO("")))


def test_bad_status_and_bad_bytes():
    with pytest.raises(RowError):
        _summaries(_row(1, status="maybe"))
    with pytest.raises(RowError):
        _summaries("2024-11-04T09:00:00Z,f,p,1,xyz,0,ok")


def test_bad_timestamp():
    with pytest.raises(RowError):
        _summaries("notadate,f,p,1,0,0,ok")


def test_scan_collects_all_row_errors():
    log = UsageLog(_log(_row(1), _row(-1), _row(2), _row(-2)))
    assert log.fold().summaries()[("f", "p")].stats.count == 2
    assert [e.line for e in log.errors] == [3, 5]


def test_bundled_sample_parses(fixture_dir):
    log = UsageLog(fixture_dir / "sample-usage.csv")
    summaries = summarize_usage(log)
    assert log.rows == 14
    assert sum(s.error_count for s in summaries.values()) == 2


# --- aggregation ----------------------------------------------------------------


def test_stats_three_samples():
    stats = _stats(100, 200, 300)
    assert stats == LatencyStats(count=3, mean=D(200), min=D(100), max=D(300), p90=D(300))


def test_p90_nearest_rank_on_ten_samples():
    stats = _stats(*range(1, 11))
    assert stats.p90 == D(9)
    assert stats.count == 10


def test_error_records_never_influence_statistics():
    clean = [_row(100), _row(200), _row(300)]
    noisy = clean + [_row(10**6, status="error"), _row(0, status="error")]
    assert _summaries(*clean)[("f", "p")].stats == _summaries(*noisy)[("f", "p")].stats


def test_stats_match_sort_based_oracle():
    rng = random.Random(5)
    for _ in range(100):
        values = [rng.randint(0, 10**5) for _ in range(rng.randint(1, 200))]
        stats = _stats(*values)
        ordered = sorted(values)
        rank = -((-9 * len(ordered)) // 10)
        assert stats.min == D(min(values))
        assert stats.max == D(max(values))
        assert stats.p90 == D(ordered[rank - 1])
        assert stats.mean == (
            sum(D(v) for v in values) / D(len(values))
        ).quantize(D("1e-9"))
        assert stats.min <= stats.mean <= stats.max
        assert stats.min <= stats.p90 <= stats.max


def test_summarize_groups_and_counts_errors():
    summaries = _summaries(
        _row(100, fid="a", pid="x"),
        _row(200, fid="a", pid="x"),
        _row(300, fid="a", pid="x", status="error"),
        _row(50, fid="b", pid="y", bytes_in=10**9),
    )
    assert set(summaries) == {("a", "x"), ("b", "y")}
    assert summaries[("a", "x")].ok_count == 2
    assert summaries[("a", "x")].error_count == 1
    assert summaries[("b", "y")].bytes_in_total == 10**9


def test_pair_with_error_rows_only_is_reported_without_statistics():
    summaries = _summaries(_row(100), _row(7, fid="g", status="error"), _row(9, fid="g", status="error"))
    assert summaries[("g", "p")] == UsageSummary(
        stats=None, ok_count=0, error_count=2, bytes_in_total=0, bytes_out_total=0
    )
    wf = WorkflowSpec(workflow_id="w", functions=(FunctionProfile("f"), FunctionProfile("g")))
    calibrated, table = calibrate(wf, None, summaries)
    assert table.entries == {("f", "p"): D(100)}
    with pytest.raises(MissingLatencyError):
        table.get("g", "p")
    assert calibrated.function("g") == wf.function("g")
    assert {("f", "p"), ("g", "p")} - set(table.entries) == {("g", "p")}


# --- streaming fold -----------------------------------------------------------

_MALFORMED = (
    "2024-11-04T09:00:00Z,a,x,-1,0,0,ok",
    "2024-11-04T09:00:00Z,a,x,abc,0,0,ok",
    "2024-11-04T09:00:00Z,a,x,1,0,0,maybe",
    "2024-11-04T09:00:00Z,a,x,1,0,ok",
    "notadate,a,x,1,0,0,ok",
)

# A well-formed row: pair, value m * 10**-k written with z extra trailing
# zeros (so 1.0 and 1.00 both occur), byte counts and status.
_good_row = st.tuples(
    st.sampled_from([("a", "x"), ("a", "y"), ("b", "x")]),
    st.integers(0, 3000),
    st.integers(0, 10),
    st.integers(0, 2),
    st.integers(0, 10**12),
    st.integers(0, 10**12),
    st.sampled_from(["ok", "ok", "ok", "error"]),
)
_log_line = st.one_of(_good_row, st.sampled_from(_MALFORMED), st.just(""))


def _duration_text(m, k, z):
    return str(Decimal(m * 10**z).scaleb(-(k + z)))


def _oracle(rows):
    """Sort-based statistics in exact Fraction arithmetic, per pair. min, max
    and p90 are the Decimals of the duration texts at their ranks of a sort.
    A pair with error rows only has count 0 and no statistics."""
    ok: dict = {}
    errors: dict = {}
    for pair, m, k, z, b_in, b_out, status in rows:
        ok.setdefault(pair, [])
        if status == "ok":
            ok[pair].append((Fraction(m, 10**k), _duration_text(m, k, z), b_in, b_out))
        else:
            errors[pair] = errors.get(pair, 0) + 1
    out = {}
    for pair, items in ok.items():
        ranked = sorted(items, key=lambda item: item[0])
        n = len(ranked)
        stats = (None,) * 4
        if n:
            stats = (
                round(sum(v for v, _, _, _ in items) / n * 10**9),  # round() on a Fraction is half-even
                Decimal(ranked[0][1]),
                Decimal(ranked[-1][1]),
                Decimal(ranked[-((-9 * n) // 10) - 1][1]),
            )
        out[pair] = (
            n,
            *stats,
            sum(b for _, _, b, _ in items),
            sum(b for _, _, _, b in items),
            errors.get(pair, 0),
        )
    return out


@given(st.lists(_log_line, max_size=60))
def test_streaming_summaries_match_fraction_oracle(lines):
    text = [
        line if isinstance(line, str) else
        f"2024-11-04T09:00:00Z,{line[0][0]},{line[0][1]},{_duration_text(*line[1:4])},"
        f"{line[4]},{line[5]},{line[6]}"
        for line in lines
    ]
    log = UsageLog(_log(*text))
    summaries = log.fold().summaries()
    got = {
        pair: (
            s.ok_count,
            *(
                (None,) * 4
                if s.stats is None
                else (s.stats.mean.scaleb(9), s.stats.min, s.stats.max, s.stats.p90)
            ),
            s.bytes_in_total,
            s.bytes_out_total,
            s.error_count,
        )
        for pair, s in summaries.items()
    }
    good = [line for line in lines if not isinstance(line, str)]
    assert got == _oracle(good)
    assert all(s.ok_count == (s.stats.count if s.stats else 0) for s in summaries.values())
    assert list(summaries) == sorted(summaries)
    assert log.error_count == len(log.errors) == sum(line in _MALFORMED for line in lines)
    assert log.rows == sum(line != "" for line in lines)
    again = UsageLog(_log(*text))
    if log.error_count:
        with pytest.raises(RowError) as info:
            summarize_usage(again)
        assert info.value is again.errors[0]
        assert str(info.value) == str(log.errors[0])
    else:
        assert summarize_usage(again) == summaries


def _fold(rows):
    fold = UsageFold()
    for row in rows:
        fold.add(*row)
    return fold


# Duration spellings that pass the row checks besides _duration_text's: E
# notation, a negative zero (which loses its sign), spellings that Decimal
# reads but the common-spelling path does not, a coefficient past 2**63 (it
# widens the pair to Python ints), exponents outside -64..63 on values that
# are multiples of 1E-64, and values that make an 18-digit pair rescale past
# 2**63.
_SPELLINGS = [
    "1.0", "1.00", "1E+2", "0E-5", "-0", "-0.00", " 1.5", "1.5 ", "+1.5", "1_000.5",
    "١.٥", "٣", "12345678901234567890.5", "9223372036854775808", "0.1" + "0" * 70,
    "0E+100", "123456789012345678", "0.05", "7.000001",
]

_fold_row = st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["x", "y"]),
    st.one_of(
        st.builds(_duration_text, st.integers(0, 50), st.integers(0, 2), st.integers(0, 2)),
        st.sampled_from(_SPELLINGS),
    ).map(D),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(["ok", "ok", "error"]),
)


# Rows of one pair that take the scaled layout through each of its changes,
# with a cut that splits them for a merge.
_LAYOUT_CASES = [
    # Past 2**31 in an append at the pair's exponent, and in the merge.
    (["1.5", "300000000.5", "2.5"], 1),
    # Past 2**31 in a rescale, in the fold and in the merge.
    (["300000000", "0.01", "7"], 1),
    # Past 2**63 in an append at the pair's exponent, and in the merge.
    (["1.5", "9223372036854775808", "2.5"], 1),
    # Past 2**63 in a rescale, in the fold and in the merge.
    (["1000000000000000000", "0.1", "7"], 1),
    # A uniformly spelled pair that gets a new spelling after many rows.
    ([f"{i}.25" for i in range(30)] + ["4.5", "5.75"], 20),
    # Pairs of two spellings each, merged with pairs of one or two.
    (["1.5", "2.5", "3.25", "4.75"], 2),
    (["1.5", "2.5", "3.25", "4.5"], 2),
    (["1.5", "2.25", "3.5", "4.5"], 2),
    # 1.0 and 1.00 tied at the min, the max and the p90 rank (18 of 20),
    # where the p90 is the third of three ties and the heap holds only one.
    (["8.00", "1.00", "9.0", "2", "8", "2.5", "3", "1.0", "3.5", "4",
      "9.00", "4.5", "5", "8.0", "5.5", "6", "6.5", "7", "7.25", "7.5"], 7),
    # Ties at the p90 rank (9 of 10) that are also the max.
    (["7.0", "1", "7", "2", "3", "7.00", "4", "5", "7.000", "6"], 4),
    # A pair of one row.
    (["2.5"], 1),
]


def _layout_examples(to_args):
    """An @example per _LAYOUT_CASES entry, with the arguments that
    to_args(durations, cut) builds."""
    def decorate(test):
        for durations, cut in reversed(_LAYOUT_CASES):
            test = example(*to_args(durations, cut))(test)
        return test
    return decorate


def _ok_rows(durations):
    return [("a", "x", D(text), 0, 0, "ok") for text in durations]


# A fold's rows, an order of them, and a cut of that order.
_fold_case = st.lists(_fold_row, max_size=40).flatmap(
    lambda rows: st.tuples(st.just(rows), st.permutations(rows), st.integers(0, len(rows)))
)


@given(_fold_case)
@_layout_examples(lambda durations, cut: [(_ok_rows(durations), _ok_rows(durations), cut)])
# A pair past 2**63 whose min is spelled 1.0 in one fold and 1.00 in a merge
# whose second part holds both ties, unless both spell it at the pair's exponent.
@example((_ok_rows(["1.0", "1.00", "9223372036854775808"]), _ok_rows(["9223372036854775808", "1.0", "1.00"]), 1))
def test_fold_is_invariant_under_permutation_and_split_merge(case):
    rows, shuffled, cut = case
    expected = _fold(rows).summaries()
    assert _fold(shuffled).summaries() == expected
    head, tail = shuffled[:cut], shuffled[cut:]
    assert _fold(head).merge(_fold(tail)).summaries() == expected
    assert _fold(tail).merge(_fold(head)).summaries() == expected
    # A merge summarizes exactly as one fold of both parts in turn, down to
    # the exponent each statistic is spelled at.
    assert repr(_fold(head).merge(_fold(tail)).summaries()) == repr(_fold(shuffled).summaries())


def test_merge_reports_equal_durations_by_value():
    rows = [("f", "p", D(text), 0, 0, "ok") for text in ("1.0", "2", "1.00", "2.0")]
    merged = _fold(rows[:2]).merge(_fold(rows[2:])).summaries()
    assert merged == _fold(rows).summaries()
    stats = merged[("f", "p")].stats
    assert (stats.min, stats.max, stats.p90) == (1, 2, 2)
    # A pair spells its statistics at its finest exponent.
    assert (str(stats.min), str(stats.max), str(stats.p90)) == ("1.00", "2.00", "2.00")


def test_a_merge_shares_no_state_with_the_other_fold():
    # Rows added to either fold after a merge stay out of the other one.
    rows = [("f", "p", D("1.5"), 0, 0, "ok"), ("f", "p", D("2.25"), 0, 0, "ok")]
    other = _fold(rows)
    merged = UsageFold().merge(other)
    other.add("f", "p", D("0.125"), 0, 0, "ok")
    merged.add("f", "p", D("3"), 0, 0, "ok")
    assert repr(merged.summaries()) == repr(_fold([*rows, ("f", "p", D("3"), 0, 0, "ok")]).summaries())


class _ListPair:
    """The list-based accumulator of one pair, which keeps each ok duration
    as its Decimal: the reference for telemetry._Pair's scaled durations."""

    def __init__(self):
        self.durations = []
        self.bytes_in_total = self.bytes_out_total = self.error_count = 0

    def summary(self):
        values = sorted(self.durations)
        count = len(values)
        stats = None
        if values:
            with localcontext(CONTEXT):
                total = sum(values, D(0))
            stats = LatencyStats(
                count=count,
                mean=CONTEXT.quantize(CONTEXT.divide(total, D(count)), telemetry.MEAN_QUANTUM),
                min=values[0],
                max=values[-1],
                p90=values[-((-9 * count) // 10) - 1],
            )
        return UsageSummary(stats, count, self.error_count, self.bytes_in_total, self.bytes_out_total)


class _ListFold:
    """UsageFold over _ListPair accumulators."""

    def __init__(self):
        self.pairs = {}

    def add(self, function_id, platform_id, duration, bytes_in, bytes_out, status):
        pair = self.pairs.setdefault((function_id, platform_id), _ListPair())
        if status == "ok":
            pair.durations.append(duration)
            pair.bytes_in_total += bytes_in
            pair.bytes_out_total += bytes_out
        else:
            pair.error_count += 1

    def summaries(self):
        return {key: self.pairs[key].summary() for key in sorted(self.pairs)}


_spelled_row = st.tuples(
    st.sampled_from([("a", "x"), ("a", "y"), ("b", "x")]),
    st.one_of(
        st.builds(_duration_text, st.integers(0, 3000), st.integers(0, 10), st.integers(0, 2)),
        st.sampled_from(_SPELLINGS),
    ),
    st.integers(0, 10**12),
    st.integers(0, 10**12),
    st.sampled_from(["ok", "ok", "ok", "error"]),
)


def _list_fold(rows):
    fold = _ListFold()
    for row in rows:
        fold.add(*row)
    return fold


@given(st.lists(_spelled_row, max_size=40), st.integers(0, 40))
@example([(("a", "x"), "5", 0, 0, "ok"), (("a", "x"), "-0", 0, 0, "ok"),
          (("a", "x"), "0", 0, 0, "ok"), (("a", "x"), "-0.00", 0, 0, "ok")], 1)
@example([(("a", "x"), "5", 1, 2, "ok"), (("a", "x"), "12", 0, 0, "ok"),
          (("a", "x"), "1.25", 0, 0, "ok"), (("a", "x"), "5.0", 0, 0, "ok")], 2)
@example([(("a", "x"), "123456789012345678", 0, 0, "ok"), (("a", "x"), "0.05", 0, 0, "ok"),
          (("a", "x"), "0.1" + "0" * 70, 0, 0, "ok"), (("b", "x"), "0E+100", 0, 0, "ok"),
          (("a", "x"), "1.0", 0, 0, "ok"), (("b", "x"), "2", 0, 0, "ok")], 3)
@_layout_examples(lambda durations, cut: ([(("a", "x"), text, 0, 0, "ok") for text in durations], cut))
def test_compact_fold_matches_the_list_fold(rows, cut):
    # Through UsageLog.fold, UsageFold.add, and a split and merge.
    lines = [f"2024-11-04T09:00:00Z,{f},{p},{d},{i},{o},{s}" for (f, p), d, i, o, s in rows]
    parsed = [telemetry._parse_row(line, row) for line, row in enumerate(csv.reader(lines), start=2)]
    expected = _list_fold(parsed).summaries()
    log = UsageLog(_log(*lines))
    folds = [log.fold(), _fold(parsed), _fold(parsed[:cut]).merge(_fold(parsed[cut:]))]
    assert log.error_count == 0
    for fold in folds:
        assert fold.summaries() == expected


def test_rows_that_do_not_fit_fall_back_to_the_list():
    # A scaled value past 2**63, in an append or in a rescale, widens its
    # pair's array to a list of Python ints, before or after a merge with a
    # pair of an array; the summaries equal the list fold's by value, and a
    # merge's spell as one fold's.
    def rows_of(*texts):
        return [("f", "p", D(text), 0, 0, "ok") for text in texts]

    past = rows_of("1.5", "9223372036854775808", "2")
    rescaled = rows_of("1000000000000000000", "0.1", "2.00")
    compact = rows_of("3.25", "1.50", "1.5")
    assert isinstance(_fold(compact)._pairs[("f", "p")].scaled, array)
    for rows in (past, rescaled):
        assert type(_fold(rows)._pairs[("f", "p")].scaled) is list
        for first, second in ((rows, compact), (compact, rows)):
            merged = _fold(first).merge(_fold(second))
            assert type(merged._pairs[("f", "p")].scaled) is list
            assert merged.summaries() == _list_fold(first + second).summaries()
            assert repr(merged.summaries()) == repr(_fold(first + second).summaries())
    # A NaN or an infinity given to UsageFold.add raises naming the pair and
    # adds nothing, after a row of the pair or as the pair's first row.
    for text in ("NaN", "sNaN", "Infinity", "-Infinity"):
        for rows in ([compact[0]], []):
            fold = _fold(rows)
            for status in ("ok", "error"):
                with pytest.raises(DomainError) as exc:
                    fold.add("f", "p", D(text), 1, 1, status)
                assert str(exc.value) == f"duration (f, p) must be finite, got {text}"
            assert repr(fold.summaries()) == repr(_fold(rows).summaries())


def test_fold_add_refuses_a_duration_it_cannot_scale():
    # By value: trailing zeros past -64, or a zero's exponent, refuse nothing.
    accepted = [("f", "p", D(text), 0, 0, "ok") for text in ("0.1" + "0" * 70, "0E+100", "0E-100", "2.5")]
    fold = _fold(accepted)
    stats = fold.summaries()[("f", "p")].stats
    assert (stats.count, str(stats.min), str(stats.max)) == (4, "0.0", "2.5")
    # A refused duration adds nothing.
    for text in ("1E-70", "1.0000000001E-55", "1E+64", "-1E+64", "15E+63", "1E+999999999"):
        with pytest.raises(DomainError) as exc:
            fold.add("f", "p", D(text), 1, 1, "ok")
        assert str(exc.value) == f"duration (f, p) must be a multiple of 1E-64 below 1E+64, got {D(text)}"
    assert repr(fold.summaries()) == repr(_fold(accepted).summaries())


def test_parse_row_refuses_a_duration_finer_than_1e_64():
    for text in ("1E-65", "1." + "0" * 64 + "1", "1E-999999999"):
        with pytest.raises(RowError) as info:
            _summaries(_row(1), _row(text))
        assert str(info.value) == f"row 3: duration_ms must be a multiple of 1E-64, got {text!r}"
    stats = _stats("0.1" + "0" * 70, "0E-100", "1E-64")
    assert (stats.min, stats.max) == (0, D("0.1"))


def test_mean_sum_is_exact_beyond_28_digits():
    # 1e20 + 3e-9 needs 30 digits; the mean 5e19 + 1.5e-9 then rounds half-even.
    stats = _stats("1e20", "0.000000003")
    assert stats.mean == D("50000000000000000000.000000002")


# A log of 25 malformed rows between two good ones and a blank line.
_MANY_MALFORMED = (_row(1), *(_row(-i) for i in range(1, ROW_ERRORS_SHOWN + 6)), "", _row(2))


def test_usage_log_keeps_only_the_first_row_errors():
    malformed = ROW_ERRORS_SHOWN + 5
    log = UsageLog(_log(*_MANY_MALFORMED))
    with pytest.raises(RowError) as info:
        summarize_usage(log)
    assert info.value.line == 3
    assert [e.line for e in log.errors] == list(range(3, ROW_ERRORS_SHOWN + 3))
    assert log.error_count == malformed
    assert log.rows == malformed + 2
    assert UsageLog(_log(*_MANY_MALFORMED)).fold().summaries()[("f", "p")].stats.count == 2


def test_malformed_rows_are_reported_before_any_statistic(monkeypatch):
    def unsummarized(_pair):
        raise AssertionError("a statistic was computed from a log with malformed rows")

    monkeypatch.setattr(telemetry._Pair, "summary", unsummarized)
    log = UsageLog(_log(_row(100), _row(-1)))
    with pytest.raises(RowError) as info:
        summarize_usage(log)
    assert info.value.line == 3


# Near misses per field index of a well-formed row: values that the inline
# checks of UsageLog.fold and _parse_row must judge alike.
_COUNT_NEAR_MISSES = ["+5", " 5", "5_000", "-1", "\u0665", "\uff15", ""]
_NEAR_MISSES = {
    0: [
        pad + body + zone + tail
        for pad in ("", " ")
        for body in ("2024-11-04T09:00:00", "2024-11-04", "2024-11-31T09:00:00")
        for zone in ("Z", "+00:00", "")
        for tail in ("", " ")
    ],
    3: ["NaN", "sNaN", "Infinity", "-0", "1e40", "9.99e39", "1E+2", "-1", "1E-70", "0E-70", "1E-64"],
    4: _COUNT_NEAR_MISSES,
    5: _COUNT_NEAR_MISSES,
    6: ["OK", "error "],
}


def _well_formed(pair, m, k, z, bytes_in, bytes_out, status):
    return ["2024-11-04T09:00:00Z", *pair, _duration_text(m, k, z), str(bytes_in), str(bytes_out), status]


@st.composite
def _near_miss_row(draw):
    """A well-formed row with up to two fields replaced by near misses, cut to
    six fields or given an eighth."""
    row = _well_formed(*draw(_good_row))
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.sampled_from(sorted(_NEAR_MISSES)))
        row[index] = draw(st.sampled_from(_NEAR_MISSES[index]))
    width = draw(st.sampled_from([7, 7, 7, 7, 6, 8]))
    return row[:width] + ["x"] * (width - len(row))


# Every near miss alone in an otherwise well-formed row.
_EACH_NEAR_MISS = [
    [*row[:index], value, *row[index + 1:]]
    for row in [_well_formed(("a", "x"), 5, 1, 0, 10, 20, "ok")]
    for index, values in _NEAR_MISSES.items()
    for value in values
]


def _reference_fold(text):
    """UsageLog.fold with every row put through _parse_row: the oracle of the
    fold's inline row checks. Returns the fold, the data row count and every
    RowError."""
    fold, rows, errors = UsageFold(), 0, []
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        rows += 1
        try:
            fold.add(*telemetry._parse_row(line, row))
        except RowError as exc:
            errors.append(exc)
    return fold, rows, errors


@given(st.lists(_near_miss_row() | st.just([]), max_size=40))
@example(_EACH_NEAR_MISS)
def test_inline_row_checks_match_parse_row(rows):
    out = io.StringIO()
    csv.writer(out).writerows([USAGE_HEADER.split(","), *rows])
    log = UsageLog(io.StringIO(out.getvalue()))
    summaries = log.fold().summaries()
    fold, count, errors = _reference_fold(out.getvalue())
    assert repr(summaries) == repr(fold.summaries())
    assert (log.rows, log.error_count) == (count, len(errors))
    assert [str(e) for e in log.errors] == [str(e) for e in errors[:ROW_ERRORS_SHOWN]]


def test_parse_row_runs_only_for_rejected_rows(monkeypatch, fixture_dir):
    calls = []
    parse_row = telemetry._parse_row

    def counted(line, row):
        calls.append(line)
        return parse_row(line, row)

    monkeypatch.setattr(telemetry, "_parse_row", counted)
    log = UsageLog(fixture_dir / "sample-usage.csv")
    log.fold()
    assert (log.rows, log.error_count, calls) == (14, 0, [])
    log = UsageLog(_log(*_MANY_MALFORMED))
    log.fold()
    assert log.error_count == ROW_ERRORS_SHOWN + 5
    assert calls == list(range(3, ROW_ERRORS_SHOWN + 8))


def test_fold_add_rejects_an_unknown_status():
    fold = UsageFold()
    with pytest.raises(DomainError, match="status must be ok or error, got 'bogus'"):
        fold.add("f", "p", D(1), 0, 0, "bogus")
    assert fold.summaries() == {}
    fold.add("f", "p", D(1), 0, 0, "ok")
    with pytest.raises(DomainError):
        fold.add("f", "p", D(1), 0, 0, "OK")
    assert fold.summaries() == _summaries(_row(1))


def test_duration_bound_keeps_the_mean_within_context_precision():
    # 1e40 is 10 ** (money.CONTEXT.prec + MEAN_QUANTUM.adjusted() - 1).
    largest = "9" * 40 + ".999999999"
    stats = summarize_usage(UsageLog(_log(_row(largest), _row(largest))))[("f", "p")].stats
    assert stats.mean == stats.max == D(largest)
    for rejected in ("1e40", "1e100"):
        with pytest.raises(RowError) as info:
            _summaries(_row(1), _row(rejected))
        assert str(info.value) == f"row 3: duration_ms must be < 1E+40, got {rejected!r}"
    for rejected in ("NaN", "-5"):
        with pytest.raises(RowError) as info:
            _summaries(_row(1), _row(rejected))
        assert str(info.value) == f"row 3: duration_ms must be finite and >= 0, got {rejected!r}"


def test_oversized_field_is_a_row_error_and_the_scan_goes_on():
    huge = "f" * 200_000
    log = UsageLog(_log(_row(1), _row(2, fid=huge), _row(-1), _row(3)))
    assert log.fold().summaries() == _summaries(_row(1), _row(3))
    assert [str(e) for e in log.errors] == [
        "row 3: field larger than field limit (131072)",
        "row 4: duration_ms must be finite and >= 0, got '-1'",
    ]


def test_oversized_header_field_is_a_header_error():
    with pytest.raises(HeaderError, match="field larger than field limit"):
        summarize_usage(UsageLog(io.StringIO("t" * 200_000 + USAGE_HEADER[9:] + "\n" + _row(1) + "\n")))


def test_streaming_memory_keeps_no_record_per_row(tmp_path):
    path = tmp_path / "usage.csv"
    rows = (_row(100 + i % 997, fid=f"f{i % 2}", status="error" if i % 50 == 0 else "ok")
            for i in range(50_000))
    path.write_text("\n".join([USAGE_HEADER, *rows]) + "\n")
    tracemalloc.start()
    try:
        summaries = summarize_usage(UsageLog(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.ok_count + s.error_count for s in summaries.values()) == 50_000
    # About 4 B per ok row (a 4-byte scaled duration) and, while a pair is
    # summarized, a heap of a tenth of its values; a parsed record per row
    # would peak near 21 MB here.
    assert peak < 600_000


def _one_pair_peak(tmp_path, durations):
    """Fold and summarize a log of one ok row of the pair (f, p) per
    duration text; returns the fold, its summaries and the traced peak."""
    path = tmp_path / "usage.csv"
    path.write_text("\n".join([USAGE_HEADER, *map(_row, durations)]) + "\n")
    tracemalloc.start()
    try:
        fold = UsageLog(path).fold()
        summaries = fold.summaries()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return fold, summaries, peak


def test_one_large_pair_is_summarized_in_bounded_memory(tmp_path):
    rows = 50_000
    durations = (f"{100 + i % 997}.{i % 1000:03d}" for i in range(rows))
    fold, summaries, peak = _one_pair_peak(tmp_path, durations)
    assert summaries[("f", "p")].stats.count == rows
    # Durations of three decimals keep 4 bytes a row, with no 8-byte values.
    assert fold._pairs[("f", "p")].scaled.itemsize == 4
    # 4 B a row for the durations and about 4 for the p90's heap of a tenth
    # of them, where a sort of the pair took about 44.
    assert peak < 12 * rows


def test_a_pair_of_mixed_spellings_takes_the_bytes_a_row_of_one(tmp_path):
    # The durations above with their trailing zeros dropped (100, 101.001,
    # 102.02): their exponents differ, but each is kept by value at the
    # pair's finest one, so a row takes the same 4 bytes, with no byte a
    # row for its spelling.
    rows = 50_000
    durations = (f"{100 + i % 997}.{i % 1000:03d}".rstrip("0").rstrip(".") for i in range(rows))
    fold, summaries, peak = _one_pair_peak(tmp_path, durations)
    assert summaries[("f", "p")].stats.count == rows
    assert fold._pairs[("f", "p")].scaled.itemsize == 4
    assert peak < 9 * rows


def test_a_pair_past_2_63_takes_bounded_bytes_a_row(tmp_path):
    # One duration past 2**63 at the pair's exponent widens the durations
    # above to a list of Python ints: about 36 B a row (an int and its
    # pointer), where a list of their Decimals took about 116.
    rows = 50_000
    durations = itertools.chain(
        ["12345678901234567890.5"], (f"{100 + i % 997}.{i % 1000:03d}" for i in range(rows - 1))
    )
    fold, summaries, peak = _one_pair_peak(tmp_path, durations)
    assert summaries[("f", "p")].stats.count == rows
    assert type(fold._pairs[("f", "p")].scaled) is list
    assert peak < 48 * rows


# --- calibration ------------------------------------------------------------------


def _summary(mean, count=1, bytes_in=0, bytes_out=0):
    return UsageSummary(
        stats=LatencyStats(count=count, mean=D(mean), min=D(mean), max=D(mean), p90=D(mean)),
        ok_count=count,
        error_count=0,
        bytes_in_total=bytes_in,
        bytes_out_total=bytes_out,
    )


def _workflow():
    return WorkflowSpec(
        workflow_id="w",
        functions=(FunctionProfile(function_id="retrieval"),),
    )


def test_calibrate_sets_latency_entries():
    _, table = calibrate(_workflow(), None, {("retrieval", "aws-x86"): _summary("232")})
    assert table.get("retrieval", "aws-x86") == D(232)


def test_calibrate_converts_mean_bytes_to_decimal_gb():
    calibrated, _ = calibrate(
        _workflow(), None, {("retrieval", "aws-x86"): _summary("1", count=2, bytes_in=2 * 10**9)}
    )
    assert calibrated.functions[0].r_in == D(1)
    assert calibrated.functions[0].r_out == D(0)


def test_calibrate_reports_missing_pairs():
    # A pair with no statistics has no latency entry: looking it up names it.
    _, table = calibrate(_workflow(), None, {("retrieval", "aws-x86"): _summary("232")})
    with pytest.raises(MissingLatencyError) as exc:
        table.get("retrieval", "gcp")
    assert (exc.value.function_id, exc.value.platform_id) == ("retrieval", "gcp")
    assert "gcp" in str(exc.value)


def test_every_calibrated_mean_is_below_the_latency_bound():
    # Ten fractional digits round the mean of the largest durations up to 1e40.
    largest = "9" * 40 + ".9999999999"
    summaries = _summaries(_row(largest), _row(largest))
    _, table = calibrate(
        WorkflowSpec(workflow_id="w", functions=(FunctionProfile("f"),)), None, summaries
    )
    assert table.get("f", "p") == D("1e40") < LATENCY_LIMIT


def test_calibrate_leaves_unmeasured_functions_alone():
    wf = WorkflowSpec(
        workflow_id="w",
        functions=(
            FunctionProfile(function_id="a"),
            FunctionProfile(function_id="b", r_in=D("0.5")),
        ),
    )
    calibrated, _ = calibrate(wf, None, {("a", "x"): _summary("10", count=1, bytes_in=10**9)})
    assert calibrated.function("a").r_in == D(1)
    assert calibrated.function("b").r_in == D("0.5")


def test_calibrate_keeps_the_documents_entries_for_pairs_the_log_lacks():
    document = LatencyTable({("retrieval", "aws-x86"): D(5), ("retrieval", "gcp"): D(7)})
    _, table = calibrate(_workflow(), document, {("retrieval", "aws-x86"): _summary("232")})
    assert table.entries == {("retrieval", "aws-x86"): D(232), ("retrieval", "gcp"): D(7)}


def test_calibrate_rejects_a_log_pair_of_an_undeclared_function():
    with pytest.raises(UnknownFunctionError, match="'ghost'"):
        calibrate(_workflow(), None, {("ghost", "aws-x86"): _summary("100")})
