import io
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cosmos import telemetry
from cosmos.errors import CoverageError, HeaderError, NoDataError, RowError
from cosmos.telemetry import (
    USAGE_HEADER,
    LatencyStats,
    UsageFold,
    UsageLog,
    UsageRecord,
    UsageSummary,
    aggregate_stats,
    calibrate,
    parse_usage_log,
    scan_usage_log,
    summarize_usage,
)
from cosmos.workflow import FunctionProfile, WorkflowSpec

D = Decimal


def _log(*rows):
    return io.StringIO("\n".join([USAGE_HEADER, *rows]) + "\n")


def _row(duration, fid="f", pid="p", status="ok", bytes_in=0, bytes_out=0):
    return f"2024-11-04T09:00:00Z,{fid},{pid},{duration},{bytes_in},{bytes_out},{status}"


def _record(duration, fid="f", pid="p", status="ok", bytes_in=0, bytes_out=0):
    import datetime

    return UsageRecord(
        timestamp=datetime.datetime(2024, 11, 4, 9, 0, tzinfo=datetime.timezone.utc),
        function_id=fid,
        platform_id=pid,
        duration_ms=D(duration),
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        status=status,
    )


# --- parsing -----------------------------------------------------------------


def test_parse_well_formed_rows():
    records = parse_usage_log(_log(_row(100), _row(200), _row(300)))
    assert len(records) == 3
    assert [r.duration_ms for r in records] == [D(100), D(200), D(300)]


def test_negative_duration_is_row_error_with_line():
    with pytest.raises(RowError) as exc:
        parse_usage_log(_log(_row(100), _row(-5)))
    assert exc.value.line == 3


def test_empty_body_with_header_is_empty_list():
    assert parse_usage_log(_log()) == []


def test_missing_header_is_header_error():
    with pytest.raises(HeaderError):
        parse_usage_log(io.StringIO("1,2,3\n"))
    with pytest.raises(HeaderError):
        parse_usage_log(io.StringIO(""))


def test_bad_status_and_bad_bytes():
    with pytest.raises(RowError):
        parse_usage_log(_log(_row(1, status="maybe")))
    with pytest.raises(RowError):
        parse_usage_log(_log("2024-11-04T09:00:00Z,f,p,1,xyz,0,ok"))


def test_bad_timestamp():
    with pytest.raises(RowError):
        parse_usage_log(_log("notadate,f,p,1,0,0,ok"))


def test_scan_collects_all_row_errors():
    records, errors = scan_usage_log(_log(_row(1), _row(-1), _row(2), _row(-2)))
    assert len(records) == 2
    assert [e.line for e in errors] == [3, 5]


def test_bundled_sample_parses(fixture_dir):
    records = parse_usage_log(fixture_dir / "sample-usage.csv")
    assert len(records) == 14
    assert sum(1 for r in records if r.status == "error") == 2


# --- aggregation ----------------------------------------------------------------


def test_stats_three_samples():
    stats = aggregate_stats([_record(100), _record(200), _record(300)], "f", "p")
    assert stats == LatencyStats(count=3, mean=D(200), min=D(100), max=D(300), p90=D(300))


def test_p90_nearest_rank_on_ten_samples():
    stats = aggregate_stats([_record(i) for i in range(1, 11)], "f", "p")
    assert stats.p90 == D(9)
    assert stats.count == 10


def test_no_matching_records():
    with pytest.raises(NoDataError):
        aggregate_stats([_record(1, fid="other")], "f", "p")


def test_error_records_never_influence_statistics():
    clean = [_record(100), _record(200), _record(300)]
    noisy = clean + [_record(10**6, status="error"), _record(0, status="error")]
    assert aggregate_stats(clean, "f", "p") == aggregate_stats(noisy, "f", "p")


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50), st.randoms())
def test_permutation_invariance(durations, rnd):
    records = [_record(v) for v in durations]
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert aggregate_stats(records, "f", "p") == aggregate_stats(shuffled, "f", "p")


def test_stats_match_sort_based_oracle():
    rng = random.Random(5)
    for _ in range(100):
        values = [rng.randint(0, 10**5) for _ in range(rng.randint(1, 200))]
        stats = aggregate_stats([_record(v) for v in values], "f", "p")
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
    records = [
        _record(100, fid="a", pid="x"),
        _record(200, fid="a", pid="x"),
        _record(300, fid="a", pid="x", status="error"),
        _record(50, fid="b", pid="y", bytes_in=10**9),
    ]
    summaries = summarize_usage(records)
    assert set(summaries) == {("a", "x"), ("b", "y")}
    assert summaries[("a", "x")].ok_count == 2
    assert summaries[("a", "x")].error_count == 1
    assert summaries[("b", "y")].bytes_in_total == 10**9


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
    and p90 are the duration texts at their ranks of a stable sort in file
    order, so of 1.0 and 1.00 the one that comes first in the log wins a tie."""
    ok: dict = {}
    errors: dict = {}
    for pair, m, k, z, b_in, b_out, status in rows:
        if status == "ok":
            ok.setdefault(pair, []).append((Fraction(m, 10**k), _duration_text(m, k, z), b_in, b_out))
        else:
            errors[pair] = errors.get(pair, 0) + 1
    out = {}
    for pair, items in ok.items():
        ranked = sorted(items, key=lambda item: item[0])
        n = len(ranked)
        out[pair] = (
            n,
            round(sum(v for v, _, _, _ in items) / n * 10**9),  # round() on a Fraction is half-even
            ranked[0][1],
            ranked[-1][1],
            ranked[-((-9 * n) // 10) - 1][1],
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
            s.stats.count,
            s.stats.mean.scaleb(9),
            str(s.stats.min),
            str(s.stats.max),
            str(s.stats.p90),
            s.bytes_in_total,
            s.bytes_out_total,
            s.error_count,
        )
        for pair, s in summaries.items()
    }
    good = [line for line in lines if not isinstance(line, str)]
    assert got == _oracle(good)
    assert all(s.ok_count == s.stats.count for s in summaries.values())
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


_fold_row = st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["x", "y"]),
    st.builds(_duration_text, st.integers(0, 50), st.integers(0, 2), st.integers(0, 2)).map(D),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(["ok", "ok", "error"]),
)


@given(st.lists(_fold_row, max_size=40), st.data())
def test_fold_is_invariant_under_permutation_and_split_merge(rows, data):
    expected = _fold(rows).summaries()
    shuffled = data.draw(st.permutations(rows))
    assert _fold(shuffled).summaries() == expected
    cut = data.draw(st.integers(0, len(rows)))
    head, tail = shuffled[:cut], shuffled[cut:]
    assert _fold(head).merge(_fold(tail)).summaries() == expected
    assert _fold(tail).merge(_fold(head)).summaries() == expected
    # A merge summarizes exactly as one fold of both parts in turn, down to
    # which of two equal durations written differently is reported.
    assert repr(_fold(head).merge(_fold(tail)).summaries()) == repr(_fold(shuffled).summaries())


def test_merge_reports_equal_durations_in_the_order_of_one_fold():
    first = _fold([("f", "p", D("1.0"), 0, 0, "ok"), ("f", "p", D("2"), 0, 0, "ok")])
    second = _fold([("f", "p", D("1.00"), 0, 0, "ok"), ("f", "p", D("2.0"), 0, 0, "ok")])
    stats = first.merge(second).summaries()[("f", "p")].stats
    assert (str(stats.min), str(stats.max), str(stats.p90)) == ("1.0", "2.0", "2.0")


def test_mean_sum_is_exact_beyond_28_digits():
    # 1e20 + 3e-9 needs 30 digits; the mean 5e19 + 1.5e-9 then rounds half-even.
    stats = aggregate_stats([_record("1e20"), _record("0.000000003")], "f", "p")
    assert stats.mean == D("50000000000000000000.000000002")


def test_summarize_accepts_a_one_shot_generator():
    records = [_record(100), _record(300, fid="g"), _record(200), _record(5, status="error")]
    assert summarize_usage(r for r in records) == summarize_usage(records)
    assert summarize_usage(r for r in records)[("f", "p")].error_count == 1


def test_usage_log_keeps_only_the_first_row_errors():
    lines = (_row(1), _row(-1), _row(-2), _row(2), _row(-3), "", _row(-4))
    log = UsageLog(_log(*lines), keep_errors=2)
    with pytest.raises(RowError) as info:
        summarize_usage(log)
    assert info.value.line == 3
    assert [e.line for e in log.errors] == [3, 4]
    assert log.error_count == 4
    assert log.rows == 6
    assert UsageLog(_log(*lines)).fold().summaries()[("f", "p")].stats.count == 2
    with pytest.raises(ValueError):
        UsageLog(_log(_row(1)), keep_errors=0)


def test_malformed_rows_are_reported_before_any_statistic(monkeypatch):
    def unsummarized(_pair):
        raise AssertionError("a statistic was computed from a log with malformed rows")

    monkeypatch.setattr(telemetry._Pair, "summary", unsummarized)
    log = UsageLog(_log(_row(100), _row(-1)))
    with pytest.raises(RowError) as info:
        summarize_usage(log)
    assert info.value.line == 3


def test_duration_bound_keeps_the_mean_within_context_precision():
    # 1e40 is 10 ** (money.CONTEXT.prec + MEAN_QUANTUM.adjusted() - 1).
    largest = "9" * 40 + ".999999999"
    stats = summarize_usage(UsageLog(_log(_row(largest), _row(largest))))[("f", "p")].stats
    assert stats.mean == stats.max == D(largest)
    for rejected in ("1e40", "1e100"):
        log = UsageLog(_log(_row(1), _row(rejected)))
        with pytest.raises(RowError) as info:
            summarize_usage(log)
        assert str(info.value) == f"row 3: duration_ms must be < 1E+40, got {rejected!r}"


def test_oversized_field_is_a_row_error_and_the_scan_goes_on():
    huge = "f" * 200_000
    records, errors = scan_usage_log(_log(_row(1), _row(2, fid=huge), _row(-1), _row(3)))
    assert [r.duration_ms for r in records] == [D(1), D(3)]
    assert [str(e) for e in errors] == [
        "row 3: field larger than field limit (131072)",
        "row 4: duration_ms must be finite and >= 0, got '-1'",
    ]


def test_oversized_header_field_is_a_header_error():
    with pytest.raises(HeaderError, match="field larger than field limit"):
        parse_usage_log(io.StringIO("t" * 200_000 + USAGE_HEADER[9:] + "\n" + _row(1) + "\n"))


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
    # One Decimal (104 B) and a list slot per ok row; a UsageRecord per row
    # (scan_usage_log, then summarize_usage) peaks near 21 MB here.
    assert peak < 8_000_000


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
    _, table = calibrate(_workflow(), {("retrieval", "aws-x86"): _summary("232")})
    assert table.get("retrieval", "aws-x86") == D(232)


def test_calibrate_converts_mean_bytes_to_decimal_gb():
    calibrated, _ = calibrate(
        _workflow(), {("retrieval", "aws-x86"): _summary("1", count=2, bytes_in=2 * 10**9)}
    )
    assert calibrated.functions[0].r_in == D(1)
    assert calibrated.functions[0].r_out == D(0)


def test_calibrate_reports_missing_pairs():
    with pytest.raises(CoverageError) as exc:
        calibrate(
            _workflow(),
            {("retrieval", "aws-x86"): _summary("232")},
            required_pairs=[("retrieval", "aws-x86"), ("retrieval", "gcp")],
        )
    assert exc.value.missing == (("retrieval", "gcp"),)
    assert "gcp" in str(exc.value)


def test_calibrate_leaves_unmeasured_functions_alone():
    wf = WorkflowSpec(
        workflow_id="w",
        functions=(
            FunctionProfile(function_id="a"),
            FunctionProfile(function_id="b", r_in=D("0.5")),
        ),
    )
    calibrated, _ = calibrate(wf, {("a", "x"): _summary("10", count=1, bytes_in=10**9)})
    assert calibrated.function("a").r_in == D(1)
    assert calibrated.function("b").r_in == D("0.5")
