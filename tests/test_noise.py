import base64
import dataclasses
import json
import math
import pickle
import struct
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsim import noise
from nsim.model import DetourTrace, EmpiricalDistribution
from nsim.noise import (
    SampleTrace,
    TraceFormatError,
    bandwidth_from_rtt,
    build_distribution,
    load_detour_trace,
    load_distribution,
    load_trace,
    format_trace,
    normalize_max,
    normalize_min,
    parse_detour_trace,
    parse_trace,
    save_detour_trace,
    save_distribution,
    save_trace,
    top_fraction,
)


class TestLoadTrace:
    def test_headerless_two_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,1190\n1000,1200\n")
        t = load_trace(p, "ns")
        assert len(t) == 2
        assert t.rows == ((0, 1190.0), (1000, 1200.0))

    def test_canonical_three_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp_ns,value,unit\n0,1.5,gbps\n10,2.5,gbps\n")
        t = load_trace(p, "gbps")
        assert t.values == (1.5, 2.5)

    def test_header_only_is_empty_trace_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp_ns,value,unit\n")
        with pytest.raises(TraceFormatError, match="no samples"):
            load_trace(p, "ns")

    def test_non_monotone_timestamps_report_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("timestamp_ns,value,unit\n0,1,ns\n5,1,ns\n3,1,ns\n")
        with pytest.raises(TraceFormatError) as err:
            load_trace(p, "ns")
        assert err.value.line == 4

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,1\nxx,2\n")
        with pytest.raises(TraceFormatError) as err:
            load_trace(p, "ns")
        assert err.value.line == 2

    def test_unit_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,1,gbps\n")
        with pytest.raises(TraceFormatError, match="unit"):
            load_trace(p, "ns")

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# provenance note\n0,5\n# middle\n7,5\n")
        assert len(load_trace(p, "ns")) == 2

    def test_nonpositive_latency_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,0\n")
        with pytest.raises(TraceFormatError):
            load_trace(p, "ns")

    def test_timestamp_beyond_int64_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(f"0,5\n{2**63},5\n")
        with pytest.raises(TraceFormatError, match="64-bit") as err:
            load_trace(p, "ns")
        assert err.value.line == 2
        with pytest.raises(ValueError, match="64-bit"):
            SampleTrace(((0, 5.0), (2**63, 5.0)), "ns")

    def test_roundtrip_via_save(self, tmp_path):
        t = SampleTrace(((0, 1.5), (3, 2.0), (9, 2.0)), "gbps")
        p = tmp_path / "t.csv"
        save_trace(t, p, comments=["loopback session"])
        assert load_trace(p, "gbps") == t


class TestBuildDistribution:
    def test_sorts_values(self):
        t = SampleTrace(((0, 3.0), (1, 1.0), (2, 2.0)), "ns")
        assert build_distribution(t).samples == (1.0, 2.0, 3.0)

    def test_min_preserved(self):
        t = SampleTrace(((0, 3.0), (1, 0.5)), "ns")
        assert build_distribution(t).samples[0] == 0.5

    def test_multiset_bijection(self):
        values = [5.0, 1.0, 5.0, 2.0, 1.0]
        t = SampleTrace(tuple((i, v) for i, v in enumerate(values)), "ns")
        assert Counter(build_distribution(t).samples) == Counter(values)

    def test_ratio_traces_rejected(self):
        t = SampleTrace(((0, 1.0),), "ratio")
        with pytest.raises(ValueError):
            build_distribution(t)


class TestNormalize:
    def test_normalize_min(self):
        t = SampleTrace(((0, 1500.0), (1, 3000.0)), "ns")
        out = normalize_min(t)
        assert out.values == (1.0, 2.0)
        assert out.unit == "ratio"

    def test_normalize_min_singleton_and_constant(self):
        assert normalize_min(SampleTrace(((0, 42.0),), "ns")).values == (1.0,)
        t = SampleTrace(((0, 7.0), (1, 7.0)), "ns")
        assert normalize_min(t).values == (1.0, 1.0)

    def test_normalize_max(self):
        t = SampleTrace(((0, 50.0), (1, 100.0)), "gbps")
        assert normalize_max(t).values == (0.5, 1.0)

    def test_max_of_result_is_one(self):
        t = SampleTrace(tuple((i, float(v)) for i, v in enumerate([3, 9, 4, 9])), "gbps")
        assert max(normalize_max(t).values) == 1.0

    def test_min_of_result_is_one(self):
        t = SampleTrace(tuple((i, float(v)) for i, v in enumerate([13, 9, 24])), "ns")
        assert min(normalize_min(t).values) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_max(SampleTrace((), "gbps"))


class TestTopFraction:
    def make(self, values, unit="ns"):
        return SampleTrace(tuple((i, float(v)) for i, v in enumerate(values)), unit)

    def test_one_percent_of_1000(self):
        t = self.make(range(1, 1001))
        out = top_fraction(t, 0.01, "largest")
        assert len(out) == 10
        assert set(out.values) == set(float(v) for v in range(991, 1001))

    def test_frac_one_is_identity(self):
        t = self.make([5, 3, 8])
        assert top_fraction(t, 1.0, "largest") == t

    def test_ceil_keeps_at_least_one(self):
        t = self.make([1, 2, 3, 4, 5])
        out = top_fraction(t, 0.001, "largest")
        assert len(out) == 1
        assert out.values == (5.0,)

    def test_smallest_side(self):
        t = self.make([10, 1, 5, 2])
        out = top_fraction(t, 0.5, "smallest")
        assert set(out.values) == {1.0, 2.0}

    def test_timestamp_order_preserved(self):
        t = self.make([5, 9, 1, 9, 7])
        out = top_fraction(t, 0.6, "largest")
        assert list(out.timestamps) == sorted(out.timestamps)

    def test_boundary_ties_take_earlier_timestamp(self):
        t = self.make([4, 4, 4])
        out = top_fraction(t, 1 / 3, "largest")
        assert out.rows == ((0, 4.0),)

    def test_partition_and_extremity(self):
        values = [3, 14, 15, 9, 2, 6, 5, 35, 8]
        t = self.make(values)
        kept = top_fraction(t, 0.4, "largest")
        kept_counter = Counter(kept.values)
        rest = Counter(t.values) - kept_counter
        assert kept_counter + rest == Counter(t.values)
        assert min(kept.values) >= max(rest.elements())

    def test_large_trace_builds_the_row_view_once(self, monkeypatch):
        # rows is rebuilt from the columns on every access; reading it once
        # per kept sample would make a 10^5-row trace quadratic. Reading the
        # columns, top_fraction builds it not at all.
        n = 100_000
        t = self.make([(i * 7919) % n + 1 for i in range(n)])
        builds = []
        view = SampleTrace.rows.fget

        def counting_rows(trace):
            builds.append(1)
            return view(trace)

        monkeypatch.setattr(SampleTrace, "rows", property(counting_rows))
        out = top_fraction(t, 0.5, "largest")
        assert len(builds) <= 1
        assert len(out) == n // 2
        assert min(out.values) == n // 2 + 1

    def test_bad_frac(self):
        t = self.make([1])
        for frac in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                top_fraction(t, frac, "largest")


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(0.001, 1e6), min_size=1, max_size=50),
    frac=st.floats(0.01, 1.0),
    side=st.sampled_from(["largest", "smallest"]),
)
def test_top_fraction_partition_property(values, frac, side):
    t = SampleTrace(tuple((i, v) for i, v in enumerate(values)), "ns")
    kept = top_fraction(t, frac, side)
    assert len(kept) == math.ceil(frac * len(values))
    assert Counter(kept.values) - Counter(t.values) == Counter()
    discarded = Counter(t.values) - Counter(kept.values)
    if discarded and side == "largest":
        assert min(kept.values) >= max(discarded.elements())
    if discarded and side == "smallest":
        assert max(kept.values) <= min(discarded.elements())


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.integers(0, 2), min_size=1, max_size=40),
    data=st.data(),
    frac=st.floats(0.0, 1.0, exclude_min=True),
    side=st.sampled_from(["largest", "smallest"]),
)
def test_top_fraction_matches_documented_tie_rule(steps, data, frac, side):
    # Ratio traces with ties, both zeros and repeated timestamps.
    values = data.draw(st.lists(
        st.sampled_from((-2.0, -0.0, 0.0, 1.0, 3.5)) | st.floats(-1e3, 1e3),
        min_size=len(steps), max_size=len(steps)))
    t = SampleTrace(zip(accumulate(steps), values), "ratio")
    assert top_fraction(t, frac, side) == oracles.top_fraction(t, frac, side)


class TestBandwidthFromRtt:
    def test_16mib_case(self):
        got = bandwidth_from_rtt(16 * 2**20, 1_398_000)
        assert got == pytest.approx(8 * 16 * 2**20 / 1.398e6, rel=1e-12)
        assert got == pytest.approx(96.0, abs=0.05)

    def test_one_byte(self):
        assert bandwidth_from_rtt(1, 8) == 1.0

    def test_halving_time_doubles_rate(self):
        assert bandwidth_from_rtt(1000, 500) == 2 * bandwidth_from_rtt(1000, 1000)

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_from_rtt(1, 0)


class TestDetourTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = DetourTrace(((10, 5), (100, 40)), span=1000)
        p = tmp_path / "detour.csv"
        save_detour_trace(trace, p)
        assert load_detour_trace(p) == trace

    def test_span_defaults_to_last_event_end(self, tmp_path):
        p = tmp_path / "detour.csv"
        p.write_text("timestamp_ns,value,unit\n10,5,ns\n100,40,ns\n")
        assert load_detour_trace(p).span == 140

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "detour.csv"
        p.write_text("timestamp_ns,value,unit\n")
        with pytest.raises(TraceFormatError):
            load_detour_trace(p)

    def test_span_not_a_number_names_comment_and_value(self, tmp_path):
        p = tmp_path / "detour.csv"
        p.write_text("timestamp_ns,value,unit\n# span_ns=abc\n10,5,ns\n")
        with pytest.raises(TraceFormatError, match=r"line 2: '# span_ns=' .* got 'abc'"):
            load_detour_trace(p)

    def test_second_span_comment_rejected(self, tmp_path):
        # The second comment used to win silently, shortening the replay window.
        p = tmp_path / "detour.csv"
        p.write_text("# span_ns=1000\ntimestamp_ns,value,unit\n10,5,ns\n# span_ns=50\n")
        with pytest.raises(TraceFormatError) as info:
            load_detour_trace(p)
        assert str(info.value) == "line 4: a second '# span_ns=' comment (the first is on line 1)"
        assert info.value.line == 4


_POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                             allow_subnormal=True)


class TestDistributionIO:
    def test_roundtrip(self, tmp_path):
        t = SampleTrace(((0, 5.0), (1, 3.0)), "gbps")
        dist = build_distribution(t)
        p = tmp_path / "d.json"
        save_distribution(dist, p)
        assert load_distribution(p) == dist

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_POSITIVE_FLOATS, min_size=1, max_size=40),
           repeats=st.integers(0, 3), unit=st.sampled_from(["ns", "gbps", "ns_per_byte"]))
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, values, repeats, unit):
        dist = EmpiricalDistribution(sorted(values + values[:1] * repeats), unit)
        p = tmp_path_factory.getbasetemp() / "roundtrip.json"
        save_distribution(dist, p)
        back = load_distribution(p)
        assert back == dist and back._samples.tobytes() == dist._samples.tobytes()

    def test_document_is_one_line_of_little_endian_binary64(self):
        samples = (5e-324, 1.0, 1.0, 7000.5)
        text = noise.format_distribution(EmpiricalDistribution(samples, "ns"))
        assert text.count("\n") == 1 and text.endswith("\n")
        doc = json.loads(text)
        assert doc.keys() == {"schema", "unit", "count", "samples_f64le"}
        assert (doc["schema"], doc["unit"], doc["count"]) == ("nsim.dist/2", "ns", 4)
        raw = base64.b64decode(doc["samples_f64le"], validate=True)
        assert struct.unpack("<4d", raw) == samples


# ---------------------------------------------------------------------------
# The chunked reader against the row-by-row reader in tests/oracles.py

_UNITS = ("ns", "gbps", "ratio")
_PAD = st.sampled_from(["", "", " ", "\t", "  ", "\xa0"])
_FAULTS = ("bad_int", "bad_float", "non_finite", "wrong_unit", "one_field", "four_fields",
           "decrease", "non_positive", "beyond_int64", "second_header")


@st.composite
def trace_csv(draw, unit, detour=False):
    """Trace CSV text with comments, blank lines, padding, CRLF, 2- and 3-field
    rows, a header anywhere or none, and at most one deliberate fault; a detour
    trace may hold up to two span comments."""
    n = draw(st.integers(0, 14))
    width = draw(st.sampled_from([2, 3, None]))  # None: each row picks
    ts = draw(st.integers(-5, 10**6))
    rows = []
    for _ in range(n):
        ts += draw(st.integers(0, 3000) if detour else st.integers(0, 1000))
        value = draw(st.floats(1.0, 1e6) if detour else st.floats(1e-3, 1e6))
        rows.append([
            draw(st.sampled_from([str(ts), f"+{ts}", f"{ts:_}"])),
            draw(st.sampled_from([repr(value), f"{value:.1f}", f"{value:.3e}"])),
        ] + ([unit] if (width or draw(st.sampled_from([2, 3]))) == 3 else []))
    fault = draw(st.sampled_from((None,) + _FAULTS)) if rows else None
    if detour and fault in ("decrease", "beyond_int64"):
        fault = None  # not reader faults for a detour trace
    i = draw(st.integers(0, len(rows) - 1)) if rows else 0
    if fault == "bad_int":
        rows[i][0] = draw(st.sampled_from(["x12", "1.5", "", "12a"]))
    elif fault == "bad_float":
        rows[i][1] = draw(st.sampled_from(["abc", "", "1x", "1.5.2"]))
    elif fault == "non_finite":
        rows[i][1] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    elif fault == "wrong_unit":
        rows[i][2:] = [draw(st.sampled_from([u for u in _UNITS if u != unit] + ["NS"]))]
    elif fault == "one_field":
        rows[i] = rows[i][:1]
    elif fault == "four_fields":
        rows[i] = rows[i][:2] + [unit, "x"]
    elif fault == "decrease" and i > 0:
        rows[i][0] = str(int(rows[i - 1][0].replace("_", "")) - draw(st.integers(1, 5)))
    elif fault == "non_positive":
        rows[i][1] = draw(st.sampled_from(["0", "-1.5", "0.0", "-0"]))
    elif fault == "beyond_int64":
        rows[i][0] = str(2**63 + draw(st.integers(0, 5)))
    lines = [",".join(draw(_PAD) + f + draw(_PAD) for f in row) for row in rows]
    header = "timestamp_ns,value,unit"
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), header)
        if fault == "second_header":
            lines.insert(draw(st.integers(lines.index(header) + 1, len(lines))), header)
    for extra in draw(st.lists(st.sampled_from(["# note", "#a,b,c", "", "   ", "# x"]),
                               max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    # a second span comment, like "abc", is a fault of its own: only in a trace without one
    spans = draw(st.sampled_from([0, 1] if fault else [0, 1, 1, 2])) if detour else 0
    for _ in range(spans):
        span = "abc" if draw(st.integers(0, 5)) == 0 and fault is None else str(ts + 10**6)
        lines.insert(draw(st.integers(0, len(lines))), f"# span_ns={span}")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(read):
    try:
        return "ok", repr(read())
    except TraceFormatError as exc:
        return "TraceFormatError", str(exc), exc.line
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), unit=st.sampled_from(_UNITS), chunk=st.integers(1, 64))
def test_parse_trace_matches_row_by_row_reader(data, unit, chunk):
    # a budget of a few characters puts a chunk boundary after nearly every line
    text = data.draw(trace_csv(unit))
    expected = _outcome(lambda: oracles.parse_trace(text, unit))
    with mock.patch.object(noise, "_CHUNK_CHARS", chunk):
        assert _outcome(lambda: parse_trace(text, unit)) == expected
    assert _outcome(lambda: parse_trace(text, unit)) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), chunk=st.integers(1, 64))
def test_load_detour_trace_matches_row_by_row_reader(tmp_path_factory, data, chunk):
    path = tmp_path_factory.mktemp("detour") / "detour.csv"
    path.write_text(data.draw(trace_csv("ns", detour=True)), encoding="utf-8")
    expected = _outcome(lambda: oracles.load_detour_trace(path))
    # read_text turns "\r\n" into "\n"; `sim run` parses the decoded bytes,
    # which keep it
    decoded = path.read_bytes().decode("utf-8")
    with mock.patch.object(noise, "_CHUNK_CHARS", chunk):
        assert _outcome(lambda: load_detour_trace(path)) == expected
        assert _outcome(lambda: parse_detour_trace(decoded)) == expected


def _synthetic_trace(rows: int) -> str:
    lines = ["# latency, one host pair", "timestamp_ns,value,unit"]
    lines += [f"{i * 8000},{7000 + (i * 7919) % 4000 / 10},ns" for i in range(rows)]
    return "\n".join(lines) + "\n"


def _peak_bytes(read, text):
    tracemalloc.start()
    try:
        read(text, "ns")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_reader_memory_stays_below_row_by_row_reader():
    # The row-by-row reader holds the list of all lines; the chunked reader
    # holds one chunk's lines and fields besides the two columns. Converting
    # the whole file at once would hold every field string: about 3x more.
    text = _synthetic_trace(200_000)
    chunked = _peak_bytes(parse_trace, text)
    row_by_row = _peak_bytes(oracles.parse_trace, text)
    assert chunked <= row_by_row, (chunked, row_by_row)


def test_trace_dist_leaves_numpy_unloaded(tmp_path):
    trace = tmp_path / "lat.csv"
    trace.write_text(_synthetic_trace(100), encoding="utf-8")
    code = ("import sys\n"
            "from nsim.cli import cli\n"
            f"cli(['trace', 'dist', '--in', {str(trace)!r}, '--out', {str(tmp_path / 'd.json')!r}],"
            " standalone_mode=False)\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert load_distribution(tmp_path / "d.json").count == 100


def test_normalize_and_top_write_the_same_bytes_as_row_built_traces():
    t = SampleTrace(tuple((i, float((i * 37) % 11 + 1)) for i in range(50)), "ns")
    lo, hi = min(t.values), max(t.values)
    assert format_trace(normalize_min(t)) == format_trace(
        SampleTrace(tuple((ts, v / lo) for ts, v in t.rows), "ratio"))
    assert format_trace(normalize_max(t)) == format_trace(
        SampleTrace(tuple((ts, v / hi) for ts, v in t.rows), "ratio"))
    kept = top_fraction(t, 0.3, "smallest")
    assert format_trace(kept) == format_trace(SampleTrace(kept.rows, "ns"))


class TestDistributionChecks:
    """build_distribution skips the checks its trace already passed; the public
    ways to make a distribution keep all of them."""

    def test_build_matches_checked_constructor(self):
        values = [5.0, 1.0, 5.0, 2.5, 1.0]
        t = SampleTrace(tuple(enumerate(values)), "gbps")
        assert build_distribution(t) == EmpiricalDistribution.from_values(values, "gbps")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_trace_refuses_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SampleTrace(((0, 1.0), (1, bad)), "ratio")

    @pytest.mark.parametrize("value", ["12", "x", True, None, b"5"])
    def test_trace_refuses_a_value_that_is_not_a_number(self, value):
        with pytest.raises(ValueError, match=r"^row 1: value .+ is not a number$"):
            SampleTrace(((0, 12), (1, value)), "ns")

    def test_trace_takes_an_int_value_as_a_float(self):
        assert SampleTrace(((0, 12), (1, 2.5)), "ns").rows == ((0, 12.0), (1, 2.5))

    @pytest.mark.parametrize("ts", [1.7, 2.0, "12", True, math.inf, math.nan])
    def test_trace_refuses_a_timestamp_that_is_not_an_int(self, ts):
        with pytest.raises(ValueError, match=r"^row 1: timestamp .+ is not an integer$"):
            SampleTrace(((0, 1.0), (ts, 5.0)), "ns")

    @pytest.mark.parametrize("samples, unit, match", [
        ((1.0, math.nan), "ns", "finite"),
        ((2.0, 1.0), "ns", "sorted"),
        ((0.0, 1.0), "ns", "> 0"),
        ((-1.0, 5.0), "gbps", "> 0"),
    ])
    def test_public_constructors_refuse(self, tmp_path, samples, unit, match):
        with pytest.raises(ValueError, match=match):
            EmpiricalDistribution(samples, unit)
        if match != "sorted":
            with pytest.raises(ValueError, match=match):
                EmpiricalDistribution.from_values(reversed(samples), unit)
        p = tmp_path / "d.json"
        save_distribution(EmpiricalDistribution._from_sorted(array("d", samples), unit), p)
        with pytest.raises(ValueError, match=match):
            load_distribution(p)


@pytest.mark.parametrize("make", [
    lambda unit="ns": EmpiricalDistribution((1.0, 2.5, 2.5, 7.0), unit),
    lambda unit="ns": SampleTrace(((0, 1.5), (3, 2.0), (3, 9.0)), unit),
    lambda unit="ratio": SampleTrace((), unit),
], ids=["distribution", "trace", "empty_trace"])
class TestNoiseValues:
    """Both noise inputs are frozen, slotted dataclasses with checking constructors."""

    def test_pickle_round_trip(self, make):
        value = make()
        copy = pickle.loads(pickle.dumps(value))
        assert copy is not value and type(copy) is type(value)
        assert copy == value and hash(copy) == hash(value) and repr(copy) == repr(value)

    def test_equal_and_hash_follow_columns_and_unit(self, make):
        assert make() == make() and hash(make()) == hash(make())
        assert make() != make("gbps")

    def test_assignment_refused(self, make):
        value = make()
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="^cannot assign to field 'unit'$"):
            value.unit = "gbps"
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="^cannot assign to field 'foo'$"):
            value.foo = 1
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="^cannot delete field 'foo'$"):
            del value.foo
        assert value == make() and not hasattr(value, "__dict__")
