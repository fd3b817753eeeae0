import csv
import io
import json
import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim.report import box_stats, emit, render, stats_from_dict


class TestBoxStats:
    def test_symmetric_small_set(self):
        s = box_stats([1, 2, 3, 4, 5])
        assert s.median == 3
        assert s.q1 == 2
        assert s.q3 == 4
        assert s.iqr == 2
        assert (s.whisker_low, s.whisker_high) == (1, 5)
        assert s.outliers == ()
        assert s.mean == 3
        assert s.notch_low == pytest.approx(3 - 1.57 * 2 / math.sqrt(5))
        assert s.notch_high == pytest.approx(3 + 1.57 * 2 / math.sqrt(5))

    def test_far_point_is_outlier(self):
        # type-7 by hand: sorted [1,1,1,1,100], q1 = x[1] = 1, q3 = x[3] = 1,
        # iqr 0, whiskers collapse to the quartiles, 100 outside
        s = box_stats([1, 1, 1, 1, 100])
        assert s.q1 == 1 and s.q3 == 1 and s.iqr == 0
        assert s.whisker_low == 1 and s.whisker_high == 1
        assert s.outliers == (100,)

    def test_singleton(self):
        s = box_stats([7])
        assert s.q1 == s.median == s.q3 == 7
        assert s.whisker_low == s.whisker_high == 7
        assert s.outliers == ()

    def test_type7_interpolation(self):
        # [1, 2, 3, 4]: q1 at rank 0.75 -> 1.75, q3 at rank 2.25 -> 3.25
        s = box_stats([4, 2, 1, 3])
        assert s.q1 == pytest.approx(1.75)
        assert s.q3 == pytest.approx(3.25)
        assert s.median == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    def test_permutation_invariance(self):
        a = [9, 1, 4, 4, 7, 2, 100, 3]
        assert box_stats(a) == box_stats(list(reversed(a)))

    def test_invariant_ordering(self):
        s = box_stats([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
        assert s.whisker_low <= s.q1 <= s.median <= s.q3 <= s.whisker_high


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=200))
def test_partition_property(samples):
    s = box_stats(samples)
    inside = [v for v in samples if s.whisker_low <= v <= s.whisker_high]
    assert Counter(inside) + Counter(s.outliers) == Counter(float(v) for v in samples)
    assert s.whisker_low <= s.q1 and s.whisker_high >= s.q3


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0, sys.float_info.max), min_size=1, max_size=50))
def test_fields_stay_finite_up_to_the_float_maximum(samples):
    s = box_stats(samples)
    fields = [v for k, v in vars(s).items() if k not in ("n", "outliers")]
    assert all(map(math.isfinite, fields)), s
    assert s.notch_low <= s.median <= s.notch_high
    # not clamped to -max: the half-notch 1.57 * IQR / sqrt(n) stays finite
    assert s.median - s.notch_low <= 1.6 * (s.iqr / math.sqrt(s.n)) + math.ulp(s.median)


class TestRender:
    GROUPS = [("clean", [1.0, 2.0, 3.0, 4.0, 5.0]), ("noisy", [2.0, 2.5, 3.0, 40.0])]

    def test_json_roundtrips_stats(self):
        doc = json.loads(render(self.GROUPS, "json", include_samples=True))
        assert doc["schema"] == "nsim.boxstats/1"
        assert [g["label"] for g in doc["groups"]] == ["clean", "noisy"]
        for g, (_, samples) in zip(doc["groups"], self.GROUPS):
            back = stats_from_dict(g["stats"])
            assert back == box_stats(samples)
            assert g["samples"] == samples

    def test_csv_has_all_fields(self):
        out = render(self.GROUPS, "csv")
        header = out.splitlines()[0].split(",")
        for field in ("group", "n", "mean", "median", "q1", "q3", "iqr",
                      "whisker_low", "whisker_high", "notch_low", "notch_high",
                      "outliers"):
            assert field in header
        assert len(out.splitlines()) == 3

    @given(st.text(st.sampled_from('ab ,"\n\r'), max_size=12))
    def test_csv_label_reads_back_as_one_field(self, label):
        out = render([(label, [1.0, 2.0, 30.0])], "csv")
        header, row = csv.reader(io.StringIO(out, newline=""))
        assert len(header) == len(row) == 12
        assert row[0] == label
        if not set(label) & set(',"\r\n'):  # a plain label is written as it is
            assert out.split("\n")[1].startswith(label + ",")

    def test_svg_two_groups_two_boxes(self):
        out = render(self.GROUPS, "svg")
        assert out.startswith("<svg")
        assert out.count('class="box"') == 2
        assert 'class="outlier"' in out  # 40.0 sticks out

    def test_svg_log2_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            render([("g", [0.0, 1.0])], "svg", log2_scale=True)

    def test_svg_log2_renders(self):
        out = render([("g", [1.0, 2.0, 4.0, 1024.0])], "svg", log2_scale=True)
        assert out.count('class="box"') == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(self.GROUPS, "pdf")

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            render([], "json")

    def test_emit_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        emit(dict(self.GROUPS), "json", path)
        assert json.loads(path.read_text())["groups"]
