"""Boxplot-grade statistics over repeated runs and CSV/JSON/SVG emission.

Conventions are fixed so figures are reproducible: quartiles use linear
interpolation between order statistics (the "type-7" rule), the whiskers are
the smallest sample > Q1 - 1.5*IQR and the largest sample < Q3 + 1.5*IQR
(falling back to Q1/Q3 when no sample qualifies), samples outside the whiskers
are outliers, and the notch is the McGill median confidence interval
median +- 1.57 * IQR / sqrt(n), clamped to the float range.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["BoxStats", "box_stats", "render", "emit"]

_STATS_SCHEMA = "nsim.boxstats/1"


@dataclass(frozen=True)
class BoxStats:
    n: int
    mean: float
    median: float
    q1: float
    q3: float
    iqr: float
    whisker_low: float
    whisker_high: float
    notch_low: float
    notch_high: float
    outliers: tuple[float, ...]


def _quantile(sorted_values: Sequence[float], p: float) -> float:
    # type-7: linear interpolation at rank p*(n-1)
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    pos = p * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo])


def box_stats(samples: Sequence[float]) -> BoxStats:
    """Boxplot components of a sample set; requires n >= 1."""
    n = len(samples)
    if n < 1:
        raise ValueError("box_stats needs at least one sample")
    xs = sorted(float(v) for v in samples)
    try:
        mean = math.fsum(xs) / n
    except OverflowError:  # the sum passed the float maximum; the mean is <= xs[-1]
        # terms of at most max / 2n keep every partial sum of fsum finite
        mean = min(2 * math.fsum(x / (2 * n) for x in xs), xs[-1])
    q1 = _quantile(xs, 0.25)
    median = _quantile(xs, 0.50)
    q3 = _quantile(xs, 0.75)
    iqr = q3 - q1
    lo_bound = q1 - 1.5 * iqr
    hi_bound = q3 + 1.5 * iqr
    in_lo = [v for v in xs if v > lo_bound]
    in_hi = [v for v in xs if v < hi_bound]
    whisker_low = min(in_lo) if in_lo and min(in_lo) <= q1 else q1
    whisker_high = max(in_hi) if in_hi and max(in_hi) >= q3 else q3
    outliers = tuple(v for v in xs if v < whisker_low or v > whisker_high)
    half_notch = 1.57 * iqr / math.sqrt(n)
    if math.isinf(half_notch):  # 1.57 * iqr alone passed the float maximum
        half_notch = 1.57 * (iqr / math.sqrt(n))
    top = sys.float_info.max
    return BoxStats(
        n=n,
        mean=mean,
        median=median,
        q1=q1,
        q3=q3,
        iqr=iqr,
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        notch_low=max(median - half_notch, -top),
        notch_high=min(median + half_notch, top),
        outliers=outliers,
    )


def _as_groups(groups) -> list[tuple[str, list[float]]]:
    if isinstance(groups, Mapping):
        pairs = list(groups.items())
    else:
        pairs = list(groups)
    if not pairs:
        raise ValueError("no groups to report")
    return [(str(label), [float(v) for v in samples]) for label, samples in pairs]


def render(
    groups,
    format: str,
    *,
    include_samples: bool = False,
    log2_scale: bool = False,
    title: str | None = None,
) -> str:
    """Render group -> samples into csv, json or svg text.

    ``groups`` is a mapping or a sequence of (label, samples) pairs; order is
    preserved. include_samples adds the raw samples to csv/json output.
    """
    pairs = _as_groups(groups)
    if format == "csv":
        return _render_csv(pairs, include_samples)
    if format == "json":
        return _render_json(pairs, include_samples)
    if format == "svg":
        return _render_svg(pairs, log2_scale, title)
    raise ValueError(f"unknown report format {format!r} (want csv, json or svg)")


def emit(groups, format: str, path: str | Path, **kwargs) -> None:
    """Render and write to ``path``; see render() for options."""
    Path(path).write_text(render(groups, format, **kwargs), encoding="utf-8")


_CSV_FIELDS = (
    "n", "mean", "median", "q1", "q3", "iqr",
    "whisker_low", "whisker_high", "notch_low", "notch_high",
)


def _render_csv(pairs, include_samples: bool) -> str:
    header = ["group", *(_CSV_FIELDS), "outliers"]
    if include_samples:
        header.append("samples")
    lines = [",".join(header)]
    for label, samples in pairs:
        stats = box_stats(samples)
        if any(c in label for c in ',"\r\n'):  # quoted as RFC 4180 asks
            label = '"' + label.replace('"', '""') + '"'
        row = [label]
        row.extend(repr(getattr(stats, f)) for f in _CSV_FIELDS)
        row.append('"' + " ".join(repr(v) for v in stats.outliers) + '"')
        if include_samples:
            row.append('"' + " ".join(repr(v) for v in samples) + '"')
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _render_json(pairs, include_samples: bool) -> str:
    out = []
    for label, samples in pairs:
        stats = box_stats(samples)
        entry: dict[str, object] = {"label": label, "stats": _stats_dict(stats)}
        if include_samples:
            entry["samples"] = list(samples)
        out.append(entry)
    return json.dumps({"schema": _STATS_SCHEMA, "groups": out}, indent=2,
                      allow_nan=False) + "\n"


def _stats_dict(stats: BoxStats) -> dict:
    d = asdict(stats)
    d["outliers"] = list(stats.outliers)
    return d


def stats_from_dict(d: Mapping) -> BoxStats:
    """Inverse of the JSON stats encoding."""
    return BoxStats(**{**d, "outliers": tuple(d["outliers"])})


# ---------------------------------------------------------------------------
# SVG

_W_PER_GROUP = 110
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 90, 20, 40, 60
_PLOT_H = 380


def _render_svg(pairs, log2_scale: bool, title: str | None) -> str:
    stats = [(label, box_stats(samples)) for label, samples in pairs]
    values: list[float] = []
    for _, s in stats:
        values.extend((s.whisker_low, s.whisker_high, *s.outliers))
    if log2_scale:
        if min(values) <= 0:
            raise ValueError("log2 scale requires strictly positive values")
        tx = math.log2
        fmt = lambda t: _fmt_number(2.0 ** t)
        top = math.nextafter(1024.0, 0.0)  # the largest t whose 2**t is a float
    else:
        tx = float
        fmt = _fmt_number
        top = sys.float_info.max
    lo = min(tx(v) for v in values)
    hi = max(tx(v) for v in values)
    if hi == lo:
        # lo + 1 is lo itself from 2**53 up
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    # pad by 5% of the length; halves keep the length itself a finite float
    pad = 0.1 * (hi / 2 - lo / 2)
    lo = max(lo - pad, -top)
    hi = min(hi + pad, top)
    half_length = hi / 2 - lo / 2

    width = _MARGIN_L + _W_PER_GROUP * len(stats) + _MARGIN_R
    height = _MARGIN_T + _PLOT_H + _MARGIN_B

    def y(v: float) -> float:
        # derived marks (notches) can fall outside the data range, even below
        # 0 on a log axis; clamp them to the plot frame
        if log2_scale and v <= 0:
            tv = lo
        else:
            tv = min(max(tx(v), lo), hi)
        return _MARGIN_T + _PLOT_H * ((hi / 2 - tv / 2) / half_length)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{_esc(title)}</text>')
    # y axis with 6 ticks
    axis_x = _MARGIN_L - 10
    parts.append(f'<line x1="{axis_x}" y1="{_MARGIN_T}" x2="{axis_x}" '
                 f'y2="{_MARGIN_T + _PLOT_H}" stroke="black"/>')
    for i in range(6):
        w = i / 5
        t = lo * (1 - w) + hi * w
        yy = _MARGIN_T + _PLOT_H * (1 - w)
        parts.append(f'<line x1="{axis_x - 4}" y1="{yy:.1f}" x2="{axis_x}" y2="{yy:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{axis_x - 8}" y="{yy + 4:.1f}" text-anchor="end">'
                     f'{fmt(t)}</text>')
    for gi, (label, s) in enumerate(stats):
        cx = _MARGIN_L + _W_PER_GROUP * gi + _W_PER_GROUP / 2
        half = 28
        parts.append(_box_svg(cx, half, s, y))
        parts.append(f'<text x="{cx:.1f}" y="{_MARGIN_T + _PLOT_H + 20}" '
                     f'text-anchor="middle">{_esc(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _box_svg(cx: float, half: float, s: BoxStats, y) -> str:
    e = []
    # whiskers and caps
    e.append(f'<line x1="{cx:.1f}" y1="{y(s.whisker_low):.1f}" x2="{cx:.1f}" '
             f'y2="{y(s.q1):.1f}" stroke="black"/>')
    e.append(f'<line x1="{cx:.1f}" y1="{y(s.q3):.1f}" x2="{cx:.1f}" '
             f'y2="{y(s.whisker_high):.1f}" stroke="black"/>')
    for wv in (s.whisker_low, s.whisker_high):
        e.append(f'<line x1="{cx - half / 2:.1f}" y1="{y(wv):.1f}" '
                 f'x2="{cx + half / 2:.1f}" y2="{y(wv):.1f}" stroke="black"/>')
    # box
    e.append(f'<rect class="box" x="{cx - half:.1f}" y="{y(s.q3):.1f}" width="{2 * half:.1f}" '
             f'height="{abs(y(s.q1) - y(s.q3)):.1f}" fill="#cfe2f3" stroke="black"/>')
    # notch ticks
    for nv in (s.notch_low, s.notch_high):
        e.append(f'<line x1="{cx - half:.1f}" y1="{y(nv):.1f}" x2="{cx + half:.1f}" '
                 f'y2="{y(nv):.1f}" stroke="black" stroke-dasharray="3,2"/>')
    # median and mean
    e.append(f'<line x1="{cx - half:.1f}" y1="{y(s.median):.1f}" x2="{cx + half:.1f}" '
             f'y2="{y(s.median):.1f}" stroke="black" stroke-width="2"/>')
    e.append(f'<rect x="{cx - 3:.1f}" y="{y(s.mean) - 3:.1f}" width="6" height="6" '
             f'fill="white" stroke="black"/>')
    # outliers as diamonds
    for v in s.outliers:
        yy = y(v)
        e.append(f'<path class="outlier" d="M {cx:.1f} {yy - 4:.1f} L {cx + 4:.1f} {yy:.1f} '
                 f'L {cx:.1f} {yy + 4:.1f} L {cx - 4:.1f} {yy:.1f} Z" fill="black"/>')
    return "\n".join(e)


def _fmt_number(v: float) -> str:
    if v != 0 and (abs(v) >= 1e6 or abs(v) < 1e-3):
        return f"{v:.3g}"
    return f"{v:g}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
