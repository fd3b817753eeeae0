"""Monetary cost of simulated runs and noise-attributable relative increase."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .units import PRICE_LABELS

__all__ = [
    "PriceSpec",
    "run_cost",
    "completion_increase",
    "relative_increase",
    "load_price_catalog",
    "find_price",
    "builtin_catalog_path",
    "format_cost",
]

_NS_PER_HOUR = 3_600_000_000_000


@dataclass(frozen=True)
class PriceSpec:
    per_node_hour: float  # USD
    label: str  # committed | on_demand
    provider: str

    def __post_init__(self) -> None:
        if not 0 < self.per_node_hour < math.inf:
            raise ValueError(f"per_node_hour must be a finite number > 0, got {self.per_node_hour}")
        if self.label not in PRICE_LABELS:
            raise ValueError(f"label must be one of {PRICE_LABELS}, got {self.label!r}")


def run_cost(runtime_ns: int, nodes: int, price: PriceSpec) -> float:
    """USD for running ``nodes`` instances for ``runtime_ns``; pure linear billing.

    Raises ValueError when the cost is beyond the float range.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if runtime_ns < 0:
        raise ValueError(f"runtime must be >= 0 ns, got {runtime_ns}")
    try:
        usd = (runtime_ns / _NS_PER_HOUR) * nodes * price.per_node_hour
    except OverflowError:
        usd = math.inf
    if not math.isfinite(usd):
        raise ValueError("run cost (runtime x nodes x price) is beyond the float range")
    return usd


def completion_increase(completions: Sequence[int], baseline: int) -> list[float]:
    """Per-run fractional cost increase over a baseline completion time.

    Price and node count cancel out of the cost ratio, so this is a pure
    runtime ratio: completions[i] / baseline - 1.
    """
    if baseline <= 0:
        raise ValueError(f"baseline completion must be > 0, got {baseline}")
    return [c / baseline - 1.0 for c in completions]


def relative_increase(noisy: Sequence, noiseless) -> list[float]:
    """completion_increase of simulated runs over a noiseless run."""
    return completion_increase([r.completion for r in noisy], noiseless.completion)


def load_price_catalog(path: str | Path) -> dict[tuple[str, str, str], PriceSpec]:
    """Read a price catalog CSV: provider,instance,label,usd_per_hour.

    Returns each row's PriceSpec under its (provider, instance, label). Only
    the first non-comment line may be the header. A fault in any row, priced
    later or not, raises ValueError as ``line N: ...``.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    rows = [(lineno, [f.strip() for f in line.split(",")])
            for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and not line.startswith("#")]
    if rows and rows[0][1][0] == "provider":
        del rows[0]
    catalog: dict[tuple[str, str, str], PriceSpec] = {}
    for lineno, fields in rows:
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        provider, instance, label, usd = fields
        key = (provider, instance, label)
        if key in catalog:
            first = next(n for n, f in rows if tuple(f[:3]) == key)
            raise ValueError(f"line {lineno}: {key} is already priced on line {first}")
        try:
            catalog[key] = PriceSpec(per_node_hour=float(usd), label=label, provider=provider)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not catalog:
        raise ValueError("no price entries")
    return catalog


def find_price(catalog: dict[tuple[str, str, str], PriceSpec], provider: str, label: str,
               instance: str | None = None) -> PriceSpec:
    """Look up a price, optionally pinned to an instance type.

    Without ``instance`` the provider must have exactly one entry for the
    label, otherwise the choice would be ambiguous.
    """
    hits = {name: price for (owner, name, tier), price in catalog.items()
            if owner == provider and tier == label and instance in (None, name)}
    if not hits:
        raise ValueError(f"no price for provider={provider!r} label={label!r}"
                         + (f" instance={instance!r}" if instance else ""))
    if len(hits) > 1:
        raise ValueError(f"ambiguous price for {provider!r}: pick an instance from {sorted(hits)}")
    return next(iter(hits.values()))


def builtin_catalog_path() -> Path:
    """The packaged price catalog fixture."""
    return Path(resources.files("nsim").joinpath("data/price_catalog.csv"))  # type: ignore[arg-type]


def _mean(values: list[float]) -> float:
    """sum / len, computed term by term when the sum passes the float maximum."""
    n = len(values)
    mean = sum(values) / n
    if math.isinf(mean):  # terms of at most max / 2n keep every partial sum of fsum finite
        mean = min(2 * math.fsum(v / (2 * n) for v in values), max(values))
    return mean


def format_cost(completions: Sequence[int], nodes: int, price: PriceSpec,
                baseline: int | None = None) -> str:
    """The ``nsim.cost/1`` document of runs, with their increase over ``baseline`` if given."""
    costs = [run_cost(c, nodes, price) for c in completions]
    doc: dict[str, object] = {
        "schema": "nsim.cost/1",
        "provider": price.provider,
        "label": price.label,
        "usd_per_node_hour": price.per_node_hour,
        "nodes": nodes,
        "per_run_usd": costs,
        "mean_usd": _mean(costs),
    }
    if baseline is not None:
        increases = completion_increase(completions, baseline)
        doc["baseline_completion_ns"] = baseline
        doc["relative_increase"] = increases
        doc["mean_relative_increase"] = _mean(increases)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
