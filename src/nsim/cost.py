"""Monetary cost of simulated runs and noise-attributable relative increase."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

__all__ = [
    "PriceSpec",
    "run_cost",
    "completion_increase",
    "relative_increase",
    "load_price_catalog",
    "find_price",
    "builtin_catalog_path",
]

_NS_PER_HOUR = 3_600_000_000_000
_LABELS = ("committed", "on_demand")


@dataclass(frozen=True)
class PriceSpec:
    per_node_hour: float  # USD
    label: str  # committed | on_demand
    provider: str

    def __post_init__(self) -> None:
        if not self.per_node_hour > 0:
            raise ValueError(f"per_node_hour must be > 0, got {self.per_node_hour}")
        if self.label not in _LABELS:
            raise ValueError(f"label must be one of {_LABELS}, got {self.label!r}")


def run_cost(runtime_ns: int, nodes: int, price: PriceSpec) -> float:
    """USD for running ``nodes`` instances for ``runtime_ns``; pure linear billing."""
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    if runtime_ns < 0:
        raise ValueError(f"runtime must be >= 0 ns, got {runtime_ns}")
    return (runtime_ns / _NS_PER_HOUR) * nodes * price.per_node_hour


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


def load_price_catalog(path: str | Path) -> list[dict]:
    """Read a price catalog CSV: provider,instance,label,usd_per_hour."""
    entries = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if fields[0] == "provider":
            continue
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        provider, instance, label, usd = fields
        if label not in _LABELS:
            raise ValueError(f"line {lineno}: unknown label {label!r}")
        entries.append({
            "provider": provider,
            "instance": instance,
            "label": label,
            "usd_per_hour": float(usd),
        })
    if not entries:
        raise ValueError(f"no price entries in {path}")
    return entries


def find_price(
    catalog: list[dict], provider: str, label: str, instance: str | None = None
) -> PriceSpec:
    """Look up a price, optionally pinned to an instance type.

    Without ``instance`` the provider must have exactly one entry for the
    label, otherwise the choice would be ambiguous.
    """
    hits = [e for e in catalog if e["provider"] == provider and e["label"] == label]
    if instance is not None:
        hits = [e for e in hits if e["instance"] == instance]
    if not hits:
        raise ValueError(f"no price for provider={provider!r} label={label!r}"
                         + (f" instance={instance!r}" if instance else ""))
    if len(hits) > 1:
        names = sorted(e["instance"] for e in hits)
        raise ValueError(f"ambiguous price for {provider!r}: pick an instance from {names}")
    hit = hits[0]
    return PriceSpec(per_node_hour=hit["usd_per_hour"], label=label, provider=provider)


def builtin_catalog_path() -> Path:
    """The packaged price catalog fixture."""
    return Path(resources.files("nsim").joinpath("data/price_catalog.csv"))  # type: ignore[arg-type]
