"""Seeded synthetic noise inputs: latency trace, bandwidth trace, detour trace.

Measured traces from real host pairs are not in the repository, so every
workload replays traces drawn here from ``random.Random(seed)``. The same seed
gives byte-identical files; ``synthesize`` returns each file's sha256 and row
count so a result records exactly which inputs produced it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

LAT_ROWS = 200_000
BW_ROWS = 200_000
DETOUR_EVENTS = 2000
DETOUR_SPAN_NS = 1_000_000_000

PARAMS = {"schema": "nsim.params/1", "L_ns": 5000, "o_ns": 1000, "g_ns": 1000,
          "G_ns_per_byte": 0.08}


@dataclass(frozen=True)
class Inputs:
    """Paths of the synthesized files plus their provenance."""

    lat: Path
    bw: Path
    detour: Path
    params: Path
    facts: dict  # name -> {"sha256", "rows"}


def _latency_rows(rng: random.Random, rows: int) -> list[str]:
    # ~7 us floor (= 2o + L), exponential jitter, 1% heavy tail at +60 us.
    out = ["timestamp_ns,value,unit"]
    ts = 0
    for _ in range(rows):
        v = 7000.0 + rng.expovariate(1 / 400.0)
        if rng.random() < 0.01:
            v += 60_000.0
        out.append(f"{ts},{v:.1f},ns")
        ts += int(v) + 1000
    return out


def _bandwidth_rows(rng: random.Random, rows: int) -> list[str]:
    # ~100 Gb/s (G = 0.08 ns/B) with jitter upward and 3% dips to 20-100 Gb/s.
    out = ["timestamp_ns,value,unit"]
    ts = 0
    for _ in range(rows):
        if rng.random() < 0.03:
            v = rng.uniform(20.0, 100.0)
        else:
            v = 100.0 + rng.expovariate(1 / 8.0)
        out.append(f"{ts},{v:.3f},gbps")
        ts += 50_000
    return out


def _detour_rows(rng: random.Random, events: int, span: int) -> list[str]:
    # One event of 0.5-20 us in each equal slot of the span: sorted, disjoint.
    slot = span // events
    out = [f"# span_ns={span}", "timestamp_ns,value,unit"]
    for i in range(events):
        start = i * slot + rng.randrange(slot - 20_000)
        out.append(f"{start},{rng.randint(500, 20_000)},ns")
    return out


def synthesize(seed: int, out_dir: Path) -> Inputs:
    """Write the three traces and the params file for ``seed`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    texts = {
        "lat.csv": _latency_rows(rng, LAT_ROWS),
        "bw.csv": _bandwidth_rows(rng, BW_ROWS),
        "detour.csv": _detour_rows(rng, DETOUR_EVENTS, DETOUR_SPAN_NS),
    }
    facts = {}
    for name, lines in texts.items():
        data = ("\n".join(lines) + "\n").encode()
        (out_dir / name).write_bytes(data)
        rows = sum(1 for line in lines if line[0].isdigit())
        facts[name] = {"sha256": hashlib.sha256(data).hexdigest(), "rows": rows}
    params = out_dir / "params.json"
    params.write_text(json.dumps(PARAMS) + "\n", encoding="utf-8")
    return Inputs(out_dir / "lat.csv", out_dir / "bw.csv", out_dir / "detour.csv",
                  params, facts)
