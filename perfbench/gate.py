"""Correctness gate: no number is reported for outputs that fail any of these checks.

(a) Every CLI iteration's outputs equal, bit for bit, the library's outputs on
    the same inputs: results entries, per-run cost, relative increase and the
    rendered box report.
(b) The noiseless completion of the schedule equals the independent
    longest-path oracle ``dag_completion`` in ``tests/oracles.py``, and the CLI
    baseline file agrees with it.
(c) On the inputs of the seed in ``digests.json``, whatever seed the run
    uses, the sha256 of each synthesized input and of the library's completion
    list equal the stored values.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from .pipeline import Outputs

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_oracles(root: Path):
    """Import the repository's test oracles by path, without touching tests/."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("nsim_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(cli: Outputs, lib: Outputs) -> list[str]:
    """(a): differences between a CLI iteration and the library on the same inputs."""
    errors = []
    for field in ("results", "per_run_usd", "relative_increase",
                  "baseline_completion_ns", "report"):
        if getattr(cli, field) != getattr(lib, field):
            errors.append(f"CLI {field} differs from the library's")
    return errors


def check_oracle(schedule, params, clean_completion: int, baseline_doc: dict,
                 oracles) -> list[str]:
    """(b): noiseless completion against the independent oracle and the CLI baseline."""
    expected = oracles.dag_completion(schedule, params)
    errors = []
    if clean_completion != expected:
        errors.append(f"simulate() completion {clean_completion} != oracle {expected}")
    cli_clean = baseline_doc["results"][0]["completion_ns"]
    if cli_clean != expected:
        errors.append(f"CLI baseline completion {cli_clean} != oracle {expected}")
    return errors


def completion_digest(results: list) -> str:
    completions = [r["completion_ns"] for r in results]
    return hashlib.sha256(json.dumps(completions).encode()).hexdigest()


def check_digests(workload: str, input_facts: dict, completions_sha256: str,
                  stored: dict) -> list[str]:
    """(c): digests of the stored seed's inputs and completions against the stored ones."""
    errors = [f"input {name} sha256 {facts['sha256']} != stored {want}"
              for name, facts in input_facts.items()
              if facts["sha256"] != (want := stored["inputs"].get(name))]
    want = stored["completions"].get(workload)
    if completions_sha256 != want:
        errors.append(f"completion sha256 {completions_sha256} != stored {want}")
    return errors
