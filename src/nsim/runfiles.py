"""The params (``nsim.params/1``) and results (``nsim.results/1``) documents,
each with one reader and one writer. Extra keys of a params document are kept,
for `sim run` to carry into results metadata. Messages name no file: the CLI
puts the path in front. Of nsim, only ``errors`` is loaded until a params
document is read, so `cost` and `report` read results without the model.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import decode_json

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .model import LogGPParams
    from .simengine import SimResult

__all__ = ["PARAMS_KEYS", "params_from_json", "params_to_json", "params_by_key",
           "result_to_dict", "results_to_json", "results_from_json"]

_PARAMS_SCHEMA = "nsim.params/1"
_RESULTS_SCHEMA = "nsim.results/1"
# LogGPParams field -> its key in params files and in results metadata
PARAMS_KEYS = {"L": "L_ns", "o": "o_ns", "g": "g_ns", "G": "G_ns_per_byte"}


def params_from_json(text: str) -> tuple[LogGPParams, dict]:
    """The params of a params document, and the whole document."""
    from .model import LogGPParams

    doc = decode_json(text)
    if not isinstance(doc, dict):
        raise ValueError("params file must hold a JSON object")
    values = {}
    for field, key in PARAMS_KEYS.items():
        if key not in doc and field not in doc:
            raise ValueError(f"params file is missing {key}/{field}")
        values[field] = doc[key] if key in doc else doc[field]
    return LogGPParams(**values), doc


def params_by_key(params: LogGPParams) -> dict:
    """``params`` under the keys of a params file."""
    return {key: getattr(params, field) for field, key in PARAMS_KEYS.items()}


def params_to_json(params: LogGPParams, **extra) -> str:
    """The params document of ``params``, with the ``extra`` keys after them."""
    doc = {"schema": _PARAMS_SCHEMA, **params_by_key(params), **extra}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def result_to_dict(result: SimResult, run_index: int, per_rank: bool = False) -> dict:
    """The results entry of one run."""
    entry: dict[str, object] = {"run": run_index, "completion_ns": result.completion}
    if per_rank:
        entry["per_rank_completion_ns"] = list(result.per_rank_completion)
    return entry


def results_to_json(metadata: dict, results: Sequence[SimResult], per_rank: bool) -> str:
    """The results document of ``results``, run i as entry i, under ``metadata``."""
    doc = {"schema": _RESULTS_SCHEMA, "metadata": metadata,
           "results": [result_to_dict(r, i, per_rank) for i, r in enumerate(results)]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_float_range(key: str, values: list[int]) -> None:
    """ValueError unless a float can hold each of the integers ``values``."""
    try:
        float(max(map(abs, values)))
    except OverflowError:
        raise ValueError(f"{key!r} is beyond the float range") from None


def results_from_json(text: str, with_nranks: bool = False) -> tuple[list[int], int | None]:
    """Completion times of a results document, plus metadata.nranks if asked."""
    doc = decode_json(text)
    runs = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(runs, list) or not runs:
        raise ValueError("'results' must be a non-empty list of runs")
    completions = [run.get("completion_ns") if isinstance(run, dict) else None
                   for run in runs]
    if not all(map(_is_int, completions)):
        raise ValueError("every run needs an integer 'completion_ns'")
    if min(completions) < 0:
        raise ValueError("'completion_ns' must be >= 0")
    _check_float_range("completion_ns", completions)
    if not with_nranks:
        return completions, None
    metadata = doc.get("metadata")
    nranks = metadata.get("nranks") if isinstance(metadata, dict) else None
    if not _is_int(nranks):
        raise ValueError("'metadata.nranks' must be an integer")
    _check_float_range("metadata.nranks", [nranks])
    return completions, nranks
