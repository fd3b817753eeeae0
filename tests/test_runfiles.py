import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim import runfiles, simengine
from nsim.model import LogGPParams
from nsim.runfiles import (PARAMS_KEYS, params_by_key, params_from_json, params_to_json,
                           results_from_json, results_to_json)
from nsim.simengine import SimResult

_NS = st.integers(0, (1 << 63) - 1)
_PARAMS = st.builds(LogGPParams, L=_NS, o=_NS, g=_NS,
                    G=st.floats(0, allow_nan=False, allow_infinity=False))
# what an extra key or a metadata value may hold: any JSON value a float can write
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
_EXTRA = st.dictionaries(
    st.text().filter(lambda key: key not in {"schema", *PARAMS_KEYS.values()}), _JSON,
    max_size=4)


@settings(max_examples=200, deadline=None)
@given(_PARAMS, _EXTRA)
def test_params_round_trip(params, extra):
    back, doc = params_from_json(params_to_json(params, **extra))
    assert back == params
    assert doc == {"schema": "nsim.params/1", **params_by_key(params), **extra}


@st.composite
def _runs(draw):
    nranks = draw(st.integers(1, 6))
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        per_rank = tuple(draw(st.lists(_NS, min_size=nranks, max_size=nranks)))
        runs.append(SimResult(max(per_rank), per_rank, draw(st.integers(0, 9))))
    return nranks, runs


@settings(max_examples=200, deadline=None)
@given(_runs(), st.booleans(), st.dictionaries(st.text(), _JSON, max_size=3))
def test_results_round_trip(shape, per_rank, extra):
    nranks, runs = shape
    text = results_to_json({**extra, "nranks": nranks}, runs, per_rank)
    assert results_from_json(text, True) == ([r.completion for r in runs], nranks)
    entries = json.loads(text)["results"]
    assert [("per_rank_completion_ns" in e) for e in entries] == [per_rank] * len(runs)


def test_the_long_key_wins_over_the_short_one():
    back, _ = params_from_json('{"L_ns": 1, "L": 9, "o": 2, "g": 3, "G": 4}')
    assert back == LogGPParams(L=1, o=2, g=3, G=4.0)


def test_simengine_keeps_the_entry_writer():
    assert simengine.result_to_dict is runfiles.result_to_dict


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_writers_refuse_a_non_finite_value(value):
    params = LogGPParams(L=1, o=2, g=3, G=4.0)
    with pytest.raises(ValueError):
        params_to_json(params, x=value)
    with pytest.raises(ValueError):
        results_to_json({"nranks": 1, "x": value}, [SimResult(5, (5,), 0)], False)
