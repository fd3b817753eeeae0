import json
import math
import random
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsim.goal import (
    CALC,
    RECV,
    SEND,
    GoalSyntaxError,
    Schedule,
    ScheduleOp,
    ScheduleValidationError,
    emit_goal,
    gen_compute_collective,
    gen_dissemination,
    gen_ring_allreduce,
    parse_goal,
    schedule_from_json,
    schedule_to_json,
    validate,
)


class TestParse:
    def test_minimal_program(self):
        s = parse_goal(
            "num_ranks 2\nrank 0 { l1: send 16b to 1 }\nrank 1 { l1: recv 16b from 0 }"
        )
        assert s.nranks == 2
        assert s.ops[0] == (ScheduleOp(0, SEND, 1, 16),)
        assert s.ops[1] == (ScheduleOp(0, RECV, 0, 16),)

    def test_requires_statement(self):
        s = parse_goal(
            "num_ranks 2\n"
            "rank 0 { l1: send 8b to 1\n l2: calc 100\n l2 requires l1 }\n"
            "rank 1 { r: recv 8b from 0 }"
        )
        assert s.ops[0][1].requires == frozenset({0})

    def test_requires_forward_reference(self):
        s = parse_goal(
            "num_ranks 2\n"
            "rank 0 { l2 requires l1\n l1: send 8b to 1\n l2: calc 5 }\n"
            "rank 1 { r: recv 8b from 0 }"
        )
        assert s.ops[0][1].requires == frozenset({0})

    def test_multi_dependency_list(self):
        s = parse_goal(
            "num_ranks 1\nrank 0 { a: calc 1\n b: calc 2\n c: calc 3\n"
            " c requires a, b }"
        )
        assert s.ops[0][2].requires == frozenset({0, 1})

    def test_comments_and_whitespace(self):
        s = parse_goal(
            "# header comment\nnum_ranks   2\n\nrank 0 {\n"
            "  # op comment\n  l1: send 16b to 1  # trailing\n}\n"
            "rank 1 { l1: recv 16b from 0 }\n"
        )
        assert s.op_count() == 2

    def test_calc_line(self):
        s = parse_goal("num_ranks 1\nrank 0 { l3: calc 5000 }")
        assert s.ops[0][0] == ScheduleOp(0, CALC, None, 5000)

    def test_missing_rank_block_is_empty(self):
        s = parse_goal(
            "num_ranks 3\nrank 0 { a: send 4b to 1 }\nrank 1 { a: recv 4b from 0 }"
        )
        assert s.ops[2] == ()

    def test_syntax_error_reports_position(self):
        with pytest.raises(GoalSyntaxError) as err:
            parse_goal("num_ranks 2\nrank 0 { l1: send 16 to 1 }")
        assert err.value.line == 2

    def test_dangling_dependency_label(self):
        with pytest.raises(GoalSyntaxError, match="dangling"):
            parse_goal("num_ranks 1\nrank 0 { a: calc 1\n a requires ghost }")

    def test_duplicate_label(self):
        with pytest.raises(GoalSyntaxError, match="duplicate"):
            parse_goal("num_ranks 1\nrank 0 { a: calc 1\n a: calc 2 }")

    def test_peer_out_of_range(self):
        with pytest.raises(GoalSyntaxError, match="out of range"):
            parse_goal("num_ranks 2\nrank 0 { a: send 4b to 5 }")

    def test_peer_self(self):
        with pytest.raises(GoalSyntaxError, match="own rank"):
            parse_goal("num_ranks 2\nrank 0 { a: send 4b to 0 }")

    def test_unmatched_send_is_validation_error_not_syntax(self):
        with pytest.raises(ScheduleValidationError):
            parse_goal("num_ranks 2\nrank 0 { a: send 4b to 1 }")

    def test_cycle_is_validation_error(self):
        with pytest.raises(ScheduleValidationError, match="cycle"):
            parse_goal(
                "num_ranks 1\nrank 0 { a: calc 1\n b: calc 2\n"
                " a requires b\n b requires a }"
            )

    def test_garbage_rejected(self):
        with pytest.raises(GoalSyntaxError):
            parse_goal("num_ranks 2\nrank 0 { $$$ }")


# Malformed texts: (id, text, line of the error, fragment of its message).
_TWO_RANKS = "rank 1 {\n  a: recv 16b from 0\n}\n"
_MALFORMED = [
    ("stray_dollar", "num_ranks 2\nrank 0 {\n  a: send 16b to 1\n  $\n}\n" + _TWO_RANKS,
     4, "'$'"),
    ("size_without_b", "num_ranks 2\nrank 0 {\n  a: send 16 to 1\n}\n" + _TWO_RANKS,
     3, "16"),
    ("size_bad_suffix", "num_ranks 2\nrank 0 {\n  a: send 16bx to 1\n}\n" + _TWO_RANKS,
     3, "expected"),
    ("missing_to", "num_ranks 2\nrank 0 {\n  a: send 16b 1\n}\n" + _TWO_RANKS,
     3, "found '"),
    ("missing_from", "num_ranks 2\nrank 0 {\n  a: send 16b to 1\n}\n"
     "rank 1 {\n  a: recv 16b 0\n}\n", 6, "found '"),
    ("keyword_label", "num_ranks 1\nrank 0 {\n  send: calc 1\n}\n", 3, "'send"),
    ("keyword_dependency", "num_ranks 1\nrank 0 {\n  a: calc 1\n  a requires rank\n}\n",
     4, "rank"),
    ("size_word_boundary", "num_ranks 2\nrank 0 {\n  a: send 16bto 1\n}\n" + _TWO_RANKS,
     3, "expected"),
    ("requires_then_word", "num_ranks 1\nrank 0 {\n  a: calc 1\n  b: calc 2\n  b requiresa\n}\n",
     5, "expected"),
    ("requires_word_boundary",
     "num_ranks 1\nrank 0 {\n  a: calc 1\n  b: calc 2\n  arequires b\n}\n",
     5, "'arequires"),
    ("unterminated_block", "num_ranks 1\nrank 0 {\n  a: calc 1\n", 4,
     "unterminated rank block"),
    ("duplicate_block", "num_ranks 2\nrank 0 { a: calc 1 }\nrank 0 { b: calc 2 }\n", 3,
     "duplicate block for rank 0"),
    ("rank_out_of_range", "num_ranks 2\nrank 0 { a: calc 1 }\nrank 2 { b: calc 2 }\n", 3,
     "rank 2 out of range (num_ranks 2)"),
    ("peer_out_of_range", "num_ranks 2\nrank 0 {\n  a: send 4b to 2\n}\n", 3,
     "peer 2 out of range (num_ranks 2)"),
    ("own_rank_peer", "num_ranks 2\nrank 0 { a: calc 1 }\nrank 1 {\n  a: recv 4b from 1\n}\n",
     4, "peer must differ from own rank 1"),
    ("zero_ranks", "# header\nnum_ranks 0\n", 2, "num_ranks must be >= 1"),
    ("text_before_num_ranks", "rank 0 { a: calc 1 }\nnum_ranks 1\n", 1,
     "expected 'num_ranks"),
]


@pytest.mark.parametrize("text,line,fragment",
                         [row[1:] for row in _MALFORMED], ids=[row[0] for row in _MALFORMED])
def test_malformed_text_rejected(text, line, fragment):
    with pytest.raises(GoalSyntaxError) as err:
        parse_goal(text)
    assert err.value.line == line
    assert fragment in str(err.value)


class TestErrorPosition:
    def test_syntax_error_names_statement_start(self):
        with pytest.raises(GoalSyntaxError) as err:
            parse_goal("num_ranks 2\nrank 0 {\n  a:\n    send 16\n    to 1\n}")
        assert (err.value.line, err.value.col) == (3, 3)
        assert "found 'a:'" in str(err.value)

    def test_bad_peer_names_the_peer(self):
        with pytest.raises(GoalSyntaxError) as err:
            parse_goal("num_ranks 2\nrank 0 {\n  a: send 4b\n  to 7 }")
        assert (err.value.line, err.value.col) == (4, 6)

    def test_dangling_label_names_the_requires_statement(self):
        with pytest.raises(GoalSyntaxError) as err:
            parse_goal("num_ranks 1\nrank 0 { a: calc 1\n  a requires\n ghost }")
        assert (err.value.line, err.value.col) == (3, 3)


class TestComments:
    def test_comment_words_are_not_dependencies(self):
        s = parse_goal("num_ranks 1\nrank 0 { a: calc 1\n b: calc 2\n"
                       " b requires a # , c\n}")
        assert s.ops[0][1].requires == frozenset({0})

    def test_comment_inside_dependency_list(self):
        s = parse_goal("num_ranks 1\nrank 0 { a: calc 1\n b: calc 2\n c: calc 3\n"
                       " c requires a, # then\n b }")
        assert s.ops[0][2].requires == frozenset({0, 1})

    def test_comment_words_are_not_syntax(self):
        with pytest.raises(GoalSyntaxError) as err:
            parse_goal("num_ranks 2\nrank 0 {\n  a: send 4b # to 1\n}\n" + _TWO_RANKS)
        assert (err.value.line, err.value.col) == (3, 3)

    def test_comment_inside_op_statement(self):
        s = parse_goal("num_ranks 2 # ranks\nrank 0 { a: # op\n send # kind\n 4b to\n"
                       " # peer next\n 1 }\nrank 1 { a: recv 4b from 0 }")
        assert s.ops[0] == (ScheduleOp(0, SEND, 1, 4),)


# Long separators: a failed match must backtrack over whitespace and comments
# in linear time. Each text below would take hours if a whitespace run could
# be split across loop iterations, so a second is a generous limit.
_LONG_GAP = "\n" * 30 + "\n    # note" * 8 + " " * 40 + "\n"
_SLOW_TEXTS = [
    ("requires_then_gap",
     "num_ranks 1\nrank 0 {\n  a: calc 1\n  b: calc 2\n  b requires a" + _LONG_GAP + "}\n",
     None),
    ("gap_after_label", "num_ranks 1\nrank 0 {\n  a" + " " * 40 + "$\n}\n", "expected"),
    ("gap_after_colon", "num_ranks 1\nrank 0 {\n  a:" + _LONG_GAP + "$\n}\n", "expected"),
    ("gap_in_block_header", "num_ranks 1\nrank 0" + _LONG_GAP + "$", "expected 'rank N {'"),
    ("gap_in_header", "num_ranks" + _LONG_GAP + "x", "expected 'num_ranks N'"),
]


def _on_alarm(signum, frame):
    raise TimeoutError("parse_goal took over a second")


@pytest.mark.parametrize("text,fragment", [row[1:] for row in _SLOW_TEXTS],
                         ids=[row[0] for row in _SLOW_TEXTS])
def test_long_separator_parses_in_linear_time(text, fragment):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        if fragment is None:
            assert parse_goal(text).ops[0][1].requires == frozenset({0})
        else:
            with pytest.raises(GoalSyntaxError, match=re.escape(fragment)):
                parse_goal(text)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestEmit:
    def test_empty_rank_block(self):
        s = Schedule(nranks=2, ops=(
            (ScheduleOp(0, SEND, 1, 4), ScheduleOp(1, RECV, 1, 4)),
            (ScheduleOp(0, SEND, 0, 4), ScheduleOp(1, RECV, 0, 4)),
        ))
        text = emit_goal(Schedule(nranks=3, ops=(*s.ops, ())))
        assert "rank 2 { }" in text

    def test_calc_emission(self):
        s = Schedule(nranks=1, ops=((ScheduleOp(0, CALC, None, 5000),),))
        assert "o0: calc 5000" in emit_goal(s)

    @pytest.mark.parametrize("nranks", range(2, 10))
    def test_roundtrip_dissemination(self, nranks):
        s = gen_dissemination(nranks, 16)
        assert parse_goal(emit_goal(s)) == s

    @pytest.mark.parametrize("nranks", range(2, 10))
    def test_roundtrip_ring(self, nranks):
        s = gen_ring_allreduce(nranks, 64 * nranks, reduce_cost_per_chunk=500)
        assert parse_goal(emit_goal(s)) == s

    @pytest.mark.parametrize("pattern", ["dissemination", "ring"])
    def test_roundtrip_compute_collective(self, pattern):
        for nranks in range(2, 10):
            s = gen_compute_collective(nranks, 2000, pattern, 16 * nranks, 3)
            assert parse_goal(emit_goal(s)) == s


class TestValidate:
    def test_unmatched_send_one_violation(self):
        s = Schedule(nranks=2, ops=((ScheduleOp(0, SEND, 1, 4),), ()))
        assert len(validate(s)) == 1

    def test_cycle_one_violation(self):
        s = Schedule(nranks=1, ops=((
            ScheduleOp(0, CALC, None, 1, frozenset({1})),
            ScheduleOp(1, CALC, None, 1, frozenset({0})),
        ),))
        assert len(validate(s)) == 1

    def test_size_mismatch_detected(self):
        s = Schedule(nranks=2, ops=(
            (ScheduleOp(0, SEND, 1, 4),),
            (ScheduleOp(0, RECV, 0, 8),),
        ))
        assert len(validate(s)) == 2  # both triples unmatched

    @pytest.mark.parametrize("nranks", [2, 3, 5, 8, 16, 33, 64])
    def test_generator_outputs_are_clean(self, nranks):
        assert validate(gen_dissemination(nranks, 16)) == []
        assert validate(gen_ring_allreduce(nranks, 4 * nranks, 100)) == []
        assert validate(gen_compute_collective(nranks, 10, "dissemination", 8, 2)) == []


class TestDissemination:
    def test_two_ranks_single_round(self):
        s = gen_dissemination(2, 16)
        for rank_ops in s.ops:
            assert [op.kind for op in rank_ops] == [SEND, RECV]
        assert s.ops[0][0].peer == 1
        assert s.ops[1][0].peer == 0

    def test_eight_ranks_three_rounds(self):
        s = gen_dissemination(8, 16)
        assert all(len(r) == 6 for r in s.ops)

    def test_five_ranks_modular_partner(self):
        s = gen_dissemination(5, 16)
        assert all(len(r) == 6 for r in s.ops)  # ceil(log2 5) = 3 rounds
        # round 2 (k=2): rank 4 sends to (4+4) mod 5 = 3
        assert s.ops[4][4].kind == SEND
        assert s.ops[4][4].peer == 3

    @pytest.mark.parametrize("nranks", [2, 3, 4, 7, 16, 39, 64])
    def test_round_count_and_coupling(self, nranks):
        s = gen_dissemination(nranks, 8)
        rounds = math.ceil(math.log2(nranks))
        for rank_ops in s.ops:
            assert sum(1 for op in rank_ops if op.kind == SEND) == rounds
            assert sum(1 for op in rank_ops if op.kind == RECV) == rounds
            for k in range(1, rounds):
                # both round-k ops require the round-(k-1) send and recv
                expected = frozenset({2 * k - 2, 2 * k - 1})
                assert rank_ops[2 * k].requires == expected
                assert rank_ops[2 * k + 1].requires == expected


class TestRingAllreduce:
    def test_step_count(self):
        s = gen_ring_allreduce(4, 512, 0)
        for rank_ops in s.ops:
            assert sum(1 for op in rank_ops if op.kind == SEND) == 6
            assert sum(1 for op in rank_ops if op.kind == RECV) == 6

    def test_chunk_size_512mib_over_4(self):
        s = gen_ring_allreduce(4, 512 * 2**20, 0)
        assert s.metadata["chunk_bytes"] == 128 * 2**20
        assert s.ops[0][0].size == 128 * 2**20

    @pytest.mark.parametrize("nranks,size", [(2, 2), (4, 512), (5, 103), (8, 4096)])
    def test_total_bytes_identity(self, nranks, size):
        s = gen_ring_allreduce(nranks, size, 0)
        chunk = math.ceil(size / nranks)
        for rank_ops in s.ops:
            sent = sum(op.size for op in rank_ops if op.kind == SEND)
            assert sent == 2 * (nranks - 1) * chunk

    def test_calc_ops_present_only_with_cost(self):
        with_cost = gen_ring_allreduce(4, 512, 100)
        without = gen_ring_allreduce(4, 512, 0)
        for rank_ops in with_cost.ops:
            assert sum(1 for op in rank_ops if op.kind == CALC) == 3  # P-1
        for rank_ops in without.ops:
            assert all(op.kind != CALC for op in rank_ops)

    def test_send_requires_previous_recv_and_calc(self):
        s = gen_ring_allreduce(3, 300, 50)
        ops = s.ops[0]
        # layout per reduce-scatter step: send, recv, calc
        assert [op.kind for op in ops[:6]] == [SEND, RECV, CALC, SEND, RECV, CALC]
        assert ops[0].requires == frozenset()
        assert ops[3].requires == frozenset({1, 2})
        assert ops[2].requires == frozenset({1})  # calc reduces what was received

    def test_size_below_ranks_rejected(self):
        with pytest.raises(ValueError):
            gen_ring_allreduce(8, 7)


class TestComputeCollective:
    def test_iteration_chaining(self):
        s = gen_compute_collective(2, 1000, "dissemination", 16, 2)
        ops = s.ops[0]
        assert ops[0].kind == CALC and ops[0].requires == frozenset()
        # collective roots wait on the calc
        assert ops[1].requires == frozenset({0})
        assert ops[2].requires == frozenset({0})
        # next iteration's calc waits on the previous collective's sinks
        assert ops[3].kind == CALC
        assert ops[3].requires == frozenset({1, 2})

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            gen_compute_collective(2, 0, "alltoall", 16, 1)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            gen_compute_collective(2, 0, "ring", 16, 0)


class TestJson:
    @pytest.mark.parametrize("make", [
        lambda: gen_dissemination(5, 16),
        lambda: gen_ring_allreduce(4, 512, 7),
        lambda: gen_compute_collective(3, 11, "ring", 30, 2),
    ])
    def test_roundtrip(self, make):
        s = make()
        assert schedule_from_json(schedule_to_json(s)) == s

    def test_metadata_retained(self):
        s = gen_dissemination(4, 16)
        back = schedule_from_json(schedule_to_json(s))
        assert dict(back.metadata) == dict(s.metadata)

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_json('{"schema": "nope", "num_ranks": 1, "ranks": [[]]}')

    @pytest.mark.parametrize("doc, message", [
        ([], "must be an object"),
        ({"num_ranks": "1", "ranks": [[]]}, "'num_ranks' must be an integer"),
        ({"num_ranks": 1, "ranks": [[]], "metadata": []}, "'metadata' must be an object"),
        ({"num_ranks": 1, "ranks": {}}, "'ranks' must be a list"),
        ({"num_ranks": 1, "ranks": ["abc"]}, "rank 0's ops must be a list"),
        ({"num_ranks": 1, "ranks": [[7]]}, "op entry 0 must be an object"),
        ({"num_ranks": 1, "ranks": [[{"id": 0}]]}, "'kind' must be one of"),
        ({"num_ranks": 1, "ranks": [[{"id": "0", "kind": "calc", "duration_ns": 1}]]},
         "'id' must be an integer"),
        ({"num_ranks": 1, "ranks": [[{"id": 0, "kind": "calc"}]]},
         "'duration_ns' must be an integer"),
        ({"num_ranks": 2, "ranks": [[{"id": 0, "kind": "send", "peer": "1",
                                      "size_bytes": 4}], []]}, "'peer' must be an integer"),
        ({"num_ranks": 2, "ranks": [[{"id": 0, "kind": "send", "peer": 1,
                                      "size_bytes": True}], []]},
         "'size_bytes' must be an integer"),
        ({"num_ranks": 1, "ranks": [[{"id": 0, "kind": "calc", "duration_ns": 1,
                                      "requires": 0}]]}, "'requires' must be a list of integers"),
        ({"num_ranks": 1, "ranks": [[{"id": 0, "kind": "calc", "duration_ns": 1,
                                      "requires": [None]}]]},
         "'requires' must be a list of integers"),
    ])
    def test_malformed_document_rejected(self, doc, message):
        if isinstance(doc, dict):
            doc = {"schema": "nsim.schedule/1", **doc}
        with pytest.raises(ValueError, match=message):
            schedule_from_json(json.dumps(doc))


@settings(max_examples=60, deadline=None)
@given(
    nranks=st.integers(2, 12),
    size=st.integers(1, 10**6),
)
def test_dissemination_property_clean_and_roundtrips(nranks, size):
    s = gen_dissemination(nranks, size)
    assert validate(s) == []
    assert parse_goal(emit_goal(s)) == s


# Words and punctuation of emitted text; separators may go between any two.
_EMITTED_TOKEN = re.compile(r"[^\s:,]+|[:,]")
_SEPARATORS = [" ", "\t", "\n", "\t\n  ", " # note\n", "# o9: send 4b to 0, rank 1 {\n",
               "\n#\n"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nranks=st.integers(2, 6),
       make=st.sampled_from(["dissemination", "ring", "compapp"]))
def test_reflowed_text_parses_to_same_schedule(seed, nranks, make):
    rng = random.Random(seed)
    if make == "dissemination":
        s = gen_dissemination(nranks, 16)
    elif make == "ring":
        s = gen_ring_allreduce(nranks, 8 * nranks, reduce_cost_per_chunk=3)
    else:
        s = gen_compute_collective(nranks, 100, "dissemination", 8, 2)
    tokens = _EMITTED_TOKEN.findall(emit_goal(Schedule(s.nranks, s.ops)))
    parts = [tokens[0]]
    for prev, tok in zip(tokens, tokens[1:]):
        # punctuation needs no separator; two words need at least one
        least = 0 if prev in ":," or tok in ":," else 1
        parts += rng.choices(_SEPARATORS, k=rng.randint(least, 3))
        parts.append(tok)
    assert parse_goal("".join(parts)) == s


# ---------------------------------------------------------------------------
# The column writers against the object writers in tests/oracles.py

from oracles import emit_goal as oracle_emit_goal  # noqa: E402
from oracles import schedule_to_json as oracle_schedule_to_json  # noqa: E402

_METADATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def runnable_schedules(draw):
    """Random schedules that validate() accepts: empty ranks, calcs with and
    without requires, requires of several ops, matched messages of any size,
    and unicode or nested metadata."""
    nranks = draw(st.integers(1, 5))
    ops: list[list[ScheduleOp]] = [[] for _ in range(nranks)]

    def append(r, kind, peer, size):
        i = len(ops[r])
        requires = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        ops[r].append(ScheduleOp(i, kind, peer, size, frozenset(requires)))

    for _ in range(draw(st.integers(0, 16))):
        if nranks > 1 and draw(st.booleans()):
            src, dst = draw(st.lists(st.integers(0, nranks - 1), min_size=2, max_size=2,
                                     unique=True))
            size = draw(st.sampled_from((1, 16, 2**40, 2**64 - 1)))
            append(src, SEND, dst, size)
            append(dst, RECV, src, size)
        else:
            append(draw(st.integers(0, nranks - 1)), CALC, None,
                   draw(st.sampled_from((0, 7, 2**63))))
    metadata = draw(st.dictionaries(st.text(max_size=5), _METADATA, max_size=4))
    return Schedule(nranks, tuple(map(tuple, ops)), metadata)


@settings(max_examples=100, deadline=None)
@given(schedule=runnable_schedules())
def test_writers_match_object_oracles(schedule):
    assert schedule_to_json(schedule) == oracle_schedule_to_json(schedule)
    assert emit_goal(schedule) == oracle_emit_goal(schedule)


@settings(max_examples=100, deadline=None)
@given(schedule=runnable_schedules())
def test_round_trips_are_byte_identical(schedule):
    doc = schedule_to_json(schedule)
    back = schedule_from_json(doc)
    assert back == schedule and dict(back.metadata) == dict(schedule.metadata)
    assert schedule_to_json(back) == doc
    # Metadata travels as comments, which parse_goal skips.
    text = emit_goal(Schedule(schedule.nranks, schedule.ops))
    assert parse_goal(text) == schedule
    assert emit_goal(parse_goal(text)) == text


def test_ops_view_round_trips_through_constructor():
    s = gen_compute_collective(3, 50, "ring", 30, 2)
    assert Schedule(s.nranks, s.ops, s.metadata) == s
    assert s.op_count() == sum(len(r) for r in s.ops)


# Op entries that the JSON loader rejects with the same message as the
# ScheduleOp/Schedule constructor on the same op list.
_CONSTRUCTOR_FAULTS = [
    ("negative_id", [[{"id": -1, "kind": "calc", "duration_ns": 1}]], "op id must be >= 0"),
    ("negative_duration", [[{"id": 0, "kind": "calc", "duration_ns": -1}]],
     "calc duration must be >= 0 ns"),
    ("negative_peer", [[{"id": 0, "kind": "send", "peer": -2, "size_bytes": 1}], []],
     "send needs a peer rank >= 0"),
    ("zero_size", [[], [{"id": 0, "kind": "recv", "peer": 0, "size_bytes": 0}]],
     "recv size must be >= 1 byte"),
    ("ids_out_of_order", [[{"id": 1, "kind": "calc", "duration_ns": 1}]],
     "rank 0: op ids must be 0..n-1 in order"),
    ("unknown_requires", [[{"id": 0, "kind": "calc", "duration_ns": 1, "requires": [3, -1]}]],
     "rank 0 op 0: unknown requires [-1, 3]"),
    ("rank_count", [[], []], "expected 1 rank op lists, got 2"),
]


@pytest.mark.parametrize("ranks, message", [row[1:] for row in _CONSTRUCTOR_FAULTS],
                         ids=[row[0] for row in _CONSTRUCTOR_FAULTS])
def test_json_loader_and_constructor_agree_on_faults(ranks, message):
    def op(entry):
        kind = entry["kind"]
        size = entry["duration_ns"] if kind == CALC else entry["size_bytes"]
        return ScheduleOp(entry["id"], kind, entry.get("peer"), size,
                          frozenset(entry.get("requires", ())))

    nranks = 1 if message.startswith("expected") else len(ranks)
    with pytest.raises(ValueError) as built:
        Schedule(nranks, [[op(e) for e in rank] for rank in ranks])
    with pytest.raises(ValueError) as loaded:
        schedule_from_json(json.dumps({"schema": "nsim.schedule/1", "num_ranks": nranks,
                                       "ranks": ranks}))
    assert str(built.value) == str(loaded.value) == message


@pytest.mark.parametrize("load", [
    lambda size: schedule_from_json(json.dumps({
        "schema": "nsim.schedule/1", "num_ranks": 1,
        "ranks": [[{"id": 0, "kind": "calc", "duration_ns": size}]]})),
    lambda size: parse_goal(f"num_ranks 1\nrank 0 {{ a: calc {size} }}"),
    lambda size: Schedule(1, [[ScheduleOp(0, CALC, None, size)]]),
    lambda size: gen_dissemination(2, size),
], ids=["json", "text", "constructor", "generator"])
def test_size_beyond_64_bits_is_a_value_error(load):
    assert load(2**64 - 1).ops[0][0].size == 2**64 - 1
    with pytest.raises(ValueError, match="does not fit in 64 bits"):
        load(2**64)


def test_ir_memory_per_op():
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = gen_dissemination(4096, 16)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / s.op_count() <= 64, held / s.op_count()


def test_validate_runs_once_per_schedule(monkeypatch):
    from nsim import goal

    calls = []
    real = goal._violations
    monkeypatch.setattr(goal, "_violations", lambda s: calls.append(s) or real(s))
    s = schedule_from_json(schedule_to_json(gen_ring_allreduce(4, 512, 7)))
    assert validate(s) == [] and validate(s) == []
    assert len(calls) == 1
    bad = Schedule(nranks=2, ops=((ScheduleOp(0, SEND, 1, 4),), ()))
    assert validate(bad) == validate(bad) == [
        "unmatched messages 0->1 size 4: 1 send(s), 0 recv(s)"]
    assert len(calls) == 2
