import json
import math
import random
import re
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsim.errors import DeadlockError
from nsim.goal import (
    CALC,
    RECV,
    SEND,
    GoalSyntaxError,
    Schedule,
    ScheduleOp,
    ScheduleValidationError,
    emit_goal,
    execution_order,
    gen_compute_collective,
    gen_dissemination,
    gen_ring_allreduce,
    parse_goal,
    schedule_from_json,
    schedule_to_json,
    validate,
)
from oracles import schedule_doc


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

    def test_brace_in_comment_does_not_close_the_block(self):
        s = parse_goal("num_ranks 1\nrank 0 { a: calc 1 # } not here\n b: calc 2\n}")
        assert s.ops[0] == (ScheduleOp(0, CALC, None, 1), ScheduleOp(1, CALC, None, 2))

    def test_comment_right_after_a_word(self):
        s = parse_goal("num_ranks 2\nrank 0 { a:send#c\n4b#d\nto 1 }\n"
                       "rank 1 { a: recv 4b from 0 }")
        assert s.ops[0] == (ScheduleOp(0, SEND, 1, 4),)

    def test_comment_after_header_and_block_words(self):
        s = parse_goal("num_ranks # count next\n1 # ranks\nrank # id next\n0 # brace next\n"
                       "{ # body\n a: calc 1 }")
        assert s.ops[0] == (ScheduleOp(0, CALC, None, 1),)

    def test_syntax_error_quotes_the_comment(self):
        with pytest.raises(GoalSyntaxError) as err:
            parse_goal("num_ranks 2\nrank 0 {\n  a: send 4b to # peer\n}\n" + _TWO_RANKS)
        assert (err.value.line, err.value.col) == (3, 3)
        assert "found 'a: send 4b to # peer'" in str(err.value)


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

    def test_requires_at_or_after_the_op_names_it(self):
        # Ops run in program order: op 1 requires itself and op 2 the later
        # op 3, so neither can start; op 3's requires on op 0 is met.
        s = Schedule(nranks=1, ops=((
            ScheduleOp(0, CALC, None, 1),
            ScheduleOp(1, CALC, None, 1, frozenset({1})),
            ScheduleOp(2, CALC, None, 1, frozenset({0, 3})),
            ScheduleOp(3, CALC, None, 1, frozenset({0})),
        ),))
        assert validate(s) == [
            f"rank 0 op {i}: requires op(s) [{t}] at or after it, a dependency cycle "
            "through program order" for i, t in ((1, 1), (2, 3))]

    def test_error_message_shows_16_violations(self):
        violations = [f"v{i}" for i in range(20)]
        err = ScheduleValidationError(violations)
        assert str(err) == "; ".join(violations[:16]) + " and 4 more"
        assert err.violations == violations

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

    @pytest.mark.parametrize("pattern", ["dissemination", "ring"])
    def test_metadata_records_the_payload(self, pattern):
        s = gen_compute_collective(8, 100, pattern, 65536, 2)
        assert s.metadata["size_bytes"] == 65536

    def test_bad_pattern(self):
        with pytest.raises(ValueError, match=r"^unknown pattern 'alltoall' "
                                             r"\(want dissemination or ring\)$"):
            gen_compute_collective(2, 0, "alltoall", 16, 1)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            gen_compute_collective(2, 0, "ring", 16, 0)


def _calc_doc(**fields) -> dict:
    """A schedule JSON document of one rank's three calcs, op 1 requiring op 0
    and op 2 ops 0 and 1, with ``fields`` replacing its fields."""
    return {"schema": "nsim.schedule/2", "num_ranks": 1, "rank_offsets": [0, 3],
            "kinds": [2, 2, 2], "peers": [-1, -1, -1], "sizes": [1, 1, 1],
            "req_offsets": [0, 0, 1, 3], "req_targets": [0, 0, 1], **fields}


class TestJson:
    @pytest.mark.parametrize("make", [
        lambda: gen_dissemination(5, 16),
        lambda: gen_ring_allreduce(4, 512, 7),
        lambda: gen_compute_collective(3, 11, "ring", 30, 2),
        lambda: gen_compute_collective(5, 11, "dissemination", 30, 3),
    ])
    def test_roundtrip(self, make):
        s = make()
        back = schedule_from_json(schedule_to_json(s))
        assert back == s and back.metadata == s.metadata

    def test_metadata_retained(self):
        s = gen_dissemination(4, 16)
        back = schedule_from_json(schedule_to_json(s))
        assert dict(back.metadata) == dict(s.metadata)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_metadata_not_written(self, value):
        s = gen_dissemination(2, 16)
        with pytest.raises(ValueError):
            schedule_to_json(Schedule(s.nranks, s.ops, {"x": value}))

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_json('{"schema": "nope", "num_ranks": 1, "ranks": [[]]}')

    @pytest.mark.parametrize("doc, message", [
        ([], "must be an object"),
        (_calc_doc(num_ranks="1"), "'num_ranks' must be an integer"),
        (_calc_doc(metadata=[]), "'metadata' must be an object"),
        (_calc_doc(schema="nope"), "unexpected schedule schema 'nope'"),
        ({"schema": "nsim.schedule/1", "num_ranks": 1, "ranks": [[]]},
         re.escape("nsim.schedule/1 is no longer read; "
                   "regenerate it with 'nsim gen ... --format json'")),
        pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply to decode",
                     id="nested_too_deeply"),
        # A column that is not a list of ints: bools and floats equal to an int included
        (_calc_doc(kinds={}), "'kinds' must be a list of integers"),
        (_calc_doc(rank_offsets="abc"), "'rank_offsets' must be a list of integers"),
        (_calc_doc(sizes=None), "'sizes' must be a list of integers"),
        (_calc_doc(kinds=[2, 2, None]), "'kinds' must be a list of integers"),
        (_calc_doc(kinds=[2, ["calc"], 2]), "'kinds' must be a list of integers"),
        (_calc_doc(kinds=[2, {}, 2]), "'kinds' must be a list of integers"),
        (_calc_doc(kinds=[2, True, 2]), "'kinds' must be a list of integers"),
        (_calc_doc(peers=[-1, "1", -1]), "'peers' must be a list of integers"),
        (_calc_doc(sizes=[1, 1, True]), "'sizes' must be a list of integers"),
        (_calc_doc(sizes=[1, 1.0, 1]), "'sizes' must be a list of integers"),
        (_calc_doc(req_offsets=[0, 0, 1, 3.0]), "'req_offsets' must be a list of integers"),
        (_calc_doc(req_targets=0), "'req_targets' must be a list of integers"),
        (_calc_doc(req_targets=[0, 0, None]), "'req_targets' must be a list of integers"),
        (_calc_doc(peers=[-1, 0, -1]), "calc ops take no peer"),
        (_calc_doc(req_targets=[0, 0, True]), "'req_targets' must be a list of integers"),
        (_calc_doc(req_targets=[0, 0, 0.0]), "'req_targets' must be a list of integers"),
        (_calc_doc(req_targets=[0, 0, "0"]), "'req_targets' must be a list of integers"),
        # Lengths and offsets
        (_calc_doc(sizes=[1, 1]), "one entry per op"),
        (_calc_doc(peers=[-1, -1, -1, -1]), "one entry per op"),
        (_calc_doc(req_offsets=[0, 0, 1]), "one entry per op"),
        (_calc_doc(rank_offsets=[]), "'rank_offsets' must run from 0 to 3"),
        (_calc_doc(rank_offsets=[1, 3]), "'rank_offsets' must run from 0 to 3"),
        (_calc_doc(rank_offsets=[0, 2]), "'rank_offsets' must run from 0 to 3"),
        (_calc_doc(num_ranks=3, rank_offsets=[0, 2, 1, 3]), "'rank_offsets' must run from 0"),
        (_calc_doc(req_offsets=[1, 1, 1, 3]), "'req_offsets' must run from 0 to 3"),
        (_calc_doc(req_offsets=[0, 0, 1, 2]), "'req_offsets' must run from 0 to 3"),
        (_calc_doc(req_offsets=[0, 2, 1, 3]), "'req_offsets' must run from 0 to 3"),
        # Kind codes and requires order
        (_calc_doc(kinds=[2, 2, 3]), re.escape("'kinds' must hold the codes 0 (send), 1")),
        (_calc_doc(kinds=[2, -1, 2]), re.escape("'kinds' must hold the codes 0 (send), 1")),
        (_calc_doc(req_targets=[0, 1, 0]), "rank 0 op 2: requires must be sorted and unique"),
        (_calc_doc(req_targets=[0, 1, 1]), "rank 0 op 2: requires must be sorted and unique"),
        (_calc_doc(num_ranks=3, rank_offsets=[0, 0, 3, 3], req_targets=[0, 1, 0]),
         "rank 1 op 2: requires must be sorted and unique"),
    ])
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            schedule_from_json(doc if isinstance(doc, str) else json.dumps(doc))


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


_GENERATED = {
    "dissem": lambda p: gen_dissemination(p, 16),
    "ring": lambda p: gen_ring_allreduce(p, 64 * p),
    "ring_reduce": lambda p: gen_ring_allreduce(p, 64 * p, reduce_cost_per_chunk=7),
    "compapp_dissem": lambda p: gen_compute_collective(p, 100, "dissemination", 8, 2),
    "compapp_ring": lambda p: gen_compute_collective(p, 100, "ring", 8 * p, 2),
}


@pytest.mark.parametrize("nranks", [2, 3, 5, 8, 13])
@pytest.mark.parametrize("make", sorted(_GENERATED))
def test_writer_matches_object_oracle_on_generated_schedules(make, nranks):
    # Generated ranks repeat their structure, which runnable_schedules rarely does.
    s = _GENERATED[make](nranks)
    assert emit_goal(s) == oracle_emit_goal(s)


@settings(max_examples=100, deadline=None)
@given(schedule=runnable_schedules())
@example(schedule=Schedule(4, gen_dissemination(4, 16).ops, {"a\nrank 9 {": 1}))
def test_text_round_trip_with_metadata(schedule):
    # Keys and values are flattened to one comment line each.
    assert parse_goal(emit_goal(schedule)) == schedule


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


@st.composite
def broken_documents(draw):
    """The JSON document of a ``runnable_schedules`` example with one column
    changed: an element made junk, an int appended, an element dropped, two
    requires of one op swapped or a kind code made 3."""
    doc = json.loads(schedule_to_json(draw(runnable_schedules())))
    req, req_off = doc["req_targets"], doc["req_offsets"]
    pairs = [j for j in range(1, len(req)) if j not in req_off]  # req[j - 1] is of the same op
    change = draw(st.sampled_from(["junk", "append", "drop"] + ["swap"] * bool(pairs)
                                  + ["kind"] * bool(doc["kinds"])))
    if change == "swap":
        j = draw(st.sampled_from(pairs))
        req[j - 1], req[j] = req[j], req[j - 1]
    elif change == "kind":
        doc["kinds"][draw(st.integers(0, len(doc["kinds"]) - 1))] = 3
    else:
        column = doc[draw(st.sampled_from([c for c in _COLUMNS if doc[c] or change == "append"]))]
        if change == "append":
            column.append(draw(st.integers(-1, 2**64)))
        elif change == "drop":
            del column[draw(st.integers(0, len(column) - 1))]
        else:
            column[draw(st.integers(0, len(column) - 1))] = draw(
                st.sampled_from([None, True, 1.0, "1", []]))
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=broken_documents())
def test_a_changed_column_is_a_value_error(text):
    # Never a TypeError, IndexError or OverflowError from a junk or misplaced value.
    with pytest.raises(ValueError):
        schedule_from_json(text)


def test_ops_view_round_trips_through_constructor():
    s = gen_compute_collective(3, 50, "ring", 30, 2)
    assert Schedule(s.nranks, s.ops, s.metadata) == s
    assert s.op_count() == sum(len(r) for r in s.ops)


# Op lists that the ScheduleOp/Schedule constructor and the JSON loader reject
# with the same message; JSON has no op ids, so the id faults are the
# constructor's alone.
_CONSTRUCTOR_FAULTS = [
    ("negative_id", [[(-1, CALC, None, 1)]], "op id must be >= 0"),
    ("negative_duration", [[(0, CALC, None, -1)]], "calc duration must be >= 0 ns"),
    ("negative_peer", [[(0, SEND, -2, 1)], []], "send needs a peer rank >= 0"),
    ("zero_size", [[], [(0, RECV, 0, 0)]], "recv size must be >= 1 byte"),
    ("ids_out_of_order", [[(1, CALC, None, 1)]], "rank 0: op ids must be 0..n-1 in order"),
    ("unknown_requires", [[(0, CALC, None, 1, {3, -1})]], "rank 0 op 0: unknown requires [-1, 3]"),
    ("rank_count", [[], []], "expected 1 rank op lists, got 2"),
    ("calc_with_peer", [[(0, CALC, 1, 1)]], "calc ops take no peer"),
]
_ID_FAULTS = {"negative_id", "ids_out_of_order"}


@pytest.mark.parametrize("fault, ranks, message", _CONSTRUCTOR_FAULTS,
                         ids=[row[0] for row in _CONSTRUCTOR_FAULTS])
def test_json_loader_and_constructor_agree_on_faults(fault, ranks, message):
    nranks = 1 if fault == "rank_count" else len(ranks)
    ops = [[ScheduleOp(*op) for op in rank] for rank in ranks]
    with pytest.raises(ValueError) as built:
        Schedule(nranks, ops)
    assert str(built.value) == message
    if fault not in _ID_FAULTS:
        with pytest.raises(ValueError) as loaded:
            schedule_from_json(json.dumps(schedule_doc(nranks, ops)))
        assert str(loaded.value) == message


# The field of the corrupt op that holds each fault, and the message naming it.
_OP_FAULTS = {
    "peer": "{kind} needs a peer rank >= 0",
    "size_bytes": "{kind} size must be >= 1 byte",
    "duration_ns": "calc duration must be >= 0 ns",
    "requires": "rank {r} op {i}: unknown requires [{bad}]",
}
_MARK = 987654321  # the corrupt op's size before it is corrupted; no other op has it


@settings(max_examples=200, deadline=None)
@given(base=runnable_schedules(), data=st.data())
def test_loaders_name_a_corrupt_op_alike_at_any_position(base, data):
    # The empty rank added last is a peer for every rank, so in the text a
    # zero size is the only fault.
    nranks = base.nranks + 1
    ops = [list(rank_ops) for rank_ops in base.ops] + [[]]
    r = data.draw(st.integers(0, nranks - 1), label="rank")
    i = data.draw(st.integers(0, len(ops[r])), label="op")
    field = data.draw(st.sampled_from(sorted(_OP_FAULTS)), label="fault")
    kinds = {"duration_ns": (CALC,), "requires": (SEND, RECV, CALC)}.get(field, (SEND, RECV))
    kind = data.draw(st.sampled_from(kinds), label="kind")
    requires = ops[r][i].requires if i < len(ops[r]) else frozenset()
    peer = None if kind == CALC else 0 if r == nranks - 1 else nranks - 1
    ops[r][i:i + 1] = [ScheduleOp(i, kind, peer, _MARK, requires)]
    good = Schedule(nranks, ops)
    doc, text = json.loads(schedule_to_json(good)), emit_goal(good)
    bad = data.draw(st.sampled_from((-1, len(ops[r]), len(ops[r]) + 2, 2**64)))
    if field == "requires":
        value = sorted(requires | {bad})
        ops[r][i] = ScheduleOp(i, kind, peer, _MARK, frozenset(value))
    elif field == "peer":
        value = -data.draw(st.integers(1, 3))
        ops[r][i] = ScheduleOp(i, kind, value, _MARK, requires)
    else:
        value = 0 if field == "size_bytes" else -data.draw(st.integers(1, 3))
        ops[r][i] = ScheduleOp(i, kind, peer, value, requires)
    g = doc["rank_offsets"][r] + i  # op i of rank r is element g of the op columns
    if field == "requires":  # one target more
        lo, hi = doc["req_offsets"][g:g + 2]
        doc["req_targets"][lo:hi] = value
        doc["req_offsets"][g + 1:] = [x + 1 for x in doc["req_offsets"][g + 1:]]
    else:
        doc["peers" if field == "peer" else "sizes"][g] = value
    message = _OP_FAULTS[field].format(kind=kind, r=r, i=i, bad=bad)
    with pytest.raises(ValueError) as built:
        Schedule(nranks, ops)
    with pytest.raises(ValueError) as loaded:
        schedule_from_json(json.dumps(doc))
    assert str(built.value) == str(loaded.value) == message
    if field == "size_bytes":
        with pytest.raises(ValueError) as parsed:
            parse_goal(text.replace(f" {_MARK}b ", " 0b "))
        assert str(parsed.value) == message


# ---------------------------------------------------------------------------
# The rank-at-a-time column builder against the op-at-a-time one in tests/oracles.py

from nsim.goal import _COLUMNS, KIND_CALC, KIND_RECV, KIND_SEND, _Columns  # noqa: E402
from oracles import OpColumns  # noqa: E402

# How each fault changes op i's (kind, peer, size, requires) of an n-op rank.
_RANK_FAULTS = {
    "negative_peer": lambda op, n, k: (op[0], -k, *op[2:]),
    "zero_size": lambda op, n, k: (*op[:2], 0, op[3]),
    "negative_size": lambda op, n, k: (*op[:2], -k, op[3]),
    "size_beyond_64_bits": lambda op, n, k: (*op[:2], 2**64 + k - 1, op[3]),
    "peer_beyond_64_bits": lambda op, n, k: (op[0], 2**63 + k - 1, *op[2:]),
    "negative_requires": lambda op, n, k: (*op[:3], op[3] | {-k}),
    "requires_past_rank": lambda op, n, k: (*op[:3], op[3] | {n + k - 1}),
    "requires_beyond_64_bits": lambda op, n, k: (*op[:3], op[3] | {2**64 + k - 1}),
}


@st.composite
def rank_columns(draw):
    """One rank's ``add_rank`` arguments: sends, recvs and calcs with edge
    values, with 0-3 faults from _RANK_FAULTS injected."""
    n = draw(st.integers(0, 6))
    ops = []
    for i in range(n):
        kind = draw(st.sampled_from((KIND_SEND, KIND_RECV, KIND_CALC)))
        peer = -1 if kind == KIND_CALC else draw(st.sampled_from((0, 1, 7, 2**63 - 1)))
        size = draw(st.sampled_from((0, 1, 2**64 - 1) if kind == KIND_CALC
                                    else (1, 16, 2**64 - 1)))
        ops.append((kind, peer, size, draw(st.sets(st.integers(0, n - 1), max_size=3))))
    if n:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            fault = draw(st.sampled_from(sorted(_RANK_FAULTS)))
            ops[i] = _RANK_FAULTS[fault](ops[i], n, draw(st.integers(1, 3)))
    requires = [sorted(op[3]) for op in ops]
    return ([op[0] for op in ops], [op[1] for op in ops], [op[2] for op in ops],
            [sum(map(len, requires[:i])) for i in range(n + 1)],
            [d for req in requires for d in req])


def _build(cols, append, ranks):
    """The columns after appending ``ranks`` with ``append``, or the message
    of the ValueError that stops it."""
    try:
        for rank in ranks:
            append(cols, *rank)
    except ValueError as exc:
        return str(exc)
    return [getattr(cols, name).tobytes() for name in _COLUMNS]


def _append_op_by_op(cols, kinds, peers, sizes, req_offsets, req_targets):
    for i in range(len(kinds)):
        cols.add(kinds[i], peers[i], sizes[i], req_targets[req_offsets[i]:req_offsets[i + 1]])
    cols.end_rank()


@settings(max_examples=400, deadline=None)
@given(ranks=st.lists(rank_columns(), min_size=1, max_size=3))
def test_rank_append_matches_op_by_op_oracle(ranks):
    assert (_build(_Columns(), _Columns.add_rank, ranks)
            == _build(OpColumns(), _append_op_by_op, ranks))


@settings(max_examples=300, deadline=None)
@given(rank=rank_columns(), data=st.data())
def test_a_rank_like_the_last_matches_add_rank(rank, data):
    kinds, _, *rest = rank
    peers = [-1 if kind == KIND_CALC
             else data.draw(st.sampled_from((0, 5, 2**63 - 1, -1, -(2**63), 2**63, 2**64)))
             for kind in kinds]

    def like_last(cols, kinds, peers, *rest):
        if len(cols.rank_offsets) == 1:
            cols.add_rank(kinds, peers, *rest)
        else:
            cols.add_like_last(peers)

    ranks = [rank, (kinds, peers, *rest)]
    assert _build(_Columns(), like_last, ranks) == _build(_Columns(), _Columns.add_rank, ranks)


@pytest.mark.parametrize("peer", [0, 1, -2])
def test_a_rank_like_the_last_refuses_a_calc_peer(peer):
    cols = _Columns()
    cols.add_rank([KIND_CALC, KIND_SEND], [-1, 1], [5, 16])
    with pytest.raises(ValueError, match="calc ops take no peer"):
        cols.add_like_last([peer, 1])


@pytest.mark.parametrize("load", [
    lambda size: schedule_from_json(json.dumps(
        schedule_doc(1, [[ScheduleOp(0, CALC, None, size)]]))),
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


def test_compiled_memory_per_op():
    import tracemalloc

    from nsim.simengine import _Compiled

    # What validate and _Compiled keep on top of the schedule's columns (the
    # walk's msg, by_level and level bounds, and the rank column), and at the
    # peak the walk's own per-op level and send-level columns and its queues.
    s = gen_dissemination(4096, 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c = _Compiled(s)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert c.n_levels == 2 * 12
    assert held / s.op_count() <= 14, held / s.op_count()
    assert peak / s.op_count() <= 28, peak / s.op_count()


@pytest.mark.parametrize("make", [
    lambda: gen_dissemination(4096, 16),
    lambda: gen_compute_collective(8, 100_000, "ring", 65536, 100),
], ids=["wide", "deep"])
def test_level_columns_memory_per_op(make):
    import tracemalloc

    from nsim.simengine import _Compiled, _level_columns

    # The batch engine's layout: six 8-byte columns in level order and a view
    # of the walk's op ids, plus the arrays' headers (under 4 KB in all),
    # whatever the number of levels; at the peak also the gathered kinds,
    # masks and message numbers.
    s = make()
    c = _Compiled(s)
    _level_columns(c, 1000)  # numpy's own first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        columns = _level_columns(c, 1000)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    n = s.op_count()
    assert all(len(col) == n for col in columns)
    assert held <= 48 * n + 4096, held / n
    assert peak <= 60 * n, peak / n


def test_validate_runs_once_per_schedule(monkeypatch):
    from nsim import goal

    walks, diagnoses = [], []
    real_walk, real_diagnose = goal._walk, goal._violations
    monkeypatch.setattr(goal, "_walk", lambda s: walks.append(s) or real_walk(s))
    monkeypatch.setattr(goal, "_violations", lambda s: diagnoses.append(s) or real_diagnose(s))
    s = schedule_from_json(schedule_to_json(gen_ring_allreduce(4, 512, 7)))
    assert validate(s) == [] and validate(s) == []
    assert execution_order(s) is execution_order(s)
    assert len(walks) == 1 and diagnoses == []
    bad = Schedule(nranks=2, ops=((ScheduleOp(0, SEND, 1, 4),), ()))
    assert validate(bad) == validate(bad) == [
        "unmatched messages 0->1 size 4: 1 send(s), 0 recv(s)"]
    for _ in range(2):
        with pytest.raises(ScheduleValidationError, match="unmatched"):
            execution_order(bad)
    assert len(walks) == 2 and diagnoses == [bad]


# ---------------------------------------------------------------------------
# The one static walk against the three-pass oracle in tests/oracles.py

from oracles import static_analysis  # noqa: E402

_FAULTS = ("none", "extra_send", "extra_recv", "cycle", "forward_requires", "self_requires",
           "head_of_line", "self_peer", "peer_out_of_range")


@st.composite
def faulty_schedules(draw):
    """A ``runnable_schedules`` example with at most one deliberate fault: an
    unmatched triple (an extra send or an extra recv), a requires cycle, a
    forward requires without a cycle, an op that requires itself, a
    recv-first head-of-line deadlock
    between two ranks, or a message op whose peer is its own rank or out of
    range."""
    base = draw(runnable_schedules())
    nranks = base.nranks
    ops = [list(rank_ops) for rank_ops in base.ops]
    fault = draw(st.sampled_from(_FAULTS))
    r = draw(st.integers(0, nranks - 1))
    size = draw(st.sampled_from((1, 16)))

    def append(rank, kind, peer, size):
        ops[rank].append(ScheduleOp(len(ops[rank]), kind, peer, size))

    def other(rank):
        return draw(st.integers(0, nranks - 1).filter(lambda p: p != rank))

    if fault in ("extra_send", "extra_recv") and nranks > 1:
        append(r, SEND if fault == "extra_send" else RECV, other(r), size)
    elif fault in ("cycle", "forward_requires"):
        while len(ops[r]) < 2:
            append(r, CALC, None, 1)
        i, j = sorted(draw(st.lists(st.integers(0, len(ops[r]) - 1), min_size=2, max_size=2,
                                    unique=True)))
        op_i, op_j = ops[r][i], ops[r][j]
        # Op i requires the later op j. For a cycle, j requires i as well;
        # otherwise j keeps only requires before i, so no path leads back.
        j_requires = (op_j.requires | {i} if fault == "cycle"
                      else {d for d in op_j.requires if d < i})
        ops[r][j] = ScheduleOp(j, op_j.kind, op_j.peer, op_j.size, j_requires)
        ops[r][i] = ScheduleOp(i, op_i.kind, op_i.peer, op_i.size, op_i.requires | {j})
    elif fault == "self_requires" and ops[r]:
        i = draw(st.integers(0, len(ops[r]) - 1))
        op = ops[r][i]
        ops[r][i] = ScheduleOp(i, op.kind, op.peer, op.size, op.requires | {i})
    elif fault == "head_of_line" and nranks > 1:
        b = other(r)
        for x, y in ((r, b), (b, r)):
            append(x, RECV, y, size)
            append(x, SEND, y, size)
    elif fault in ("self_peer", "peer_out_of_range"):
        peer = r if fault == "self_peer" else draw(st.integers(nranks, nranks + 2))
        append(r, draw(st.sampled_from((SEND, RECV))), peer, size)
    return Schedule(nranks, tuple(map(tuple, ops)))


def _ring_with_late_forward_requires(nranks: int, size: int, rank: int) -> Schedule:
    """``gen_ring_allreduce(nranks, size)`` whose second-to-last op of ``rank``
    also requires the next op of that rank."""
    ops = [list(rank_ops) for rank_ops in gen_ring_allreduce(nranks, size).ops]
    i = len(ops[rank]) - 2
    op = ops[rank][i]
    ops[rank][i] = ScheduleOp(i, op.kind, op.peer, op.size, op.requires | {i + 1})
    return Schedule(nranks, tuple(map(tuple, ops)))


@settings(max_examples=400, deadline=None)
@given(schedule=faulty_schedules())
# Each rank of the ring resumes about 126 times, once per message it waits for.
@example(schedule=gen_ring_allreduce(64, 4096))
@example(schedule=_ring_with_late_forward_requires(64, 4096, 5))
def test_walk_matches_three_pass_oracle(schedule):
    from nsim.simengine import _Compiled

    violations, msg, level, blocked = static_analysis(schedule)
    assert validate(schedule) == violations
    if violations:
        for analyse in (execution_order, _Compiled):
            with pytest.raises(ScheduleValidationError) as err:
                analyse(schedule)
            assert err.value.violations == violations
    elif blocked is not None:
        for analyse in (execution_order, _Compiled):
            with pytest.raises(DeadlockError) as err:
                analyse(schedule)
            assert err.value.blocked == blocked
            assert str(err.value) == str(DeadlockError(blocked))
    else:
        got_msg, by_level, bounds = execution_order(schedule)
        assert got_msg.tolist() == msg
        # Sorted by level, each level in op order, level v filling
        # by_level[bounds[v]:bounds[v + 1]].
        assert by_level.tolist() == sorted(range(len(level)), key=level.__getitem__)
        assert bounds[0] == 0 and bounds[-1] == len(level)
        assert [level[g] for g in by_level] == [
            v for v in range(len(bounds) - 1) for _ in range(bounds[v], bounds[v + 1])]


def test_num_ranks_too_large_to_allocate():
    # 10**15 rank slots fail to allocate at once; no memory is touched.
    with pytest.raises(GoalSyntaxError, match="line 1, col 11: num_ranks 10+ is too large"):
        parse_goal("num_ranks 1000000000000000\n")
    with pytest.raises(GoalSyntaxError, match="num_ranks 10+ is too large"):
        parse_goal("num_ranks 100000000000000000000\n")


# ---------------------------------------------------------------------------
# The bulk block reader against the one-statement-at-a-time reader in
# tests/oracles.py

import nsim.goal as goal_module  # noqa: E402
from oracles import parse_goal as oracle_parse_goal  # noqa: E402

# Labels: plain and keyword-prefixed. Numbers: leading zeros, Unicode digits
# (Python's \d) and the largest 64-bit size. Each rank has several spellings.
_LABELS = ["a", "b", "o0", "o1", "o10", "sendx", "_q"]
_SPELLINGS = [["0", "00", "٠"], ["1", "01", "١"], ["2", "002", "٢"]]
_SIZES = ["1", "16", "007", "٣", "1٦", str(2**64 - 1)]
_GAPS = [" ", "\t", "\n", "\r\n", "  \t"]
_COMMENTS = [" # c\n", "#c\n", "\n# x: send 1b to 0 }\n"]
# At most one fault per text, and what it puts in place of a good word.
_TEXT_FAULTS = {
    "label": ["send", "requires", "é", "aé"],
    "size": [str(2**64), str(2**70)],
    "zero_size": ["0"],
    "peer": ["3", "03", "9", str(2**64)],
    "rank": ["3", "5"],
    "unknown_label": ["zz", "o2"],
    "junk": ["$", "{"],
}
_TEXT_STRUCTURAL_FAULTS = ["own_peer", "duplicate_label", "duplicate_block", "preposition",
                           "calc_peer", "no_peer", "no_gap", "unclosed"]


@st.composite
def goal_texts(draw):
    """GOAL texts of up to four blocks of num_ranks 3, in any order, with and
    without comments: forward references, repeated requires lines, tabs, CR
    and newlines inside statements. Most hold one fault: a bad label, size,
    peer or rank, an unknown or duplicate label, a wrong statement form, a
    duplicate block, a block without its '}', a missing gap or a stray
    character."""
    pick = lambda items: draw(st.sampled_from(items))  # noqa: E731
    fault = pick([None] + sorted(_TEXT_FAULTS) + _TEXT_STRUCTURAL_FAULTS)
    blocks = []  # [rank, its spelling, gap pool, statements as lists of words]
    for rank in draw(st.lists(st.integers(0, 2), max_size=4, unique=True)):
        labels = draw(st.lists(st.sampled_from(_LABELS), max_size=5, unique=True))
        stmts = []
        for label in labels:
            kind = pick([SEND, RECV, CALC, CALC])
            if kind == CALC:
                stmts.append([label, ":", kind, pick(_SIZES)])
            else:
                peer = pick([r for r in range(3) if r != rank])
                stmts.append([label, ":", kind, pick(_SIZES) + "b",
                              "to" if kind == SEND else "from", pick(_SPELLINGS[peer])])
        for _ in range(draw(st.integers(0, len(labels)))):
            deps = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
            words = [pick(labels), "requires", deps[0]]
            for dep in deps[1:]:
                words += [",", dep]
            stmts.insert(draw(st.integers(0, len(stmts))), words)
        pool = _GAPS + _COMMENTS if draw(st.integers(0, 3)) == 0 else _GAPS
        blocks.append([rank, pick(_SPELLINGS[rank]), pool, stmts])
    # Each fault goes into a statement that can hold it, if there is one.
    stmts = [(block, words) for block in blocks for words in block[3]]
    msgs = [(block, words) for block, words in stmts if words[2:3] in ([SEND], [RECV])]
    eligible = {"rank": [(block, None) for block in blocks], "junk": stmts,
                "label": stmts, "no_gap": stmts,
                "unknown_label": [(b, w) for b, w in stmts if w[1] == "requires"],
                "size": [(b, w) for b, w in stmts if w[1] == ":"],
                "calc_peer": [(b, w) for b, w in stmts if w[2:3] == [CALC]],
                "duplicate_label": [(b, w) for b, w in stmts if w[1] == ":"]}
    eligible["zero_size"] = eligible["size"]
    no_gap = unclosed = None
    if fault == "duplicate_block" and blocks:
        blocks.append(list(pick(blocks)))
    elif fault == "unclosed" and blocks:
        unclosed = draw(st.integers(0, len(blocks) - 1))
    elif fault and eligible.get(fault, msgs):
        block, words = pick(eligible.get(fault, msgs))
        bad = pick(_TEXT_FAULTS.get(fault, [""]))
        if fault == "rank":
            block[1] = bad
        elif fault == "junk":
            block[3].insert(block[3].index(words) + draw(st.integers(0, 1)), [bad])
        elif fault == "label":
            words[0] = bad
        elif fault == "unknown_label":
            words[-1] = bad
        elif fault in ("size", "zero_size"):
            words[3] = bad + ("" if words[2] == CALC else "b")
        elif fault == "peer":
            words[5] = bad
        elif fault == "own_peer":
            words[5] = pick(_SPELLINGS[block[0]])
        elif fault == "preposition":
            words[4] = "from" if words[4] == "to" else "to"
        elif fault == "calc_peer":
            words[3:] = [words[3] + "b", "to", "1"]
        elif fault == "no_peer":
            del words[4:]
        elif fault == "no_gap":
            no_gap = id(words), draw(st.integers(1, len(words) - 1))
        elif fault == "duplicate_label":
            others = [w for b, w in eligible[fault] if b is block and w is not words]
            if others:
                words[0] = pick(others)[0]

    def gap(pool, least):
        return "".join(draw(st.lists(st.sampled_from(pool), min_size=least, max_size=2)))

    def join(words, pool):
        text = words[0]
        for i, (prev, word) in enumerate(zip(words, words[1:]), 1):
            least = 0 if prev in ":," or word in ":," else 1
            text += ("" if (id(words), i) == no_gap else gap(pool, least)) + word
        return text

    text = gap(_GAPS, 0) + "num_ranks" + gap(_GAPS, 1) + pick(["3", "03", "٣"])
    for i, (_, spelling, pool, stmts) in enumerate(blocks):
        body = "".join(join(words, pool) + gap(pool, 1) for words in stmts)
        text += (gap(_GAPS, 1) + "rank" + gap(pool, 1) + spelling + gap(pool, 0) + "{"
                 + gap(pool, 0) + body + ("" if i == unclosed else "}"))
    return text + gap(_GAPS, 0)


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


@settings(max_examples=400, deadline=None)
@given(text=goal_texts())
def test_bulk_reader_matches_statement_oracle(text):
    assert _parse_outcome(parse_goal, text) == _parse_outcome(oracle_parse_goal, text)


class _CountingPattern:
    """Stands in for ``_BULK_RE`` and counts its ``findall`` calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def findall(self, *args):
        self.calls += 1
        return self.pattern.findall(*args)

    def finditer(self, *args):
        return self.pattern.finditer(*args)


def _count_findall(monkeypatch) -> _CountingPattern:
    bulk = _CountingPattern(goal_module._BULK_RE)
    monkeypatch.setattr(goal_module, "_BULK_RE", bulk)
    return bulk


def _count_replayed_blocks(monkeypatch) -> list:
    calls = []
    replay = goal_module._block_fault

    def counting(*args):
        calls.append(args[4])  # the rank
        return replay(*args)

    monkeypatch.setattr(goal_module, "_block_fault", counting)
    return calls


@pytest.mark.parametrize("make", [
    lambda: gen_dissemination(33, 16),
    lambda: gen_ring_allreduce(6, 600, reduce_cost_per_chunk=5),
    lambda: gen_compute_collective(5, 1000, "dissemination", 8, 3),
], ids=["dissem", "ring", "compapp"])
def test_generated_text_takes_the_bulk_path(monkeypatch, make):
    # Every block after the first has the first one's words but for its peers.
    s = make()
    calls, bulk = _count_replayed_blocks(monkeypatch), _count_findall(monkeypatch)
    assert parse_goal(emit_goal(s)) == s
    assert calls == [] and bulk.calls == 1


def test_a_block_with_a_comment_takes_the_bulk_path(monkeypatch):
    s = gen_dissemination(8, 16)
    text = emit_goal(s).replace("rank 5 {\n  o0:", "rank 5 {\n  o0: # the middle rank\n")
    calls, bulk = _count_replayed_blocks(monkeypatch), _count_findall(monkeypatch)
    assert parse_goal(text) == s
    assert calls == [] and bulk.calls == 1


def test_a_reflowed_block_runs_findall_once_more(monkeypatch):
    # The reflowed block splits into other words; the next block matches the first.
    s = gen_dissemination(8, 16)
    text = emit_goal(s).replace("rank 5 {\n  o0: send", "rank 5 {\n  o0\n:send")
    bulk = _count_findall(monkeypatch)
    assert parse_goal(text) == s
    assert bulk.calls == 2


def test_only_the_block_with_a_fault_is_replayed(monkeypatch):
    text = emit_goal(gen_dissemination(8, 16)).replace("rank 5 {\n  o0:", "rank 5 {\n  $ o0:")
    calls = _count_replayed_blocks(monkeypatch)
    with pytest.raises(GoalSyntaxError, match="found '\\$ o0: send"):
        parse_goal(text)
    assert calls == [5]


# One change to one block after the first of an emitted text: what it puts in
# place of a peer, of the whitespace after a word, of a size, or what it adds.
_TEMPLATE_PEERS = {
    "own": lambda rank, nranks, peer: str(rank),
    "out_of_range": lambda rank, nranks, peer: str(nranks),
    "beyond_64_bits": lambda rank, nranks, peer: str(2**64),
    "zero_padded": lambda rank, nranks, peer: "00" + peer,
    "unicode": lambda rank, nranks, peer: "".join(chr(0x660 + int(d)) for d in peer),
    "other_rank": lambda rank, nranks, peer: str((int(peer) + 1) % nranks),
}
_TEMPLATE_GAPS = ["  ", "\n", "\t\n ", " # c\n", ""]
_TEMPLATE_SIZES = ["0", "17", "016", str(2**64)]
_TEMPLATE_STRAYS = ["$", "{", "x", "٣", ","]


@st.composite
def templated_texts(draw):
    """The emitted text of a small generated schedule, one of whose later
    blocks is changed: a peer made its own rank, out of range, beyond 64 bits,
    zero-padded, Unicode digits or another rank; whitespace, a newline or a
    comment added or dropped after a word; a size changed; the '}' dropped; or
    a stray character added."""
    nranks = draw(st.integers(3, 6))
    text = emit_goal(_GENERATED[draw(st.sampled_from(sorted(_GENERATED)))](nranks))
    rank = draw(st.integers(1, nranks - 1))
    start = text.index(f"rank {rank} {{")
    close = text.index("}", start)
    body = text[start:close]
    edit = draw(st.sampled_from(["peer", "gap", "size", "unclosed", "stray"]))
    if edit == "peer":
        m = draw(st.sampled_from(list(re.finditer(r"(?:to|from) (\d+)", body))))
        how = _TEMPLATE_PEERS[draw(st.sampled_from(sorted(_TEMPLATE_PEERS)))]
        body = body[:m.start(1)] + how(rank, nranks, m[1]) + body[m.end(1):]
    elif edit == "gap":
        at = draw(st.sampled_from([m.start() for m in re.finditer(r" (?=\S)", body)]))
        body = body[:at] + draw(st.sampled_from(_TEMPLATE_GAPS)) + body[at + 1:]
    elif edit == "size":
        m = draw(st.sampled_from(list(re.finditer(r"(?:calc |: \w+ )(\d+)", body))))
        body = body[:m.start(1)] + draw(st.sampled_from(_TEMPLATE_SIZES)) + body[m.end(1):]
    elif edit == "stray":
        at = draw(st.integers(len(f"rank {rank} {{"), len(body)))
        body = body[:at] + draw(st.sampled_from(_TEMPLATE_STRAYS)) + body[at:]
    return text[:start] + body + text[close + (edit == "unclosed"):]


@settings(max_examples=300, deadline=None)
@given(text=templated_texts())
def test_templated_reader_matches_statement_oracle(text):
    assert _parse_outcome(parse_goal, text) == _parse_outcome(oracle_parse_goal, text)
