"""Unit tests for the dataflow operators.

The group-by and its aggregate states are engine code; the push-based
``Operator`` boxes and the row-at-a-time scan / selection / projection /
join / sink operators are the reference implementation under
``tests/reference/`` that the engine is tested against.
"""

import pytest

from repro.core.expressions import Comparison, col, lit
from repro.core.operators import make_aggregate
from repro.core.operators.aggregate import (
    AvgState,
    CountState,
    MaxState,
    MinState,
    SumState,
    state_from_payload,
)
from repro.exceptions import QueryError
from tests.reference import (
    Collector,
    ListScan,
    Operator,
    OutputQueue,
    Projection,
    Qualify,
    RowGroupBy,
    Selection,
    SymmetricHashJoin,
    Tee,
    chain,
)


ROWS = [
    {"pkey": 1, "num2": 30.0, "group": "a"},
    {"pkey": 2, "num2": 70.0, "group": "a"},
    {"pkey": 3, "num2": 90.0, "group": "b"},
]


# --------------------------------------------------------------- base / queue


def test_output_queue_fifo_and_drain_limit():
    queue = OutputQueue()
    for value in range(5):
        queue.append({"v": value})
    assert len(queue) == 5
    first_two = queue.drain(limit=2)
    assert [row["v"] for row in first_two] == [0, 1]
    rest = queue.drain()
    assert [row["v"] for row in rest] == [2, 3, 4]
    assert not queue


def test_operator_without_consumer_buffers_output():
    operator = Operator()
    operator.push({"x": 1})
    assert operator.output.peek_all() == [{"x": 1}]
    assert operator.rows_in == 1 and operator.rows_out == 1


def test_chain_wires_operators_and_finish_propagates():
    scan = ListScan(ROWS)
    select = Selection(Comparison(">", col("num2"), lit(50)))
    collector = Collector()
    assert chain(scan, select, collector) is scan
    scan.run()
    assert [row["pkey"] for row in collector.rows] == [2, 3]
    assert collector.finished


def test_finish_is_idempotent():
    finished = []

    class CountsFinish(Operator):
        def on_finish(self):
            finished.append(self.rows_in)

    operator = CountsFinish()
    operator.push({"x": 1})
    operator.finish()
    operator.finish()
    assert finished == [1]
    assert operator.finished


def test_tee_invokes_callback_without_altering_rows():
    seen = []
    scan = ListScan(ROWS)
    tee = Tee(seen.append)
    collector = Collector()
    chain(scan, tee, collector)
    scan.run()
    assert seen == collector.rows == ROWS


# ------------------------------------------------------------------ selection


def test_selection_none_predicate_passes_everything():
    select = Selection(None)
    collector = Collector()
    select.add_consumer(collector)
    select.push_many(ROWS)
    assert len(collector.rows) == 3
    assert select.selectivity == 1.0


def test_selection_tracks_selectivity():
    select = Selection(Comparison(">", col("num2"), lit(50)))
    select.push_many(ROWS)
    assert select.rows_filtered == 1
    assert select.selectivity == pytest.approx(2 / 3)


# --------------------------------------------------------- projection/qualify


def test_projection_keeps_only_listed_columns():
    project = Projection(["pkey"])
    collector = Collector()
    project.add_consumer(collector)
    project.push_many(ROWS)
    assert collector.rows[0] == {"pkey": 1}


def test_qualify_prefixes_alias():
    qualify = Qualify("R")
    collector = Collector()
    qualify.add_consumer(collector)
    qualify.push({"pkey": 1})
    assert collector.rows == [{"R.pkey": 1}]


# ----------------------------------------------------------------------- scan


def test_list_scan_copies_rows():
    scan = ListScan(ROWS)
    collector = Collector()
    scan.add_consumer(collector)
    scan.run()
    collector.rows[0]["pkey"] = 999
    assert ROWS[0]["pkey"] == 1  # original untouched


# ----------------------------------------------------------------------- join


def left_key(row):
    return row["k"]


def test_symmetric_hash_join_emits_each_pair_once():
    join = SymmetricHashJoin(left_key, left_key)
    collector = Collector()
    join.add_consumer(collector)
    join.push_left({"k": 1, "a": "L1"})
    join.push_right({"k": 1, "b": "R1"})
    join.push_left({"k": 1, "a": "L2"})
    join.push_right({"k": 2, "b": "R2"})
    assert len(collector.rows) == 2
    assert {row["a"] for row in collector.rows} == {"L1", "L2"}


def test_symmetric_hash_join_order_independent_count():
    rows_left = [{"k": i % 3, "a": i} for i in range(9)]
    rows_right = [{"k": i % 3, "b": i} for i in range(6)]

    def run(order):
        join = SymmetricHashJoin(left_key, left_key)
        collector = Collector()
        join.add_consumer(collector)
        for side, row in order:
            if side == "l":
                join.push_left(row)
            else:
                join.push_right(row)
        return len(collector.rows)

    forward = [("l", row) for row in rows_left] + [("r", row) for row in rows_right]
    interleaved = [pair for pairs in zip(
        [("r", row) for row in rows_right],
        [("l", row) for row in rows_left[:6]],
    ) for pair in pairs] + [("l", row) for row in rows_left[6:]]
    assert run(forward) == run(interleaved) == 18


def test_symmetric_hash_join_residual_predicate():
    join = SymmetricHashJoin(
        left_key, left_key,
        residual=Comparison(">", col("a"), col("b")),
    )
    collector = Collector()
    join.add_consumer(collector)
    join.push_left({"k": 1, "a": 10})
    join.push_right({"k": 1, "b": 5})
    join.push_right({"k": 1, "b": 50})
    assert len(collector.rows) == 1


def test_symmetric_hash_join_tagged_push_interface():
    join = SymmetricHashJoin(left_key, left_key)
    collector = Collector()
    join.add_consumer(collector)
    join.push({"side": "left", "row": {"k": 1, "a": 1}})
    join.push({"side": "right", "row": {"k": 1, "b": 2}})
    assert len(collector.rows) == 1
    with pytest.raises(ValueError):
        join.push({"k": 1})


def test_symmetric_hash_join_buffer_counts():
    join = SymmetricHashJoin(left_key, left_key)
    join.push_left({"k": 1, "a": 1})
    join.push_left({"k": 2, "a": 2})
    join.push_right({"k": 3, "b": 3})
    assert join.left_rows_buffered == 2
    assert join.right_rows_buffered == 1


def test_symmetric_hash_join_rows_in_counts_each_input_once():
    """Regression: rows fed through push() (tagged) and push_left/push_right
    must each be counted exactly once in rows_in — the seed adjusted the
    counter down inside process() to compensate for double counting."""
    join = SymmetricHashJoin(left_key, left_key)
    join.push({"side": "left", "row": {"k": 1, "a": 1}})
    join.push({"side": "right", "row": {"k": 1, "b": 2}})
    join.push_left({"k": 2, "a": 2})
    join.push_right({"k": 2, "b": 3})
    assert join.rows_in == 4
    assert join.rows_out == 2
    # Mixing entrypoints keeps the count exact under push_many as well.
    join.push_many([
        {"side": "left", "row": {"k": 9, "a": 9}},
        {"side": "right", "row": {"k": 9, "b": 9}},
    ])
    assert join.rows_in == 6
    assert join.rows_out == 3


# ------------------------------------------------------------------ aggregates


def test_aggregate_states_basic_results():
    count, total, avg = CountState(), SumState(), AvgState()
    low, high = MinState(), MaxState()
    for value in (5, 10, 15):
        count.add(value)
        total.add(value)
        avg.add(value)
        low.add(value)
        high.add(value)
    assert count.result() == 3
    assert total.result() == 30
    assert avg.result() == pytest.approx(10.0)
    assert low.result() == 5
    assert high.result() == 15


def test_aggregate_states_ignore_none():
    count = CountState()
    count.add(None)
    count.add(1)
    assert count.result() == 1
    assert SumState().result() is None
    assert MinState().result() is None


def test_aggregate_merge_equals_single_pass():
    values = list(range(20))
    split = 7
    for factory in (CountState, SumState, AvgState, MinState, MaxState):
        single = factory()
        for value in values:
            single.add(value)
        left, right = factory(), factory()
        for value in values[:split]:
            left.add(value)
        for value in values[split:]:
            right.add(value)
        left.merge(right)
        assert left.result() == single.result()


def test_aggregate_payload_round_trip():
    for factory in (CountState, SumState, AvgState, MinState, MaxState):
        state = factory()
        state.add(3)
        state.add(9)
        restored = state_from_payload(state.to_payload())
        assert restored.result() == state.result()


def test_make_aggregate_rejects_unknown_function():
    with pytest.raises(QueryError):
        make_aggregate("median")
    with pytest.raises(QueryError):
        state_from_payload(("median", 1))


def accumulate(aggregate, rows):
    for row in rows:
        aggregate.process(row)
    return aggregate


def test_group_by_aggregate_groups():
    aggregate = accumulate(RowGroupBy(
        group_by=["group"],
        aggregates=[("count", None, "cnt"), ("sum", "num2", "total")],
    ), ROWS)
    assert aggregate.result_rows() == [
        {"group": "a", "cnt": 2, "total": 100.0},
        {"group": "b", "cnt": 1, "total": 90.0},
    ]
    assert aggregate.group_count == 2


def test_group_by_aggregate_global_group():
    aggregate = accumulate(
        RowGroupBy(group_by=[], aggregates=[("count", None, "cnt")]), ROWS)
    assert aggregate.result_rows() == [{"cnt": 3}]


def test_group_by_aggregate_merge_partials():
    partial_a = accumulate(RowGroupBy(["group"], [("count", None, "cnt")]),
                           ROWS[:2])
    partial_b = accumulate(RowGroupBy(["group"], [("count", None, "cnt")]),
                           ROWS[2:])
    final = RowGroupBy(["group"], [("count", None, "cnt")])
    for partial in (partial_a, partial_b):
        for group_key, payloads in partial.partial_payloads().items():
            final.merge_partial(group_key, payloads)
    rows = {row["group"]: row["cnt"] for row in final.result_rows()}
    assert rows == {"a": 2, "b": 1}


def test_group_by_missing_column_raises():
    aggregate = RowGroupBy(["missing"], [("count", None, "cnt")])
    with pytest.raises(QueryError):
        aggregate.process({"x": 1})
