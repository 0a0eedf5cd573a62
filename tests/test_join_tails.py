"""Join tails are chunk kernels over lists of matched pairs.

The tail of every join strategy — residual predicate, output projection,
boundary dicts — is lowered to one kernel that takes a list of ``(left,
right)`` slotted pairs.  It must keep exactly the pairs the row-at-a-time
reference keeps, in pair order, and the executor must still cut result
messages at exactly ``RESULT_SLICE_ROWS`` rows.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.executor import RESULT_SLICE_ROWS, QueryExecutor
from repro.core.expressions import Arithmetic, Comparison, col, lit
from repro.core.opgraph import OpKind, _compile_pair_emitter, build_opgraph
from repro.core.query import JoinClause, JoinStrategy, QuerySpec, TableRef
from repro.core.tuples import Column, RelationDef, Schema
from repro.exceptions import SchemaError
from repro.workloads import JoinWorkload, WorkloadConfig
from tests.conftest import build_pier
from tests.reference import evaluate, evaluate_query, merge_rows, qualify, row_multiset


def paper_query_tail():
    """The fig-3 query's probe tail and the layouts it joins."""
    query = JoinWorkload(WorkloadConfig(num_nodes=4, seed=3)).make_query(
        strategy=JoinStrategy.SYMMETRIC_HASH)
    graph = build_opgraph(query)
    layouts = {chain.alias: chain.layout for chain in graph.artifacts.chains.values()}
    (probe,) = graph.nodes_of_kind(OpKind.PROBE)
    return query, graph.artifacts.pair_emitters[probe.op_id], layouts["R"], layouts["S"]


def reference_tail(query, left_layout, right_layout, pairs):
    """Row-at-a-time tail: merge the qualified dicts, filter, project."""
    rows = []
    for left, right in pairs:
        merged = merge_rows(qualify("R", dict(zip(left_layout.names, left))),
                            qualify("S", dict(zip(right_layout.names, right))))
        if evaluate(query.post_join_predicate, merged):
            rows.append({name: merged[name] for name in query.output_columns})
    return rows


def slotted(layout):
    return st.tuples(*(st.integers(min_value=0, max_value=99)
                       for _name in layout.names))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tail_kernel_keeps_the_reference_rows_in_pair_order(data):
    query, emit, left_layout, right_layout = paper_query_tail()
    pairs = data.draw(st.lists(st.tuples(slotted(left_layout),
                                         slotted(right_layout)), max_size=40))
    assert emit(pairs) == reference_tail(query, left_layout, right_layout, pairs)


def test_join_tail_projection_is_exact_and_reports_all_missing():
    query, _emit, left_layout, right_layout = paper_query_tail()
    query.output_columns = ["R.pkey", "pkey", "S.nope"]
    with pytest.raises(SchemaError) as error:
        _compile_pair_emitter(query, left_layout, right_layout)
    assert "'pkey'" in str(error.value) and "S.nope" in str(error.value)


# ----------------------------------------------------------- result slicing

#: ``(rows per message, sha256 of the messages' rows in order)`` of the hot
#: key below, recorded with the per-pair tail the kernel replaced.  It read
#: ([1519, 1251, 1988, 2014, 4096, 3072, 4096, 537, 4096, 1106],
#: "99114278ab314d5f") until a lookup began to end at the node whose routing
#: table names the owner: the rehash lookups end a hop sooner, so the
#: fragments reach the join site at other times and in other chunks, and
#: each probe call joins another set of pairs.  Every call's rows still
#: leave as full slices and one last remainder.  It read
#: ([1302, 1501, 2827, 2335, 4096, 3181, 4096, 662, 3775], "bfa4562d165136ac")
#: until a key's point became its own bit fields instead of a salted
#: re-hash: the rows' owners and the paths to the join site moved, so the
#: fragments arrive in other chunks again.
HOT_KEY_MESSAGES = (
    [1661, 1728, 3202, 2916, 4096, 564, 4096, 754, 4096, 662],
    "9d7618dbbe518109",
)


def test_a_hot_key_is_cut_into_the_same_result_messages(monkeypatch):
    """500 R and 50 S tuples share one join value, so single probe calls
    join thousands of pairs, and the residual rejects some of them: the rows
    of a call leave in messages of exactly ``RESULT_SLICE_ROWS`` rows, the
    last one holding the rest."""
    relations = [
        RelationDef(name, Schema([Column("id", "int"), Column("k", "int"),
                                  Column(value, "int")]), primary_key="id")
        for name, value in (("HR", "x"), ("HS", "y"))
    ]
    pier = build_pier(4)
    tables = {}
    for relation, value, count in zip(relations, ("x", "y"), (500, 50)):
        rows = [{"id": i, "k": 0, value: i} for i in range(count)]
        pier.load_relation(relation, {1: rows})
        tables[relation.name] = rows
    query = QuerySpec(
        tables=[TableRef(relations[0], "R"), TableRef(relations[1], "S")],
        output_columns=["R.id", "S.id"],
        join=JoinClause("R", "k", "S", "k"),
        post_join_predicate=Comparison(
            "<", Arithmetic("+", col("R.x"), col("S.y")), lit(500)),
        strategy=JoinStrategy.SYMMETRIC_HASH,
    )
    query.query_id = 9003
    messages = []
    send = QueryExecutor._send_results

    def record(self, query, rows, bytes_per_row=None):
        if rows:
            messages.append(list(rows))
        return send(self, query, rows, bytes_per_row)

    monkeypatch.setattr(QueryExecutor, "_send_results", record)
    rows = pier.client().query(query).fetchall()
    assert row_multiset(rows) == row_multiset(evaluate_query(query, tables))
    digest = hashlib.sha256(repr(messages).encode()).hexdigest()[:16]
    assert ([len(rows) for rows in messages], digest) == HOT_KEY_MESSAGES
    assert max(len(rows) for rows in messages) == RESULT_SLICE_ROWS
