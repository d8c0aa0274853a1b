"""Unit tests for the any-k DP enumeration operator.

Correctness against brute force on hand-built trees, the ranked-stream
contract (non-increasing scores, no duplicate answers) as a hypothesis
property over *random acyclic join graphs*, and constructor
validation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.common.rng import make_rng
from repro.operators.anyk import AnyK, AnyKNode
from repro.operators.scan import TableScan
from repro.storage.table import Table

from tests.reference_answers import answers, assert_top_k


def make_table(name, rows):
    """``rows`` is a list of ``(ka, kb, score)`` triples."""
    table = Table.from_columns(name, [
        ("id", "int"), ("ka", "int"), ("kb", "int"),
        ("score", "float"),
    ])
    for i, (ka, kb, score) in enumerate(rows):
        table.insert([i, int(ka), int(kb), float(score)])
    return table


def build_operator(tables, edges):
    """``edges[i] = (parent, child_col, parent_col)`` for node i+1."""
    nodes = [AnyKNode(0, None,
                      score_weights=[("%s.score" % tables[0].name, 1.0)])]
    for index, (parent, child_column, parent_column) in enumerate(edges):
        child_name = tables[index + 1].name
        nodes.append(AnyKNode(
            index + 1, parent,
            key="%s.%s" % (child_name, child_column),
            parent_key="%s.%s" % (tables[parent].name, parent_column),
            score_weights=[("%s.score" % child_name, 1.0)],
        ))
    return AnyK([TableScan(table) for table in tables], nodes,
                name="AK")


def check_against_oracle(tables, edges, rows, score_column):
    """Every answer of the join tree, in score order: the full drain."""
    predicates = [
        ("%s.%s" % (tables[index + 1].name, child_column),
         "%s.%s" % (tables[parent].name, parent_column))
        for index, (parent, child_column, parent_column) in enumerate(edges)
    ]
    want = answers(tables, predicates,
                   {"%s.score" % table.name: 1.0 for table in tables})
    assert_top_k(rows, want, len(want), score_column,
                 columns=["%s.id" % table.name for table in tables])


def drain(operator):
    operator.open()
    try:
        rows = []
        while True:
            row = operator.next()
            if row is None:
                return rows
            rows.append(row)
    finally:
        operator.close()


def seeded_rows(n, domain, seed):
    rng = make_rng(seed)
    return [(int(rng.integers(0, domain)), int(rng.integers(0, domain)),
             float(rng.uniform(0, 1))) for _ in range(n)]


class TestCorrectness:
    def tree(self):
        tables = [make_table("T%d" % i, seeded_rows(12, 3, seed=i + 1))
                  for i in range(4)]
        # A genuine multi-key tree: T1 under T0 on ka, T2 under T1 on
        # kb, T3 under T0 on kb -- chain and star edges mixed.
        edges = [(0, "ka", "ka"), (1, "kb", "kb"), (0, "kb", "kb")]
        return tables, edges

    def test_matches_brute_force(self):
        tables, edges = self.tree()
        operator = build_operator(tables, edges)
        check_against_oracle(tables, edges, drain(operator),
                             operator.output_score_column)

    def test_scores_non_increasing_bitwise(self):
        tables, edges = self.tree()
        operator = build_operator(tables, edges)
        rows = drain(operator)
        scores = [row[operator.output_score_column] for row in rows]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_no_duplicates(self):
        tables, edges = self.tree()
        rows = drain(build_operator(tables, edges))
        ids = [tuple(row["T%d.id" % i] for i in range(4))
               for row in rows]
        assert len(ids) == len(set(ids))

    def test_empty_join_yields_nothing(self):
        left = make_table("T0", [(0, 0, 0.5)])
        right = make_table("T1", [(1, 1, 0.5)])
        operator = build_operator([left, right], [(0, "ka", "ka")])
        assert drain(operator) == []


class TestValidation:
    def test_root_with_keys_rejected(self):
        with pytest.raises(ExecutionError):
            AnyKNode(0, None, key="T0.ka", parent_key="T0.ka")

    def test_non_root_without_keys_rejected(self):
        with pytest.raises(ExecutionError):
            AnyKNode(1, 0)

    def test_parent_must_precede_child(self):
        table = make_table("T0", [(0, 0, 0.5)])
        other = make_table("T1", [(0, 0, 0.5)])
        nodes = [
            AnyKNode(0, None),
            AnyKNode(1, 1, key="T1.ka", parent_key="T1.ka"),
        ]
        with pytest.raises(ExecutionError):
            AnyK([TableScan(table), TableScan(other)], nodes)

    def test_children_must_be_permuted_exactly_once(self):
        table = make_table("T0", [(0, 0, 0.5)])
        other = make_table("T1", [(0, 0, 0.5)])
        nodes = [
            AnyKNode(0, None),
            AnyKNode(0, 0, key="T0.ka", parent_key="T0.ka"),
        ]
        with pytest.raises(ExecutionError):
            AnyK([TableScan(table), TableScan(other)], nodes)

    def test_at_least_two_children(self):
        table = make_table("T0", [(0, 0, 0.5)])
        with pytest.raises(ExecutionError):
            AnyK([TableScan(table)], [AnyKNode(0, None)])


@st.composite
def random_join_tree(draw):
    """A random acyclic join graph: tables, edges, and row data."""
    m = draw(st.integers(2, 4))
    edges = []
    for child in range(1, m):
        parent = draw(st.integers(0, child - 1))
        child_column = draw(st.sampled_from(["ka", "kb"]))
        parent_column = draw(st.sampled_from(["ka", "kb"]))
        edges.append((parent, child_column, parent_column))
    row_lists = [
        draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2),
                      st.floats(0, 1, width=16)),
            min_size=1, max_size=8))
        for _ in range(m)
    ]
    return edges, row_lists


@settings(max_examples=40, deadline=None)
@given(random_join_tree())
def test_ranked_stream_property(tree):
    """Non-increasing scores, no duplicates, complete answer set --
    for arbitrary acyclic join graphs and inputs."""
    edges, row_lists = tree
    tables = [make_table("T%d" % i, rows)
              for i, rows in enumerate(row_lists)]
    operator = build_operator(tables, edges)
    rows = drain(operator)
    scores = [row[operator.output_score_column] for row in rows]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    ids = [tuple(row["T%d.id" % i] for i in range(len(tables)))
           for row in rows]
    assert len(ids) == len(set(ids))
    check_against_oracle(tables, edges, rows, operator.output_score_column)
