"""Unit tests for the SQL parser."""

import pytest

from repro.common.errors import ParseError
from repro.sql.parser import parse_query

Q1 = """
WITH RankedABC as (
SELECT A.c1 as x ,B.c2 as y, rank() OVER
(ORDER BY (0.3*A.c1+0.7*B.c2)) as rank
FROM A,B,C
WHERE A.c1 = B.c1 and B.c2 = C.c2)
SELECT x,y,rank
FROM RankedABC
WHERE rank <=5;
"""

Q2 = """
WITH RankedABC as (
SELECT A.c1 as x ,B.c1 as y, C.c1 as z, rank() OVER
(ORDER BY (0.3*A.c1+0.3*B.c1+0.3*C.c1)) as rank
FROM A,B,C
WHERE A.c2 = B.c1 and B.c2 = C.c2)
SELECT x,y,z,rank
FROM RankedABC
WHERE rank <=5;
"""


class TestPaperQueries:
    def test_q1_shape(self):
        query = parse_query(Q1)
        assert query.tables == frozenset("ABC")
        assert query.k == 5
        assert query.ranking.weights == {"A.c1": 0.3, "B.c2": 0.7}
        assert len(query.predicates) == 2
        assert query.select == ("A.c1", "B.c2")

    def test_q2_shape(self):
        query = parse_query(Q2)
        assert query.ranking.weights == {
            "A.c1": 0.3, "B.c1": 0.3, "C.c1": 0.3,
        }
        assert query.k == 5

    def test_unit_weights(self):
        query = parse_query(
            "WITH R AS (SELECT A.c1 AS x, rank() OVER "
            "(ORDER BY (A.c1 + B.c1)) AS r FROM A, B "
            "WHERE A.c2 = B.c2) SELECT x, r FROM R WHERE r <= 3",
        )
        assert query.ranking.weights == {"A.c1": 1.0, "B.c1": 1.0}


class TestPlainQueries:
    def test_select_join(self):
        query = parse_query(
            "SELECT A.c2 FROM A, B WHERE A.c1 = B.c1",
        )
        assert not query.is_ranking
        assert query.select == ("A.c2",)

    def test_order_by(self):
        query = parse_query(
            "SELECT A.c2 FROM A ORDER BY A.c2",
        )
        assert query.order_by == "A.c2"

    def test_select_star(self):
        query = parse_query("SELECT * FROM A")
        assert query.select is None

    def test_order_by_limit_becomes_topk(self):
        query = parse_query(
            "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 7",
        )
        assert query.is_ranking
        assert query.k == 7
        assert query.ranking.columns() == ("A.c1",)

    def test_ascending_limit_rejected(self):
        with pytest.raises(ParseError, match="DESC"):
            parse_query("SELECT A.c1 FROM A ORDER BY A.c1 LIMIT 7")

    def test_explicit_asc_rejected(self):
        with pytest.raises(ParseError, match="ascending"):
            parse_query("SELECT A.c1 FROM A ORDER BY A.c1 ASC")


class TestErrors:
    def test_limit_without_order_by(self):
        with pytest.raises(ParseError):
            parse_query("SELECT A.c1 FROM A LIMIT 5")

    def test_missing_rank_item(self):
        with pytest.raises(ParseError, match="rank"):
            parse_query(
                "WITH R AS (SELECT A.c1 AS x FROM A) "
                "SELECT x FROM R WHERE x <= 5",
            )

    def test_outer_from_mismatch(self):
        with pytest.raises(ParseError, match="FROM must reference"):
            parse_query(
                "WITH R AS (SELECT A.c1 AS x, rank() OVER "
                "(ORDER BY A.c1) AS r FROM A) "
                "SELECT x FROM Other WHERE r <= 5",
            )

    def test_outer_where_mismatch(self):
        with pytest.raises(ParseError, match="WHERE must filter"):
            parse_query(
                "WITH R AS (SELECT A.c1 AS x, rank() OVER "
                "(ORDER BY A.c1) AS r FROM A) "
                "SELECT x FROM R WHERE x <= 5",
            )

    def test_non_integer_k(self):
        with pytest.raises(ParseError, match="positive integer"):
            parse_query(
                "WITH R AS (SELECT A.c1 AS x, rank() OVER "
                "(ORDER BY A.c1) AS r FROM A) "
                "SELECT x FROM R WHERE r <= 2.5",
            )

    def test_duplicate_score_column(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_query(
                "WITH R AS (SELECT A.c1 AS x, rank() OVER "
                "(ORDER BY (0.3*A.c1 + 0.7*A.c1)) AS r FROM A) "
                "SELECT x FROM R WHERE r <= 5",
            )

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_query("SELECT A.c1 FROM A ) )")

    def test_bare_ident_after_table_is_alias(self):
        query = parse_query("SELECT a1.c1 FROM A a1")
        assert query.tables == frozenset({"a1"})
        assert query.aliases == {"a1": "A"}

    def test_unknown_output_column(self):
        with pytest.raises(ParseError, match="unknown output column"):
            parse_query(
                "WITH R AS (SELECT A.c1 AS x, rank() OVER "
                "(ORDER BY A.c1) AS r FROM A) "
                "SELECT zz, r FROM R WHERE r <= 5",
            )

    @pytest.mark.parametrize("text, position", [
        # Superscript two in a rank bound / a weight, Arabic-Indic three.
        ("WITH R AS (SELECT A.c1 AS x, rank() OVER "
         "(ORDER BY A.c1) AS rank FROM A) "
         "SELECT x FROM R WHERE rank <= 5²", 104),
        ("WITH R AS (SELECT A.c1 AS x, rank() OVER "
         "(ORDER BY (²*A.c1)) AS r FROM A) "
         "SELECT x FROM R WHERE r <= 5", 52),
        ("SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT ٣", 44),
    ])
    def test_non_ascii_digits_are_parse_errors(self, text, position):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_query(text)
        assert info.value.position == position
