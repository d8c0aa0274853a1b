"""Brute-force ranked answers: the one reference the tests compare with.

:func:`answers` evaluates a select-join-rank query the slow, obvious
way.  It joins the tables one at a time, in the order given, and keeps
a partial answer only while every predicate and selection whose columns
are bound so far holds -- so it never builds the full cartesian
product.  It then scores every answer and sorts them by ``(score
descending, canonical row key)``, where the canonical row key is
``tuple(sorted(merged.items()))`` over the answer's qualified columns.
It reads the tables' typed columns, never the engine's operators, its
Row facade or its score functions.  The ranked-answer semantics are
those of Tziavelis et al., "Ranked Enumeration for Database Queries".

Tie contract
------------
:func:`assert_top_k` is the one comparison every test uses.  The
engine's top-``k`` (``got``, best first) is correct when:

* the ``k`` scores match the reference's position by position, within
  ``1e-9`` relative (``1e-12`` absolute, for scores at zero);
* each row's score is the reference score of an answer with the same
  values on the columns the test reads (the score belongs to the row,
  not only to its position);
* the rows scored strictly above the ``k``-th score match the
  reference's as a multiset, on those columns;
* the rows tied with the ``k``-th score are answers with that score.
  Which of them fill the last places, and in which order, is
  unspecified: HRJN breaks ties by push sequence, a sort by arrival.

When ``k`` covers every answer, the whole multiset must match.
"""

import math
from collections import Counter, namedtuple

#: One join answer: its score and its ``{qualified column: value}`` row.
Answer = namedtuple("Answer", "score row")

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _same_score(a, b):
    """True when two scores are equal under the tie contract."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _scorer(score):
    """A ``row -> float`` callable for ``score``.

    ``score`` is a column name, a ``{column: weight}`` mapping, anything
    with such a ``weights`` mapping (a ``ScoreExpression``), a callable,
    or ``None`` (every answer scores 0: an unranked join).
    """
    if score is None:
        return lambda row: 0.0
    if isinstance(score, str):
        return lambda row: row[score]
    weights = getattr(score, "weights", score)
    if isinstance(weights, dict):
        terms = list(weights.items())
        return lambda row: math.fsum(w * row[c] for c, w in terms)
    return score


def _table_rows(table, alias=None):
    """Every row of ``table`` as a ``{qualified column: value}`` dict.

    Read from the typed columns; ``alias`` qualifies the columns under
    another name, as ``FROM T alias`` does.
    """
    prefix = alias or table.name
    n = len(table)
    names = ["%s.%s" % (prefix, column.name) for column in table.schema]
    values = [table.column(column.qualified_name)[:n]
              for column in table.schema]
    return names, [dict(zip(names, row)) for row in zip(*values)]


def _pair(predicate):
    if hasattr(predicate, "left_column"):
        return predicate.left_column, predicate.right_column
    left, right = predicate
    return left, right


def answers(tables, predicates=(), score=None, filters=()):
    """Every answer of the join, best first (see the module docstring).

    ``tables`` holds tables or ``(alias, table)`` pairs; ``predicates``
    equality pairs ``(left column, right column)`` or ``JoinPredicate``
    objects; ``filters`` selections with a ``column`` and a
    ``matches(row)`` (``FilterPredicate``); ``score`` anything
    :func:`_scorer` takes.
    """
    pending = [_pair(p) for p in predicates]
    selections = list(filters)
    partial = [{}]
    bound = set()
    for entry in tables:
        alias, table = entry if isinstance(entry, tuple) else (None, entry)
        names, rows = _table_rows(table, alias)
        new = set(names)
        # Selections and predicates over this table alone thin its rows.
        local = [f for f in selections if f.column in new]
        inner = [(a, b) for a, b in pending if a in new and b in new]
        rows = [row for row in rows
                if all(f.matches(row) for f in local)
                and all(row[a] == row[b] for a, b in inner)]
        # Predicates reaching back to a bound table compare a key.
        cross = [(a, b) if b in new else (b, a) for a, b in pending
                 if (a in bound and b in new) or (b in bound and a in new)]
        bound_key = [a for a, _ in cross]
        new_key = [b for _, b in cross]
        keyed = [(tuple(row[c] for c in new_key), row) for row in rows]
        extended = []
        for merged in partial:
            key = tuple(merged[c] for c in bound_key)
            for row_key, row in keyed:
                if row_key == key:
                    extended.append({**merged, **row})
        partial = extended
        bound |= new
        selections = [f for f in selections if f.column not in bound]
        pending = [(a, b) for a, b in pending
                   if a not in bound or b not in bound]
    if pending or selections:
        raise ValueError("columns bound by no table: %r"
                         % (pending + selections,))
    score_of = _scorer(score)
    result = [Answer(score_of(row), row) for row in partial]
    result.sort(key=lambda a: (-a.score, tuple(sorted(a.row.items()))))
    return result


def assert_top_k(got, want, k, score, columns=()):
    """Assert ``got`` is a correct top-``k`` of ``want``.

    ``got`` is the engine's rows, best first, and ``want`` this
    module's :func:`answers`.  ``score`` reads a score off a ``got`` row
    (anything :func:`_scorer` takes), and ``columns`` name what each row
    is compared on; with none, only the scores are.
    """
    got = list(got)
    expected = want[:k]
    assert len(got) == len(expected), (
        "got %d rows, want %d" % (len(got), len(expected)))
    score_of = _scorer(score)
    for position, (row, answer) in enumerate(zip(got, expected)):
        value = score_of(row)
        assert _same_score(value, answer.score), (
            "score at position %d: got %r, want %r"
            % (position, value, answer.score))
    if not columns or not expected:
        return

    def project(row):
        return tuple(row[c] for c in columns)

    scores_of = {}
    for answer in want:
        scores_of.setdefault(project(answer.row), []).append(answer.score)
    for position, row in enumerate(got):
        value = score_of(row)
        assert any(_same_score(value, s)
                   for s in scores_of.get(project(row), ())), (
            "row at position %d scores %r, which no answer with its "
            "columns %r does" % (position, value, project(row)))
    boundary = expected[-1].score
    above = sum(1 for a in expected if not _same_score(a.score, boundary))
    assert (Counter(map(project, got[:above]))
            == Counter(project(a.row) for a in expected[:above])), (
        "rows scored above the k-th score differ")
    tied = Counter(project(a.row) for a in want[above:]
                   if _same_score(a.score, boundary))
    extra = Counter(map(project, got[above:])) - tied
    assert not extra, (
        "rows tied at the k-th score that are no such answer: %r"
        % (sorted(extra),))


def assert_query_top_k(got, catalog, query, columns=None):
    """:func:`assert_top_k` of a ``RankQuery``'s rows over ``catalog``.

    Rows are compared on ``columns``, by default the ranking's.
    """
    if columns is None:
        columns = query.ranking.columns()
    tables = [(alias, catalog.table(base))
              for alias, base in sorted(query.aliases.items())]
    want = answers(tables, query.predicates, query.ranking, query.filters)
    assert_top_k(got, want, query.k, query.ranking, columns)
