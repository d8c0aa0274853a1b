"""The filter/restart approach to top-k queries (related work, Sec. 6).

Before rank-aware operators, a common strategy (Carey & Kossmann;
Bruno, Chaudhuri & Gravano; Donjerkovic & Ramakrishnan -- the paper's
references [3, 5, 6, 11]) mapped ranking to a *filter condition with a
cutoff*: guess a score cutoff expected to pass ~k results, evaluate
the (cheap, unordered) filtered query, and if fewer than k results
survive, *restart* with a relaxed cutoff.  The survivors are sorted at
the end.

This module implements that strategy for the top-k join so the
extension experiments can compare it against rank-join plans: the risk of
restarts is exactly what the probabilistic optimization in [11]
prices, and what rank-join operators avoid by construction.
"""

import math

from repro.common.errors import ExecutionError


class FilterRestartResult:
    """Outcome of a filter/restart evaluation."""

    __slots__ = ("rows", "restarts", "tuples_consumed", "cutoffs")

    def __init__(self, rows, restarts, tuples_consumed, cutoffs):
        self.rows = rows
        self.restarts = restarts
        self.tuples_consumed = tuples_consumed
        self.cutoffs = cutoffs

    def __repr__(self):
        return ("FilterRestartResult(%d rows, %d restarts, %d tuples)"
                % (len(self.rows), self.restarts, self.tuples_consumed))


def _initial_cutoff(k, selectivity, left_scored, right_scored,
                    score_high):
    """Cutoff on the *combined* score expected to pass about k results.

    Under uniform per-input scores in [0, high], the combined score of
    a random join result follows the triangular u2 distribution over
    [0, 2*high]; the tail above ``2*high - delta`` holds a fraction
    ``delta^2 / (2 high^2)`` of results.  Choosing that fraction as
    ``k / expected_results`` gives the cutoff.
    """
    expected_results = selectivity * len(left_scored) * len(right_scored)
    if expected_results <= 0:
        return 0.0
    fraction = min(1.0, k / expected_results)
    delta = math.sqrt(2.0 * fraction) * score_high
    return 2.0 * score_high - delta


def filter_restart_topk(left_rows, right_rows, left_key, right_key,
                        left_score, right_score, k, selectivity,
                        score_high=1.0, relax_factor=2.0,
                        max_restarts=32):
    """Answer a top-k join by filter + restart.

    Parameters
    ----------
    left_rows / right_rows:
        Materialised input rows (any iterable of
        :class:`~repro.common.types.Row`).
    left_key / right_key / left_score / right_score:
        ``row -> value`` accessors.
    k:
        Results required.
    selectivity:
        Estimated join selectivity (used to pick the initial cutoff).
    score_high:
        Upper end of each per-input score range.
    relax_factor:
        Multiplier on the tail width after a failed attempt.
    max_restarts:
        Safety valve.

    Returns a :class:`FilterRestartResult`; ``rows`` holds up to ``k``
    ``(combined_score, left_row, right_row)`` triples, best first.
    """
    left_rows = list(left_rows)
    right_rows = list(right_rows)
    cutoff = _initial_cutoff(k, selectivity, left_rows, right_rows,
                             score_high)
    restarts = 0
    tuples_consumed = 0
    cutoffs = []
    while True:
        cutoffs.append(cutoff)
        # Per-input filter: a result with combined score >= cutoff
        # needs each input score >= cutoff - high (the other side
        # contributes at most `high`).
        input_cutoff = cutoff - score_high
        left_pass = [row for row in left_rows
                     if left_score(row) >= input_cutoff]
        right_pass = [row for row in right_rows
                      if right_score(row) >= input_cutoff]
        tuples_consumed += len(left_rows) + len(right_rows)

        lookup = {}
        for row in right_pass:
            lookup.setdefault(right_key(row), []).append(row)
        survivors = []
        for left_row in left_pass:
            for right_row in lookup.get(left_key(left_row), ()):
                combined = left_score(left_row) + right_score(right_row)
                if combined >= cutoff:
                    survivors.append((combined, left_row, right_row))

        join_size_bound = selectivity * len(left_rows) * len(right_rows)
        if len(survivors) >= min(k, join_size_bound) or cutoff <= 0.0:
            survivors.sort(key=lambda item: -item[0])
            # A final validity check: with cutoff > 0 we may have the
            # full top-k only if at least k survived; the loop
            # condition guarantees it (or the join is smaller than k).
            return FilterRestartResult(
                survivors[:k], restarts, tuples_consumed, cutoffs,
            )
        restarts += 1
        if restarts > max_restarts:
            raise ExecutionError(
                "filter/restart did not converge after %d restarts"
                % (max_restarts,)
            )
        # Relax: widen the tail below the top by relax_factor.
        tail = 2.0 * score_high - cutoff
        cutoff = max(0.0, 2.0 * score_high - tail * relax_factor)
