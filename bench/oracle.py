"""Brute-force oracle for the benchmark's top-k join queries.

Every benchmark query is a connected equi-join in which every predicate
equates the tables' key columns, ranked by a positive-weighted sum of
one score column per table.  A result is therefore one row per table,
all carrying the same key, and the oracle is: full join, sort by score,
take k -- with no knowledge of rank joins, indexes or thresholds.

The full join of the benchmark's tables is far too large to enumerate
(3 x 50k rows on 50 keys is 10^11 results), so the oracle first drops
the rows that provably cannot reach the k-th score: the k-th score of a
small prefix join is a lower bound L on the true k-th score, and a row
whose weighted score plus every other table's best weighted score stays
below L cannot be part of a top-k result.  The full join of what
remains is enumerated, sorted, and cut at k.
"""

import numpy as np

#: Slack on the pruning bound, far above float rounding of a sum of at
#: most four terms in [0, 1] and far below the gaps between scores.
_SLACK = 1e-9


def _full_join(tables):
    """Scores of the full equi-join of ``[(weighted, keys), ...]``."""
    shared = None
    for _weighted, keys in tables:
        present = np.unique(keys)
        shared = present if shared is None else np.intersect1d(
            shared, present, assume_unique=True)
    parts = []
    for key in shared:
        total = None
        for weighted, keys in tables:
            group = weighted[keys == key]
            total = group if total is None else np.add.outer(
                total, group).ravel()
        parts.append(total)
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def top_k_scores(tables, weights, k):
    """The ``k`` best scores of the join, best first.

    ``tables`` is ``[(scores, keys), ...]`` as numpy arrays, one pair
    per joined table; ``weights`` the matching positive score weights.
    Returns ``min(k, join size)`` scores.
    """
    weighted = [(weight * scores, keys)
                for weight, (scores, keys) in zip(weights, tables)]
    largest = max(len(scores) for scores, _keys in weighted)
    prefix = 64
    while True:
        heads = []
        for scores, keys in weighted:
            order = np.argsort(-scores, kind="stable")[:prefix]
            heads.append((scores[order], keys[order]))
        found = _full_join(heads)
        if len(found) >= k or prefix >= largest:
            break
        prefix *= 2
    if len(found) >= k:
        bound = np.partition(found, len(found) - k)[len(found) - k]
        best = [scores.max() for scores, _keys in weighted]
        kept = []
        for index, (scores, keys) in enumerate(weighted):
            others = sum(best) - best[index]
            mask = scores >= bound - others - _SLACK
            kept.append((scores[mask], keys[mask]))
        found = _full_join(kept)
    return np.sort(found)[::-1][:k].tolist()
