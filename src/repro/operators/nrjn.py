"""NRJN: the nested-loops rank-join operator (Section 2.2).

NRJN follows a nested-loops strategy: the *outer* input is consumed in
descending score order while the *inner* input is scanned in full.  Its
internal state is only a priority queue of seen join combinations plus
the running threshold

    T = f(last_outer_score, top_inner_score)

which upper-bounds every join result involving a not-yet-seen outer
tuple.  Unlike HRJN only one input (the outer) needs ranked access --
this is exactly the weaker join-eligibility rule of Section 3.2.

In kernel terms (:mod:`repro.operators.rank_kernel`) that is an HRJN
whose right input is consumed in full on open: an exhausted right
input leaves exactly the threshold above and polls only the left (an
empty inner bounds it at ``-inf``: nothing is pulled from the outer).
Every inner tuple is read and its score checked on open, but the
inner's hash table is a :class:`~repro.operators.rank_kernel.ProbeTable`
over a grouping of the inner by join key -- the table's cached
:meth:`~repro.storage.table.Table.key_positions` for a heap scan --
and builds ``(score, row)`` entries only for the keys the outer probes.
"""

from repro.operators.hrjn import HRJN


class NRJN(HRJN):
    """Nested-loops Rank Join.

    Parameters
    ----------
    outer:
        Ranked child (descending on ``outer_score``); left input.
    inner:
        Unrestricted child; read in full on open into a hash lookup
        probed per outer tuple (same results as a rescan per outer
        tuple, just faster).
    outer_key / inner_key:
        Equi-join keys (see :class:`~repro.operators.hrjn.HRJN`).
    outer_score / inner_score:
        Score specs; ``inner_score`` only needs to be *evaluable* per
        row (the inner stream need not be sorted).
    combiner:
        Monotone combining function (default
        :class:`~repro.common.scoring.SumScore`).  Combined scores are
        always computed as ``f(outer_score, inner_score)``.
    output_score_column:
        Computed column name for the combined score.
    """

    def __init__(self, outer, inner, outer_key, inner_key, outer_score,
                 inner_score, combiner=None, output_score_column=None,
                 name=None):
        super().__init__(
            outer, inner, outer_key, inner_key, outer_score, inner_score,
            combiner=combiner, output_score_column=output_score_column,
            name=name or "NRJN",
        )

    def _open(self):
        super()._open()
        self._kernel.preload(1)

    def describe(self):
        return "NRJN(f=%r, score->%s)" % (
            self.combiner, self.output_score_column,
        )
