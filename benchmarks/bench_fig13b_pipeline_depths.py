"""Figure 13(b): depth estimation for the *child* operator of Plan P.

Figure 13 of the paper reports, for its multi-feature Plan P, the
depths of both the top rank-join (d1, d2) and a child rank-join
(d5, d6) against the Any-k and Top-k estimates.  The child's required
k is not the user's k but the top operator's estimated depth
(Algorithm Propagate), so this experiment exercises the full recursive
estimation path.

Claims to reproduce: child depths exceed the user's k, measured depths
sit between the Any-k and (worst-case) Top-k estimates, and the error
stays within the paper's ~30% band.  Both estimates come from one
Propagate over the pipeline's plan nodes: Top-k is each operator's
``d_left``/``d_right``, Any-k its ``c_left``/``c_right`` at the same
required k.
"""

from repro.experiments.harness import measure_pipeline_depths
from repro.experiments.report import format_table, relative_error

from benchmarks.conftest import emit

CARDINALITY = 6000
SELECTIVITY = 0.01
KS = (25, 50, 100)


def run_experiment():
    return {
        k: measure_pipeline_depths(CARDINALITY, SELECTIVITY, k, inputs=3,
                                   seed=2024)
        for k in KS
    }


def any_k(estimate):
    return (estimate.c_left + estimate.c_right) / 2.0


def top_k(estimate):
    return (estimate.d_left + estimate.d_right) / 2.0


def test_fig13b_child_operator_depths(run_once):
    records = run_once(run_experiment)
    rows = []
    for k in KS:
        # Bottom-up order: index 0 is the child (reads base relations),
        # index 1 the top operator.
        for level, label in ((1, "top (d1,d2)"), (0, "child (d5,d6)")):
            _name, actual, estimate, required = records[k][level]
            rows.append([
                k, label, round(required), sum(actual) / 2.0,
                any_k(estimate), top_k(estimate),
            ])
    emit(format_table(
        ["user k", "operator", "required k", "actual depth",
         "Any-k est", "Top-k est"],
        rows,
        title="Figure 13(b): pipeline depth estimation "
              "(n=%d, s=%g, 3 inputs)" % (CARDINALITY, SELECTIVITY),
    ))
    for k in KS:
        _name, child_actual, child_estimate, child_required = records[k][0]
        # The child is asked for more than the user's k (Figure 4).
        assert child_required > k
        mean_actual = sum(child_actual) / 2.0
        # Sandwich with slack: any-k below, worst-case above.
        assert any_k(child_estimate) <= mean_actual * 1.3
        assert mean_actual <= top_k(child_estimate) * 1.3
        # The conservative (worst-case) estimate stays within a small
        # constant factor of the measurement.
        assert relative_error(mean_actual, top_k(child_estimate)) <= 0.75
