"""Figure 4: depth propagation through a pipeline of rank-joins.

Paper's example: asking the top operator for k=100 results forces it to
read 580 tuples from each input, which means its child rank-join is
effectively asked for k=580 and in turn reads 783 tuples from each of
its inputs.  The shape to reproduce: required depth *grows* as k
propagates down the pipeline, and the measured depths track the
propagated estimates.
"""

from repro.experiments.harness import measure_pipeline_depths
from repro.experiments.report import format_table

from benchmarks.conftest import emit

CARDINALITY = 4000
SELECTIVITY = 0.01
K = 100


def run_figure4():
    return measure_pipeline_depths(
        CARDINALITY, SELECTIVITY, K, inputs=3, seed=42,
    )


def test_fig4_depth_propagation(run_once):
    records = run_once(run_figure4)
    rows = []
    for name, actual, estimate, required in records:
        rows.append([
            name, round(required),
            actual[0], actual[1],
            estimate.d_left, estimate.d_right,
        ])
    emit(format_table(
        ["operator", "required k", "actual dL", "actual dR",
         "estimated dL", "estimated dR"],
        rows,
        title="Figure 4: propagating k=%d down a 3-input rank-join "
              "pipeline (n=%d, s=%g)" % (K, CARDINALITY, SELECTIVITY),
    ))
    # records are bottom-up: [inner HRJN1, top HRJN2].
    inner, top = records[0], records[1]
    # The top operator needs k from the user ...
    assert top[3] == K
    # ... but must read (far) more than k tuples from each input.
    assert min(top[1]) > K
    # The inner operator is asked for the top operator's left depth,
    # which exceeds the user's k (the 100 -> 580 -> 783 shape).
    assert inner[3] > K
    assert max(inner[1]) >= max(top[1])
    # The worst-case estimates upper-bound the measured depths within
    # a modest factor and never undershoot by more than ~35%.
    for _name, actual, estimate, _required in records:
        for side, depth in enumerate(estimate.as_tuple()):
            assert depth >= actual[side] * 0.65
