"""Buffer-size estimation for rank-join operators (Section 5.3).

A rank-join buffers join results it has produced but cannot yet report.
The worst case is producing the full join of the consumed prefixes
before reporting anything, so an upper bound on the buffer size is::

    buffer <= dL * dR * s

Using measured depths gives the paper's "actual upper-bound"; using the
estimated depths gives its "estimated upper-bound".
"""

from repro.common.errors import EstimationError


def buffer_upper_bound(depth_left, depth_right, selectivity):
    """Worst-case buffered join results given the consumed depths."""
    if depth_left < 0 or depth_right < 0:
        raise EstimationError("depths must be non-negative")
    if not 0.0 <= selectivity <= 1.0:
        raise EstimationError(
            "selectivity must be in [0, 1], got %r" % (selectivity,)
        )
    return depth_left * depth_right * selectivity
