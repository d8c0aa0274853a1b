"""Page-based I/O + CPU cost formulas.

The paper plugs "traditional cost formulas for external sorting and
index nested-loops join" into its comparison (Figure 6); this module
provides those formulas.  Costs are abstract units: one unit = one
sequential page read.  Random I/O carries a configurable multiplier,
and CPU work a small per-tuple weight so plans that touch the same
pages still differ.
"""

import math

from repro.common.errors import EstimationError


class CostModel:
    """Tunable cost model.

    Parameters
    ----------
    tuples_per_page:
        Tuples that fit one disk page.
    buffer_pages:
        Memory pages available to sorts and hash joins (``B``).
    random_io_weight:
        Cost of one random page read relative to a sequential one.
    cpu_tuple_weight:
        Cost of processing one tuple relative to a sequential page read.
    index_probe_pages:
        Pages touched by one index probe (root-to-leaf traversal).
    clustered_index:
        When true, sorted index access reads sequential pages; when
        false (default -- matching the high-dimensional indexes of the
        paper's video prototype) every indexed tuple costs a random
        page read.
    """

    def __init__(self, tuples_per_page=100, buffer_pages=64,
                 random_io_weight=4.0, cpu_tuple_weight=0.001,
                 index_probe_pages=2, clustered_index=False,
                 inline_shard_startup_cost=0.02,
                 pool_shard_startup_cost=6.0):
        if tuples_per_page < 1:
            raise EstimationError("tuples_per_page must be >= 1")
        if buffer_pages < 3:
            raise EstimationError("buffer_pages must be >= 3 (sort needs 3)")
        self.tuples_per_page = tuples_per_page
        self.buffer_pages = buffer_pages
        self.random_io_weight = random_io_weight
        self.cpu_tuple_weight = cpu_tuple_weight
        self.index_probe_pages = index_probe_pages
        self.clustered_index = clustered_index
        self.inline_shard_startup_cost = inline_shard_startup_cost
        self.pool_shard_startup_cost = pool_shard_startup_cost

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def pages(self, tuples):
        """Pages occupied by ``tuples`` tuples (>= 1 for any non-empty set)."""
        if tuples <= 0:
            return 0
        return int(math.ceil(tuples / self.tuples_per_page))

    def cpu(self, tuples):
        """CPU cost of touching ``tuples`` tuples."""
        return max(0.0, tuples) * self.cpu_tuple_weight

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def table_scan_cost(self, tuples):
        """Sequential heap scan."""
        return self.pages(tuples) + self.cpu(tuples)

    def index_sorted_access_cost(self, depth):
        """Reading the top ``depth`` tuples through a sorted index.

        Clustered: sequential pages.  Unclustered (default): one random
        page read per tuple, plus the initial traversal.
        """
        if depth <= 0:
            return 0.0
        if self.clustered_index:
            io = self.index_probe_pages + self.pages(depth)
        else:
            io = self.index_probe_pages + depth * self.random_io_weight
        return io + self.cpu(depth)

    def index_probe_cost(self, expected_matches):
        """One equality probe returning ``expected_matches`` tuples."""
        io = self.index_probe_pages
        if not self.clustered_index:
            io += expected_matches * self.random_io_weight
        else:
            io += self.pages(expected_matches)
        return io + self.cpu(expected_matches)

    # ------------------------------------------------------------------
    # Blocking operators
    # ------------------------------------------------------------------
    def external_sort_cost(self, tuples):
        """Classic external merge sort: ``2 * P * passes`` page I/Os."""
        pages = self.pages(tuples)
        if pages <= 1:
            return self.cpu(tuples)
        runs = math.ceil(pages / self.buffer_pages)
        if runs <= 1:
            passes = 1
        else:
            fan_in = self.buffer_pages - 1
            passes = 1 + math.ceil(math.log(runs, fan_in))
        return 2.0 * pages * passes + self.cpu(tuples)

    # ------------------------------------------------------------------
    # Join methods (costs exclude producing the inputs)
    # ------------------------------------------------------------------
    def hash_join_cost(self, left_tuples, right_tuples):
        """Build+probe hash join; Grace-style spill when memory is short."""
        left_pages = self.pages(left_tuples)
        right_pages = self.pages(right_tuples)
        build_pages = min(left_pages, right_pages)
        io = 0.0
        if build_pages > self.buffer_pages:
            # Grace hash join: partition both inputs then join.
            io = 2.0 * (left_pages + right_pages)
        return io + self.cpu(left_tuples + right_tuples)

    def index_nl_join_cost(self, outer_tuples, inner_tuples, selectivity):
        """Index nested-loops: one probe per outer tuple."""
        expected_matches = selectivity * inner_tuples
        return (outer_tuples * self.index_probe_cost(expected_matches)
                + self.cpu(outer_tuples))

    def nl_join_cost(self, outer_tuples, inner_tuples):
        """Naive tuple nested loops (inner rescanned per outer page)."""
        outer_pages = self.pages(outer_tuples)
        inner_pages = self.pages(inner_tuples)
        return (outer_pages + outer_pages * inner_pages
                + self.cpu(outer_tuples * inner_tuples))

    def sort_merge_join_cost(self, left_tuples, right_tuples,
                             left_sorted=False, right_sorted=False):
        """Sort-merge join; sorts are skipped for pre-sorted inputs."""
        cost = self.cpu(left_tuples + right_tuples)
        if not left_sorted:
            cost += self.external_sort_cost(left_tuples)
        if not right_sorted:
            cost += self.external_sort_cost(right_tuples)
        return cost

    # ------------------------------------------------------------------
    # Rank joins (costs exclude producing the inputs)
    # ------------------------------------------------------------------
    def hrjn_cost(self, depth_left, depth_right, selectivity):
        """HRJN work once inputs deliver ``depth_left``/``depth_right``.

        The I/O of *reading* the ranked inputs belongs to the input
        access paths; HRJN itself does hash inserts/probes plus priority
        queue maintenance on the ``dL * dR * s`` buffered results.
        """
        buffered = depth_left * depth_right * selectivity
        pulls = depth_left + depth_right
        queue_ops = buffered * max(1.0, math.log2(max(2.0, buffered)))
        return self.cpu(pulls + buffered + queue_ops)

    def score_merge_cost(self, k, shards):
        """Rank-aware merge of ``shards`` ranked streams to depth ``k``.

        One heap operation per delivered row (``log2 p`` comparisons)
        plus the priming pull bookkeeping per shard.
        """
        shards = max(1, shards)
        ops = max(0.0, k) * max(1.0, math.log2(max(2.0, float(shards))))
        return self.cpu(ops + shards)

    def shard_startup_cost(self, mode="inline"):
        """Fixed per-shard pipeline setup cost.

        ``"pool"`` covers process-pool task dispatch and result
        transfer; ``"inline"`` covers in-process operator setup only.
        The gap is what makes small queries stay serial (or inline) and
        large ones cross over to the pool -- the parallel analogue of
        the paper's ``k*`` crossover.

        Defaults are calibrated against the shared-memory transport:
        workers read shard tables through zero-copy segment views, so a
        warm-pool task costs roughly one millisecond of dispatch plus
        result pickling (about 6 cost units at the default CPU weight)
        versus the ~25 units the old fork-inherited registry snapshots
        cost per task.  The inline-vs-pool crossover accordingly sits
        near 8 units (~8k tuples) of per-shard work instead of ~33.
        """
        if mode == "pool":
            return self.pool_shard_startup_cost
        return self.inline_shard_startup_cost

    def anyk_preprocess_cost(self, tuples):
        """Any-k bottom-up DP over ``tuples`` materialised input rows.

        Per tuple: scoring, one hash probe per join-tree child, and a
        share of the per-bucket bound sort -- near-linear overall, but
        with a noticeably larger constant than a streaming pull (the
        whole input is buffered and sorted before the first answer).
        The constant is what keeps shallow top-k queries on HRJN: at
        small ``k`` HRJN touches a short prefix of each input while
        any-k always pays this full term.
        """
        n = max(0.0, tuples)
        if n <= 0.0:
            return 0.0
        sort_ops = n * max(1.0, math.log2(max(2.0, n)))
        return self.cpu(4.0 * n + 2.0 * sort_ops)

    def anyk_enumerate_cost(self, k, nodes):
        """Lawler successor generation for ``k`` ranked answers.

        Each answer pops one frontier entry and pushes up to ``nodes``
        successors, each a priority-queue operation of ``log k``
        comparisons plus an ``O(nodes)`` re-greedified score cascade --
        ``O(log k)`` per answer in data complexity, against the
        ``k``-deepening depths of a binary rank-join tree.
        """
        k = max(1.0, k)
        m = max(1, nodes)
        ops = k * m * (max(1.0, math.log2(max(2.0, k))) + m)
        return self.cpu(ops)

    def nrjn_cost(self, depth_outer, inner_tuples, selectivity):
        """NRJN work: inner materialisation scan plus outer probing."""
        buffered = depth_outer * inner_tuples * selectivity
        queue_ops = buffered * max(1.0, math.log2(max(2.0, buffered)))
        return (self.table_scan_cost(inner_tuples)
                + self.cpu(depth_outer + buffered + queue_ops))

    def __repr__(self):
        return ("CostModel(tpp=%d, B=%d, rand=%.1f, cpu=%g, clustered=%s)"
                % (self.tuples_per_page, self.buffer_pages,
                   self.random_io_weight, self.cpu_tuple_weight,
                   self.clustered_index))
