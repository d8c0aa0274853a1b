"""Page-based I/O + CPU cost formulas.

The paper plugs "traditional cost formulas for external sorting and
index nested-loops join" into its comparison (Figure 6); this module
provides those formulas.  Costs are abstract units: one unit = one
sequential page read.  Random I/O carries a multiplier, and CPU work
a small per-tuple weight so plans that touch the same pages still
differ.  The constants live in named, frozen :class:`CostProfile`
values: :data:`PAPER_2004` (the paper's disk model) and
:data:`IN_MEMORY` (this engine, which ``Database()`` plans with).
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

from repro.common.errors import EstimationError


class CostProfileVersion(str, Enum):
    """Names of the committed cost profiles."""

    paper_2004 = "paper_2004"
    in_memory_v1 = "in_memory_v1"


#: Integer constants and their least value (a sort needs 3 buffers).
_COUNT_MINIMA = {"tuples_per_page": 1, "buffer_pages": 3,
                 "index_probe_pages": 0}
_WEIGHTS = ("random_io_weight", "cpu_tuple_weight",
            "inline_shard_startup_cost", "pool_shard_startup_cost")


@dataclass(frozen=True)
class CostProfile:
    """The constants a :class:`CostModel` prices plans with.

    The formulas never change between profiles; only these numbers do.
    Each committed value is derived in ``docs/estimation_model.md``
    ("Cost profiles").
    """

    version: CostProfileVersion
    # Tuples that fit one disk page.
    tuples_per_page: int
    # Memory pages available to sorts and hash joins (``B``, >= 3).
    buffer_pages: int
    # Cost of one random page read relative to a sequential one.
    random_io_weight: float
    # Cost of processing one tuple relative to a sequential page read.
    cpu_tuple_weight: float
    # Pages touched by one index probe (root-to-leaf traversal).
    index_probe_pages: int
    # Sorted index access reads sequential pages when true; when false
    # every indexed tuple costs a random read (the high-dimensional
    # indexes of the paper's video prototype).
    clustered_index: bool
    # Fixed per-shard setup of an inline / a process-pool shard.
    inline_shard_startup_cost: float
    pool_shard_startup_cost: float

    def __post_init__(self):
        if not isinstance(self.version, CostProfileVersion):
            raise EstimationError("version must be a CostProfileVersion")
        for name, least in _COUNT_MINIMA.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < least):
                raise EstimationError(
                    "%s must be an integer >= %d" % (name, least))
        for name in _WEIGHTS:
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value < 0):
                raise EstimationError(
                    "%s must be a finite number >= 0" % (name,))
        if not isinstance(self.clustered_index, bool):
            raise EstimationError("clustered_index must be a bool")

    @property
    def name(self):
        return self.version.value


#: The 2004 disk model the paper's figures are drawn in: one unit is
#: one sequential page read, a random read costs four.
PAPER_2004 = CostProfile(
    version=CostProfileVersion.paper_2004,
    tuples_per_page=100,
    buffer_pages=64,
    random_io_weight=4.0,
    cpu_tuple_weight=0.001,
    index_probe_pages=2,
    clustered_index=False,
    inline_shard_startup_cost=0.02,
    pool_shard_startup_cost=6.0,
)

#: This engine's units: a tuple read through a sorted index is a list
#: lookup by position, priced like a tuple of a heap scan
#: (``1 / tuples_per_page``).  Every other constant is PAPER_2004's.
IN_MEMORY = replace(
    PAPER_2004,
    version=CostProfileVersion.in_memory_v1,
    random_io_weight=1.0 / PAPER_2004.tuples_per_page,
)


class CostModel:
    """The cost formulas, priced by one :class:`CostProfile`.

    ``Database()`` plans with :data:`IN_MEMORY`; the paper's figures
    (``repro.experiments``) and a bare ``CostModel()`` use
    :data:`PAPER_2004`.  A variant is ``CostModel(dataclasses.replace(
    PAPER_2004, buffer_pages=8))``.
    """

    def __init__(self, profile=PAPER_2004):
        self.profile = profile
        self.tuples_per_page = profile.tuples_per_page
        self.buffer_pages = profile.buffer_pages
        self.random_io_weight = profile.random_io_weight
        self.cpu_tuple_weight = profile.cpu_tuple_weight
        self.index_probe_pages = profile.index_probe_pages
        self.clustered_index = profile.clustered_index
        self.inline_shard_startup_cost = profile.inline_shard_startup_cost
        self.pool_shard_startup_cost = profile.pool_shard_startup_cost

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
        runs = -(-pages // self.buffer_pages)
        fan_in = self.buffer_pages - 1
        passes = 1
        # Merge passes counted in integers: in floats ``log(125, 5)`` is
        # 3.0000000000000004, one pass too many at exact powers.
        while runs > 1:
            runs = -(-runs // fan_in)
            passes += 1
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
        return ("CostModel(%s: tpp=%d, B=%d, rand=%g, cpu=%g, clustered=%s)"
                % (self.profile.name, self.tuples_per_page,
                   self.buffer_pages, self.random_io_weight,
                   self.cpu_tuple_weight, self.clustered_index))
