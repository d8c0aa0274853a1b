"""Named cost profiles: PAPER_2004 is the old default, IN_MEMORY plans
for this engine.

The grid runs one seeded set of top-k joins under both profiles: the
answers must be identical, and IN_MEMORY's plan may never read more
leaf tuples than PAPER_2004's.  Also here: profile validation, the
integer pass count of the external sort, and the profile's name in
``repr`` and ``explain()``.
"""

import math
from dataclasses import asdict, replace

import pytest

from repro.common.errors import EstimationError
from repro.common.rng import make_rng
from repro.cost.model import (
    IN_MEMORY,
    PAPER_2004,
    CostModel,
    CostProfile,
    CostProfileVersion,
)
from repro.executor.database import Database

SIZES = (400, 1500)
DOMAINS = (5, 50, 1000)
#: ``(name, tables, form)``: a star joins every table to the first.
SHAPES = (("two", "AB", "chain"), ("chain", "ABC", "chain"),
          ("star", "ABC", "star"))
KS = (1, 10, 100)
#: The first table's weight; the others share the rest equally.
LEAD_WEIGHTS = (0.5, 0.9)

GRID = [(n, domain, shape, k, lead)
        for n in SIZES for domain in DOMAINS for shape in SHAPES
        for k in KS for lead in LEAD_WEIGHTS]


def grid_sql(tables, form, k, lead):
    rest = (1.0 - lead) / (len(tables) - 1)
    weights = [lead] + [rest] * (len(tables) - 1)
    ranking = " + ".join("%r*%s.c1" % (weight, table)
                         for weight, table in zip(weights, tables))
    if form == "star":
        pairs = [(tables[0], other) for other in tables[1:]]
    else:
        pairs = list(zip(tables, tables[1:]))
    where = " AND ".join("%s.c2 = %s.c2" % pair for pair in pairs)
    selects = ", ".join("%s.c1 AS s%d" % (table, index)
                        for index, table in enumerate(tables))
    outputs = ", ".join("s%d" % (index,) for index in range(len(tables)))
    return ("WITH Ranked AS (SELECT %s, rank() OVER (ORDER BY (%s)) AS rank "
            "FROM %s WHERE %s) SELECT %s, rank FROM Ranked WHERE rank <= %d"
            % (selects, ranking, ", ".join(tables), where, outputs, k))


def grid_db(profile, n, domain):
    """Tables A, B, C of ``n`` rows: float score ``c1``, int key
    ``c2`` drawn from ``domain`` values; the same rows per profile."""
    rng = make_rng(n * 7 + domain)
    db = Database(cost_model=CostModel(profile))
    for name in "ABC":
        db.create_table(name, [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, domain))]
            for _ in range(n)])
    db.analyze()
    return db


def leaf_reads(report):
    """Tuples the plan's leaf scans read (their ``rows_out``)."""
    return sum(snap.rows_out for snap in report.operators
               if not snap.pulled)


def rank_joins(report):
    return [snap.name.rstrip("0123456789")
            for snap in report.rank_join_snapshots()]


@pytest.fixture(scope="module")
def grid_databases():
    """``{(profile name, n, domain): Database}``, built on first use."""
    cache = {}

    def get(profile, n, domain):
        key = (profile.name, n, domain)
        if key not in cache:
            cache[key] = grid_db(profile, n, domain)
        return cache[key]

    return get


@pytest.mark.parametrize(
    "n, domain, shape, k, lead", GRID,
    ids=["n%d-d%d-%s-k%d-w%g" % (n, domain, shape[0], k, lead)
         for n, domain, shape, k, lead in GRID])
def test_in_memory_answers_alike_and_reads_no_more(grid_databases, n,
                                                   domain, shape, k, lead):
    _name, tables, form = shape
    sql = grid_sql(tables, form, k, lead)
    paper = grid_databases(PAPER_2004, n, domain).execute(sql)
    memory = grid_databases(IN_MEMORY, n, domain).execute(sql)
    assert ([dict(row._values) for row in memory.rows]
            == [dict(row._values) for row in paper.rows])
    assert leaf_reads(memory) <= leaf_reads(paper), (
        rank_joins(paper), rank_joins(memory))


def test_grid_has_108_cases():
    assert len(GRID) == 108


class TestProfiles:
    def test_paper_2004_is_the_old_default(self):
        assert asdict(PAPER_2004) == {
            "version": CostProfileVersion.paper_2004,
            "tuples_per_page": 100,
            "buffer_pages": 64,
            "random_io_weight": 4.0,
            "cpu_tuple_weight": 0.001,
            "index_probe_pages": 2,
            "clustered_index": False,
            "inline_shard_startup_cost": 0.02,
            "pool_shard_startup_cost": 6.0,
        }
        assert CostModel().profile is PAPER_2004

    def test_in_memory_moves_only_the_random_read(self):
        moved = {name for name, value in asdict(IN_MEMORY).items()
                 if value != getattr(PAPER_2004, name)}
        assert moved == {"version", "random_io_weight"}
        # A sorted-index tuple costs what a heap-scan tuple costs.
        assert IN_MEMORY.random_io_weight == 1.0 / IN_MEMORY.tuples_per_page

    def test_profiles_are_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_2004.random_io_weight = 0.5

    def test_database_plans_with_in_memory(self):
        assert Database().cost_model.profile is IN_MEMORY

    @pytest.mark.parametrize("field, value", [
        ("random_io_weight", math.nan),
        ("random_io_weight", -5.0),
        ("random_io_weight", math.inf),
        ("cpu_tuple_weight", -1.0),
        ("cpu_tuple_weight", "0.001"),
        ("inline_shard_startup_cost", math.nan),
        ("pool_shard_startup_cost", -6.0),
        ("tuples_per_page", 0),
        ("tuples_per_page", 1.5),
        ("buffer_pages", 2),
        ("buffer_pages", math.inf),
        ("buffer_pages", 64.0),
        ("index_probe_pages", -1),
        ("index_probe_pages", True),
        ("clustered_index", 1),
        ("version", "paper_2004"),
    ])
    def test_rejects_values_that_break_costing(self, field, value):
        with pytest.raises(EstimationError):
            replace(PAPER_2004, **{field: value})

    def test_bounds_are_inclusive(self):
        profile = replace(PAPER_2004, tuples_per_page=1, buffer_pages=3,
                          random_io_weight=0.0, index_probe_pages=0)
        assert isinstance(profile, CostProfile)


class TestExternalSortPasses:
    def test_exact_powers_of_the_fan_in(self):
        """``runs = fan_in ** e`` needs ``e`` merge passes, ``+ 1``
        run more needs ``e + 1``; float logs round some of them up."""
        for fan_in in range(2, 65):
            model = CostModel(replace(PAPER_2004, tuples_per_page=1,
                                      buffer_pages=fan_in + 1))
            exponent = 1
            while fan_in ** exponent <= 10 ** 6:
                for runs, merges in ((fan_in ** exponent, exponent),
                                     (fan_in ** exponent + 1,
                                      exponent + 1)):
                    pages = runs * model.buffer_pages
                    assert model.external_sort_cost(pages) == (
                        2.0 * pages * (1 + merges) + model.cpu(pages)
                    ), (fan_in, runs)
                exponent += 1


class TestProfileNames:
    def test_repr_names_the_profile_and_small_weights(self):
        text = repr(CostModel(IN_MEMORY))
        assert "in_memory_v1" in text
        assert "rand=0.01" in text
        assert "paper_2004" in repr(CostModel())

    def test_explain_names_the_pricing_profile(self):
        db = grid_db(IN_MEMORY, 400, 50)
        sql = grid_sql("AB", "chain", 10, 0.5)
        assert ("best plan (k=10): cost profile in_memory_v1"
                in db.execute(sql).explain())
        paper = grid_db(PAPER_2004, 400, 50)
        assert ("best plan (k=10): cost profile paper_2004"
                in paper.explain(sql).explain())
