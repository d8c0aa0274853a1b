"""Shared fixtures for the test suite."""

import pytest

from repro.common.rng import make_rng
from repro.cost.model import CostModel
from repro.data.catalogs import make_abc_catalog
from repro.storage.index import SortedIndex
from repro.storage.table import Table


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def small_table():
    """Table T with deterministic contents: id 0..9, score 0.9..0.0."""
    table = Table.from_columns(
        "T", [("id", "int"), ("key", "int"), ("score", "float")]
    )
    for i in range(10):
        table.insert([i, i % 3, (9 - i) / 10.0])
    table.create_index(SortedIndex("T_score_idx", "T.score"))
    return table


@pytest.fixture
def abc_catalog():
    """The Figures 2-3 catalog, shared with ``repro.experiments.figures``."""
    return make_abc_catalog()


@pytest.fixture
def cost_model():
    return CostModel()


@pytest.fixture(scope="session")
def plan_cold_optimizer():
    """The benchmark's ``plan_cold`` catalog: 70 000-row tables, join
    keys drawn from 40 values, a descending index on each score.  (It
    has four such tables; a 3-table query reads three.)"""
    from repro.executor.database import Database

    n = 70000
    db = Database()
    for name in "ABC":
        db.create_table(name, [("c1", "float"), ("c2", "int")],
                        rows=[[i / n, i % 40] for i in range(n)])
    db.analyze()
    return db.executor().optimizer
