"""Ready-made catalogs for experiments and tests.

The Figure 2/3 experiments need a 3-table catalog (A, B, C with a
score column c1 and a join column c2, every column indexed descending)
-- generated here so the paper figures (``repro.experiments.figures``)
and the test suite share one definition.
"""

from repro.common.rng import make_rng
from repro.storage.catalog import Catalog
from repro.storage.index import SortedIndex
from repro.storage.table import Table


def make_abc_catalog(rows=300, seed=7, key_domain=20):
    """Catalog with tables A, B, C (c1 score in [0,1], c2 int-valued).

    Indexes exist on every column of every table so all interesting
    orders have natural access paths -- the Figure 2/3 setting.
    """
    rng = make_rng(seed)
    catalog = Catalog()
    for name in "ABC":
        table = Table.from_columns(name, [("c1", "float"), ("c2", "float")])
        for _ in range(rows):
            table.insert([
                float(rng.uniform(0, 1)),
                float(rng.integers(0, key_domain)),
            ])
        for column in ("c1", "c2"):
            table.create_index(SortedIndex(
                "%s_%s_idx" % (name, column), "%s.%s" % (name, column),
            ))
        catalog.register(table)
    catalog.analyze()
    return catalog
