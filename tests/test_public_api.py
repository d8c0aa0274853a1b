"""The public API surface: everything in ``repro.__all__`` must exist
and the documented quickstart flow must work verbatim."""

import importlib
import pkgutil

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_subpackages_importable(self):
        packages = [info.name for info in pkgutil.iter_modules(repro.__path__)
                    if info.ispkg]
        assert "operators" in packages
        for name in packages:
            importlib.import_module("repro." + name)

    def test_public_items_documented(self):
        """Every exported callable/class carries a docstring."""
        for name in repro.__all__:
            item = getattr(repro, name)
            assert item.__doc__, "%s lacks a docstring" % (name,)


class TestQuickstartFlow:
    def test_readme_snippet(self):
        from repro import Database
        from repro.common.rng import make_rng

        rng = make_rng(0)
        db = Database()
        db.create_table("A", [("c1", "float"), ("c2", "int")], rows=[
            [float(rng.uniform(0, 1)), int(rng.integers(0, 40))]
            for _ in range(300)])
        db.create_table("B", [("c1", "int"), ("c2", "float")], rows=[
            [int(rng.integers(0, 40)), float(rng.uniform(0, 1))]
            for _ in range(300)])
        db.analyze()

        report = db.execute("""
            WITH Ranked AS (
                SELECT A.c1 AS x, B.c2 AS y,
                       rank() OVER (ORDER BY (0.3*A.c1 + 0.7*B.c2)) AS rank
                FROM A, B WHERE A.c2 = B.c1)
            SELECT x, y, rank FROM Ranked WHERE rank <= 5""")
        assert len(report.rows) == 5
        assert "best plan" in report.explain()
