"""Smoke tests: every shipped example must run end to end."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_module(filename):
    path = EXAMPLES_DIR / filename
    spec = importlib.util.spec_from_file_location(
        "example_%s" % (path.stem,), path,
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_shipped_examples(self):
        assert EXAMPLES == [
            "optimizer_tour.py", "quickstart.py", "selection_topk.py",
            "similar_pairs.py", "video_similarity.py",
        ]

    @pytest.mark.parametrize("filename", EXAMPLES)
    def test_example_runs(self, filename, capsys):
        module = load_module(filename)
        assert hasattr(module, "main"), (
            "%s must expose a main()" % (filename,)
        )
        module.main()
        out = capsys.readouterr().out
        assert out.strip(), "%s produced no output" % (filename,)
