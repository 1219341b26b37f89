"""The benchmark's tracer (``bench/spans.py``) wraps scdkit entry points
by name.  A renamed or removed one would leave traced runs without its
spans, or fail them, so every name it wraps must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from scdkit.posets import GradedPoset

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr", _traced_targets())
def test_traced_entry_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"scdkit.{module}"), attr))


def test_traced_poset_constructor_resolves():
    # The tracer counts explicit hosts by wrapping this very method.
    assert callable(vars(GradedPoset)["__init__"])
