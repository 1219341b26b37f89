"""What the benchmark relies on in scdkit.

The benchmark's tracer (``bench/spans.py``) wraps scdkit entry points
by name.  A renamed or removed one would leave traced runs without its
spans, or fail them, so every name it wraps must still resolve.  And the
benchmark checks every ``generate`` document against the digest table
in ``bench/expected.json``, so the same bytes are pinned here."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from scdkit.constructions import generate
from scdkit.data_io import COMPACT_LEVEL_LIMIT, serialize_scd
from scdkit.posets import GradedPoset

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def _digests() -> dict[tuple[int, int], str]:
    """The digest table, ``"P(k,n)"`` keys read as ``(k, n)``."""
    table = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["digests"]
    return {tuple(map(int, name[2:-1].split(","))): want for name, want in table.items()}


def test_the_digest_table_covers_both_spellings():
    levels = {n for _, n in _digests()}
    assert min(levels) <= COMPACT_LEVEL_LIMIT < max(levels)


@pytest.mark.parametrize("k, n", sorted(_digests()))
def test_generate_bytes_match_the_benchmark_digests(k, n):
    text = serialize_scd(generate(k, n))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _digests()[k, n]
