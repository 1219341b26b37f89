"""Span tracing for the benchmark's traced passes, from outside scdkit.

The tracer wraps the public entry points of each layer in every
``scdkit.*`` module namespace that binds them: modules import by name
(``constructions`` does ``from .posets import build_cuboid``), so
patching the defining module alone would miss calls made from the
others.  ``lru_cache``d functions keep caching under the wrapper.
``is_taut`` is deliberately not wrapped: it runs once per chain and its
wrapper would dominate the overhead; its time counts as
``validate_scd`` self time.

Spans live in memory as ``[name, start, end, parent, request, size, extra]``
and are written out with the pass result.  A span's self time is its
duration minus the durations of its direct children; spans of one
process are strictly nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("posets", "chains", "constructions", "search", "data_io", "cli")

# (module, attribute) entry points wrapped in every scdkit namespace.
TARGETS = (
    ("posets", "build_cuboid"),
    ("posets", "product"),
    ("chains", "validate_scd"),
    ("constructions", "generate"),
    ("constructions", "extend_dimension"),
    ("constructions", "product_lift"),
    ("constructions", "hypercube_scd"),
    ("constructions", "shift"),
    ("search", "enumerate_scds"),
    ("data_io", "parse_scd"),
    ("data_io", "serialize_scd"),
    ("data_io", "builtin_table"),
    ("cli", "run"),
)

STAGES = ("generate", "extend_dimension", "product_lift", "hypercube_scd", "shift")


def _sizes(name: str, args: tuple, result) -> tuple[int, int]:
    """Work counts recorded on a span: (size, extra)."""
    if name == "posets.graded_poset":
        return len(args[0].elements), 0
    if name == "data_io.parse_scd":
        return len(args[0]), 0
    if name == "data_io.serialize_scd":
        return len(result), 0
    if name == "search.enumerate_scds":
        return result.nodes_visited, len(result.found)
    return 0, 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5], span[6] = _sizes(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every scdkit namespace; call once, after importing scdkit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "scdkit" or key.startswith("scdkit.")]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"scdkit.{module_name}"], attr)
            traced = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, traced)
        poset_class = sys.modules["scdkit.posets"].GradedPoset
        poset_class.__init__ = self.wrap("posets.graded_poset", poset_class.__init__)


def layer_metrics(spans: list[list], requests: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the names of those that
    do not apply because the pass never called the function behind them."""
    duration = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += duration[i]

    def outermost(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    extra: dict[str, int] = defaultdict(int)
    for i, span in enumerate(spans):
        name = span[0]
        own = duration[i] - covered[i]
        self_s[name] += own
        self_s[name.split(".")[0]] += own
        calls[name] += 1
        calls[name.split(".")[0]] += 1
        size[name] += span[5]
        extra[name] += span[6]
        if outermost(i):
            total_s[name] += duration[i]

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    sources: dict[str, str] = {}

    def put(metric: str, value: float, source: str) -> None:
        m[metric] = value
        sources[metric] = source

    for layer in LAYERS:
        put(f"{layer}.self_s", self_s[layer], layer)
    for fn in ("graded_poset", "build_cuboid", "product"):
        put(f"posets.{fn}.self_s", self_s[f"posets.{fn}"], f"posets.{fn}")
    put("posets.hosts_built", calls["posets.graded_poset"], "posets.graded_poset")
    put("posets.host_elements", size["posets.graded_poset"], "posets.graded_poset")
    put("chains.validate_scd.calls", calls["chains.validate_scd"], "chains.validate_scd")
    put("chains.validate_scd.self_s", self_s["chains.validate_scd"], "chains.validate_scd")
    put("chains.validations_per_req", calls["chains.validate_scd"] / requests, "chains.validate_scd")
    for stage in STAGES:
        name = f"constructions.{stage}"
        put(f"{name}.total_s", total_s[name], name)
    search = "search.enumerate_scds"
    put("search.nodes", size[search], search)
    put("search.nodes_per_s", rate(size[search], total_s[search]), search)
    put("search.solutions", extra[search], search)
    for fn in ("parse_scd", "serialize_scd"):
        name = f"data_io.{fn}"
        put(f"{name}.self_s", self_s[name], name)
        put(f"{name}.mb_per_s", rate(size[name] / 1e6, self_s[name]), name)
    not_applicable = sorted(metric for metric, source in sources.items() if not calls[source])
    return m, not_applicable
