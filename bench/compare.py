"""Compare two result sets of the scdkit benchmark.

Usage: python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds, at any depth, the JSON files that
``run.py --results DIR`` wrote, one run per workload, seed and trace
setting.
For every workload and metric the report gives each side's median and
quartiles over its runs and a verdict:

  better      the new median beats the base median by more than the
              base's own quartile spread, and the new side wins at least
              nine tenths of the runs paired by seed (ties count for
              neither side; at least ten pairs are needed)
  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json (per-layer metrics
              have no bound: worse mirrors the rule for better)
  unresolved  the runs cannot tell: the spread of either side is wider
              than the bound, unless every new run beats (or loses to)
              every base run; or a gain beyond the spread that fails the
              paired-win rule
  unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> seed -> value, over every result file."""
    table: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.rglob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        for metric, value in result["metrics"].items():
            table.setdefault((result["workload"], metric), {})[result["seed"]] = value
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict[int, float], new: dict[int, float], lower_better: bool,
            bound: float | None) -> str:
    sign = 1 if lower_better else -1
    a, b = list(base.values()), list(new.values())
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    spread_a, spread_b = qa[2] - qa[0], qb[2] - qb[0]
    gain = sign * (ma - mb)  # positive when the new side is better
    scale = abs(ma) or 1.0

    every_better = all(sign * (y - x) < 0 for x in a for y in b)
    every_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if bound is not None and max(spread_a / scale, spread_b / scale) > bound:
        return "better" if every_better else "worse" if every_worse else "unresolved"

    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs)
    enough = len(pairs) >= MIN_PAIRS
    if bound is not None and -gain / scale > bound:
        return "worse"
    if gain > spread_a:
        return "better" if enough and wins >= WIN_SHARE * len(pairs) else "unresolved"
    if bound is None and -gain > spread_a and enough and losses >= WIN_SHARE * len(pairs):
        return "worse"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    order = {m: i for i, m in enumerate(metrics)}
    rows = sorted(base.keys() & new.keys(), key=lambda key: (key[0], order.get(key[1], len(order))))
    if not rows:
        print("no workload and metric appears in both result sets", file=sys.stderr)
        return 1
    print(f"{'workload':14s} {'metric':38s} {'base q1/median/q3':>36s} {'new q1/median/q3':>36s} "
          f"{'runs':>5s}  verdict")
    for workload, metric in rows:
        spec_m = metrics.get(metric, {"better": "lower", "unit": "?"})
        a, b = base[(workload, metric)], new[(workload, metric)]
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        cells = ["/".join(f"{x:.4g}" for x in q) for q in (qa, qb)]
        v = verdict(a, b, spec_m["better"] == "lower", spec_m.get("bound"))
        print(f"{workload:14s} {metric:38s} {cells[0]:>36s} {cells[1]:>36s} "
              f"{len(a):>2d}/{len(b):<2d}  {v}  [{spec_m['unit']}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
