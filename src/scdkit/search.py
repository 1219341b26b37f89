"""Exhaustive backtracking enumeration of symmetric chain decompositions.

The engine walks the host rank by rank from the bottom.  Its state is
the frontier of open chains, each an ``(elements, end_rank)`` pair; at
rank r every open chain must extend along a cover to a distinct rank-r
element, and the leftover elements start new chains.  A chain born at
rank r is committed to end at rank rk - r, so symmetry holds by
construction rather than by filtering, and a chain that cannot reach
its committed end kills the branch.

Taut chains are refused inside the walk, read off the chain itself:
covers never lower a coordinate, so appending ``(p, n-1)`` completes a
full column exactly when the element n-1 places back is ``(p, 0)``.

This is the package's brute-force oracle: small enough hosts can be
enumerated completely, which is what turns "no decomposition was found"
into "no decomposition exists".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .chains import SCD, canonical_chain_order, necessary_conditions
from .constructions import generate
from .posets import GradedPoset, build_cuboid, build_hypercube, is_rank_symmetric

DEFAULT_NODE_BUDGET = 10**8
DESK_SCALE_ELEMENTS = 24  # hosts this small are searched exhaustively: counted, or re-proved


class SearchError(ValueError):
    """Raised for unusable search requests (not for budget exhaustion)."""


class _StopSearch(Exception):
    def __init__(self, reason: str):
        self.reason = reason


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`enumerate_scds`.

    ``use_symmetry`` prunes branches equivalent under permutations of the
    hypercube bit positions; that is sound for existence queries only, so
    it demands ``limit == 1``.  When the caller sets no budget at all, a
    node cap of 10**8 applies so runs stay bounded.  ``limit`` must be at
    least 1 and the budgets nonnegative.
    """

    forbid_taut: bool = False
    limit: int | None = None
    node_budget: int | None = None
    time_budget: float | None = None
    use_symmetry: bool = False


@dataclass(frozen=True)
class SearchOutcome:
    """``exhausted`` is True only when the whole space was explored; any
    nonexistence conclusion must check it."""

    found: tuple[SCD, ...]
    exhausted: bool
    nodes_visited: int
    stop_reason: str | None = None


class _Walk:
    """One walk over ``host``, built once per search.

    ``place`` enters rank ``r``; ``assign`` extends open chain ``i`` into
    rank ``r`` and, once all have grown, starts chains at the leftover
    elements.  Each call of either is one node.
    """

    def __init__(self, host: GradedPoset, cfg: SearchConfig):
        self.host = host
        self.rk = host.rk
        self.by_rank = host.by_rank
        self.ups = {e: host.up(e) for e in host.elements}
        sym_k = host.chain_factor[0].hypercube_k if host.chain_factor else None
        if cfg.use_symmetry and sym_k is not None and sym_k > 1:
            # Existence pruning: the rank-1 bit moves are all images of the
            # least one under bit permutations of the cuboid, and only the
            # bottom chain's step to rank 1 reads the bottom's up-set.
            bottom = host.bottom
            self.ups[bottom] = tuple(e for e in self.ups[bottom] if e[0] in (0, 1))
        # With forbid_taut, the number of steps in a full column (p, 0) ..
        # (p, n-1); for n = 1 every fresh start is already a full column.
        self.span = host.chain_factor[1] - 1 if cfg.forbid_taut else None
        self.limit = cfg.limit
        self.node_budget = cfg.node_budget
        if cfg.node_budget is None and cfg.time_budget is None:
            self.node_budget = DEFAULT_NODE_BUDGET
        self.deadline = None
        if cfg.time_budget is not None:
            self.deadline = time.monotonic() + cfg.time_budget
        self.found: list[SCD] = []
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _StopSearch("node-budget")
        if (self.deadline is not None and self.nodes % 1024 == 0
                and time.monotonic() > self.deadline):
            raise _StopSearch("time-budget")

    def place(self, r: int, opens: tuple, closed: tuple) -> None:
        self.tick()
        if r > self.rk:
            self.found.append(SCD(self.host, canonical_chain_order(self.host, closed)))
            if self.limit is not None and len(self.found) >= self.limit:
                raise _StopSearch("limit")
            return
        width = len(self.by_rank[r])
        if len(opens) > width:
            return
        if width > len(opens) and self.rk - r < r:
            return  # leftover elements would start chains below their mirror rank
        self.assign(r, opens, closed, 0, set(), ())

    def assign(self, r: int, opens: tuple, closed: tuple, i: int, used: set, grown: tuple) -> None:
        self.tick()
        if i == len(opens):
            new_opens = []
            new_closed = list(closed)
            for ch, end in grown:
                if end == r:
                    new_closed.append(ch)
                else:
                    new_opens.append((ch, end))
            mirror = self.rk - r
            for e in self.by_rank[r]:
                if e in used:
                    continue
                if self.span == 0:
                    return  # a fresh chain is already a full column (n = 1)
                if mirror == r:
                    new_closed.append((e,))
                else:
                    new_opens.append(((e,), mirror))
            self.place(r + 1, tuple(new_opens), tuple(new_closed))
            return
        ch, end = opens[i]
        span = self.span
        for e in self.ups[ch[-1]]:
            if e in used:
                continue
            if span and e[1] == span and len(ch) >= span and ch[-span] == (e[0], 0):
                continue  # this extension completes a forbidden column
            used.add(e)
            self.assign(r, opens, closed, i + 1, used, grown + ((ch + (e,), end),))
            used.discard(e)


def enumerate_scds(host: GradedPoset, config: SearchConfig | None = None) -> SearchOutcome:
    """Enumerate symmetric chain decompositions of ``host``.

    Deterministic: elements are tried in canonical order and extensions
    before starts, so repeated runs yield the same decompositions in the
    same order.  A non-rank-symmetric host has no decompositions at all
    and returns empty-but-exhausted immediately.
    """
    cfg = config or SearchConfig()
    if cfg.limit is not None and cfg.limit < 1:
        raise SearchError(f"limit must be at least 1, got {cfg.limit}")
    if cfg.node_budget is not None and cfg.node_budget < 0:
        raise SearchError(f"node budget must be nonnegative, got {cfg.node_budget}")
    if cfg.time_budget is not None and cfg.time_budget < 0:
        raise SearchError(f"time budget must be nonnegative, got {cfg.time_budget}")
    if cfg.use_symmetry and cfg.limit != 1:
        raise SearchError("use_symmetry is only sound for existence queries (limit=1)")
    if not is_rank_symmetric(host):
        return SearchOutcome((), True, 0, "not-rank-symmetric")
    if cfg.forbid_taut and host.chain_factor is None:
        raise SearchError(f"{host.label} has no chain coordinate to forbid taut runs in")

    walk = _Walk(host, cfg)
    try:
        walk.place(0, (), ())
    except _StopSearch as stop:
        return SearchOutcome(tuple(walk.found), False, walk.nodes, stop.reason)
    return SearchOutcome(tuple(walk.found), True, walk.nodes)


def count_scds(host: GradedPoset, force: bool = False) -> int:
    """Exact number of symmetric chain decompositions of ``host``.

    Guarded to hosts of at most 24 elements unless ``force`` is set, and
    refuses to answer from an interrupted search.
    """
    if len(host) > DESK_SCALE_ELEMENTS and not force:
        raise SearchError(
            f"{host.label} has {len(host)} elements; counting beyond "
            f"{DESK_SCALE_ELEMENTS} needs force=True"
        )
    outcome = enumerate_scds(host, SearchConfig())
    if not outcome.exhausted:
        raise SearchError(f"count interrupted by {outcome.stop_reason}; no exact count")
    return len(outcome.found)


@dataclass(frozen=True)
class ExistenceResult:
    """Answer to "does P(k, n) admit a taut-free decomposition?".

    ``proof_exhaustive`` is True only when a finished exhaustive search
    backs the answer.  ``method`` records how the answer was reached:
    ``n-rule`` (n <= 2 forces a taut maximal chain), ``middle-rank-bound``
    (the counting conditions fail), ``exhaustive``, or ``construction``
    (a validated witness).  A budget-capped search answers ``exists=None``
    with method ``inconclusive`` -- never a nonexistence claim.
    """

    exists: bool | None
    witness: SCD | None
    proof_exhaustive: bool
    method: str
    nodes_visited: int = 0


def exists_nontaut_scd(k: int, n: int, config: SearchConfig | None = None) -> ExistenceResult:
    """Decide whether P(k, n) has a taut-free symmetric chain decomposition.

    Fast paths: n <= 2 is rejected outright (n = 1 makes every chain a
    column; for n = 2 the maximal chain is one), and a failing middle-rank
    bound rejects the base hypercube.  Desk-scale bases (k <= 2, host at
    most 24 elements) are re-proved by actual exhaustive search instead of
    the bound.  Inside the feasible region the witness is constructed and
    validated.
    """
    if k < 0 or n < 1:
        raise SearchError(f"need k >= 0 and n >= 1, got k={k}, n={n}")
    if n <= 2:
        return ExistenceResult(False, None, False, "n-rule")

    conditions = necessary_conditions(build_hypercube(k), for_nontaut=True)
    if not (conditions.rank_symmetric and conditions.middle_rank_ok):
        if k <= 2 and (1 << k) * n <= DESK_SCALE_ELEMENTS:
            cfg = replace(config or SearchConfig(), forbid_taut=True, limit=1)
            outcome = enumerate_scds(build_cuboid(k, n), cfg)
            if outcome.found:
                return ExistenceResult(
                    True, outcome.found[0], False, "exhaustive", outcome.nodes_visited
                )
            if outcome.exhausted:
                return ExistenceResult(False, None, True, "exhaustive", outcome.nodes_visited)
            return ExistenceResult(None, None, False, "inconclusive", outcome.nodes_visited)
        return ExistenceResult(False, None, False, "middle-rank-bound")

    # The middle-rank bound passes a hypercube only for k >= 5, where the
    # generation pipeline always applies; every step of it checks its
    # output taut-free where it is built.
    return ExistenceResult(True, generate(k, n), False, "construction")
