"""Exhaustive backtracking enumeration of symmetric chain decompositions.

The engine walks the host rank by rank from the bottom.  Its state is
the frontier of open chains; at rank r every open chain must extend
along a cover to a distinct rank-r element, and the leftover elements
start new chains.  A chain born at rank r is committed to end at rank
rk - r, so symmetry holds by construction rather than by filtering, and
a chain that cannot reach its committed end kills the branch.

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
COUNT_GUARD_ELEMENTS = 24
DESK_SCALE_ELEMENTS = 24  # hosts this small are re-proved by search, not by counting bounds


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

    n = host.chain_factor[1] if host.chain_factor else None
    if cfg.forbid_taut and n is None:
        raise SearchError(f"{host.label} has no chain coordinate to forbid taut runs in")

    rk = host.rk
    by_rank = host.by_rank
    ups = {e: host.up(e) for e in host.elements}
    sym_k = None
    if cfg.use_symmetry and host.chain_factor is not None:
        sym_k = host.chain_factor[0].hypercube_k

    node_budget = cfg.node_budget
    if node_budget is None and cfg.time_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    deadline = time.monotonic() + cfg.time_budget if cfg.time_budget is not None else None

    found: list[SCD] = []
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _StopSearch("node-budget")
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            raise _StopSearch("time-budget")

    def emit(closed: tuple) -> None:
        found.append(SCD(host, canonical_chain_order(host, closed)))
        if cfg.limit is not None and len(found) >= cfg.limit:
            raise _StopSearch("limit")

    # An open chain is (elements, end_rank, col0); col0 says whether the
    # chain currently tops out a full vertical run that began at level 0,
    # which is the only way a taut run can be in progress.
    def start_col0(e) -> bool:
        return n is not None and e[1] == 0

    def step_col0(top, e, col0: bool) -> bool:
        if n is None:
            return False
        return col0 if e[0] == top[0] else e[1] == 0

    def place(r: int, opens: tuple, closed: tuple) -> None:
        tick()
        if r > rk:
            emit(closed)
            return
        elems = by_rank[r]
        if len(opens) > len(elems):
            return
        if len(elems) > len(opens) and rk - r < r:
            return  # leftover elements would start chains below their mirror rank

        def assign(i: int, used: set, grown: tuple) -> None:
            tick()
            if i == len(opens):
                new_opens = []
                new_closed = list(closed)
                for ch, end, col0 in grown:
                    if end == r:
                        new_closed.append(ch)
                    else:
                        new_opens.append((ch, end, col0))
                for e in elems:
                    if e in used:
                        continue
                    col0 = start_col0(e)
                    if cfg.forbid_taut and col0 and e[1] == n - 1:
                        return  # a fresh chain is already a full column (n = 1)
                    if rk - r == r:
                        new_closed.append((e,))
                    else:
                        new_opens.append(((e,), rk - r, col0))
                place(r + 1, tuple(new_opens), tuple(new_closed))
                return
            ch, end, col0 = opens[i]
            top = ch[-1]
            candidates = ups[top]
            if sym_k is not None and sym_k > 1 and r == 1 and i == 0:
                # Existence pruning: the rank-1 bit moves are all images of
                # the least one under bit permutations of the cuboid.
                candidates = tuple(
                    e for e in candidates if e[0] == 0 or e[0] == 1
                )
            for e in candidates:
                if e in used:
                    continue
                new_col0 = step_col0(top, e, col0)
                if cfg.forbid_taut and new_col0 and e[1] == n - 1:
                    continue  # this extension completes a forbidden column
                used.add(e)
                assign(i + 1, used, grown + ((ch + (e,), end, new_col0),))
                used.discard(e)

        assign(0, set(), ())

    stop_reason = None
    exhausted = True
    try:
        place(0, (), ())
    except _StopSearch as stop:
        stop_reason = stop.reason
        exhausted = False
    # The nested functions form reference cycles; emptying ``place`` frees
    # ``found`` with the outcome instead of at the next full collection.
    del place
    return SearchOutcome(tuple(found), exhausted, nodes, stop_reason)


def count_scds(host: GradedPoset, force: bool = False) -> int:
    """Exact number of symmetric chain decompositions of ``host``.

    Guarded to hosts of at most 24 elements unless ``force`` is set, and
    refuses to answer from an interrupted search.
    """
    if len(host) > COUNT_GUARD_ELEMENTS and not force:
        raise SearchError(
            f"{host.label} has {len(host)} elements; counting beyond "
            f"{COUNT_GUARD_ELEMENTS} needs force=True"
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
