"""Exhaustive search for symmetric chain decompositions, by two engines.

The prover serves every ``forbid_taut`` search on a cuboid (a host whose
base is a hypercube) and every count on a cuboid; the walker serves
everything else: enumeration, searches that allow taut chains and
generic hosts.

**The walker** goes over the host rank by rank from the bottom.  Its
state is the frontier of open chains, each an ``(elements, end_rank)``
pair; at rank r every open chain must extend along a cover to a distinct
rank-r element, and the leftover elements start new chains.  A chain
born at rank r is committed to end at rank rk - r, so symmetry holds by
construction rather than by filtering, and a chain that cannot reach its
committed end kills the branch.  Taut chains are refused inside the
walk, read off the chain itself: covers never lower a coordinate, so
appending ``(p, n-1)`` completes a full column exactly when the element
n-1 places back is ``(p, 0)``.  One walker node is one entry into a rank
or one open chain extended.

**The prover** is exact cover (Knuth's Algorithm X) on int bitmasks.
Its rows are the saturated symmetric chains (the taut-free ones, for a
``forbid_taut`` search), its columns the host elements, numbered
``b * n + c`` in canonical order; for every element it keeps the bitmask
of the rows through it.  A node branches on the uncovered element with
the fewest live rows; picking a row clears every row that shares an
element with it, through ``live &= ~rows_of[e]`` over its own elements.
One prover node is one such branch point or one generated row; both
count against the node budget.

The prover searches a quotient.  Every decomposition has exactly one
maximal chain, and along it every bit flips exactly once, so the orbit
of that chain under the k! bit permutations is given by its word of
level and bit steps.  The duality ``(b, c) -> (~b, n-1-c)`` reverses
order, keeps chains symmetric and taut chains taut, and reverses that
word.  Of the maximal chains only one per orbit is a row: its bits flip
in the order 0, 1, 2, ... and its word is at most its reverse.  Every
decomposition is the image of one whose maximal chain is such a row, so
a quotient search that finishes without a solution proves that none
exists.

The prover also counts.  The bit permutations act freely on maximal
chains, so k! decompositions share each word's canonical bit order, and
the duality pairs the decompositions of a word with those of its
reverse.  So a quotient solution stands for k! decompositions when its
maximal row's word is a palindrome and for 2 * k! otherwise: a maximal
row weighs 1 or 2, every other row 1, and the count is k! times the
weighted number of solutions.  The live rows are a function of the
uncovered elements alone (exactly the rows inside them), and so is
their weighted number of completions; the count is a sum over the
branch element's live rows of weight times the count of what is left,
and each uncovered set is counted once.  There one node is one set
counted (a memo miss) or one generated row, and no decomposition is
built.

The prover remembers.  Its memo maps an uncovered set to its weighted
number of completions; a count records every set it finishes, and a
search for solutions records the sets whose subtree it exhausted
without one, as zeros, and skips a child whose set is zero.  Only a
finished subtree is recorded: a run that is cut off unwinds by exception
past the record.  So the memo never drops a solution nor reorders one
run's search.  It lives on the ``_Cover``, shared by all runs of one
search, and together with the row table holds at most
``MAX_COVER_BITS`` bits; once full it records no more, and only prunes
less.

First-solution times are heavy-tailed, so the prover restarts: it runs
the rows in a fixed list of seeded orders, each for at most
``RESTART_NODES`` nodes, then once, uncapped, in canonical order.  A run
that finishes without a solution is a proof whatever its order; the
seeds are fixed, so every answer is deterministic.  What the seeded runs
exhaust prunes the later runs, so on a host without a solution the
restarts cost little beyond the canonical run.  An existence query
(``limit == 1``) returns the prover's witness; any other ``forbid_taut``
query on a cuboid asks the prover first, returns exhausted-empty when
there is no solution, and otherwise hands over to the walker, with the
nodes of both engines summed.

Both engines are exhaustive, which is what turns "no decomposition was
found" into "no decomposition exists".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from math import factorial

from .chains import SCD, canonical_chain_order, necessary_conditions
from .constructions import generate
from .posets import GradedPoset, build_cuboid, build_hypercube, is_rank_symmetric

DEFAULT_NODE_BUDGET = 10**8
DESK_SCALE_ELEMENTS = 24  # hosts this small are searched exhaustively: counted, or re-proved
# The prover's restarts: one run per seeded row order, each of at most
# RESTART_NODES nodes, before the uncapped run in canonical order.
RESTART_SEEDS = tuple(range(1, 9))
RESTART_NODES = 1000
# The prover's tables hold one bit per element for each row and each memo
# entry; a host with more rows than fit stops the search ("row-limit")
# instead of exhausting memory, and a full memo records no more.
MAX_COVER_BITS = 1 << 26


class SearchError(ValueError):
    """Raised for unusable search requests (not for budget exhaustion)."""


class _StopSearch(Exception):
    def __init__(self, reason: str, nodes: int):
        self.reason, self.nodes = reason, nodes


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`enumerate_scds`.

    ``use_symmetry`` prunes branches equivalent under permutations of the
    hypercube bit positions; that is sound for existence queries only, so
    it demands ``limit == 1``.  A ``forbid_taut`` search of a cuboid runs
    the prover, whose quotient already covers those permutations, so
    there it changes nothing.  When the caller sets no budget at all, a
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


@dataclass(frozen=True)
class CountOutcome:
    """Like :class:`SearchOutcome`, with the number of decompositions in
    place of the decompositions; ``count`` is 0 unless ``exhausted``."""

    count: int
    exhausted: bool
    nodes_visited: int
    stop_reason: str | None = None


class _Budget:
    """The base of both engines: the nodes spent against the node and time
    budgets.  ``spent``, the engine that ran before in the same search,
    hands on its nodes and its deadline."""

    def __init__(self, cfg: SearchConfig, spent: _Budget | None = None):
        self.node_budget = cfg.node_budget
        if cfg.node_budget is None and cfg.time_budget is None:
            self.node_budget = DEFAULT_NODE_BUDGET
        if spent is not None:
            self.nodes, self.deadline = spent.nodes, spent.deadline
        else:
            self.nodes = 0
            self.deadline = None if cfg.time_budget is None else time.monotonic() + cfg.time_budget

    def tick(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _StopSearch("node-budget", self.nodes)
        if (self.deadline is not None and self.nodes % 1024 == 0
                and time.monotonic() > self.deadline):
            raise _StopSearch("time-budget", self.nodes)


class _Cover(_Budget):
    """The prover over a cuboid ``host``: rows, then runs of Algorithm X.

    A row is a tuple of element indices ``b * n + c``, bottom up; rows come
    in canonical order (start rank, start element, covers in ``up``
    order), and ``weights[i]`` is row i's weight in a count.
    ``taut_free=False`` keeps taut chains as rows as well.  Nothing is
    allocated per element before the first row is ticked.
    """

    def __init__(self, host: GradedPoset, cfg: SearchConfig, taut_free: bool = True):
        super().__init__(cfg)
        base, n = host.chain_factor
        self.host, self.n, self.k = host, n, base.hypercube_k
        self.span = n - 1 if taut_free else None
        self.max_rows = MAX_COVER_BITS // len(host)
        self.rows: list[tuple[int, ...]] = []
        self.weights: list[int] = []
        if self.span != 0:  # for n = 1 every element is a full column
            for r in range(host.rk // 2 + 1):
                if r and not self.rows:
                    break  # no row covers the bottom (n = 2): no solution
                for b, c in host.by_rank[r]:
                    self._grow([b * n + c], b, c, host.rk - 2 * r)
        marks = [bytearray(len(self.rows) // 8 + 1) for _ in range(len(host))]
        for i, row in enumerate(self.rows):
            for e in row:
                marks[e][i >> 3] |= 1 << (i & 7)
        self.rows_of = [int.from_bytes(m, "little") for m in marks]
        # The memo: weighted completions of uncovered sets, for all runs.
        self.memo: dict[int, int] = {}
        self.max_memo = self.max_rows - len(self.rows)

    def _grow(self, chain: list, b: int, c: int, left: int) -> None:
        """Extend ``chain``, ending at ``(b, c)``, by ``left`` more covers."""
        n = self.n
        if not left:
            weight = 1
            if chain[0] == 0:  # the maximal chain: keep words at most their reverse
                word = [y - x < n for x, y in zip(chain, chain[1:])]
                reverse = word[::-1]
                if word > reverse:
                    return
                if word != reverse:
                    weight = 2  # it stands for its dual as well
            self.tick()
            if len(self.rows) == self.max_rows:
                raise _StopSearch("row-limit", self.nodes)
            self.rows.append(tuple(chain))
            self.weights.append(weight)
            return
        span = self.span
        if c + 1 < n and not (
            c + 1 == span and len(chain) >= span and chain[-span] == b * n
        ):  # unless the level step completes a forbidden column
            chain.append(b * n + c + 1)
            self._grow(chain, b, c + 1, left - 1)
            chain.pop()
        if chain[0] == 0:  # the maximal chain flips its bits in the order 0, 1, ...
            ups = (b | b + 1,) if b + 1 < 1 << self.k else ()
        else:
            ups = tuple(b | 1 << i for i in range(self.k) if not b >> i & 1)
        for up in ups:
            chain.append(up * n + c)
            self._grow(chain, up, c, left - 1)
            chain.pop()

    def solve(self, seed: int | None = None, cutoff: int | None = None,
              limit: int | None = 1) -> list[tuple[int, ...]]:
        """Up to ``limit`` solutions, each a tuple of row indices.

        Rows are tried in canonical order, or in the order ``seed``
        shuffles them to; past ``cutoff`` nodes the run stops ("cutoff").
        """
        self.order = None
        if seed is not None:
            self.order = list(range(len(self.rows)))
            random.Random(seed).shuffle(self.order)
        self.stop_at = None if cutoff is None else self.nodes + cutoff
        self.found: list[tuple[int, ...]] = []
        self.limit = limit
        try:
            self._cover((1 << len(self.host)) - 1, (1 << len(self.rows)) - 1, [])
        except _StopSearch as stop:
            if stop.reason != "limit":
                raise
        return self.found

    def _branch(self, uncovered: int, live: int) -> list[int]:
        """The live rows through the uncovered element with the fewest."""
        rows_of = self.rows_of
        fewest, col = len(self.rows) + 1, 0
        u = uncovered
        while u:
            low = u & -u
            e = low.bit_length() - 1
            count = (rows_of[e] & live).bit_count()
            if count < fewest:
                fewest, col = count, e
                if not count:
                    break  # no live row covers this element
            u ^= low
        choices = rows_of[col] & live
        tried = []
        while choices:
            low = choices & -choices
            tried.append(low.bit_length() - 1)
            choices ^= low
        return tried

    def _cover(self, uncovered: int, live: int, picked: list) -> None:
        self.tick()
        if self.stop_at is not None and self.nodes > self.stop_at:
            raise _StopSearch("cutoff", self.nodes)
        if not uncovered:
            self.found.append(tuple(picked))
            if len(self.found) == self.limit:
                raise _StopSearch("limit", self.nodes)
            return
        tried = self._branch(uncovered, live)
        if self.order is not None:
            tried.sort(key=self.order.__getitem__)
        rows_of, memo, found = self.rows_of, self.memo, len(self.found)
        for i in tried:
            left, rest = uncovered, live
            for e in self.rows[i]:
                left ^= 1 << e
                rest &= ~rows_of[e]
            if memo.get(left) == 0:
                continue
            picked.append(i)
            self._cover(left, rest, picked)
            picked.pop()
        # Only a finished loop gets here; a cut-off run unwinds past it.
        if len(self.found) == found and len(memo) < self.max_memo:
            memo[uncovered] = 0

    def count(self) -> int:
        """The number of decompositions: k! times the weighted solutions."""
        full = (1 << len(self.host)) - 1
        return factorial(self.k) * self._count(full, (1 << len(self.rows)) - 1)

    def _count(self, uncovered: int, live: int) -> int:
        """The weighted completions of a nonempty ``uncovered``, not in the memo."""
        self.tick()
        rows_of, memo, weights = self.rows_of, self.memo, self.weights
        total = 0
        for i in self._branch(uncovered, live):
            left, rest = uncovered, live
            for e in self.rows[i]:
                left ^= 1 << e
                rest &= ~rows_of[e]
            sub = memo.get(left)
            if sub is None:
                sub = self._count(left, rest) if left else 1
            total += weights[i] * sub
        if len(memo) < self.max_memo:
            memo[uncovered] = total
        return total

    def witness(self) -> SCD | None:
        """A decomposition by the restart schedule, or None once a run
        finishes without one."""
        for seed in RESTART_SEEDS + (None,):
            try:
                found = self.solve(seed, None if seed is None else RESTART_NODES)
            except _StopSearch as stop:
                if stop.reason != "cutoff":
                    raise
                continue
            return self.decode(found[0]) if found else None

    def decode(self, solution: tuple[int, ...]) -> SCD:
        """The decomposition of a solution, chains in canonical order."""
        chains = [tuple(divmod(e, self.n) for e in self.rows[i]) for i in solution]
        return SCD(self.host, canonical_chain_order(self.host, chains))


class _Walk(_Budget):
    """One walk over ``host``, built once per search.

    ``place`` enters rank ``r``; ``assign`` extends open chain ``i`` into
    rank ``r`` and, once all have grown, starts chains at the leftover
    elements.  Each call of either is one node.  Up-sets are looked up
    on first use, so a walk allocates nothing per element before its
    first node.
    """

    def __init__(self, host: GradedPoset, cfg: SearchConfig, spent: _Budget | None = None):
        super().__init__(cfg, spent)
        self.host = host
        self.rk = host.rk
        self.by_rank = host.by_rank
        self.ups = {}
        sym_k = host.chain_factor[0].hypercube_k if host.chain_factor else None
        if cfg.use_symmetry and sym_k is not None and sym_k > 1:
            # Existence pruning: the rank-1 bit moves are all images of the
            # least one under bit permutations of the cuboid, and only the
            # bottom chain's step to rank 1 reads the bottom's up-set.
            bottom = host.bottom
            self.ups[bottom] = tuple(e for e in host.up(bottom) if e[0] in (0, 1))
        # With forbid_taut, the number of steps in a full column (p, 0) ..
        # (p, n-1); for n = 1 every fresh start is already a full column.
        self.span = host.chain_factor[1] - 1 if cfg.forbid_taut else None
        self.limit = cfg.limit
        self.found: list[SCD] = []

    def place(self, r: int, opens: tuple, closed: tuple) -> None:
        self.tick()
        if r > self.rk:
            self.found.append(SCD(self.host, canonical_chain_order(self.host, closed)))
            if self.limit is not None and len(self.found) >= self.limit:
                raise _StopSearch("limit", self.nodes)
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
        tail = ch[-1]
        try:
            ups = self.ups[tail]
        except KeyError:
            ups = self.ups[tail] = self.host.up(tail)
        for e in ups:
            if e in used:
                continue
            if span and e[1] == span and len(ch) >= span and ch[-span] == (e[0], 0):
                continue  # this extension completes a forbidden column
            used.add(e)
            self.assign(r, opens, closed, i + 1, used, grown + ((ch + (e,), end),))
            used.discard(e)


def _checked(config: SearchConfig | None) -> SearchConfig:
    """``config``, or the default, once its values pass every check."""
    cfg = config or SearchConfig()
    if cfg.limit is not None and cfg.limit < 1:
        raise SearchError(f"limit must be at least 1, got {cfg.limit}")
    if cfg.node_budget is not None and cfg.node_budget < 0:
        raise SearchError(f"node budget must be nonnegative, got {cfg.node_budget}")
    if cfg.time_budget is not None and cfg.time_budget < 0:
        raise SearchError(f"time budget must be nonnegative, got {cfg.time_budget}")
    if cfg.use_symmetry and cfg.limit != 1:
        raise SearchError("use_symmetry is only sound for existence queries (limit=1)")
    return cfg


def enumerate_scds(host: GradedPoset, config: SearchConfig | None = None) -> SearchOutcome:
    """Enumerate symmetric chain decompositions of ``host``.

    Deterministic: the walker tries elements in canonical order and
    extensions before starts, and the prover, which answers ``forbid_taut``
    searches of a cuboid first, runs a fixed restart schedule, so repeated
    runs yield the same decompositions in the same order.  A
    non-rank-symmetric host has no decompositions at all and returns
    empty-but-exhausted immediately.
    """
    cfg = _checked(config)
    if not is_rank_symmetric(host):
        return SearchOutcome((), True, 0, "not-rank-symmetric")
    if cfg.forbid_taut and host.chain_factor is None:
        raise SearchError(f"{host.label} has no chain coordinate to forbid taut runs in")

    cover = walk = None
    try:
        if cfg.forbid_taut and host.chain_factor[0].hypercube_k is not None:
            cover = _Cover(host, cfg)
            witness = cover.witness()
            if witness is None:
                return SearchOutcome((), True, cover.nodes)
            if cfg.limit == 1:
                return SearchOutcome((witness,), False, cover.nodes, "limit")
        walk = _Walk(host, cfg, cover)
        walk.place(0, (), ())
    except _StopSearch as stop:
        return SearchOutcome(tuple(walk.found) if walk else (), False, stop.nodes, stop.reason)
    except RecursionError:
        # Python's frame limit: the walker recurses once per open chain, the
        # prover once per picked row and, generating rows, once per cover.
        # Without an engine the prover's first row was already too long.
        engine = walk or cover
        return SearchOutcome(tuple(walk.found) if walk else (), False,
                             engine.nodes if engine else 0, "depth-limit")
    return SearchOutcome(tuple(walk.found), True, walk.nodes)


def count_search(host: GradedPoset, config: SearchConfig | None = None) -> CountOutcome:
    """The number of decompositions ``enumerate_scds`` finds with no limit.

    On a cuboid the prover counts them without building one; any other
    host is enumerated by the walker.  ``config`` takes the same checks
    and budgets, but no ``limit``.
    """
    cfg = _checked(config)
    if cfg.limit is not None:
        raise SearchError("a count takes no limit")
    if host.chain_factor is None or host.chain_factor[0].hypercube_k is None:
        outcome = enumerate_scds(host, cfg)
        return CountOutcome(len(outcome.found) if outcome.exhausted else 0,
                            outcome.exhausted, outcome.nodes_visited, outcome.stop_reason)
    cover = None
    try:
        cover = _Cover(host, cfg, taut_free=cfg.forbid_taut)
        return CountOutcome(cover.count(), True, cover.nodes)
    except _StopSearch as stop:
        return CountOutcome(0, False, stop.nodes, stop.reason)
    except RecursionError:
        # As in enumerate_scds: a row, or a decomposition, past the frame limit.
        return CountOutcome(0, False, cover.nodes if cover else 0, "depth-limit")


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
    outcome = count_search(host)
    if not outcome.exhausted:
        raise SearchError(f"count interrupted by {outcome.stop_reason}; no exact count")
    return outcome.count


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
