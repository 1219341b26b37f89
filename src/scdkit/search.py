"""Exhaustive search for symmetric chain decompositions, by exact cover.

Every search is exact cover (Knuth's Algorithm X) on int bitmasks.  The
rows are the saturated symmetric chains (the taut-free ones, for a
``forbid_taut`` search), grown along ``host.up``; the columns are the
elements, numbered by position in canonical order.  On a cuboid, a host
whose base is a hypercube, that position is ``b * n + c`` and the rows
start from elements generated from the bits, so a search of a cuboid
builds no element table (see ``_numbering``).  A row is the bitmask of
its elements' positions, and ``rows_of[e]`` the bitmask of the rows
through element e.  A node branches on the uncovered element with the
fewest live rows, the first such in position order, found by walking
the ``rows_of`` of the uncovered elements alone.  Picking row i leaves
``uncovered ^ rows[i]`` uncovered and clears its conflict mask from the
live rows: the OR of ``rows_of[e]`` over its elements, every row that
shares an element with it, computed on its first pick and then cached.
One node is one branch point or one generated chain, kept as a row or
not; both count against the node budget.  Rows are grown and picked on
explicit stacks, so no search recurses, however long or many its chains.

On a cuboid the search can run on a quotient.  Every decomposition has
one maximal chain, along which every bit flips once, so the chain's
orbit under the k! bit permutations is given by its word of level and
bit steps.  The duality ``(b, c) -> (~b, n-1-c)`` keeps chains symmetric
and taut chains taut, and reverses that word.  Of the maximal chains the
quotient keeps as rows those whose bits flip in the order 0, 1, 2, ...
and whose word is at most its reverse.  Every decomposition is the image
of one whose maximal chain is such a row, so a quotient search that
finishes without a solution proves that none exists.  And since the bit
permutations act freely on maximal chains, a quotient solution stands
for k! decompositions when its maximal row's word is a palindrome and
for 2 * k! otherwise: a count weighs that row 1 or 2, every other row 1,
and multiplies by k! (without the quotient, by 1).

A count is a sum over the branch element's live rows of weight times the
count of what is left.  The live rows are exactly the rows inside the
uncovered elements, so each uncovered set is counted once, in the memo;
there one node is one set counted or one generated row, and no
decomposition is built.  A search for solutions records in the same
memo, as zeros, the sets whose subtree it exhausted without one, and
skips them.  A run cut off or closed stops where it stands and records
nothing it did not finish, so the memo never drops a solution nor
reorders a run.  It lives on the ``_Cover``, shared by its runs, and
with the row table holds at most ``MAX_COVER_BITS`` bits.  Once full it
records no more: a search prunes less, and a count recounts each set it
could not record, within the node budget.  The conflict cache has an
allowance of its own, ``MAX_COVER_BITS`` bits at one bit per row for
each mask; past it a mask is computed on every pick and not stored,
which costs time but no node.

First-solution times are heavy-tailed, so an existence query
(``limit == 1``) restarts on Luby's universal cutoffs, on the quotient
where there is one: run i shuffles the rows by seed i and is cut off
after ``unit * luby(i)`` nodes, luby being 1, 1, 2, 1, 1, 2, 4, 1, ...
and ``unit`` ``RESTART_NODES``, or twice the host's width if more (a
path to a leaf alone costs width + 1 nodes).  The cutoffs grow without
bound, a run that finishes without a solution is a proof whatever its
order, and what a run exhausts prunes the later ones.  Any other
enumeration is one unquotiented run in canonical order; a
``forbid_taut`` enumeration of a cuboid asks the quotient for a witness
first, and is finished and empty without one.  A count runs on the
quotient where there is one.  The node budget is the one bound, so every
answer is deterministic, and only a finished search says none exists.
A run yields each solution as it finds it, and ``_search`` hands it on
with its cover, so a search holds none: the caller decodes what it keeps.
``enumerate_scds`` and ``count_search`` take the settings as keywords:
``forbid_taut``, ``node_budget`` (``DEFAULT_NODE_BUDGET``) and, for an
enumeration alone, ``limit``.

Both search a host ``P x n`` on the smallest host the paper's two maps
allow, by one rule (``_searched_length``), applied once the settings are
checked and the host is rank-symmetric; the node budget, and the nodes
reported, are those of the host searched.  For m, n >= rk(P)+1, ``shift``
is a bijection between the decompositions of ``P x m`` and ``P x n``
that keeps taut chains taut, so ``P x (rk+1)`` answers for every
n > rk+1: an enumeration runs on it and carries each decomposition it
finds onto the host ``P x n`` it was given, by ``shift``'s restretch (a
finished empty search is finished for ``P x n``), and a taut-free count
counts it.  A decomposition decoded from a cover is valid by
construction, so it is carried with its report: only ``shift``'s output
gate validates, and no host is built per decomposition.  When rk >= 1
and P has a unique bottom and top, ``collapse`` maps the decompositions
of ``P x (rk+1)`` onto those of ``P x rk``, rk+1 to 1, so a count of
every decomposition for n >= rk+1 counts ``P x rk`` and multiplies by
rk+1.  Not a taut-free count: ``collapse`` is not rk+1 to 1 on taut-free
decompositions (3x3 x 4 has 3,368, 3x3 x 5 has 17,600).

``exists_nontaut_scd`` answers n <= 2 by rule and k >= 5 by
construction, and every other pair by one taut-free existence query on
the host the same rule picks, P(k, m) with ``m = min(n, k+1)``, so one
search of at most P(4, 5) settles every n.  Each such query runs once
per process and node budget and is kept, so the first k = 4, n >= 5
query proves P(4, 5), and the rest reuse the proof.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cache, lru_cache, partial, reduce
from itertools import compress, count
from math import factorial
from operator import or_
from typing import NamedTuple

from .chains import SCD, ValidationReport, _reported, canonical_chain_order, is_taut
from .constructions import _shifted, generate
from .posets import GradedPoset, build_cuboid, build_hypercube, cuboid_shape
from .posets import is_rank_symmetric, poset_times_chain

DEFAULT_NODE_BUDGET = 10**8
# The least unit of an existence query's restart cutoffs, in nodes.
RESTART_NODES = 1000
# The cover's tables hold one bit per element for each row and each memo
# entry; a host with more rows than fit stops the search ("row-limit")
# instead of exhausting memory, and a full memo records no more.  The
# conflict cache holds as many bits again, one per row for each mask.
MAX_COVER_BITS = 1 << 26


class SearchError(ValueError):
    """Raised for unusable search requests (not for budget exhaustion)."""


class _StopSearch(Exception):
    def __init__(self, reason: str | None, nodes: int):
        self.reason, self.nodes = reason, nodes


class SearchOutcome(NamedTuple):
    """``stop_reason`` is None only when the whole space was explored, so
    any nonexistence conclusion must check it; otherwise it names what
    stopped the search: ``"limit"``, ``"node-budget"`` or ``"row-limit"``."""

    found: tuple[SCD, ...]
    nodes_visited: int
    stop_reason: str | None = None


class CountOutcome(NamedTuple):
    """Like :class:`SearchOutcome`, with the number of decompositions in
    place of the decompositions; ``count`` is 0 unless it finished."""

    count: int
    nodes_visited: int
    stop_reason: str | None = None


def _luby(i: int) -> int:
    """The i-th term, from i = 1, of Luby's sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while (i + 1) & i:  # i is not 2^j - 1: drop the largest complete prefix
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) >> 1


def _word_weight(chain: list) -> int:
    """The weight of a quotient's maximal chain: 0 when its word of level
    and bit steps exceeds the reverse (its dual is kept instead), 2 when
    it is less (it stands for its dual as well), 1 for a palindrome."""
    word = [x[0] == y[0] for x, y in zip(chain, chain[1:])]
    reverse = word[::-1]
    return 0 if word > reverse else 1 if word == reverse else 2


class _Cover:
    """Exact cover over ``host``: its rows, then runs of Algorithm X.

    A row is the bitmask of its element positions; rows come in
    canonical order (start rank, start element, covers in ``up`` order),
    and ``weights[i]`` is row i's weight in a count.  Rows are taut-free
    under ``forbid_taut``.  ``conflicts[i]`` is row i's conflict mask
    once it was picked, for at most ``max_conflicts`` rows.  ``quotient``
    takes effect on cuboids only.  ``nodes`` counts those a cover used
    before in the same search, against the same budget.  No table with an
    entry per element is built before the first row is ticked.
    """

    def __init__(self, host: GradedPoset, forbid_taut: bool, node_budget: int,
                 quotient: bool = True, nodes: int = 0):
        self.node_budget = node_budget
        self.nodes = nodes
        shape = cuboid_shape(host)
        self.quotient = quotient and shape is not None
        self.scale = factorial(shape[0]) if self.quotient else 1
        self.host = host
        self.position, self.element, self.of_rank = _numbering(host)
        self.max_rows = MAX_COVER_BITS // len(host)
        self.rows: list[int] = []
        self.weights: list[int] = []
        grown = self._grow_rows(forbid_taut)
        marks = [bytearray(len(self.rows) // 8 + 1) for _ in range(len(host))]
        for i, row in enumerate(grown):
            for e in row:
                marks[e][i >> 3] |= 1 << (i & 7)
        self.rows_of = [int.from_bytes(m, "little") for m in marks]
        # The memo: weighted completions of uncovered sets, for all runs.
        self.memo: dict[int, int] = {}
        self.max_memo = self.max_rows - len(self.rows)
        # Conflict masks of picked rows, for all runs, within their own bits.
        self.conflicts: dict[int, int] = {}
        self.max_conflicts = MAX_COVER_BITS // max(len(self.rows), 1)

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _StopSearch("node-budget", self.nodes)

    def _grow_rows(self, taut_free: bool) -> list[tuple[int, ...]]:
        """Every row, depth first from each start along ``host.up``; returns
        each row's positions, bottom up, for the column table."""
        host, rows, weights, position = self.host, self.rows, self.weights, self.position
        grown = []
        # With taut_free, the steps of a full column (p, 0) .. (p, n-1).
        span = host.chain_factor[1] - 1 if taut_free else None
        if span == 0:
            return grown  # n = 1: every element is a full column

        @cache  # each up-set is looked up once, on first use
        def up(e):
            return [(x, position(x)) for x in host.up(e)]

        def bit_order_up(e):
            # The quotient's maximal chain flips its bits in the order 0, 1, ...
            b = e[0]
            return [x for x in up(e) if x[0][0] == b or x[0][0] == b | b + 1]

        for r in range(host.rk // 2 + 1):
            if r and not rows:
                break  # no row covers rank 0 (P(k, 2) taut-free): no solution
            length = host.rk - 2 * r + 1
            maximal = self.quotient and r == 0  # rank 0 of a cuboid is its bottom
            ups = bit_order_up if maximal else up
            chain, row, mask = [], [], 0
            stack = [((e, position(e)) for e in self.of_rank(r))]
            while stack:
                for e, i in stack[-1]:
                    if span and e[1] == span and len(chain) >= span and chain[-span] == (e[0], 0):
                        continue  # this step completes a forbidden column
                    chain.append(e)
                    row.append(i)
                    mask |= 1 << i
                    if len(chain) < length:
                        stack.append(iter(ups(e)))
                        break
                    weight = _word_weight(chain) if maximal else 1
                    self.tick()
                    if weight:
                        if len(rows) == self.max_rows:
                            raise _StopSearch("row-limit", self.nodes)
                        rows.append(mask)
                        weights.append(weight)
                        grown.append(tuple(row))
                    chain.pop()
                    mask ^= 1 << row.pop()
                else:
                    stack.pop()
                    if chain:
                        chain.pop()
                        mask ^= 1 << row.pop()
        return grown

    def solve(self, seed: int | None = None, cutoff: int | None = None):
        """Each solution, a tuple of row indices, as it is found.

        Rows are tried in canonical order, or in the order ``seed``
        shuffles them to; past ``cutoff`` nodes the run raises
        ``_StopSearch("cutoff")``.
        """
        order = None
        if seed is not None:
            order = list(range(len(self.rows)))
            random.Random(seed).shuffle(order)
        stop_at = None if cutoff is None else self.nodes + cutoff
        rows, memo, conflicts, conflict = self.rows, self.memo, self.conflicts, self._conflict
        # One frame per open node: its uncovered set, live rows, the rows
        # left to try and the solutions found before it; picked holds the
        # row that led to each frame but the root, and then to a leaf.
        uncovered, live = (1 << len(self.host)) - 1, (1 << len(rows)) - 1
        stack, picked, found = [], [], 0
        while True:
            self.tick()
            if stop_at is not None and self.nodes > stop_at:
                raise _StopSearch("cutoff", self.nodes)
            if uncovered:
                tried = self._branch(uncovered, live)
                if order is not None:
                    tried.sort(key=order.__getitem__)
                stack.append((uncovered, live, iter(tried), found))
            else:
                found += 1
                yield tuple(picked)
                picked.pop()
            while stack:  # on to the next child not known dead
                uncovered, live, tried, before = stack[-1]
                for i in tried:
                    left = uncovered ^ rows[i]
                    if memo.get(left) != 0:
                        picked.append(i)
                        uncovered, live = left, live & ~(conflicts.get(i) or conflict(i))
                        break
                else:
                    # Only a finished node gets here; a run cut off or
                    # closed leaves its open nodes unrecorded.
                    stack.pop()
                    if found == before and len(memo) < self.max_memo:
                        memo[uncovered] = 0
                    if picked:
                        picked.pop()
                    continue
                break
            else:
                return

    def _branch(self, uncovered: int, live: int) -> list[int]:
        """The live rows through the uncovered element with the fewest."""
        fewest = len(self.rows) + 1
        for column in compress(self.rows_of, _bits(uncovered)):
            through = (column & live).bit_count()
            if through < fewest:
                fewest, best = through, column
                if not through:
                    break  # no live row covers this element
        return _ones(best & live)

    def _conflict(self, i: int) -> int:
        """The rows that share an element with row i, stored in
        ``conflicts`` while it holds fewer than ``max_conflicts`` masks.
        Never 0, as row i is among them, so callers read the cache with
        ``conflicts.get(i) or``."""
        mask = reduce(or_, compress(self.rows_of, _bits(self.rows[i])))
        if len(self.conflicts) < self.max_conflicts:
            self.conflicts[i] = mask
        return mask

    def count(self) -> int:
        """The number of decompositions: ``scale`` times the weighted solutions."""
        rows, memo, weights = self.rows, self.memo, self.weights
        conflicts, conflict = self.conflicts, self._conflict
        uncovered, live = (1 << len(self.host)) - 1, (1 << len(rows)) - 1
        # One frame per set being counted: the set, its live rows, the rows
        # left to try, its total so far and the weight of the row that led
        # to it.
        self.tick()
        stack = [[uncovered, live, iter(self._branch(uncovered, live)), 0, 1]]
        while True:
            frame = stack[-1]
            uncovered, live, tried = frame[0], frame[1], frame[2]
            for i in tried:
                left = uncovered ^ rows[i]
                sub = memo.get(left) if left else 1
                if sub is None:  # a set not counted yet
                    self.tick()
                    rest = live & ~(conflicts.get(i) or conflict(i))
                    stack.append([left, rest, iter(self._branch(left, rest)), 0, weights[i]])
                    break
                frame[3] += weights[i] * sub
            else:
                stack.pop()
                if len(memo) < self.max_memo:
                    memo[uncovered] = frame[3]
                if not stack:
                    return self.scale * frame[3]
                stack[-1][3] += frame[4] * frame[3]

    def witness(self) -> tuple[int, ...] | None:
        """A solution by the restart schedule, or None once a run finishes
        without one."""
        unit = max(RESTART_NODES, 2 * max(self.host.rank_vector))
        for seed in count(1):
            try:
                return next(self.solve(seed, unit * _luby(seed)), None)
            except _StopSearch as stop:
                if stop.reason != "cutoff":
                    raise

    def decode(self, solution: tuple[int, ...]) -> SCD:
        """The decomposition of a solution, chains in canonical order."""
        element, rank_of = self.element, self.host.rank_of
        chains = [tuple(sorted(map(element, _ones(self.rows[i])), key=rank_of))
                  for i in solution]
        return SCD(self.host, canonical_chain_order(self.host, chains))


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest first: 1 where it is set."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _ones(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    ones = []
    while mask:
        low = mask & -mask
        ones.append(low.bit_length() - 1)
        mask ^= low
    return ones


def _numbering(host: GradedPoset):
    """The columns of a search of ``host``: ``position(e)`` is the index
    of ``e`` in canonical order, ``element(i)`` its inverse, and
    ``of_rank(r)`` the rank-r elements in canonical order.  On a cuboid
    all three are arithmetic on ``(b, c)``: the position is ``b * n + c``,
    and the rank-r elements come from the bits with ``b`` ascending, so
    the search builds no element table."""
    shape = cuboid_shape(host)
    if shape is None:
        elements = host.elements
        return partial(bisect_left, elements), elements.__getitem__, host.by_rank.__getitem__
    k, n = shape

    def of_rank(r):
        return ((b, c) for b in range(1 << k) if 0 <= (c := r - b.bit_count()) < n)

    return (lambda e: e[0] * n + e[1]), (lambda i: divmod(i, n)), of_rank


def _check(host: GradedPoset, forbid_taut: bool, limit: int | None, node_budget: int) -> None:
    """Refuse search settings that are unusable for ``host``."""
    if limit is not None and limit < 1:
        raise SearchError(f"limit must be at least 1, got {limit}")
    if node_budget < 0:
        raise SearchError(f"node budget must be nonnegative, got {node_budget}")
    if forbid_taut and host.chain_factor is None:
        raise SearchError(f"{host.label} has no chain coordinate to forbid taut runs in")


def _searched(host: GradedPoset, forbid_taut: bool,
              count: bool = False) -> tuple[GradedPoset, int]:
    """The host a search of ``host`` runs on, by :func:`_searched_length`."""
    if host.chain_factor is None:
        return host, 1
    base, n = host.chain_factor
    m, factor = _searched_length(base, n, forbid_taut, count)
    return (host if m == n else poset_times_chain(base, m)), factor


def _searched_length(base: GradedPoset, n: int, forbid_taut: bool,
                     count: bool = False) -> tuple[int, int]:
    """The module's rule: the height m of the host ``P x m`` a search of
    ``P x n`` runs on, and the factor that turns its count into that of
    ``P x n``, read off the base and n with no host built."""
    rk = base.rk
    if count and not forbid_taut and n > rk >= 1 and None not in (base.bottom, base.top):
        return rk, rk + 1
    return min(n, rk + 1), 1


def enumerate_scds(host: GradedPoset, *, forbid_taut: bool = False, limit: int | None = None,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Enumerate symmetric chain decompositions of ``host``, taut-free ones
    under ``forbid_taut``: up to ``limit`` (at least 1), within
    ``node_budget`` nodes (nonnegative), the one bound on a search.

    A host ``P x n`` with n > rk(P)+1 is searched as ``P x (rk+1)``, and
    each decomposition found is carried onto ``host`` by ``shift``, a
    bijection that keeps taut chains taut; the budget, and
    ``nodes_visited``, are those of the host searched.

    Each decomposition is decoded and carried as it is found, and all are
    kept, so use :func:`count_search` for their number.  Deterministic: an
    enumeration tries rows in canonical order, and an existence query
    (and the first pass of a ``forbid_taut`` enumeration of a cuboid)
    runs a fixed restart schedule, so repeated runs yield the same
    decompositions in the same order.  A non-rank-symmetric host has no
    decompositions at all: its search is finished, and empty, at 0 nodes.
    """
    found = []
    try:
        for cover, solution in _search(host, forbid_taut, limit, node_budget):
            found.append(_decoded(cover, solution, host))
    except _StopSearch as stop:
        return SearchOutcome(tuple(found), stop.nodes, stop.reason)


def _decoded(cover: _Cover, solution: tuple[int, ...], host: GradedPoset) -> SCD:
    """``solution`` decoded on the cover's host, a ``P x m``, and carried to
    ``host`` by ``shift`` with the report ``validate_scd`` gives it: the
    chains partition the host, so it names the taut ones and nothing else,
    and ``shift``'s output gate reads its taut count."""
    scd = cover.decode(solution)
    if cover.host is host:
        return scd
    m = cover.host.chain_factor[1]
    taut = tuple(i for i, ch in enumerate(scd.chains) if is_taut(ch, m))
    return _shifted(_reported(scd, ValidationReport(taut, scd.chain_count)), host)


def _search(host: GradedPoset, forbid_taut: bool, limit: int | None, node_budget: int):
    """The search behind :func:`enumerate_scds`, on the host ``_searched``
    picks: each solution, as ``(cover, solution)``, as it is found, and
    then ``_StopSearch`` with the outcome's stop reason and nodes."""
    _check(host, forbid_taut, limit, node_budget)
    if not is_rank_symmetric(host):
        raise _StopSearch(None, 0)
    host, _ = _searched(host, forbid_taut)
    nodes = 0
    if limit == 1 or forbid_taut and cuboid_shape(host) is not None:
        prover = _Cover(host, forbid_taut, node_budget)
        witness = prover.witness()
        if witness is None:
            raise _StopSearch(None, prover.nodes)
        if limit == 1:
            yield prover, witness
            raise _StopSearch("limit", prover.nodes)
        nodes = prover.nodes
    cover = _Cover(host, forbid_taut, node_budget, quotient=False, nodes=nodes)
    for found, solution in enumerate(cover.solve(), 1):
        yield cover, solution
        if found == limit:
            raise _StopSearch("limit", cover.nodes)
    raise _StopSearch(None, cover.nodes)


def count_search(host: GradedPoset, *, forbid_taut: bool = False,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> CountOutcome:
    """The number of decompositions ``enumerate_scds`` finds with no limit,
    counted without building one, under the same checks.

    A host ``P x n`` with n >= rk(P)+1 is counted as ``P x (rk+1)``, or,
    for every decomposition of a base with a unique bottom and top and
    rk(P) >= 1, as ``P x rk`` times rk+1.  The budget, and
    ``nodes_visited``, are those of the host counted, which can be smaller
    than the one ``enumerate_scds`` searches (``P x (rk+1)``), so a count
    can finish within a budget that stops the matching enumeration."""
    _check(host, forbid_taut, None, node_budget)
    if not is_rank_symmetric(host):
        return CountOutcome(0, 0)
    searched, factor = _searched(host, forbid_taut, count=True)
    try:
        cover = _Cover(searched, forbid_taut, node_budget)
        return CountOutcome(factor * cover.count(), cover.nodes)
    except _StopSearch as stop:
        return CountOutcome(0, stop.nodes, stop.reason)


def count_scds(host: GradedPoset) -> int:
    """Exact number of symmetric chain decompositions of ``host``, by
    :func:`count_search`; refuses to answer from an interrupted count."""
    outcome = count_search(host)
    if outcome.stop_reason is not None:
        raise SearchError(f"count interrupted by {outcome.stop_reason}; no exact count")
    return outcome.count


class ExistenceResult(NamedTuple):
    """Answer to "does P(k, n) admit a taut-free decomposition?".

    ``method`` records how the answer was reached, one of five values:

    * ``n-rule``: n <= 2, where every maximal chain is taut;
    * ``construction``: k >= 5, a witness built and validated by
      :func:`~scdkit.constructions.generate`;
    * ``exhaustive``: a "no" backed by a finished taut-free search of
      P(k, n) itself;
    * ``exhaustive+shift``: a "no" backed by a finished taut-free search
      of P(k, m), ``m = k+1 < n``, carried over to P(k, n) by the
      ``shift`` bijection, which preserves taut chains for m, n >= k+1;
    * ``inconclusive``: the search stopped at the node budget, so
      ``exists`` is None -- never a nonexistence claim.

    Searches run for k <= 4 only, and each is made once per process and
    budget, so the first k = 4, n >= 5 query proves P(4, 5) (about
    275,000 nodes, a few seconds) and later ones reuse that proof.
    """

    exists: bool | None
    witness: SCD | None
    method: str
    nodes_visited: int = 0


@lru_cache(maxsize=16)
def _taut_free_search(k: int, m: int, node_budget: int) -> SearchOutcome:
    """The taut-free existence query on P(k, m), once per process per budget."""
    return enumerate_scds(build_cuboid(k, m), forbid_taut=True, limit=1, node_budget=node_budget)


def exists_nontaut_scd(k: int, n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> ExistenceResult:
    """Decide whether P(k, n) has a taut-free symmetric chain decomposition.

    n <= 2 is rejected outright (n = 1 makes every chain a column; for
    n = 2 the maximal chain is one), and for k >= 5 the witness is
    constructed and validated.  Every other pair is decided by a
    taut-free existence search of P(k, m), ``m = min(n, k+1)``, the host
    a search of P(k, n) runs on, within ``node_budget`` nodes (10**8 by
    default): at most 8 hosts, up to P(4, 5), each searched once per
    process and budget (see :class:`ExistenceResult`).
    """
    if k < 0 or n < 1:
        raise SearchError(f"need k >= 0 and n >= 1, got k={k}, n={n}")
    if n <= 2:
        return ExistenceResult(False, None, "n-rule")
    if k >= 5:
        # Every step of the pipeline checks its output taut-free where it
        # is built.
        return ExistenceResult(True, generate(k, n), "construction")

    m, _ = _searched_length(build_hypercube(k), n, True)
    outcome = _taut_free_search(k, m, node_budget)
    if outcome.stop_reason is None:
        method = "exhaustive" if m == n else "exhaustive+shift"
        return ExistenceResult(False, None, method, outcome.nodes_visited)
    # The node budget stopped it: no P(k, n) with k <= 4 has a witness to find.
    return ExistenceResult(None, None, "inconclusive", outcome.nodes_visited)
