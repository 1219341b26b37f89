"""Constructive transformations between symmetric chain decompositions.

The toolbox, bottom to top:

* canonical decompositions of rectangles (``grid_scd``) and hypercubes
  (``hypercube_scd``);
* ``product_lift``: cross a taut-free decomposition of ``P x chain(n)``
  with any decomposition of ``Q`` and re-decompose the rectangles,
  giving a taut-free decomposition of ``(P x Q) x chain(n)``;
* ``shift``: re-stretch the vertical middle block to turn a
  decomposition of ``P x chain(n)`` into one of ``P x chain(m)`` for any
  ``m, n >= rk(P)+1``, a bijection that preserves taut counts exactly;
* ``collapse`` / ``middle_graph`` / ``enumerate_matchings`` / ``expand``:
  the (rk+1)-to-1 surgery between decompositions of ``P x chain(rk+1)``
  and ``P x chain(rk)``, parameterized by edge matchings of the middle
  graph;
* ``repair``: reroute the maximal chain of a taut-free decomposition of
  ``P x chain(rk+1)`` so that collapsing it cannot create a taut chain;
* ``generate``: the full pipeline producing a taut-free decomposition of
  P(k, n) for every k >= 5, n >= 3, bootstrapped from the bundled
  certificates for P(5,3), P(5,4), P(5,5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chains import SCD, canonical_chain_order, validate_scd
from .data_io import builtin_table
from .posets import (
    Element,
    GradedPoset,
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    poset_times_chain,
    product,
)


class ConstructionError(ValueError):
    """Raised when a construction's input contract is violated."""


class RegionError(ConstructionError):
    """Raised for (k, n) outside the region where taut-free decompositions exist."""


def _require_valid(scd: SCD, what: str, nontaut: bool = False) -> None:
    report = validate_scd(scd.host, scd)
    if not report.valid:
        raise ConstructionError(f"{what} is not a valid decomposition: {report.messages}")
    if nontaut and report.taut_count:
        raise ConstructionError(
            f"{what} has taut chains at indices {report.taut_chain_indices}"
        )


def _checked(host: GradedPoset, chains, notes=(), *, what: str, nontaut: bool = False) -> SCD:
    """Canonically ordered decomposition from ``chains``, validated once;
    with ``nontaut`` a taut chain is an internal error too."""
    scd = SCD(host, canonical_chain_order(host, chains), tuple(notes))
    report = validate_scd(host, scd)
    if not report.valid:
        raise ConstructionError(f"{what} produced an invalid decomposition: {report.messages}")
    if nontaut and report.taut_count:
        raise ConstructionError(f"{what} produced taut chains (internal error)")
    return scd


def _chain_factor(scd: SCD, what: str) -> tuple[GradedPoset, int]:
    if scd.host.chain_factor is None:
        raise ConstructionError(f"{what} needs a host of the form P x chain(n)")
    return scd.host.chain_factor


# -- rectangles and hypercubes ---------------------------------------------


def _grid_cells(a: int, b: int) -> list[list[tuple[int, int]]]:
    """Peeling decomposition of the a x b grid into min(a, b) chains.

    For a <= b, chain i climbs column x=i from (i, 0) to (i, b-1-i) and
    then walks the row y=b-1-i out to (a-1, b-1-i); chain i has length
    a+b-1-2i.  For a > b the transposed walk is used.
    """
    if a <= b:
        return [
            [(i, y) for y in range(b - i)] + [(x, b - 1 - i) for x in range(i + 1, a)]
            for i in range(a)
        ]
    return [
        [(x, i) for x in range(a - i)] + [(a - 1 - i, y) for y in range(i + 1, b)]
        for i in range(b)
    ]


def grid_scd(a: int, b: int) -> SCD:
    """The canonical symmetric chain decomposition of chain(a) x chain(b)."""
    if a < 1 or b < 1:
        raise ConstructionError(f"grid sides must be positive, got {a} x {b}")
    host = product(build_chain_poset(a), build_chain_poset(b))
    return _checked(host, _grid_cells(a, b), what="grid_scd")


def hypercube_scd(k: int) -> SCD:
    """A symmetric chain decomposition of Q_k by the duplication method:
    cross each chain of the Q_{k-1} decomposition with the 2-chain and
    peel the resulting rectangle."""
    if k < 0:
        raise ConstructionError(f"hypercube dimension must be nonnegative, got {k}")
    chains: list[tuple] = [(0,)]
    for _ in range(k):
        grown: list[tuple] = []
        for ch in chains:
            for cells in _grid_cells(len(ch), 2):
                grown.append(tuple((ch[x] << 1) | y for x, y in cells))
        chains = grown
    return _checked(build_hypercube(k), chains, what="hypercube_scd")


# -- the product lift -------------------------------------------------------


def product_lift(scd_pn: SCD, scd_q: SCD) -> SCD:
    """Cross a taut-free decomposition of ``P x chain(n)`` with a
    decomposition of ``Q``; the peeled rectangles give a taut-free
    decomposition of ``(P x Q) x chain(n)``.

    A vertical run in an output chain projects to a vertical run in one
    input chain of ``P x chain(n)``, so tautness cannot appear as long as
    no input chain is taut; that hypothesis is enforced here.
    """
    base_p, n = _chain_factor(scd_pn, "product_lift")
    _require_valid(scd_pn, "product_lift first input", nontaut=True)
    _require_valid(scd_q, "product_lift second input")

    out_base = product(base_p, scd_q.host)
    host = poset_times_chain(out_base, n)
    chains = []
    for c in scd_pn.chains:
        for d in scd_q.chains:
            for cells in _grid_cells(len(c), len(d)):
                chains.append(tuple(((c[x][0], d[y]), c[x][1]) for x, y in cells))
    return _checked(host, chains, scd_pn.notes, what="product_lift", nontaut=True)


def extend_dimension(scd: SCD, k_prime: int) -> SCD:
    """Widen a taut-free decomposition of P(k, n) to P(k', n), k' >= k,
    by lifting with a decomposition of Q_{k'-k}; the new bit positions
    are appended after the existing ones.

    This is :func:`product_lift` specialised to cuboids through
    ``Q_k x Q_j = Q_{k+j}``: element ``(b, level)`` of the input crossed
    with ``d`` of Q_j is ``((b << j) | d, level)``, so no product host is
    built.
    """
    base, n = _chain_factor(scd, "extend_dimension")
    k = base.hypercube_k
    if k is None:
        raise ConstructionError("extend_dimension needs a cuboid host")
    if k_prime < k:
        raise ConstructionError(f"cannot extend k={k} down to k'={k_prime}")
    if k_prime == k:
        return scd
    _require_valid(scd, "extend_dimension input", nontaut=True)
    j = k_prime - k
    cube_chains = hypercube_scd(j).chains
    chains = []
    for c in scd.chains:
        for d in cube_chains:
            for cells in _grid_cells(len(c), len(d)):
                chains.append(tuple(((c[x][0] << j) | d[y], c[x][1]) for x, y in cells))
    return _checked(build_cuboid(k_prime, n), chains, scd.notes,
                    what="extend_dimension", nontaut=True)


# -- the middle-block shift --------------------------------------------------


def shift(scd: SCD, m: int) -> SCD:
    """Restretch a decomposition of ``P x chain(n)`` to ``P x chain(m)``.

    For m, n >= rk(P)+1 every chain crosses the middle block (total ranks
    rk(P) .. n-1) vertically at a fixed base coordinate, so it splits
    into first block + vertical middle + last block.  The middle is
    re-extended to the new block height and the last block is translated
    by m - n.  This is a bijection and maps taut chains to taut chains.
    """
    base, n = _chain_factor(scd, "shift")
    rk = base.rk
    if n < rk + 1 or m < rk + 1:
        raise ConstructionError(
            f"shift needs both chain lengths >= rk(P)+1 = {rk + 1}, got n={n}, m={m}"
        )
    _require_valid(scd, "shift input")
    if m == n:
        return scd

    host = poset_times_chain(base, m)
    rank_in = scd.host.rank
    chains = []
    for ch in scd.chains:
        first = [e for e in ch if rank_in[e] < rk]
        mid = [e for e in ch if rk <= rank_in[e] <= n - 1]
        last = [e for e in ch if rank_in[e] > n - 1]
        coords = {p for p, _ in mid}
        if not mid or len(coords) != 1:
            raise ConstructionError(
                f"shift input corrupted: chain {ch!r} is not vertical across the middle block"
            )
        p = coords.pop()
        new_mid = [(p, y - base.rank[p]) for y in range(rk, m)]
        new_last = [(q, c + m - n) for q, c in last]
        chains.append(tuple(first) + tuple(new_mid) + tuple(new_last))
    return _checked(host, chains, scd.notes, what="shift")


# -- collapse / expand between n = rk(P)+1 and n = rk(P) ---------------------


def _surgery_base(scd: SCD, what: str, *, above: bool) -> GradedPoset:
    """Common preconditions for the collapse/expand family: host is
    ``P x chain(n)`` with n = rk(P)+1 (``above``) or n = rk(P), and P has
    a unique minimum and maximum."""
    base, n = _chain_factor(scd, what)
    if base.rk < 1:
        raise ConstructionError(f"{what} needs rk(P) >= 1")
    if base.bottom is None or base.top is None:
        raise ConstructionError(f"{what} needs a base with unique minimum and maximum")
    expected = base.rk + 1 if above else base.rk
    if n != expected:
        raise ConstructionError(
            f"{what} needs chain length {expected} for base {base.label}, got {n}"
        )
    return base


def collapse(scd: SCD) -> SCD:
    """Project a decomposition of ``P x chain(rk+1)`` down to ``P x chain(rk)``.

    The unique singleton chain in the central row is dropped; every other
    chain loses its central-row element and has its upper levels pulled
    down by one.  Taut chains stay taut.
    """
    base = _surgery_base(scd, "collapse", above=True)
    _require_valid(scd, "collapse input")
    m = base.rk
    rank_in = scd.host.rank

    singletons = [ch for ch in scd.chains if len(ch) == 1]
    if len(singletons) != 1 or rank_in[singletons[0][0]] != m:
        raise ConstructionError(
            "collapse input corrupted: expected exactly one singleton chain in the central row"
        )

    host = poset_times_chain(base, m)
    chains = []
    for ch in scd.chains:
        if len(ch) == 1:
            continue
        kept = [e for e in ch if rank_in[e] < m]
        kept += [(q, c - 1) for q, c in ch if rank_in[(q, c)] > m]
        chains.append(tuple(kept))
    out = SCD(host, canonical_chain_order(host, chains), scd.notes)
    report = validate_scd(host, out)
    if not report.valid:
        raise ConstructionError(f"collapse input corrupted: {report.messages}")
    return out


@dataclass(frozen=True)
class MiddleGraph:
    """Directed graph on the base poset induced by a decomposition of
    ``P x chain(rk)`` across its two central rows.

    ``edges[i]`` is the (source, target) projection of chain i's step
    between total ranks rk-1 and rk; it is a loop for a vertical step.
    The non-loop edges form the single maximal path recorded in ``path``;
    every off-path vertex carries a loop.
    """

    base: GradedPoset
    edges: tuple[tuple[Element, Element], ...]
    path: tuple[Element, ...]

    @property
    def loop_vertices(self) -> frozenset:
        return frozenset(self.base.elements) - frozenset(self.path)


@dataclass(frozen=True)
class EdgeMatching:
    """Injective assignment of every edge of a middle graph to one of its
    endpoints, missing exactly one vertex; loops are always self-matched."""

    edges: tuple[tuple[Element, Element], ...]
    assignment: tuple[Element, ...]
    unmatched_vertex: Element


def middle_graph(scd: SCD) -> MiddleGraph:
    """Project a decomposition of ``P x chain(rk)`` onto its middle graph."""
    base = _surgery_base(scd, "middle_graph", above=False)
    _require_valid(scd, "middle_graph input")
    rk = base.rk
    rank_in = scd.host.rank

    edges = []
    for ch in scd.chains:
        lo = [e for e in ch if rank_in[e] == rk - 1]
        hi = [e for e in ch if rank_in[e] == rk]
        if len(lo) != 1 or len(hi) != 1:
            raise ConstructionError(
                "middle_graph input corrupted: a chain misses a central row"
            )
        edges.append((lo[0][0], hi[0][0]))

    step = {p: q for p, q in edges if p != q}
    if len(step) != rk:
        raise ConstructionError("middle_graph input corrupted: wrong number of climbing edges")
    path = [base.bottom]
    while path[-1] != base.top:
        nxt = step.get(path[-1])
        if nxt is None or len(path) > rk:
            raise ConstructionError("middle_graph input corrupted: broken maximal path")
        path.append(nxt)
    loops = [p for p, q in edges if p == q]
    if sorted(loops) != sorted(set(base.elements) - set(path)):
        raise ConstructionError("middle_graph input corrupted: loops do not cover off-path vertices")
    return MiddleGraph(base, tuple(edges), tuple(path))


def enumerate_matchings(graph: MiddleGraph) -> tuple[EdgeMatching, ...]:
    """All rk(P)+1 edge matchings, indexed by the rank of the vertex left
    unmatched (which is always on the maximal path)."""
    rank = graph.base.rank
    out = []
    for j in range(len(graph.path)):
        unmatched = graph.path[j]
        assignment = tuple(
            p if p == q or rank[q] <= j else q for p, q in graph.edges
        )
        out.append(EdgeMatching(graph.edges, assignment, unmatched))
    return tuple(out)


def expand(scd: SCD, matching: EdgeMatching) -> SCD:
    """Inverse surgery to :func:`collapse`, one output per matching.

    Chain i keeps its first block, gains the central element named by the
    matching for its middle edge, and has its last block raised one
    level; the unmatched vertex becomes the new singleton chain.
    ``collapse(expand(scd, f)) == scd`` for every matching ``f``.
    """
    base = _surgery_base(scd, "expand", above=False)
    graph = middle_graph(scd)
    if matching.edges != graph.edges:
        raise ConstructionError("matching does not belong to this decomposition's middle graph")
    rk = base.rk
    m = rk
    rank_in = scd.host.rank

    host = poset_times_chain(base, rk + 1)
    chains = []
    for ch, mid_vertex in zip(scd.chains, matching.assignment):
        first = [e for e in ch if rank_in[e] < rk]
        last = [(q, c + 1) for q, c in ch if rank_in[(q, c)] >= rk]
        mid = (mid_vertex, m - base.rank[mid_vertex])
        chains.append(tuple(first) + (mid,) + tuple(last))
    v = matching.unmatched_vertex
    chains.append(((v, m - base.rank[v]),))
    return _checked(host, chains, scd.notes, what="expand")


# -- the repair step ----------------------------------------------------------


def _maximal_chain_index(scd: SCD) -> int:
    bottom = scd.host.by_rank[0][0]
    for i, ch in enumerate(scd.chains):
        if ch[0] == bottom:
            return i
    raise ConstructionError("no chain covers the minimum element")


def repair(scd: SCD) -> SCD:
    """Reroute the maximal chain of a taut-free decomposition of
    ``P x chain(rk+1)`` so that its collapse is also taut-free.

    Collapsing creates a taut chain exactly when the maximal chain starts
    with the full bottom column of min_P or ends with the full top column
    of max_P.  If so: detach both endpoints, reattach the top endpoint
    above a co-rank neighbour (max_P must cover at least two elements;
    the forbidden chain through (min_P, rk-1) is skipped, lexicographically
    least eligible neighbour wins), and hang the bottom endpoint under
    that same chain.  Already-safe input is returned unchanged.
    """
    base = _surgery_base(scd, "repair", above=True)
    rk = base.rk
    if len(base.down(base.top)) < 2:
        raise ConstructionError(
            f"repair needs max of {base.label} to cover at least 2 elements"
        )
    _require_valid(scd, "repair input", nontaut=True)

    lo, hi = base.bottom, base.top
    idx_max = _maximal_chain_index(scd)
    cmax = scd.chains[idx_max]
    run_bottom = (lo, rk - 1) in cmax
    run_top = (hi, 1) in cmax
    if not run_bottom and not run_top:
        return scd

    trimmed = cmax[1:-1]
    chains = list(scd.chains)
    chains[idx_max] = trimmed

    where = {e: i for i, ch in enumerate(chains) for e in ch}
    forbidden = where[(lo, rk - 1)]
    candidates = [(p, rk) for p in base.down(hi)]
    eligible = [e for e in candidates if where[e] != forbidden]
    if not eligible:
        raise ConstructionError("repair input corrupted: no eligible reattachment neighbour")
    target = eligible[0]
    idx_d = where[target]
    if chains[idx_d][-1] != target:
        raise ConstructionError("repair input corrupted: reattachment target is not a chain top")

    chains[idx_d] = ((lo, 0),) + chains[idx_d] + ((hi, rk),)
    return _checked(scd.host, chains, scd.notes, what="repair", nontaut=True)


# -- the generation pipeline ---------------------------------------------------


@lru_cache(maxsize=None)
def _taut_free_p56() -> SCD:
    """Taut-free decomposition of P(5,6): expand the P(5,5) certificate
    through the first matching whose repaired lift passes the taut-free
    validator (matchings tried in unmatched-vertex rank order)."""
    t3 = builtin_table("P55")
    graph = middle_graph(t3)
    for idx, f in enumerate(enumerate_matchings(graph)):
        lifted = expand(t3, f)
        if validate_scd(lifted.host, lifted).taut_count:
            continue
        candidate = repair(lifted)
        report = validate_scd(candidate.host, candidate)
        if report.valid and report.taut_count == 0:
            return candidate.with_notes(f"matching: {idx}")
    raise ConstructionError("no matching yields a taut-free lift of P(5,5)")


@lru_cache(maxsize=None)
def generate(k: int, n: int) -> SCD:
    """A taut-free symmetric chain decomposition of P(k, n), k >= 5, n >= 3.

    k = 5 and n in {3, 4, 5} come straight from the bundled certificates;
    n >= 6 expands and repairs the P(5,5) certificate and shifts the
    middle block out to n; k > 5 lifts the k = 5 answer by extra hypercube
    dimensions.  Pairs outside the region are rejected: with k <= 4 the
    middle rank of Q_k outnumbers what the lower ranks can absorb (and
    k <= 2 fails by inspection), and with n <= 2 the maximal chain is
    itself a full column.
    """
    if k < 5 or n < 3:
        raise RegionError(
            f"P({k},{n}) has no taut-free decomposition: the region is k >= 5, n >= 3"
        )
    if k > 5:
        return extend_dimension(generate(5, n), k).with_notes(f"lift: k=5->k={k}")
    if n <= 5:
        return builtin_table(f"P5{n}")
    if n == 6:
        return _taut_free_p56()
    return shift(_taut_free_p56(), n).with_notes(f"shift: n=6->n={n}")
