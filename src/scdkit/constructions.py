"""Constructive transformations between symmetric chain decompositions.

``hypercube_scd`` and the lifts are one peeling product (``_cross``), and
shift, collapse and expand are one middle-block restretch (``_restretch``).
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
from itertools import repeat

from .chains import SCD, ValidationReport, canonical_chain_order
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


def _check(scd: SCD, what: str, taut_count: int | None = None) -> ValidationReport:
    """The validation gate of every construction, for inputs and outputs
    alike: ``scd`` must be a valid decomposition and, when ``taut_count``
    is given, have exactly that many taut chains."""
    report = scd.report
    if not report.valid:
        raise ConstructionError(f"{what} is not a valid decomposition: {report.messages}")
    if taut_count is not None and report.taut_count != taut_count:
        raise ConstructionError(
            f"{what} has taut chains at indices {report.taut_chain_indices}, "
            f"expected {taut_count}"
        )
    return report


def _checked(host: GradedPoset, chains, notes=(), *, what: str,
             taut_count: int | None = None) -> SCD:
    """Canonically ordered decomposition from ``chains``, through the gate."""
    scd = SCD(host, canonical_chain_order(host, chains), tuple(notes))
    _check(scd, what, taut_count)
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


def _cross(left, right, pair) -> list[tuple]:
    """Peeling product: the rectangle ``c x d`` of every chain ``c`` of
    ``left`` and every chain ``d`` of ``right``, peeled by
    :func:`_grid_cells`; ``pair(a, b)`` names the product element."""
    # tuple([...]) over tuple(generator): the list builds faster.
    return [tuple([pair(c[x], d[y]) for x, y in cells])
            for c in left for d in right for cells in _grid_cells(len(c), len(d))]


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
    host = build_hypercube(k)
    return _checked(host, _hypercube_chains(k), what="hypercube_scd")


def _hypercube_chains(k: int) -> list[tuple]:
    """The chains of :func:`hypercube_scd` in peeling order, unchecked."""
    chains: list[tuple] = [(0,)]
    for _ in range(k):
        chains = _cross(chains, ((0, 1),), lambda b, y: (b << 1) | y)
    return chains


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
    _check(scd_pn, "product_lift first input", taut_count=0)
    _check(scd_q, "product_lift second input")

    host = poset_times_chain(product(base_p, scd_q.host), n)
    chains = _cross(scd_pn.chains, scd_q.chains, lambda e, q: ((e[0], q), e[1]))
    return _checked(host, chains, scd_pn.notes, what="product_lift", taut_count=0)


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
    _check(scd, "extend_dimension input", taut_count=0)
    if k_prime == k:
        return scd
    j = k_prime - k
    host = build_cuboid(k_prime, n)
    # The Q_j chains go unchecked: the output gate rejects any defect in
    # them, and canonical ordering makes the output independent of theirs.
    chains = _cross(scd.chains, _hypercube_chains(j), lambda e, d: ((e[0] << j) | d, e[1]))
    return _checked(host, chains, scd.notes, what="extend_dimension", taut_count=0)


# -- the middle-block restretch -----------------------------------------------


def _restretch(scd: SCD, m: int, coords) -> list[tuple]:
    """Chains of a valid decomposition of ``P x chain(n)`` re-cut for
    ``P x chain(m)``: chain i keeps its first block (total ranks < rk), its
    middle block (ranks rk .. n-1) becomes the vertical run over
    ``coords[i]`` up to rank m-1 (none if m <= rk), and its last block
    moves up by m - n; chains left empty are dropped.  Ranks along a
    valid chain are consecutive, so blocks are cut by index."""
    base, n = scd.host.chain_factor
    rk, lift = base.rk, m - n
    rank_in, rank_p = scd.host.rank, base.rank
    rows = range(rk, m)
    chains = []
    for ch, p in zip(scd.chains, coords):
        r0 = rank_in[ch[0]]
        out = ch[:max(rk - r0, 0)] + tuple([(p, y - rank_p[p]) for y in rows])
        out += tuple([(q, c + lift) for q, c in ch[max(n - r0, 0):]])
        if out:
            chains.append(out)
    return chains


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
    taut = _check(scd, "shift input").taut_count
    if m == n:
        return scd

    rank_in = scd.host.rank
    coords = []
    for ch in scd.chains:
        r0 = rank_in[ch[0]]
        column = {p for p, _ in ch[max(rk - r0, 0):max(n - r0, 0)]}
        if len(column) != 1:
            raise ConstructionError(
                f"shift input corrupted: chain {ch!r} is not vertical across the middle block"
            )
        coords.append(column.pop())
    return _checked(poset_times_chain(base, m), _restretch(scd, m, coords), scd.notes,
                    what="shift", taut_count=taut)


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

    The restretch to height rk: the unique singleton chain in the central
    row vanishes; every other chain loses its central-row element and has
    its upper levels pulled down by one.  Taut chains stay taut.
    """
    base = _surgery_base(scd, "collapse", above=True)
    _check(scd, "collapse input")
    rk = base.rk
    singletons = [ch for ch in scd.chains if len(ch) == 1]
    if len(singletons) != 1 or scd.host.rank[singletons[0][0]] != rk:
        raise ConstructionError(
            "collapse input corrupted: expected exactly one singleton chain in the central row"
        )
    return _checked(poset_times_chain(base, rk), _restretch(scd, rk, repeat(None)),
                    scd.notes, what="collapse output")


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
    _check(scd, "middle_graph input")
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

    The restretch to height rk+1 over the vertices the matching names:
    chain i keeps its first block, gains that central element and has its
    last block raised one level; the unmatched vertex becomes the new
    singleton chain.  ``collapse(expand(scd, f)) == scd`` for every ``f``.
    """
    base = _surgery_base(scd, "expand", above=False)
    graph = middle_graph(scd)
    if matching.edges != graph.edges:
        raise ConstructionError("matching does not belong to this decomposition's middle graph")
    rk = base.rk
    v = matching.unmatched_vertex
    chains = _restretch(scd, rk + 1, matching.assignment)
    chains.append(((v, rk - base.rank[v]),))
    return _checked(poset_times_chain(base, rk + 1), chains, scd.notes, what="expand")


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
    _check(scd, "repair input", taut_count=0)

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
    return _checked(scd.host, chains, scd.notes, what="repair", taut_count=0)


# -- the generation pipeline ---------------------------------------------------


@lru_cache(maxsize=None)
def _taut_free_p56() -> SCD:
    """Taut-free decomposition of P(5,6): expand the P(5,5) certificate
    through the first matching whose lift is taut-free, then repair it
    (matchings tried in unmatched-vertex rank order).  ``repair`` checks
    its result taut-free itself."""
    t3 = builtin_table("P55")
    graph = middle_graph(t3)
    for idx, f in enumerate(enumerate_matchings(graph)):
        lifted = expand(t3, f)
        if not lifted.report.taut_count:
            return repair(lifted).with_notes(f"matching: {idx}")
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
