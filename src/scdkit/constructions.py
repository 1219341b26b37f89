"""Constructive transformations between symmetric chain decompositions.

``hypercube_scd`` and ``product_lift`` are one peeling product (``_cross``),
``_lift`` builds and checks those chains in batches, one per Q_j chain and
block of input chains, with no call per element or per rectangle, and
shift, collapse and expand are one middle-block restretch (``_restretch``).
Each map validates its input once (``_check``), reads the middle rows of the
valid input by index, re-checks nothing validity implies, and gates its output.
The toolbox, bottom to top:

* canonical decompositions of rectangles (``grid_scd``) and hypercubes
  (``hypercube_scd``);
* ``product_lift``: cross a taut-free decomposition of ``P x chain(n)``
  with any decomposition of ``Q`` and re-decompose the rectangles,
  giving a taut-free decomposition of ``(P x Q) x chain(n)``;
* ``shift``: re-stretch the vertical middle block to turn a
  decomposition of ``P x chain(n)`` into one of ``P x chain(m)`` for any
  ``m, n >= rk(P)+1``, a bijection that preserves taut counts exactly;
* ``collapse`` / ``middle_graph`` / ``expand``: the (rk+1)-to-1 surgery
  between decompositions of ``P x chain(rk+1)`` and ``P x chain(rk)``,
  parameterized by the index of the unmatched path vertex;
* ``repair``: reroute the maximal chain of a taut-free decomposition of
  ``P x chain(rk+1)`` so that collapsing it cannot create a taut chain;
* ``generate``: the full pipeline producing a taut-free decomposition of
  P(k, n) for every k >= 5, n >= 3, bootstrapped from the bundled
  certificates for P(5,3), P(5,4), P(5,5).
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import chain as concat, repeat
from operator import itemgetter
from typing import NamedTuple

from .chains import SCD, ValidationReport, canonical_chain_order, cuboid_key
from .chains import _climbs, _climbs_taut, _reported
from .data_io import BLOCK_LINES, builtin_table
from .posets import (
    Element,
    GradedPoset,
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    cuboid_shape,
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
    a+b-1-2i.  For a > b the walks of the b x a grid are transposed.  The
    cells depend on the shape alone, so :func:`_cross` and the lift peel
    each shape once per call, through a ``functools.cache`` of their own.
    """
    if a > b:
        return [[(x, y) for y, x in walk] for walk in _grid_cells(b, a)]
    return [
        [(i, y) for y in range(b - i)] + [(x, b - 1 - i) for x in range(i + 1, a)]
        for i in range(a)
    ]


def _cross(left, right, pair) -> list[tuple]:
    """Peeling product: the rectangle ``c x d`` of every chain ``c`` of
    ``left`` and every chain ``d`` of ``right``, peeled by
    :func:`_grid_cells`; ``pair(a, b)`` names the product element.

    The rectangles come in few shapes, and each ``(len(c), len(d))`` is
    peeled once per call, so an element costs one ``pair`` call.  The
    peelings live only as long as the call.
    """
    peel, out = cache(_grid_cells), []
    for c in left:
        for d in right:
            # tuple([...]) over tuple(generator): the list builds faster.
            out += [tuple([pair(c[x], d[y]) for x, y in walk]) for walk in peel(len(c), len(d))]
    return out


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
    built, and :func:`_lift` checks each chain as it builds it.
    """
    host, chains, report = _lift(scd, k_prime)
    return scd if host is scd.host else _reported(SCD(host, chains, scd.notes), report)


def _lift(scd: SCD, k_prime: int, keep=None) -> tuple[GradedPoset, tuple, ValidationReport]:
    """The host of :func:`extend_dimension`, its chains (or what ``keep(k', n)``
    makes of them) in canonical order and its report.  Each chain is built
    once, with no call per element, and checked at once: it climbs, is not
    taut and marks its positions ``b * n + c`` in one bitmap.  The chains
    come in batches, one per Q_j chain ``d`` and block of at most
    ``BLOCK_LINES`` input chains ``c``: one comprehension peels every
    rectangle ``c x d`` of the batch, and the batch is checked, keyed and
    spelled whole, so a batch costs a few calls and a rectangle none.
    Then the elements and the marks must each number ``len(host)``, or
    ``_checked`` names every finding of the same chains built by
    :func:`_cross`."""
    shape = cuboid_shape(scd.host)
    if shape is None:
        raise ConstructionError("extend_dimension needs a cuboid host")
    k, n = shape
    if k_prime < k:
        raise ConstructionError(f"cannot extend k={k} down to k'={k_prime}")
    _check(scd, "extend_dimension input", taut_count=0)
    host = scd.host if k_prime == k else build_cuboid(k_prime, n)
    spell = keep(k_prime, n) if keep else None
    if host is scd.host:
        return host, tuple(spell(scd.chains)) if spell else scd.chains, scd.report
    j, width, size, rk = k_prime - k, 1 << k_prime, len(host), host.rk
    peel, marks, keys, kept, count, ok = cache(_grid_cells), bytearray(size), [], [], 0, True
    # The n elements over one base share one int, freed before the sort.
    right, bits = _hypercube_chains(j), list(range(width))
    for start in range(0, len(scd.chains), BLOCK_LINES):
        # Each input chain's bits, moved up by j, and levels, once per block.
        block = [([b << j for b, _ in c], [level for _, level in c])
                 for c in scd.chains[start:start + BLOCK_LINES]]
        for d in right:
            walks = [tuple([(bits[cb[x] | d[y]], cl[x]) for x, y in walk])
                     for cb, cl in block for walk in peel(len(cb), len(d))]
            ok = ok and all([_climbs(ch, n, width, rk) and not _climbs_taut(ch, n)
                             for ch in walks])
            if ok:
                for b, level in concat.from_iterable(walks):
                    marks[b * n + level] = 1
            count += sum(map(len, walks))
            keys += [cuboid_key(b, c, k_prime, n) for b, c in map(itemgetter(0), walks)]
            kept += spell(walks) if spell else walks
    del bits
    if not (ok and count == size == marks.count(1)):
        _checked(host, _cross(scd.chains, right, lambda e, d: ((e[0] << j) | d, e[1])),
                 what="extend_dimension", taut_count=0)
    kept = tuple(map(kept.__getitem__, sorted(range(len(keys)), key=keys.__getitem__)))
    return host, kept, ValidationReport((), len(kept))


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
    rank_in, rank_p = scd.host.rank_of, base.rank_of
    chains = []
    for ch, p in zip(scd.chains, coords):
        r0 = rank_in(ch[0])
        out = ch[:rk - r0]
        if m > rk:  # the run over p climbs from total rank rk to m - 1
            h = rank_p(p)
            out += tuple([(p, c) for c in range(rk - h, m - h)])
        out += tuple([(q, c + lift) for q, c in ch[n - r0:]])
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
    _check(scd, "shift input")
    return scd if m == n else _shifted(scd, poset_times_chain(base, m))


def _shifted(scd: SCD, host: GradedPoset) -> SCD:
    """:func:`shift` of a valid ``scd`` onto ``host``, a ``P x chain(m)``
    the caller has built, through the gate that keeps its taut count."""
    rk = host.chain_factor[0].rk
    # Each chain's run over the middle block starts at total rank rk.
    rank_in = scd.host.rank_of
    coords = [ch[rk - rank_in(ch[0])][0] for ch in scd.chains]
    return _checked(host, _restretch(scd, host.chain_factor[1], coords), scd.notes,
                    what="shift", taut_count=scd.report.taut_count)


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
    return _checked(poset_times_chain(base, rk), _restretch(scd, rk, repeat(None)),
                    scd.notes, what="collapse output")


class MiddleGraph(NamedTuple):
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


def middle_graph(scd: SCD) -> MiddleGraph:
    """Project a decomposition of ``P x chain(rk)`` onto its middle graph."""
    base = _surgery_base(scd, "middle_graph", above=False)
    _check(scd, "middle_graph input")
    rk = base.rk
    rank_in = scd.host.rank_of

    edges = []
    for ch in scd.chains:  # every chain crosses the two central rows
        i = rk - 1 - rank_in(ch[0])
        edges.append((ch[i][0], ch[i + 1][0]))
    step = {p: q for p, q in edges if p != q}
    path = [base.bottom]  # the rk climbing edges lead from bottom to top
    for _ in range(rk):
        path.append(step[path[-1]])
    return MiddleGraph(base, tuple(edges), tuple(path))


def expand(scd: SCD, j: int) -> SCD:
    """Inverse surgery to :func:`collapse`, one output per matching index
    ``j`` in 0..rk(P): the edge matching of the middle graph that leaves
    its path vertex of rank ``j`` unmatched.

    The restretch to height rk+1 over the matched vertices: chain i keeps
    its first block, gains the central element over its edge's source
    (loops, and climbing edges that end at rank ``j`` or below) or its
    target (the rest), and has its last block raised one level; the
    unmatched vertex becomes the new singleton chain.
    ``collapse(expand(scd, j)) == scd`` for every ``j``.
    """
    base = _surgery_base(scd, "expand", above=False)
    graph = middle_graph(scd)
    rk = base.rk
    if not 0 <= j <= rk:
        raise ConstructionError(
            f"expand needs a matching index in 0..{rk} (unmatched-vertex rank order), got {j}"
        )
    rank = base.rank_of
    coords = [p if p == q or rank(q) <= j else q for p, q in graph.edges]
    chains = _restretch(scd, rk + 1, coords)
    chains.append(((graph.path[j], rk - j),))  # the unmatched vertex has rank j
    return _checked(poset_times_chain(base, rk + 1), chains, scd.notes, what="expand")


# -- the repair step ----------------------------------------------------------


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
    idx_max = next(i for i, ch in enumerate(scd.chains) if ch[0] == (lo, 0))
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
    target = next((p, rk) for p in base.down(hi) if where[(p, rk)] != forbidden)
    idx_d = where[target]
    chains[idx_d] = ((lo, 0),) + chains[idx_d] + ((hi, rk),)
    return _checked(scd.host, chains, scd.notes, what="repair", taut_count=0)


# -- the generation pipeline ---------------------------------------------------


@lru_cache(maxsize=None)
def _taut_free_p56() -> SCD:
    """Taut-free decomposition of P(5,6): expand the P(5,5) certificate
    through matching 0, then repair it.  The certificate lifts taut-free
    through every matching, and ``repair`` refuses a taut input and
    checks its result taut-free itself."""
    return repair(expand(builtin_table("P55"), 0)).with_notes("matching: 0")


def generate(k: int, n: int) -> SCD:
    """A taut-free symmetric chain decomposition of P(k, n), k >= 5, n >= 3.

    k = 5 and n in {3, 4, 5} come straight from the bundled certificates;
    n >= 6 expands and repairs the P(5,5) certificate and shifts the
    middle block out to n; k > 5 lifts the k = 5 answer by extra hypercube
    dimensions.  Pairs outside the region are rejected: with n <= 2 the
    maximal chain is itself a full column, and for k <= 4 the finished
    taut-free searches behind :func:`~scdkit.search.exists_nontaut_scd`
    find none (that of P(k, k+1) carries over to every taller n by
    :func:`shift`).
    """
    return _generate(k, n, lambda scd, k2, note: extend_dimension(scd, k2).with_notes(note))


def _generate(k: int, n: int, lift):
    """:func:`generate` with its last step for k > 5, ``lift(generate(5, n),
    k, note)``, in the caller's hands: a library lift or a streamed document."""
    if k < 5 or n < 3:
        raise RegionError(
            f"P({k},{n}) has no taut-free decomposition: the region is k >= 5, n >= 3"
        )
    if k > 5:
        return lift(generate(5, n), k, f"lift: k=5->k={k}")
    if n <= 5:
        return builtin_table(f"P5{n}")
    if n == 6:
        return _taut_free_p56()
    return shift(_taut_free_p56(), n).with_notes(f"shift: n=6->n={n}")
