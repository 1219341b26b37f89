"""Finite graded posets, products, and the cuboid family Q_k x n.

Every poset here is finite and graded: it carries a cover relation and
a rank function, minimal elements have rank 0, and each cover raises
rank by exactly one.  One class, ``GradedPoset``, serves every host, and
each host holds its cover relation once, as ``up``.  A generic poset
keeps it as a table built from explicit data, re-derives gradedness and
refuses anything inconsistent, so one that exists is known-good; it keeps
ranks only for its own elements.  Hypercubes and cuboids are implicit:
``up`` is bit arithmetic and gradedness holds by construction.  The rest
(``down``, ``covers``, ``top``, ``bottom``) is derived from ``up`` for all
of them, and ``up``/``down`` of a foreign element raise ``PosetError``.

Elements are plain hashable values.  Cuboid elements are ``(bits, level)``
pairs with ``bits`` an integer whose binary digits, most significant
first, spell the hypercube coordinate string; ``level`` is the chain
coordinate.  Products of arbitrary posets use nested tuples the same way.
All posets are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Mapping

Element = Hashable

# The largest hypercube or cuboid built, so that a huge k fails fast
# instead of exhausting memory; P(13,4) has 2^15 elements.
MAX_HOST_ELEMENTS = 1 << 20


class PosetError(ValueError):
    """Raised for malformed posets or out-of-domain poset queries."""


class GradedPoset:
    """A finite graded poset given by elements, covers, and ranks.

    ``chain_factor`` is set when the poset was built as ``base x chain(n)``
    with elements ``(p, level)``; operations that care about the chain
    coordinate (tautness, block surgery) require it.  ``hypercube_k`` is
    set only on the hosts :func:`build_hypercube` returns.

    ``up`` is the one cover relation: a table here, bit arithmetic in the
    implicit hosts, which also answer ``is_cover`` in constant time since
    ``validate_scd`` asks it once per chain step.
    """

    __slots__ = (
        "elements", "rank", "label", "rk", "by_rank", "rank_vector",
        "hypercube_k", "chain_factor", "_up",
    )

    def __init__(
        self,
        elements: Iterable[Element],
        covers: Iterable[tuple[Element, Element]],
        rank: Mapping[Element, int],
        label: str = "poset",
        *,
        chain_factor: tuple["GradedPoset", int] | None = None,
    ):
        elements = sorted(set(elements))
        if not elements:
            raise PosetError("a graded poset must be nonempty")
        up: dict[Element, list[Element]] = {e: [] for e in elements}
        covered = set()
        for x, y in set(covers):
            if x not in up or y not in up:
                raise PosetError(f"cover ({x!r}, {y!r}) uses a foreign element")
            up[x].append(y)
            covered.add(y)

        # Recompute gradedness instead of trusting the caller: minimal
        # elements must sit at rank 0 and covers must raise rank by 1.
        for e in elements:
            if e not in rank:
                raise PosetError(f"element {e!r} has no rank")
            if e not in covered and rank[e] != 0:
                raise PosetError(f"minimal element {e!r} has rank {rank[e]}, not 0")
        for x in elements:
            for y in up[x]:
                if rank[y] != rank[x] + 1:
                    raise PosetError(
                        f"cover ({x!r}, {y!r}) jumps rank {rank[x]} -> {rank[y]}"
                    )

        # Only the elements' own ranks are kept: a rank given for anything
        # else must not make it a member.
        own = {e: rank[e] for e in elements}
        self._fill(own, max(own.values()), label)
        self._up = {e: tuple(sorted(up[e])) for e in elements}
        self.hypercube_k = None
        self.chain_factor = chain_factor

    def _fill(self, rank: dict, rk: int, label: str) -> None:
        """Rank bookkeeping from ``rank``, whose keys are in canonical order."""
        self.rank = rank
        self.elements = tuple(rank)
        self.label = label
        self.rk = rk
        by_rank: list[list[Element]] = [[] for _ in range(rk + 1)]
        for e, r in rank.items():
            by_rank[r].append(e)
        self.by_rank = tuple(tuple(level) for level in by_rank)
        self.rank_vector = tuple(len(level) for level in self.by_rank)

    def _require(self, e: Element) -> None:
        if e not in self.rank:
            raise PosetError(f"{e!r} is not an element of {self.label}")

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: Element) -> bool:
        return e in self.rank

    def __repr__(self) -> str:
        return f"GradedPoset({self.label}, {len(self)} elements, rank {self.rk})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoset):
            return NotImplemented
        return (
            self.elements == other.elements
            and self.cover_set == other.cover_set
            and self.rank == other.rank
        )

    __hash__ = None  # structural equality, not hashable

    def up(self, e: Element) -> tuple[Element, ...]:
        """Elements covering ``e``, in canonical order."""
        self._require(e)
        return self._up[e]

    def down(self, e: Element) -> tuple[Element, ...]:
        """Elements covered by ``e``, in canonical order."""
        self._require(e)
        r = self.rank[e]
        return tuple(x for x in self.by_rank[r - 1] if e in self.up(x)) if r else ()

    def is_cover(self, x: Element, y: Element) -> bool:
        return x in self.rank and y in self.up(x)

    @property
    def covers(self) -> tuple[tuple[Element, Element], ...]:
        """Every cover pair, in canonical order."""
        return tuple((x, y) for x in self.elements for y in self.up(x))

    @property
    def cover_set(self) -> frozenset:
        return frozenset(self.covers)

    @property
    def bottom(self) -> Element | None:
        """The unique minimal element, or None if there are several."""
        return self.by_rank[0][0] if len(self.by_rank[0]) == 1 else None

    @property
    def top(self) -> Element | None:
        """The unique maximal element, or None if there are several."""
        maxima = [e for e in self.elements if not self.up(e)]
        return maxima[0] if len(maxima) == 1 else None

    @property
    def is_chain_poset(self) -> bool:
        """True for the posets produced by :func:`build_chain_poset`."""
        return self.elements == tuple(range(len(self))) and all(
            self.rank[i] == i for i in self.elements
        )


class _Hypercube(GradedPoset):
    """Q_k on bitmask elements; ``y`` covers ``x`` iff it adds one bit."""

    __slots__ = ()

    def __init__(self, k: int):
        self._fill({x: x.bit_count() for x in range(1 << k)}, k, f"Q{k}")
        self.hypercube_k = k
        self.chain_factor = None

    def up(self, x: int) -> tuple[int, ...]:
        self._require(x)
        return tuple(x | 1 << i for i in range(self.hypercube_k) if not x >> i & 1)

    def is_cover(self, x: Element, y: Element) -> bool:
        if x not in self.rank or y not in self.rank:
            return False
        d = x ^ y
        return d != 0 and d & x == 0 and d & (d - 1) == 0


class _Cuboid(GradedPoset):
    """Q_k x chain(n) on ``(bits, level)``; ``y`` covers ``x`` iff it adds
    one bit at the same level, or raises the level by one at equal bits."""

    __slots__ = ("_k", "_n")

    def __init__(self, k: int, n: int):
        rank = {(b, c): b.bit_count() + c for b in range(1 << k) for c in range(n)}
        self._fill(rank, k + n - 1, f"P({k},{n})")
        self._k, self._n = k, n
        self.hypercube_k = None
        self.chain_factor = (build_hypercube(k), n)

    def up(self, e: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        self._require(e)
        b, c = e
        above = ((b, c + 1),) if c + 1 < self._n else ()
        return above + tuple((b | 1 << i, c) for i in range(self._k) if not b >> i & 1)

    def is_cover(self, x: Element, y: Element) -> bool:
        if x not in self.rank or y not in self.rank:
            return False
        (b, c), (b2, c2) = x, y
        if b == b2:
            return c2 == c + 1
        d = b ^ b2
        return c == c2 and d & b == 0 and d & (d - 1) == 0


# -- constructors ---------------------------------------------------------


def build_chain_poset(s: int) -> GradedPoset:
    """The total order 0 < 1 < ... < s-1 with rank(i) = i."""
    if s < 1:
        raise PosetError(f"chain poset needs at least one element, got s={s}")
    return GradedPoset(
        range(s),
        [(i, i + 1) for i in range(s - 1)],
        {i: i for i in range(s)},
        label=f"chain({s})",
    )


def build_hypercube(k: int) -> GradedPoset:
    """Q_k on bitmask elements 0..2^k-1; covers flip one 0-bit up.

    An implicit bit-arithmetic host with ``hypercube_k = k``.
    """
    if k < 0:
        raise PosetError(f"hypercube dimension must be nonnegative, got k={k}")
    _require_size(k, 1, f"Q{k}")
    return _Hypercube(k)


def _require_size(k: int, n: int, label: str) -> None:
    """Refuse a host of ``n * 2^k`` elements over ``MAX_HOST_ELEMENTS``."""
    # k is tested first, so a huge k never reaches the shift.
    if k >= MAX_HOST_ELEMENTS.bit_length() or n << k > MAX_HOST_ELEMENTS:
        raise PosetError(
            f"{label} would have {n}*2^{k} elements, over the limit of {MAX_HOST_ELEMENTS}"
        )


def product(p: GradedPoset, q: GradedPoset) -> GradedPoset:
    """Direct product: elements are pairs, covers move in one coordinate.

    When ``q`` is a chain poset the result records ``chain_factor=(p, n)``
    so that chain-coordinate operations apply to it.
    """
    elements = [(a, b) for a in p.elements for b in q.elements]
    covers = [((a, b), (a2, b)) for (a, a2) in p.covers for b in q.elements]
    covers += [((a, b), (a, b2)) for a in p.elements for (b, b2) in q.covers]
    rank = {(a, b): p.rank[a] + q.rank[b] for (a, b) in elements}
    factor = (p, len(q)) if q.is_chain_poset else None
    return GradedPoset(
        elements, covers, rank,
        label=f"{p.label}x{q.label}",
        chain_factor=factor,
    )


@lru_cache(maxsize=None)
def build_cuboid(k: int, n: int) -> GradedPoset:
    """P(k, n) = Q_k x chain(n) on elements ``(bits, level)``.

    Implicit bit-arithmetic host; identical as a poset to
    ``product(build_hypercube(k), build_chain_poset(n))``.
    """
    if k < 0:
        raise PosetError(f"cuboid needs k >= 0, got k={k}")
    if n < 1:
        raise PosetError(f"cuboid needs n >= 1, got n={n}")
    _require_size(k, n, f"P({k},{n})")
    return _Cuboid(k, n)


def poset_times_chain(p: GradedPoset, n: int) -> GradedPoset:
    """``p x chain(n)`` with the chain factor recorded.

    Hypercube bases route through :func:`build_cuboid` so the same
    ``(k, n)`` host is shared object-wide.
    """
    if p.hypercube_k is not None:
        return build_cuboid(p.hypercube_k, n)
    return product(p, build_chain_poset(n))


# -- the chain coordinate and packets --------------------------------------


def element_at(host: GradedPoset, p: Element, r: int) -> Element:
    """The unique element of ``base x chain(n)`` with base coordinate ``p``
    and total rank ``r``; rejects ``r`` outside ``[rk(p), rk(p)+n)``."""
    if host.chain_factor is None:
        raise PosetError(f"{host.label} does not expose a chain coordinate")
    base, n = host.chain_factor
    if p not in base:
        raise PosetError(f"{p!r} is not an element of {base.label}")
    rp = base.rank[p]
    if not rp <= r < rp + n:
        raise PosetError(
            f"rank {r} out of window [{rp}, {rp + n}) for base element {p!r}"
        )
    return (p, r - rp)


@dataclass(frozen=True)
class Packet:
    """All elements of ``base x chain(n)`` with base rank ``x`` and total
    rank ``y`` (equivalently chain coordinate ``y - x``)."""

    x: int
    y: int
    members: frozenset


def packet(host: GradedPoset, x: int, y: int) -> Packet:
    if host.chain_factor is None:
        raise PosetError(f"{host.label} does not expose a chain coordinate")
    base, n = host.chain_factor
    if not (0 <= x <= base.rk and x <= y <= x + n - 1):
        raise PosetError(f"no packet at (x={x}, y={y}) in {host.label}")
    members = frozenset((p, y - x) for p in base.by_rank[x])
    return Packet(x, y, members)


@dataclass(frozen=True)
class PacketGrid:
    """Packet sizes of ``p x chain(n)`` indexed by (base rank, total rank).

    Block ranges follow the three rank regimes of the product: the first
    block is ``[0, rk_p)``, the middle block ``[rk_p, n-1]``, and the last
    block ``(n-1, rk_p+n-1]``.  They are only defined for ``n >= rk_p``.
    """

    counts: dict[tuple[int, int], int]
    rk_p: int
    n: int

    @property
    def first_block(self) -> range | None:
        return range(0, self.rk_p) if self.n >= self.rk_p else None

    @property
    def middle_block(self) -> range | None:
        return range(self.rk_p, self.n) if self.n >= self.rk_p else None

    @property
    def last_block(self) -> range | None:
        return range(self.n, self.rk_p + self.n) if self.n >= self.rk_p else None

    def row(self, y: int) -> dict[int, int]:
        """Column -> count for the single total rank ``y``."""
        return {x: c for (x, yy), c in self.counts.items() if yy == y}


def packet_grid(p: GradedPoset, n: int) -> PacketGrid:
    """Pictorial-representation grid of ``p x chain(n)``.

    A rank-x element of ``p`` contributes one packet of size
    ``rank_vector[x]`` at every total rank ``y`` with ``x <= y <= x+n-1``.
    """
    if n < 1:
        raise PosetError(f"chain length must be positive, got n={n}")
    counts: dict[tuple[int, int], int] = {}
    for x, size in enumerate(p.rank_vector):
        for y in range(x, x + n):
            counts[(x, y)] = size
    return PacketGrid(counts, p.rk, n)


def is_rank_symmetric(p: GradedPoset) -> bool:
    """True iff the rank vector is palindromic."""
    return p.rank_vector == p.rank_vector[::-1]
