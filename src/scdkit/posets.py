"""Finite graded posets, products, and the cuboid family Q_k x n.

Every poset here is finite and graded: it carries a cover relation and
a rank function, minimal elements have rank 0, and each cover raises
rank by exactly one.  One class, ``GradedPoset``, serves every host, and
each host holds its cover relation once, as ``up``.  A generic poset
keeps it as a table built from explicit data, re-derives gradedness and
refuses anything inconsistent, so one that exists is known-good; it keeps
ranks only for its own elements.  Hypercubes and cuboids are implicit:
``up`` is bit arithmetic and gradedness holds by construction.  The rest
(``down``, ``covers``, ``top``, ``bottom``) is derived from ``up``, but a
hypercube's ``down``, ``bottom`` and ``top`` are arithmetic too;
``up``/``down`` of a foreign element raise ``PosetError``.

Implicit hosts keep nothing but their shape: their size, membership
(``in``), ``rk``, ``rank_vector`` and ``rank_of`` are arithmetic, so a
host of 2^15 elements costs a few hundred bytes.  A generic poset keeps
its rank dict and its covers.  ``elements`` and ``by_rank`` are derived
on each call and never kept, for the consumers that enumerate elements
(the surgery on small bases, the equality of generic hosts, a generic
search).
``rank_of`` is the one per-element rank read: a dict lookup on generic
posets, ``bits.bit_count() + level`` on cuboids, which the saturation
test of ``validate_scd`` computes inline from the chain ends it unpacks.
``covers`` is the one listing of the cover pairs.  Every host, and the
packet grid, passes one size guard: ``MAX_HOST_ELEMENTS`` elements.

A host built as ``base x chain(n)`` records ``chain_factor = (base, n)``:
the cuboid does, and of the table posets only those :func:`product` builds
with a chain poset as its second factor; no caller can declare one.  Hosts
have one equality, ``==``: the same elements and covers, which for two
hypercube-by-chain hosts (``cuboid_shape``) is the same shape, read with
no element table.

Elements are plain hashable values.  Cuboid elements are ``(bits, level)``
pairs with ``bits`` an integer whose binary digits, most significant
first, spell the hypercube coordinate string; ``level`` is the chain
coordinate.  A cuboid's members are exactly the 2-tuples of ``int``s in
range and a hypercube's the ``int``s in range (bools count as ints);
anything else, a float equal to an int included, is foreign.  Products
of arbitrary posets use nested tuples the same way.  All posets are
immutable after construction and safe to share: assigning or deleting
an attribute of a host raises ``AttributeError``, as it does on an
``SCD``, and the constructors set their slots through one private path.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Hashable, Iterable, Mapping

Element = Hashable

# The largest host built (hypercube, cuboid, chain poset or product), and
# the largest packet grid, so that a huge k or n fails fast instead of
# exhausting memory; P(13,4) has 2^15 elements.
MAX_HOST_ELEMENTS = 1 << 20


class PosetError(ValueError):
    """Raised for malformed posets or out-of-domain poset queries."""


class GradedPoset:
    """A finite graded poset given by elements, covers, and ranks.

    ``chain_factor`` is ``(base, n)`` when the poset was built as
    ``base x chain(n)`` with elements ``(p, level)``, and None otherwise;
    operations that care about the chain coordinate (tautness, block
    surgery) require it.  Only :func:`product` and the cuboid record it,
    as the saturation test, the search and equality trust it; a host is
    immutable, so no caller can set it after construction.

    ``up`` is the one cover relation: a table here, bit arithmetic in the
    implicit hosts; ``is_cover`` and ``covers`` read it for every host.
    ``validate_scd`` asks ``is_cover`` per chain step only to explain a
    chain that fails its one saturation test.  ``rank_of`` is the one rank
    read.  A generic poset keeps its rank dict and covers, an implicit host
    its shape; ``elements`` and ``by_rank`` are derived on each call.  Two
    posets are equal when their elements and covers are (covers fix ranks):
    two cuboids when their shapes are, with no element table built.
    """

    __slots__ = ("label", "rk", "rank_vector", "chain_factor", "_up", "_rank")

    def __init__(
        self,
        elements: Iterable[Element],
        covers: Iterable[tuple[Element, Element]],
        rank: Mapping[Element, int],
        label: str = "poset",
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
        ranks = {e: rank[e] for e in elements}
        self._set(_rank=ranks, label=label, rk=max(ranks.values()), chain_factor=None,
                  _up={e: tuple(sorted(up[e])) for e in elements})
        self._set(rank_vector=tuple(map(len, self.by_rank)))

    def _set(self, **fields: object) -> None:
        """The one path that sets a host's slots, while it is built."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a host")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a host")

    # -- the element tables, derived on each call ----------------------------

    @property
    def elements(self) -> tuple[Element, ...]:
        """Every element, in canonical order."""
        return tuple(self._rank)

    @property
    def by_rank(self) -> tuple[tuple[Element, ...], ...]:
        """The elements of each rank, in canonical order."""
        rows: list[list[Element]] = [[] for _ in range(self.rk + 1)]
        for e in self.elements:
            rows[self.rank_of(e)].append(e)
        return tuple(map(tuple, rows))

    def rank_of(self, e: Element) -> int:
        """The rank of the element ``e``; undefined for a foreign ``e``."""
        return self._rank[e]

    def _require(self, e: Element) -> None:
        if e not in self:
            raise PosetError(f"{e!r} is not an element of {self.label}")

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._rank)

    def __contains__(self, e: object) -> bool:
        try:
            return e in self._rank
        except TypeError:  # unhashable, so no element
            return False

    def __repr__(self) -> str:
        return f"GradedPoset({self.label}, {len(self)} elements, rank {self.rk})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoset):
            return NotImplemented
        shape = cuboid_shape(self)
        if shape is not None and cuboid_shape(other) is not None:
            return shape == cuboid_shape(other)
        return self.elements == other.elements and self.covers == other.covers

    __hash__ = None  # structural equality, not hashable

    def up(self, e: Element) -> tuple[Element, ...]:
        """Elements covering ``e``, in canonical order."""
        self._require(e)
        return self._up[e]

    def down(self, e: Element) -> tuple[Element, ...]:
        """Elements covered by ``e``, in canonical order."""
        self._require(e)
        r = self.rank_of(e)
        return tuple(x for x in self.by_rank[r - 1] if e in self.up(x)) if r else ()

    def is_cover(self, x: Element, y: Element) -> bool:
        # ``y in self`` first: a foreign spelling of a member, such as a
        # float level, compares equal to it in ``up(x)``.
        return x in self and y in self and y in self.up(x)

    @property
    def covers(self) -> tuple[tuple[Element, Element], ...]:
        """Every cover pair, in canonical order."""
        return tuple((x, y) for x in self.elements for y in self.up(x))

    @property
    def bottom(self) -> Element | None:
        """The unique minimal element, or None if there are several."""
        minima = self.by_rank[0]
        return minima[0] if len(minima) == 1 else None

    @property
    def top(self) -> Element | None:
        """The unique maximal element, or None if there are several."""
        maxima = [e for e in self.elements if not self.up(e)]
        return maxima[0] if len(maxima) == 1 else None

    @property
    def is_chain_poset(self) -> bool:
        """True for the posets produced by :func:`build_chain_poset`."""
        elements = self.elements
        return elements == tuple(range(len(self))) and all(
            self.rank_of(i) == i for i in elements
        )


class _Hypercube(GradedPoset):
    """Q_k on bitmask elements; ``y`` covers ``x`` iff it adds one bit."""

    __slots__ = ()

    def __init__(self, k: int):
        self._set(label=f"Q{k}", rk=k, chain_factor=None,
                  rank_vector=tuple(comb(k, r) for r in range(k + 1)))

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(1 << self.rk))

    def rank_of(self, x: int) -> int:
        return x.bit_count()

    def __len__(self) -> int:
        return 1 << self.rk

    def __contains__(self, e: object) -> bool:
        return isinstance(e, int) and 0 <= e < 1 << self.rk

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return (1 << self.rk) - 1

    def up(self, x: int) -> tuple[int, ...]:
        self._require(x)
        return tuple(x | 1 << i for i in range(self.rk) if not x >> i & 1)

    def down(self, x: int) -> tuple[int, ...]:
        self._require(x)
        return tuple(x ^ 1 << i for i in reversed(range(self.rk)) if x >> i & 1)


class _Cuboid(GradedPoset):
    """Q_k x chain(n) on ``(bits, level)``; ``y`` covers ``x`` iff it adds
    one bit at the same level, or raises the level by one at equal bits."""

    __slots__ = ("_k", "_n")

    def __init__(self, k: int, n: int):
        base = build_hypercube(k)
        # Rank r holds the base ranks r - n + 1 .. r, one level each.
        row = base.rank_vector
        self._set(label=f"P({k},{n})", rk=k + n - 1, _k=k, _n=n, chain_factor=(base, n),
                  rank_vector=tuple(sum(row[max(r - n + 1, 0):r + 1]) for r in range(k + n)))

    @property
    def elements(self) -> tuple[tuple[int, int], ...]:
        return tuple((b, c) for b in range(1 << self._k) for c in range(self._n))

    def rank_of(self, e: tuple[int, int]) -> int:
        return e[0].bit_count() + e[1]

    def __len__(self) -> int:
        return self._n << self._k

    def __contains__(self, e: object) -> bool:
        return (
            isinstance(e, tuple) and len(e) == 2
            and isinstance(e[0], int) and 0 <= e[0] < 1 << self._k
            and isinstance(e[1], int) and 0 <= e[1] < self._n
        )

    def up(self, e: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        self._require(e)
        b, c = e
        above = ((b, c + 1),) if c + 1 < self._n else ()
        return above + tuple((b | 1 << i, c) for i in range(self._k) if not b >> i & 1)


# -- constructors ---------------------------------------------------------


def build_chain_poset(s: int) -> GradedPoset:
    """The total order 0 < 1 < ... < s-1 with rank(i) = i."""
    if s < 1:
        raise PosetError(f"chain poset needs at least one element, got s={s}")
    _require_size(0, s, f"chain({s})")
    return GradedPoset(
        range(s),
        [(i, i + 1) for i in range(s - 1)],
        {i: i for i in range(s)},
        label=f"chain({s})",
    )


def build_hypercube(k: int) -> GradedPoset:
    """Q_k on bitmask elements 0..2^k-1; covers flip one 0-bit up.

    An implicit bit-arithmetic host.
    """
    if k < 0:
        raise PosetError(f"hypercube dimension must be nonnegative, got k={k}")
    _require_size(k, 1, f"Q{k}")
    return _Hypercube(k)


def _require_size(k: int, n: int, label: str) -> None:
    """Refuse a host, or packet grid, of ``n * 2^k`` elements over
    ``MAX_HOST_ELEMENTS``."""
    # k is tested first, so a huge k never reaches the shift.
    if k >= MAX_HOST_ELEMENTS.bit_length() or n << k > MAX_HOST_ELEMENTS:
        raise PosetError(f"{label} is over the limit of {MAX_HOST_ELEMENTS} elements")


def product(p: GradedPoset, q: GradedPoset) -> GradedPoset:
    """Direct product: elements are pairs, covers move in one coordinate.

    When ``q`` is a chain poset the result records ``chain_factor = (p, n)``
    so that chain-coordinate operations apply to it; this is the one place
    a table poset gets a chain factor.  Refuses products of more than
    ``MAX_HOST_ELEMENTS`` elements.
    """
    _require_size(0, len(p) * len(q), f"{p.label}x{q.label}")
    p_elements, q_elements = p.elements, q.elements
    elements = [(a, b) for a in p_elements for b in q_elements]
    covers = [((a, b), (a2, b)) for (a, a2) in p.covers for b in q_elements]
    covers += [((a, b), (a, b2)) for a in p_elements for (b, b2) in q.covers]
    rank = {(a, b): p.rank_of(a) + q.rank_of(b) for (a, b) in elements}
    host = GradedPoset(elements, covers, rank, label=f"{p.label}x{q.label}")
    host._set(chain_factor=(p, len(q)) if q.is_chain_poset else None)
    return host


# Bounded: a long-lived process keeps the hosts it used last, not every
# host it ever built.
@lru_cache(maxsize=16)
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


def cuboid_shape(host: GradedPoset) -> tuple[int, int] | None:
    """``(k, n)`` when ``host`` is Q_k x chain(n), else None."""
    if host.chain_factor is None:
        return None
    base, n = host.chain_factor
    return (base.rk, n) if isinstance(base, _Hypercube) else None


def poset_times_chain(p: GradedPoset, n: int) -> GradedPoset:
    """``p x chain(n)`` with the chain factor recorded.

    Hypercube bases route through :func:`build_cuboid`, so a ``(k, n)``
    host still in its cache is shared, not rebuilt.
    """
    if isinstance(p, _Hypercube):
        return build_cuboid(p.rk, n)
    return product(p, build_chain_poset(n))


# -- the packet grid -------------------------------------------------------


def packet_grid(p: GradedPoset, n: int) -> dict[tuple[int, int], int]:
    """The packet sizes of ``p x chain(n)``, keyed by (base rank, total rank).

    The packet at ``(x, y)`` holds the elements ``(q, y - x)`` for the
    rank-x elements ``q`` of ``p``, so it has ``rank_vector[x]`` elements
    and exists at every total rank ``y`` with ``x <= y <= x+n-1``.
    Refuses grids of more than ``MAX_HOST_ELEMENTS`` cells.
    """
    if n < 1:
        raise PosetError(f"chain length must be positive, got n={n}")
    _require_size(0, (p.rk + 1) * n, f"the packet grid of {p.label} x chain({n})")
    counts: dict[tuple[int, int], int] = {}
    for x, size in enumerate(p.rank_vector):
        for y in range(x, x + n):
            counts[(x, y)] = size
    return counts


def is_rank_symmetric(p: GradedPoset) -> bool:
    """True iff the rank vector is palindromic."""
    return p.rank_vector == p.rank_vector[::-1]
