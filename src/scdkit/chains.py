"""Chains, symmetric chain decompositions, tautness, and validation.

A chain is a plain tuple of host elements in ascending rank order, each
consecutive pair a cover.  A symmetric chain spans ranks ``r .. rk-r``;
a decomposition partitions the host into such chains.

In a product ``base x chain(n)`` a chain is *taut* when it contains the
full vertical run ``(p, 0) < (p, 1) < ... < (p, n-1)`` for some base
element ``p``.  Those runs are what the constructions in this package
are engineered to avoid.

``validate_scd`` makes one pass over the chains and writes a message
for every finding; the report is its findings, valid when it has none.
On a hypercube-by-chain host, whose elements are ``(bits, level)``
pairs, and when every element is a tuple, each chain first takes one
saturation test, and the pass builds no table of the host:

* a chain *climbs* the host when it is nonempty, its ends are in range
  (bits below ``2^k``, levels below ``n``, none negative), no step
  clears a bit or raises the level by more than one (ints only), it
  holds ``rank(last) - rank(first) + 1`` elements and those two ranks
  sum to ``rk``.  Each element then lies between its chain's ends, so
  it is a member;
* a chain of distinct members that climbs is saturated and symmetric:
  each step is strictly upward, raising the rank by at least one, and
  the length leaves room for exactly one per step, which is a cover;
* on such a chain the levels never fall, so the level-0 elements come
  first, and the chain is taut iff ``ch[z + n - 1] == (p, n - 1)`` for
  the last of them, ``ch[z] = (p, 0)``: a saturated chain from
  ``(p, 0)`` to ``(p, n - 1)`` climbs the column of ``p``.

Every other chain, and every chain of another host, is checked element
by element: membership, then ``is_cover`` per step, symmetry and
``is_taut``.  One set over all elements tells whether they are
distinct; when they are, the chains with no foreign element cover as
many members as they hold, with no table of used elements.  Otherwise
a dict records the last chain that used each element, to name every
repeat.  An element that is no pair of ints is foreign;
it is reported, never raised on.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain as concat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .posets import Element, GradedPoset, _Frozen, cuboid_shape

Chain = tuple  # elements in ascending rank order


def canonical_chain_order(host: GradedPoset, chains: Iterable[Sequence]) -> tuple[Chain, ...]:
    """Sort chains by (rank of bottom element, bottom element)."""
    rank = host.rank_of
    return tuple(sorted((tuple(ch) for ch in chains), key=lambda ch: (rank(ch[0]), ch[0])))


def cuboid_key(b: int, c: int, k: int, n: int) -> int:
    """:func:`canonical_chain_order`'s key of a chain of Q_k x chain(n) with bottom ``(b, c)``."""
    return ((b.bit_count() + c << k) + b) * n + c


class SCD(_Frozen):
    """A set of chains intended to partition ``host`` into symmetric chains.

    Two decompositions are equal when their hosts are (``GradedPoset``
    equality) and their chain sets agree.  ``notes`` carries provenance
    strings (e.g. which matching a pipeline chose); they ride along
    through serialization but never affect equality.

    An SCD is immutable: assigning or deleting an attribute raises
    ``AttributeError``.  Hosts and chains are immutable tuples, so
    ``report`` validates a decomposition once, on first access;
    :meth:`with_notes` passes a computed report on to the copy.
    """

    __slots__ = ("host", "chains", "notes", "_report")
    _noun = "an SCD"

    def __init__(self, host: GradedPoset, chains: tuple[Chain, ...], notes: tuple[str, ...] = ()):
        self._set(host=host, chains=chains, notes=notes, _report=None)

    @property
    def chain_set(self) -> frozenset:
        return frozenset(self.chains)

    @property
    def chain_count(self) -> int:
        return len(self.chains)

    @property
    def report(self) -> "ValidationReport":
        if self._report is None:
            self._set(_report=validate_scd(self.host, self))
        return self._report

    @property
    def known_valid(self) -> bool:
        """Whether ``report`` is computed and found this decomposition
        valid; computes nothing."""
        return self._report is not None and self._report.valid

    def with_notes(self, *notes: str) -> "SCD":
        return _reported(SCD(self.host, self.chains, self.notes + notes), self._report)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SCD):
            return NotImplemented
        return self.host == other.host and self.chain_set == other.chain_set

    def __repr__(self) -> str:
        return f"SCD({self.host.label}, {self.chain_count} chains)"


def _reported(scd: SCD, report: "ValidationReport | None") -> SCD:
    """``scd`` with ``report``, already computed for its host and chains."""
    scd._set(_report=report)
    return scd


def is_taut(chain: Sequence, n: int) -> bool:
    """True iff the chain contains a full vertical run (p,0) .. (p,n-1).

    Elements must be ``(base, level)`` pairs.  The n elements of a full
    column are consecutive, as their ranks are, so one scan counts runs.
    """
    run, base = 0, None
    for p, c in chain:
        if c == 0:
            run, base = 1, p
        elif run and (p, c) == (base, run):
            run += 1
        else:
            run = 0
        if run == n:
            return True
    return False


class ValidationReport(NamedTuple):
    """All findings about a candidate decomposition; nothing fails fast.

    ``messages`` holds one line per finding, in the order of the pass, and
    is the verdict: the decomposition is ``valid`` when there is none.
    ``taut_chain_indices`` names the taut chains, which are no finding.
    """

    taut_chain_indices: tuple[int, ...]
    chain_count: int
    messages: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.messages

    @property
    def taut_count(self) -> int:
        return len(self.taut_chain_indices)


def validate_scd(host: GradedPoset, scd: SCD | Iterable[Sequence]) -> ValidationReport:
    """Partition, per-chain shape, symmetry and tautness, with a message
    for every finding, in one pass over the chains (see the module doc)."""
    chains = tuple(tuple(ch) for ch in (scd.chains if isinstance(scd, SCD) else scd))
    shape = cuboid_shape(host)
    climbing = shape is not None and _tuples_only(chains)  # else every element is checked
    if climbing:
        width, n = 1 << shape[0], shape[1]
    covered = sum(map(len, chains))  # less the chains with a foreign element
    try:
        distinct = len(set(concat.from_iterable(chains))) == covered
    except Exception:  # an element with no hash, which is foreign
        distinct = False
    messages: list[str] = []
    taut: list[int] = []
    seen: dict[Element, int] = {}
    for i, ch in enumerate(chains):
        if not ch:
            messages.append(f"chain {i}: empty")
            continue
        if climbing and _climbs(ch, n, width, host.rk) and (distinct or len(set(ch)) == len(ch)):
            if _climbs_taut(ch, n):  # a saturated symmetric chain of members
                taut.append(i)
        else:
            foreign = [e for e in ch if e not in host]
            if foreign:
                messages.append(f"chain {i}: foreign elements {foreign!r}")
                covered -= len(ch)
                continue
            bad = [(a, b) for a, b in zip(ch, ch[1:]) if not host.is_cover(a, b)]
            if bad:
                messages.append(f"chain {i}: non-cover steps {bad!r}")
            lo, hi = host.rank_of(ch[0]), host.rank_of(ch[-1])
            if lo + hi != host.rk:
                messages.append(
                    f"chain {i}: spans ranks {lo}..{hi}, not symmetric about {host.rk}/2")
            if host.chain_factor is not None and is_taut(ch, host.chain_factor[1]):
                taut.append(i)
        if not distinct:
            for e in ch:
                if e in seen:
                    messages.append(f"chain {i}: {e!r} already used by chain {seen[e]}")
                seen[e] = i
    uncovered = len(host) - (covered if distinct else len(seen))
    if uncovered:
        messages.append(f"{uncovered} elements of {host.label} uncovered")
    return ValidationReport(tuple(taut), len(chains), tuple(messages))


_level = itemgetter(1)


def _tuples_only(chains: tuple[Chain, ...]) -> bool:
    """Whether every element is a plain tuple (a tuple subclass, though a
    member, takes the checks element by element).  Another object that
    unpacks as a pair of ints (bytes, a range) is foreign, and only a
    check element by element can tell it apart from the tuple it spells."""
    return set(map(type, concat.from_iterable(chains))) == {tuple}


def _climbs_taut(ch: Chain, n: int) -> bool:
    """The taut test of a chain that climbs (the module doc's last rule)."""
    if ch[0][1]:
        return False
    z = bisect_right(ch, 0, key=_level) - 1
    return z + n <= len(ch) and ch[z + n - 1] == (ch[z][0], n - 1)


def _climbs(ch: Chain, n: int, width: int, rk: int) -> bool:
    """The saturation test of a chain of tuples of ``Q_k x chain(n)``,
    ``width = 2^k``, of rank ``rk``: the chain is nonempty, its ends are
    in range, it holds one element per rank from its first to its last,
    those two ranks sum to ``rk``, and no step clears a bit or raises the
    level by more than one.  False for any element that is no pair of
    ints (``&`` refuses floats and strings).  Every element of a chain
    that climbs lies between its ends, so it is a member, and a chain of
    distinct members that climbs is saturated and symmetric."""
    try:
        (b, c), (b2, c2) = ch[0], ch[-1]
        lo, hi = b.bit_count() + c, b2.bit_count() + c2
        if c < 0 or c2 >= n or not 0 <= b2 < width or lo + hi != rk or len(ch) != hi - lo + 1:
            return False
        for b2, c2 in ch:
            if b & ~b2 or (c2 - c) & ~1:
                return False
            b, c = b2, c2
    except (AttributeError, IndexError, TypeError, ValueError):  # empty, or no pair of ints
        return False
    return True

