"""Chains, symmetric chain decompositions, tautness, and validation.

A chain is a plain tuple of host elements in ascending rank order, each
consecutive pair a cover.  A symmetric chain spans ranks ``r .. rk-r``;
a decomposition partitions the host into such chains.

In a product ``base x chain(n)`` a chain is *taut* when it contains the
full vertical run ``(p, 0) < (p, 1) < ... < (p, n-1)`` for some base
element ``p``.  Those runs are what the constructions in this package
are engineered to avoid.

``validate_scd`` reaches its verdict first and explains only failures.
On a hypercube-by-chain host, whose elements are ``(bits, level)``
pairs, the verdict takes set algebra and one order scan per chain:

* the chains partition the host iff none is empty, their lengths sum
  to its size and the set of their elements is exactly its element set;
* then all elements are distinct, so a chain is saturated iff its steps
  ascend componentwise (:func:`~scdkit.posets.steps_ascend`) and it
  holds ``rank(last) - rank(first) + 1`` elements: each step is then
  strictly upward, raising the rank by at least one, and the length
  leaves room for exactly one per step, which is a cover;
* on such a chain the levels never fall, so the level-0 elements come
  first, and the chain is taut iff ``ch[z + n - 1] == (p, n - 1)`` for
  the last of them, ``ch[z] = (p, 0)``: a saturated chain from
  ``(p, 0)`` to ``(p, n - 1)`` climbs the column of ``p``.

A decomposition that fails any of these, and any decomposition of
another host, goes through the diagnostic pass, which checks every
step with ``is_cover`` and writes every message.  So a report, messages
included, does not depend on which path computed it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain as concat
from operator import itemgetter
from typing import Iterable, Sequence

from .posets import Element, GradedPoset, cuboid_shape, steps_ascend

Chain = tuple  # elements in ascending rank order


def canonical_chain_order(host: GradedPoset, chains: Iterable[Sequence]) -> tuple[Chain, ...]:
    """Sort chains by (rank of bottom element, bottom element)."""
    return tuple(
        sorted((tuple(ch) for ch in chains), key=lambda ch: (host.rank[ch[0]], ch[0]))
    )


@dataclass(frozen=True, eq=False)
class SCD:
    """A set of chains intended to partition ``host`` into symmetric chains.

    ``notes`` carries provenance strings (e.g. which matching a pipeline
    chose); they ride along through serialization but never affect
    equality.

    Hosts and chains are immutable tuples, so ``report`` validates a
    decomposition once, on first access; :meth:`with_notes` passes a
    computed report on to the copy.
    """

    host: GradedPoset
    chains: tuple[Chain, ...]
    notes: tuple[str, ...] = ()

    @property
    def chain_set(self) -> frozenset:
        return frozenset(self.chains)

    @property
    def chain_count(self) -> int:
        return len(self.chains)

    @cached_property
    def report(self) -> "ValidationReport":
        return validate_scd(self.host, self)

    def with_notes(self, *notes: str) -> "SCD":
        copy = SCD(self.host, self.chains, self.notes + notes)
        if "report" in self.__dict__:
            copy.__dict__["report"] = self.report
        return copy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SCD):
            return NotImplemented
        return (
            self.host.elements == other.host.elements
            and self.chain_set == other.chain_set
        )

    def __repr__(self) -> str:
        return f"SCD({self.host.label}, {self.chain_count} chains)"


def is_taut(chain: Sequence, n: int) -> bool:
    """True iff the chain contains a full vertical run (p,0) .. (p,n-1).

    Elements must be ``(base, level)`` pairs.  Single scan keeping the
    length of the current level-increment run that started at level 0;
    a run of n such elements is a full column (the n elements are
    necessarily consecutive because their ranks are).
    """
    run = 0
    prev = None
    for p, c in chain:
        if c == 0:
            run = 1
        elif prev is not None and p == prev[0] and c == prev[1] + 1 and run > 0:
            run += 1
        else:
            run = 0
        if run == n:
            return True
        prev = (p, c)
    return False


@dataclass(frozen=True)
class ValidationReport:
    """All findings about a candidate decomposition; nothing fails fast."""

    is_partition: bool
    all_symmetric: bool
    taut_chain_indices: tuple[int, ...]
    chain_count: int
    messages: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.is_partition and self.all_symmetric

    @property
    def taut_count(self) -> int:
        return len(self.taut_chain_indices)


def validate_scd(host: GradedPoset, scd: SCD | Iterable[Sequence]) -> ValidationReport:
    """Partition, per-chain shape, symmetry and tautness, with a message
    for every finding (see the module doc for how the verdict is reached)."""
    chains = tuple(tuple(ch) for ch in (scd.chains if isinstance(scd, SCD) else scd))
    if cuboid_shape(host) is not None:
        taut = _cuboid_taut_indices(host, chains)
        if taut is not None:
            return ValidationReport(
                is_partition=True, all_symmetric=True,
                taut_chain_indices=taut, chain_count=len(chains),
            )
    return _diagnose(host, chains)


_level = itemgetter(1)


def _cuboid_taut_indices(host: GradedPoset, chains: tuple[Chain, ...]) -> tuple[int, ...] | None:
    """The taut chains of a valid decomposition of a hypercube-by-chain
    host, or None when ``chains`` is not a valid decomposition of it."""
    rank = host.rank
    if sum(map(len, chains)) != len(rank):
        return None
    members = set(concat.from_iterable(chains))
    if len(members) != len(rank) or members != rank.keys():
        return None
    rk, n = host.rk, host.chain_factor[1]
    taut = []
    for i, ch in enumerate(chains):
        if not ch:
            return None
        lo, hi = rank[ch[0]], rank[ch[-1]]
        if lo + hi != rk or len(ch) != hi - lo + 1 or not steps_ascend(ch):
            return None
        if ch[0][1] == 0:
            z = bisect_right(ch, 0, key=_level) - 1
            if z + n <= len(ch) and ch[z + n - 1] == (ch[z][0], n - 1):
                taut.append(i)
    return tuple(taut)


def _diagnose(host: GradedPoset, chains: tuple[Chain, ...]) -> ValidationReport:
    """The full diagnostic pass: every check on every chain, every message."""
    messages: list[str] = []
    is_partition = True
    all_symmetric = True

    seen: dict[Element, int] = {}
    alien: set[int] = set()  # chains with a foreign element, which may be no (base, level) pair
    for i, ch in enumerate(chains):
        if not ch:
            messages.append(f"chain {i}: empty")
            is_partition = False
            continue
        foreign = [e for e in ch if e not in host]
        if foreign:
            messages.append(f"chain {i}: foreign elements {foreign!r}")
            is_partition = False
            alien.add(i)
            continue
        bad = [(a, b) for a, b in zip(ch, ch[1:]) if not host.is_cover(a, b)]
        if bad:
            messages.append(f"chain {i}: non-cover steps {bad!r}")
            is_partition = False
        if host.rank[ch[0]] + host.rank[ch[-1]] != host.rk:
            messages.append(
                f"chain {i}: spans ranks {host.rank[ch[0]]}..{host.rank[ch[-1]]},"
                f" not symmetric about {host.rk}/2"
            )
            all_symmetric = False
        for e in ch:
            if e in seen:
                messages.append(f"chain {i}: {e!r} already used by chain {seen[e]}")
                is_partition = False
            seen[e] = i
    uncovered = len(host.elements) - len(seen)
    if uncovered:
        messages.append(f"{uncovered} elements of {host.label} uncovered")
        is_partition = False

    taut: tuple[int, ...] = ()
    if host.chain_factor is not None:
        n = host.chain_factor[1]
        taut = tuple(i for i, ch in enumerate(chains)
                     if ch and i not in alien and is_taut(ch, n))

    return ValidationReport(
        is_partition=is_partition,
        all_symmetric=all_symmetric,
        taut_chain_indices=taut,
        chain_count=len(chains),
        messages=tuple(messages),
    )

