"""Independent checker for scdkit decomposition documents.

Works from the document text alone with bit arithmetic and imports
nothing from scdkit, so a bug in the library's own validator cannot
hide a bad output.  An element of Q_k x n is a pair (bits, level); its
rank is popcount(bits) + level.  A document passes when:

* the header is ``k n`` and every token uses the spelling the format
  prescribes (compact for n <= 10, general above);
* every element of Q_k x n appears exactly once;
* each step of a chain is a cover: one bit added at the same level, or
  the level raised by one at the same bits;
* every chain is symmetric: rank(bottom) + rank(top) = k + n - 1;
* the chain count equals the size of the middle rank;
* no chain holds a full column (p,0) < ... < (p,n-1).

The module also builds the benchmark's document variants: bit
permutations (automorphisms of Q_k x n, so validity and taut-freeness
carry over) and one-element swaps that must be rejected.
"""

from __future__ import annotations

import random
from math import comb

COMPACT_LEVEL_LIMIT = 10


class Document:
    """A document split into comment lines, header and chain token rows."""

    def __init__(self, text: str):
        self.comments: list[str] = []
        rows: list[list[str]] = []
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("#"):
                self.comments.append(stripped)
            elif stripped:
                rows.append(stripped.split())
        if not rows:
            raise ValueError("empty document")
        head = rows[0]
        if len(head) != 2 or not all(t.isdigit() for t in head):
            raise ValueError(f"bad header {' '.join(head)!r}")
        self.k, self.n = int(head[0]), int(head[1])
        self.rows = rows[1:]

    def text(self) -> str:
        lines = self.comments + [f"{self.k} {self.n}"] + [" ".join(r) for r in self.rows]
        return "\n".join(lines) + "\n"

    def decode(self, token: str) -> tuple[int, int]:
        k, n = self.k, self.n
        if n <= COMPACT_LEVEL_LIMIT:
            digits, level = token[:k], token[k:]
            if len(token) != k + 1:
                raise ValueError(f"token {token!r}: expected {k} bits and one level digit")
        else:
            head, sep, level = token.partition(";")
            if not sep:
                raise ValueError(f"token {token!r}: expected the general spelling for n={n}")
            digits = head.replace(",", "")
            if len(digits) != k or head != ",".join(digits):
                raise ValueError(f"token {token!r}: expected {k} comma-separated bits")
        if digits.strip("01") or not level.isdigit() or int(level) >= n:
            raise ValueError(f"token {token!r}: not an element of Q_{k} x {n}")
        return (int(digits, 2) if k else 0), int(level)


def middle_rank_size(k: int, n: int) -> int:
    mid = (k + n - 1) // 2
    return sum(comb(k, mid - c) for c in range(n) if 0 <= mid - c <= k)


def _rank(e: tuple[int, int]) -> int:
    return e[0].bit_count() + e[1]


def _is_cover(lo: tuple[int, int], hi: tuple[int, int]) -> bool:
    (b0, c0), (b1, c1) = lo, hi
    if c0 == c1:
        return b0 & b1 == b0 and (b0 ^ b1).bit_count() == 1
    return b0 == b1 and c1 == c0 + 1


def check_document(text: str, k: int | None = None, n: int | None = None) -> str | None:
    """None when ``text`` is a valid taut-free decomposition of Q_k x n,
    otherwise the first problem found."""
    try:
        doc = Document(text)
        if k is not None and (doc.k, doc.n) != (k, n):
            return f"header says P({doc.k},{doc.n}), expected P({k},{n})"
        k, n = doc.k, doc.n
        seen = bytearray(n << k)
        top_rank = k + n - 1
        for i, row in enumerate(doc.rows):
            chain = [doc.decode(t) for t in row]
            if _rank(chain[0]) > _rank(chain[-1]):
                chain.reverse()  # the format allows a chain written top-down
            for lo, hi in zip(chain, chain[1:]):
                if not _is_cover(lo, hi):
                    return f"chain {i}: step {lo} -> {hi} is not a cover"
            if _rank(chain[0]) + _rank(chain[-1]) != top_rank:
                return f"chain {i}: not symmetric"
            columns: dict[int, int] = {}
            for bits, level in chain:
                slot = bits * n + level
                if seen[slot]:
                    return f"chain {i}: element ({bits}, {level}) used twice"
                seen[slot] = 1
                columns[bits] = columns.get(bits, 0) + 1
            if n in columns.values():
                return f"chain {i}: taut (holds a full column)"
        if seen.count(0):
            return f"{seen.count(0)} elements uncovered"
        if len(doc.rows) != middle_rank_size(k, n):
            return f"{len(doc.rows)} chains, expected {middle_rank_size(k, n)}"
    except ValueError as exc:
        return str(exc)
    return None


def _permute_token(token: str, perm: list[int], general: bool) -> str:
    if general:
        head, _, level = token.partition(";")
        digits = head.split(",")
        return ",".join(digits[p] for p in perm) + ";" + level
    return "".join(token[p] for p in perm) + token[len(perm):]


def permuted_variant(text: str, rng: random.Random) -> str:
    """Apply a random bit permutation and shuffle the chain lines."""
    doc = Document(text)
    perm = list(range(doc.k))
    rng.shuffle(perm)
    general = doc.n > COMPACT_LEVEL_LIMIT
    doc.rows = [[_permute_token(t, perm, general) for t in row] for row in doc.rows]
    rng.shuffle(doc.rows)
    return doc.text()


def swap_mutant(text: str, rng: random.Random) -> str:
    """Swap two elements of different ranks between two chains.

    The swapped-into chain keeps its length but its multiset of ranks
    changes, so it can no longer be a saturated symmetric chain: the
    result is never a valid decomposition.
    """
    doc = Document(text)
    ranked = [
        (i, j, _rank(doc.decode(t)))
        for i, row in enumerate(doc.rows) for j, t in enumerate(row)
    ]
    while True:
        a, b = rng.sample(ranked, 2)
        if a[0] != b[0] and a[2] != b[2]:
            break
    (ia, ja, _), (ib, jb, _) = a, b
    doc.rows[ia][ja], doc.rows[ib][jb] = doc.rows[ib][jb], doc.rows[ia][ja]
    return doc.text()
