"""Independent brute-force oracles for the test suite.

Deliberately naive and separate from the library's search engine: these
enumerate decompositions by exact cover over the explicit list of all
saturated symmetric chains, so agreement with the library is a real
cross-check rather than the same algorithm twice.  Likewise
``diagnose_by_elements`` validates a decomposition element by element,
with none of the shortcuts of ``validate_scd``, and its own tautness
test, read off the definition and independent of ``chains.is_taut``.
``element_of_token`` reads a token by the definition of its two
spellings, as regular expressions, with none of the parser's slicing.
"""

import re
from itertools import product as iproduct

from scdkit.chains import SCD, ValidationReport
from scdkit.posets import cuboid_shape


def rank_vector_by_bucketing(elements, rank_of):
    """Count elements per rank by direct enumeration."""
    buckets = {}
    for e in elements:
        buckets[rank_of(e)] = buckets.get(rank_of(e), 0) + 1
    return tuple(buckets.get(r, 0) for r in range(max(buckets) + 1))


def product_rank_vector(vec_a, vec_b):
    """Rank vector of a product from its factors, by pairing every rank."""
    out = [0] * (len(vec_a) + len(vec_b) - 1)
    for i, a in enumerate(vec_a):
        for j, b in enumerate(vec_b):
            out[i + j] += a * b
    return tuple(out)


def middle_rank_size(host):
    """Elements at rank rk // 2, counted one by one: every chain of a
    decomposition of a rank-symmetric host crosses that rank once."""
    return sum(1 for e in host.elements if host.rank_of(e) == host.rk // 2)


def middle_rank_bound_holds(rank_vector):
    """The paper's counting condition on a base P for P x n to have a
    taut-free decomposition: for even rk(P) the middle rank may not
    outnumber all lower ranks together, and for odd rk(P) each rank of
    the middle pair may not exceed twice the ranks below it."""
    rk = len(rank_vector) - 1
    return rank_vector[rk // 2] <= (1 + rk % 2) * sum(rank_vector[:rk // 2])


def all_symmetric_chains(host):
    """Every saturated chain spanning ranks r .. rk(host)-r, by DFS."""
    rk = host.rk
    chains = []

    def grow(chain, end_rank):
        top = chain[-1]
        if host.rank_of(top) == end_rank:
            chains.append(tuple(chain))
            return
        for nxt in host.up(top):
            chain.append(nxt)
            grow(chain, end_rank)
            chain.pop()

    for r in range((rk + 1) // 2 + 1):
        if r > rk - r:
            continue
        for start in host.by_rank[r]:
            grow([start], rk - r)
    return chains


def brute_force_scds(host):
    """All partitions of ``host`` into symmetric chains, as frozensets of
    chain tuples, by exact cover over :func:`all_symmetric_chains`."""
    chains = all_symmetric_chains(host)
    by_element = {}
    for ch in chains:
        for e in ch:
            by_element.setdefault(e, []).append(ch)

    solutions = []
    uncovered = set(host.elements)
    picked = []

    def cover():
        if not uncovered:
            solutions.append(frozenset(picked))
            return
        e = min(uncovered)
        for ch in by_element.get(e, ()):
            if any(x not in uncovered for x in ch):
                continue
            picked.append(ch)
            uncovered.difference_update(ch)
            cover()
            uncovered.update(ch)
            picked.pop()

    cover()
    return solutions


def has_full_column(chain, n):
    """True iff ``chain`` holds every level of some base point, by membership."""
    members = set(chain)
    return any(all((p, c) in members for c in range(n)) for p, _ in chain)


def is_taut_by_definition(chain, n):
    """True iff n consecutive elements of the chain are (p,0) .. (p,n-1),
    compared slice by slice: the definition of a taut chain, independent
    of the linear scan of ``chains.is_taut`` and meant for small hosts."""
    pairs = [(p, c) for p, c in chain]
    return any(pairs[z:z + n] == [(p, c) for c in range(n)]
               for z, (p, level) in enumerate(pairs) if level == 0)


def diagnose_by_elements(host, chains):
    """The report ``validate_scd`` owes ``chains``, from checks element by
    element alone: membership, ``is_cover`` per step, rank symmetry, a
    dict of used elements, and ``is_taut_by_definition`` on every nonempty chain
    with no foreign element.  No saturation test and no shortcut for any host."""
    chains = tuple(tuple(ch) for ch in chains)
    messages = []
    is_partition = all_symmetric = True
    seen = {}
    alien = set()
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
        lo, hi = host.rank_of(ch[0]), host.rank_of(ch[-1])
        if lo + hi != host.rk:
            messages.append(f"chain {i}: spans ranks {lo}..{hi}, not symmetric about {host.rk}/2")
            all_symmetric = False
        for e in ch:
            if e in seen:
                messages.append(f"chain {i}: {e!r} already used by chain {seen[e]}")
                is_partition = False
            seen[e] = i
    uncovered = len(host) - len(seen)
    if uncovered:
        messages.append(f"{uncovered} elements of {host.label} uncovered")
        is_partition = False
    taut = ()
    if host.chain_factor is not None:
        n = host.chain_factor[1]
        taut = tuple(i for i, ch in enumerate(chains)
                     if ch and i not in alien and is_taut_by_definition(ch, n))
    return ValidationReport(
        is_partition=is_partition,
        all_symmetric=all_symmetric,
        taut_chain_indices=taut,
        chain_count=len(chains),
        messages=tuple(messages),
    )


def middle_graph_by_ranks(scd):
    """``(edges, path)`` of the middle graph of a decomposition of
    ``P x chain(rk)``, from rank scans alone.  Asserts the lemmas behind
    it: each chain holds one element of each central row (rk-1 and rk),
    the climbing edges form one path of rk steps from the minimum of P to
    its maximum, and the loops sit on exactly the off-path vertices."""
    base, _ = scd.host.chain_factor
    rk, rank = base.rk, scd.host.rank_of
    edges = []
    for ch in scd.chains:
        lo = [e for e in ch if rank(e) == rk - 1]
        hi = [e for e in ch if rank(e) == rk]
        assert len(lo) == len(hi) == 1, f"chain {ch!r} misses a central row"
        edges.append((lo[0][0], hi[0][0]))
    step = {p: q for p, q in edges if p != q}
    assert len(step) == rk, "wrong number of climbing edges"
    path = [base.bottom]
    while path[-1] != base.top:
        assert path[-1] in step and len(path) <= rk, "broken maximal path"
        path.append(step[path[-1]])
    loops = sorted(p for p, q in edges if p == q)
    assert loops == sorted(set(base.elements) - set(path)), "loops miss off-path vertices"
    return tuple(edges), tuple(path)


def enumerate_grid_cells(a, b):
    """All cells of an a x b grid, for partition checks."""
    return set(iproduct(range(a), range(b)))


def permuted_bits(b, k, perm):
    """Bits of ``b`` with the digit at position perm[j] moved to position j."""
    return sum((b >> (k - 1 - perm[j]) & 1) << (k - 1 - j) for j in range(k))


def permute_scd(scd, perm):
    """``scd`` with the bit digits of every element moved by :func:`permuted_bits`."""
    k, _ = cuboid_shape(scd.host)
    return SCD(scd.host, tuple(
        tuple((permuted_bits(b, k, perm), c) for b, c in ch) for ch in scd.chains
    ))


def element_of_token(token, k, n, max_digits):
    """The element of P(k, n) that ``token`` spells, or None.

    The compact spelling is k bits then one ASCII digit, only for
    n <= 10; the general one is ``b1,...,bk;`` then ASCII
    digits.  In both the level is below n and has at most ``max_digits``
    significant digits.
    """
    match = re.fullmatch(",".join(["([01])"] * k) + ";([0-9]+)", token)
    if match is None and n <= 10:
        match = re.fullmatch(f"([01]{{{k}}})([0-9])", token)
    if match is None:
        return None
    *bits, level = match.groups()
    level = level.lstrip("0") or "0"
    if len(level) > max_digits or int(level) >= n:
        return None
    return (int("".join(bits), 2) if k else 0, int(level))
