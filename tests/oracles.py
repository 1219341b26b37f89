"""Independent brute-force oracles for the test suite.

Deliberately naive and separate from the library's search engine: these
enumerate decompositions by exact cover over the explicit list of all
saturated symmetric chains, so agreement with the library is a real
cross-check rather than the same algorithm twice.
"""

from itertools import product as iproduct


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


def all_symmetric_chains(host):
    """Every saturated chain spanning ranks r .. rk(host)-r, by DFS."""
    rk = host.rk
    chains = []

    def grow(chain, end_rank):
        top = chain[-1]
        if host.rank[top] == end_rank:
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


def enumerate_grid_cells(a, b):
    """All cells of an a x b grid, for partition checks."""
    return set(iproduct(range(a), range(b)))
