import math

import pytest

from scdkit.chains import ScdError, validate_chain
from scdkit.posets import (
    GradedPoset,
    PosetError,
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    element_at,
    is_rank_symmetric,
    packet,
    packet_grid,
    poset_times_chain,
    product,
)

from oracles import product_rank_vector, rank_vector_by_bucketing


def test_chain_poset_degenerate():
    c = build_chain_poset(1)
    assert len(c) == 1 and c.rk == 0 and not c.covers


def test_chain_poset_small():
    c = build_chain_poset(3)
    assert len(c) == 3 and len(c.covers) == 2 and c.rk == 2
    assert c.cover_set == {(0, 1), (1, 2)}


def test_chain_poset_rank_vector():
    assert build_chain_poset(6).rank_vector == (1, 1, 1, 1, 1, 1)


def test_chain_poset_rejects_zero():
    with pytest.raises(PosetError):
        build_chain_poset(0)


def test_hypercube_trivial():
    q0 = build_hypercube(0)
    assert len(q0) == 1 and q0.rk == 0


def test_hypercube_4_rank_vector():
    assert build_hypercube(4).rank_vector == (1, 4, 6, 4, 1)


def test_hypercube_5_by_enumeration():
    q5 = build_hypercube(5)
    oracle = rank_vector_by_bucketing(range(32), lambda x: bin(x).count("1"))
    assert len(q5) == 32 and q5.rk == 5
    assert q5.rank_vector == oracle == (1, 5, 10, 10, 5, 1)


def test_hypercube_covers_are_single_bit_flips():
    q3 = build_hypercube(3)
    for x, y in q3.covers:
        assert x & y == x and bin(x ^ y).count("1") == 1


def test_product_q5_chain3():
    p = product(build_hypercube(5), build_chain_poset(3))
    assert len(p) == 96 and p.rk == 7


def test_product_with_trivial_chain_is_identity_shaped():
    q3 = build_hypercube(3)
    p = product(build_chain_poset(1), q3)
    assert p.rank_vector == q3.rank_vector


def test_product_q2_chain2_rank_vector_by_enumeration():
    # Oracle: bucket the 4*2 = 8 elements of Q_2 x 2 by rank directly.
    elems = [(b, c) for b in range(4) for c in range(2)]
    oracle = rank_vector_by_bucketing(elems, lambda e: bin(e[0]).count("1") + e[1])
    p = product(build_hypercube(2), build_chain_poset(2))
    assert p.rank_vector == oracle == (1, 3, 3, 1)


def test_product_rank_vector_is_factor_pairing():
    for kp, kq in [(2, 3), (3, 2), (1, 4)]:
        p, q = build_hypercube(kp), build_chain_poset(kq)
        assert product(p, q).rank_vector == product_rank_vector(p.rank_vector, q.rank_vector)


def test_cuboid_sizes():
    assert len(build_cuboid(5, 3)) == 96
    q11 = build_cuboid(1, 1)
    assert q11.rk == 1 and len(q11) == 2
    assert len(build_cuboid(13, 4)) == 1 << 15  # within the host size limit


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("n", range(1, 5))
def test_cuboid_matches_generic_product(k, n):
    fast = build_cuboid(k, n)
    slow = product(build_hypercube(k), build_chain_poset(n))
    assert fast.elements == slow.elements
    assert fast.cover_set == slow.cover_set
    assert fast.rank == slow.rank
    assert fast.by_rank == slow.by_rank
    assert (fast.bottom, fast.top) == (slow.bottom, slow.top)
    for e in slow.elements:
        assert fast.up(e) == slow.up(e)
        assert fast.down(e) == slow.down(e)


@pytest.mark.parametrize("k", range(6))
def test_hypercube_matches_explicit_poset(k):
    # Reference: the explicit host built from the covers spelled out.
    elements = range(1 << k)
    covers = [(x, x | 1 << i) for x in elements for i in range(k) if not x & 1 << i]
    slow = GradedPoset(elements, covers, {x: bin(x).count("1") for x in elements})
    fast = build_hypercube(k)
    assert fast == slow
    assert fast.covers == slow.covers
    assert fast.by_rank == slow.by_rank
    assert (fast.bottom, fast.top) == (slow.bottom, slow.top)
    for x in elements:
        assert fast.up(x) == slow.up(x)
        assert fast.down(x) == slow.down(x)


def test_implicit_is_cover_rejects_non_covers():
    host = build_cuboid(3, 3)
    assert host.is_cover((0b010, 1), (0b011, 1))
    assert host.is_cover((0b010, 1), (0b010, 2))
    assert not host.is_cover((0b010, 2), (0b010, 3))  # level out of range
    assert not host.is_cover((0b111, 0), (0b1111, 0))  # bits out of range
    assert not host.is_cover((0b010, 1), (0b010, 1))  # same element
    assert not host.is_cover((0b010, 1), (0b011, 2))  # bit and level both move
    assert not host.is_cover((0b001, 1), (0b111, 1))  # two bits at once
    assert not host.is_cover((0b011, 1), (0b010, 1))  # downward
    assert not host.is_cover(2, 3) and not host.is_cover("a", (0, 0))  # non-tuples
    cube = build_hypercube(3)
    assert cube.is_cover(0b010, 0b011)
    assert not cube.is_cover(0b111, 0b1111)
    assert not cube.is_cover(0b010, 0b010)
    assert not cube.is_cover(0b001, 0b111)
    assert not cube.is_cover((0, 0), (1, 0)) and not cube.is_cover("a", 1)


def test_cuboid_chain_factor_recorded():
    host = build_cuboid(5, 3)
    base, n = host.chain_factor
    assert n == 3 and base.hypercube_k == 5


def test_element_at():
    host = build_cuboid(5, 3)
    p = int("11000", 2)
    assert element_at(host, p, 3) == (p, 1)
    assert element_at(host, 0, 0) == (0, 0)
    assert element_at(host, 0b11111, 7) == (0b11111, 2)


def test_element_at_window_rejected():
    host = build_cuboid(5, 3)
    with pytest.raises(PosetError):
        element_at(host, 0b11000, 1)  # below rk(p)
    with pytest.raises(PosetError):
        element_at(host, 0b11000, 5)  # above rk(p) + n - 1


def test_packet_grid_q4_6():
    grid = packet_grid(build_hypercube(4), 6)
    assert grid.counts[(2, 4)] == 6
    assert (0, 9) not in grid.counts
    assert grid.first_block == range(0, 4)
    assert grid.middle_block == range(4, 6)
    assert grid.last_block == range(6, 10)


def test_packet_grid_q0():
    grid = packet_grid(build_hypercube(0), 5)
    assert grid.counts == {(0, y): 1 for y in range(5)}


def test_packet_grid_q5_row3_by_enumeration():
    # Oracle: bucket rank-3 elements of P(5,3) by the rank of the bit part.
    # A packet at x=0 would need chain coordinate 3, which n=3 cannot hold,
    # so the row starts at x=1; the total matches the 25 chains any
    # decomposition of P(5,3) must have.
    host = build_cuboid(5, 3)
    oracle = {}
    for b, c in host.elements:
        if bin(b).count("1") + c == 3:
            x = bin(b).count("1")
            oracle[x] = oracle.get(x, 0) + 1
    grid = packet_grid(build_hypercube(5), 3)
    assert grid.row(3) == oracle == {1: 5, 2: 10, 3: 10}
    assert sum(oracle.values()) == 25


@pytest.mark.parametrize("k,n", [(2, 2), (3, 4), (4, 6), (0, 3)])
def test_packet_grid_row_sums_equal_product_rank_vector(k, n):
    host = build_cuboid(k, n)
    grid = packet_grid(build_hypercube(k), n)
    for y, size in enumerate(host.rank_vector):
        assert sum(grid.row(y).values()) == size


def test_packet_grid_middle_rows_identical():
    grid = packet_grid(build_hypercube(3), 7)
    rows = [grid.row(y) for y in grid.middle_block]
    assert all(r == rows[0] for r in rows)


def test_packet_members():
    host = build_cuboid(2, 3)
    pk = packet(host, 1, 2)
    assert pk.members == {(1, 1), (2, 1)}
    with pytest.raises(PosetError):
        packet(host, 1, 0)  # y < x


def test_is_rank_symmetric():
    assert is_rank_symmetric(build_hypercube(5))
    assert is_rank_symmetric(build_chain_poset(4))
    vee = GradedPoset(
        "abc", [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1}, label="vee"
    )
    assert not is_rank_symmetric(vee)


def test_construction_rejects_bad_rank_jump():
    with pytest.raises(PosetError):
        GradedPoset("abc", [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 2})


def test_construction_rejects_floating_minimal():
    with pytest.raises(PosetError):
        GradedPoset("ab", [], {"a": 0, "b": 3})


def test_construction_rejects_foreign_cover():
    with pytest.raises(PosetError):
        GradedPoset("ab", [("a", "z")], {"a": 0, "b": 1})


def test_rank_of_a_foreign_element_does_not_make_it_a_member():
    p = GradedPoset("ab", [], {"a": 0, "b": 0, "z": 5})
    assert "z" not in p and p.rank == {"a": 0, "b": 0} and p.rk == 0
    with pytest.raises(ScdError):
        validate_chain(p, ("z",))


@pytest.mark.parametrize("host, foreign", [
    (build_chain_poset(3), 3),
    (product(build_chain_poset(2), build_chain_poset(2)), (2, 0)),
    (build_hypercube(3), 8),
    (build_cuboid(2, 3), (0, 3)),
])
def test_up_and_down_reject_foreign_elements(host, foreign):
    with pytest.raises(PosetError):
        host.up(foreign)
    with pytest.raises(PosetError):
        host.down(foreign)


def test_poset_times_chain_matches_cuboid_for_hypercubes():
    assert poset_times_chain(build_hypercube(2), 3) == build_cuboid(2, 3)


def test_every_cover_raises_rank_by_one():
    for poset in [build_cuboid(3, 2), build_hypercube(4), build_chain_poset(5)]:
        for x, y in poset.covers:
            assert poset.rank[y] == poset.rank[x] + 1
        for e in poset.by_rank[0]:
            assert not poset.down(e)
