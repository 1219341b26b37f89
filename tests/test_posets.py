import copy
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdkit import constructions, data_io, posets
from scdkit.chains import validate_scd
from scdkit.posets import (
    GradedPoset,
    _Cuboid,
    _Hypercube,
    PosetError,
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    cuboid_shape,
    is_rank_symmetric,
    packet_grid,
    poset_times_chain,
    product,
)

from interpreter import python
from oracles import diagnose_by_elements, product_rank_vector, rank_vector_by_bucketing


def test_chain_poset_degenerate():
    c = build_chain_poset(1)
    assert len(c) == 1 and c.rk == 0 and not c.covers


def test_chain_poset_small():
    c = build_chain_poset(3)
    assert len(c) == 3 and len(c.covers) == 2 and c.rk == 2
    assert c.covers == ((0, 1), (1, 2))


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
    assert repr(build_cuboid(2, 3)) == "GradedPoset(P(2,3), 12 elements, rank 4)"


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("n", range(1, 5))
def test_cuboid_matches_generic_product(k, n):
    fast = build_cuboid(k, n)
    slow = product(build_hypercube(k), build_chain_poset(n))
    assert fast.elements == slow.elements
    assert fast.covers == slow.covers
    assert all(fast.rank_of(e) == slow.rank_of(e) for e in slow.elements)
    assert fast.by_rank == slow.by_rank
    assert (fast.bottom, fast.top) == (slow.bottom, slow.top)
    for e in slow.elements:
        assert fast.up(e) == slow.up(e)
        assert fast.down(e) == slow.down(e)


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("n", range(1, 7))
def test_implicit_sizes_and_ranks_match_the_tables(k, n):
    cube, host = _Hypercube(k), _Cuboid(k, n)
    sizes = (len(cube), len(host))
    vectors = (cube.rank_vector, host.rank_vector)
    assert sizes == (len(cube.elements), len(host.elements))
    assert vectors == (tuple(map(len, cube.by_rank)), tuple(map(len, host.by_rank)))
    assert host.rank_vector == product(cube, build_chain_poset(n)).rank_vector
    assert all(host.rank_of(e) == r for r, row in enumerate(host.by_rank) for e in row)
    assert all(cube.rank_of(x) == r for r, row in enumerate(cube.by_rank) for x in row)


def test_reading_the_element_tables_of_an_implicit_host_keeps_nothing():
    # P(12,4) and Q14 have 2^14 elements each; a kept rank dict and tables
    # of them take over a megabyte.  What stays is CPython's tuple free list.
    hosts = [_Cuboid(12, 4), _Hypercube(14)]
    tracemalloc.start()
    try:
        for host in hosts:
            assert len(host.elements) == sum(map(len, host.by_rank)) == len(host)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 256 << 10


class _Pair(tuple):
    """A tuple subclass: equal to, and hashed like, the plain tuple."""


_scalars = st.one_of(
    st.integers(-2, 9), st.booleans(), st.integers(-2, 9).map(float),
    st.floats(allow_nan=False), st.text(max_size=2),
)
_hostile = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.tuples(_scalars),
    st.tuples(_scalars, _scalars),
    st.tuples(_scalars, _scalars).map(_Pair),
    st.tuples(_scalars, _scalars, _scalars),
    st.tuples(st.lists(_scalars, max_size=2), _scalars),
)
_small_hosts = [build_cuboid(k, n) for k in range(3) for n in range(1, 4)]
_small_hosts += [build_hypercube(k) for k in range(4)]


def _integral_float(e) -> bool:
    """Whether ``e`` is, or is a tuple holding, a float equal to an int."""
    return any(isinstance(x, float) and x.is_integer()
               for x in (e if isinstance(e, tuple) else (e,)))


@settings(max_examples=500, deadline=None, database=None)
@given(host=st.sampled_from(_small_hosts), e=_hostile)
def test_membership_is_the_rank_tables(host, e):
    try:
        in_table = e in set(host.elements)
    except TypeError:  # unhashable
        in_table = False
    if _integral_float(e):
        assert e not in host  # a member is a tuple of ints, or an int
    else:
        assert (e in host) == in_table


@settings(max_examples=300, deadline=None, database=None)
@given(host=st.sampled_from([*_small_hosts, product(build_hypercube(1), build_chain_poset(2))]),
       data=st.data())
def test_validate_reports_hostile_elements_and_never_raises(host, data):
    members = st.sampled_from(host.elements)
    chains = data.draw(st.lists(st.lists(st.one_of(members, _hostile), max_size=4), max_size=4))
    report = validate_scd(host, chains)
    assert report == diagnose_by_elements(host, chains)
    if any(e not in host for ch in chains for e in ch):
        assert not report.valid and any("foreign elements" in m for m in report.messages)


class _HashRaises:
    """An element whose hash raises something other than TypeError."""

    def __hash__(self):
        raise ValueError("no hash")

    def __repr__(self):
        return "_HashRaises()"


@pytest.mark.parametrize("chains, foreign", [
    ([((0, 0), (1.0, 0))], "[(1.0, 0)]"),
    ([((0, 0), ([1], 0))], "[([1], 0)]"),
    ([((0, 0), b"\x01\x00")], "[b'\\x01\\x00']"),
    ([((0, 0), (_HashRaises(), 0))], "[(_HashRaises(), 0)]"),
])
def test_hostile_elements_are_foreign(chains, foreign):
    report = validate_scd(build_cuboid(1, 1), chains)
    assert not report.valid
    assert report.messages[0] == f"chain 0: foreign elements {foreign}"


def test_an_object_that_spells_a_member_is_foreign_inside_a_saturated_chain():
    # Bytes and ranges unpack as pairs of ints, but are no tuples.
    host = build_cuboid(0, 3)
    for spelling in (b"\x00\x01", range(0, 2)):
        report = validate_scd(host, [((0, 0), spelling, (0, 2))])
        assert not report.valid
        assert report.messages[0] == f"chain 0: foreign elements {[spelling]!r}"


def test_a_chain_through_a_fractional_level_is_invalid():
    # (0, 0.5) ascends between two members and leaves room for the length.
    report = validate_scd(build_cuboid(0, 3), [((0, 0), (0, 0.5), (0, 2))])
    assert not report.valid
    assert report.messages[0] == "chain 0: foreign elements [(0, 0.5)]"


@pytest.mark.parametrize("k", range(7))
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
        # The arithmetic down against the one derived from up.
        assert fast.down(x) == GradedPoset.down(fast, x) == slow.down(x)


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



def test_is_cover_refuses_a_foreign_spelling_of_a_member():
    # (0, 1.0) == (0, 1) and 1.0 == 1, but neither is a member.
    host, cube = build_cuboid(2, 3), build_hypercube(3)
    assert host.is_cover((0, 0), (0, 1)) and cube.is_cover(0, 1)
    assert not host.is_cover((0, 0), (0, 1.0)) and not host.is_cover((0, 0), (1.0, 0))
    assert not cube.is_cover(0, 1.0)


def test_cuboid_chain_factor_recorded():
    host = build_cuboid(5, 3)
    base, n = host.chain_factor
    assert n == 3 and cuboid_shape(host) == (5, 3)


def test_cuboid_shape_names_every_hypercube_by_chain_host():
    assert cuboid_shape(build_cuboid(5, 3)) == (5, 3)
    assert cuboid_shape(product(build_hypercube(2), build_chain_poset(4))) == (2, 4)
    assert cuboid_shape(poset_times_chain(build_chain_poset(2), 3)) is None
    assert cuboid_shape(build_hypercube(3)) is None


def test_packet_grid_q4_6():
    grid = packet_grid(build_hypercube(4), 6)
    assert grid[(2, 4)] == 6
    assert (0, 9) not in grid
    assert set(grid) == {(x, y) for x in range(5) for y in range(x, x + 6)}


def test_packet_grid_q0():
    grid = packet_grid(build_hypercube(0), 5)
    assert grid == {(0, y): 1 for y in range(5)}


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
    row3 = {x: c for (x, y), c in grid.items() if y == 3}
    assert row3 == oracle == {1: 5, 2: 10, 3: 10}
    assert sum(oracle.values()) == 25


@pytest.mark.parametrize("k,n", [(2, 2), (3, 4), (4, 6), (0, 3)])
def test_packet_grid_row_sums_equal_product_rank_vector(k, n):
    host = build_cuboid(k, n)
    grid = packet_grid(build_hypercube(k), n)
    for y, size in enumerate(host.rank_vector):
        assert sum(c for (_, yy), c in grid.items() if yy == y) == size


def test_packet_grid_middle_rows_identical():
    # The middle block: total ranks rk(Q_3) = 3 .. n - 1 = 6.
    grid = packet_grid(build_hypercube(3), 7)
    rows = [{x: c for (x, yy), c in grid.items() if yy == y} for y in range(3, 7)]
    assert all(r == rows[0] for r in rows)


def test_packet_members():
    # The packet at (x, y) holds the elements (q, y - x) with q of rank x.
    host = build_cuboid(2, 3)
    grid = packet_grid(build_hypercube(2), 3)
    for (x, y), size in grid.items():
        assert size == sum(1 for q, c in host.elements if q.bit_count() == x and c == y - x)
    assert sum(grid.values()) == len(host)


def test_is_rank_symmetric():
    assert is_rank_symmetric(build_hypercube(5))
    assert is_rank_symmetric(build_chain_poset(4))
    vee = GradedPoset(
        "abc", [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1}, label="vee"
    )
    assert not is_rank_symmetric(vee)


@pytest.mark.parametrize("call, message", [
    (lambda: GradedPoset([], [], {}), "must be nonempty"),
    (lambda: GradedPoset([0], [], {}), "has no rank"),
    (lambda: build_cuboid(-1, 3), "k >= 0"),
    (lambda: build_cuboid(2, 0), "n >= 1"),
    (lambda: build_hypercube(-1), "must be nonnegative"),
    (lambda: packet_grid(build_hypercube(2), 0), "must be positive"),
], ids=["no-elements", "no-rank", "cuboid-negative-k", "cuboid-empty-chain",
        "hypercube-negative", "packet-grid-empty-chain"])
def test_poset_preconditions_are_refused(call, message):
    with pytest.raises(PosetError, match=message):
        call()


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
    assert "z" not in p and p.by_rank == (("a", "b"),) and p.rk == 0
    report = validate_scd(p, [("z",)])
    assert report.messages[0] == "chain 0: foreign elements ['z']"


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


def test_equality_reads_the_covers_as_well_as_the_elements():
    ranks = {"a": 0, "b": 0, "c": 1, "d": 1}
    straight = GradedPoset("abcd", [("a", "c"), ("b", "d")], ranks)
    assert straight == GradedPoset("abcd", [("b", "d"), ("a", "c")], ranks)
    assert straight != GradedPoset("abcd", [("a", "d"), ("b", "c")], ranks)


def test_poset_times_chain_matches_cuboid_for_hypercubes():
    assert poset_times_chain(build_hypercube(2), 3) == build_cuboid(2, 3)


def test_every_cover_raises_rank_by_one():
    for poset in [build_cuboid(3, 2), build_hypercube(4), build_chain_poset(5)]:
        for x, y in poset.covers:
            assert poset.rank_of(y) == poset.rank_of(x) + 1
        for e in poset.by_rank[0]:
            assert not poset.down(e)


# Evaluates one constructor call under an address-space limit, so that a
# poset allocated before the size check fails the test instead of
# exhausting memory.
LIMITED_CALL = """
import sys
from scdkit.posets import PosetError, build_chain_poset, build_hypercube, product
try:
    eval(sys.argv[1])
except PosetError as exc:
    sys.exit(f"error: {exc}")
"""


@pytest.mark.parametrize("call", [
    "build_chain_poset(10**7)",
    "build_chain_poset(2**20 + 1)",
    "product(build_hypercube(11), build_hypercube(10))",
    "product(build_chain_poset(3), build_hypercube(19))",
])
def test_oversized_posets_are_refused_before_allocation(call):
    proc = python(LIMITED_CALL, call, limit=1 << 28, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "over the limit" in proc.stderr


@pytest.mark.parametrize("call, fits", [
    (lambda: build_hypercube(20), True),
    (lambda: build_cuboid(17, 8), True),
    (lambda: build_hypercube(21), False),
    (lambda: build_cuboid(17, 9), False),
    (lambda: build_cuboid(20, 2), False),
    (lambda: product(build_hypercube(10), build_chain_poset(1025)), False),
    (lambda: packet_grid(build_hypercube(3), 2**18 + 1), False),
], ids=["Q20", "P(17,8)", "Q21", "P(17,9)", "P(20,2)", "Q10xchain(1025)", "packet-grid"])
def test_one_size_guard_admits_the_limit_and_nothing_over_it(call, fits):
    # Every host and the packet grid pass the same inclusive guard.
    if fits:
        assert len(call()) == posets.MAX_HOST_ELEMENTS
    else:
        with pytest.raises(PosetError, match="over the limit"):
            call()


def test_the_module_caches_are_bounded():
    # A long-lived process that builds many hosts must not keep them all.
    for cached in (build_cuboid, data_io._elements_by_spelling, data_io._spellings):
        assert cached.cache_info().maxsize is not None
    assert constructions.generate(6, 3) is not constructions.generate(6, 3)


@pytest.mark.parametrize("make", [
    lambda: GradedPoset([0, 1], [(0, 1)], {0: 0, 1: 1}),
    lambda: build_hypercube(3),
    lambda: _Cuboid(3, 3),
], ids=["table", "hypercube", "cuboid"])
@pytest.mark.parametrize("name", ["chain_factor", "rk", "label", "rank_vector"])
def test_hosts_refuse_assignment_and_deletion(make, name):
    host = make()
    before = getattr(host, name)
    with pytest.raises(AttributeError):
        setattr(host, name, 99)
    with pytest.raises(AttributeError):
        delattr(host, name)
    assert getattr(host, name) == before


def test_no_caller_can_make_a_table_poset_a_cuboid():
    host = GradedPoset([0, 1], [(0, 1)], {0: 0, 1: 1})
    with pytest.raises(AttributeError):
        host.chain_factor = (build_hypercube(1), 2)
    assert cuboid_shape(host) is None and host != build_cuboid(1, 2)


@pytest.mark.parametrize("make, known_valid", [
    (lambda: _Cuboid(3, 3), None),
    (lambda: build_hypercube(3), None),
    (lambda: product(build_chain_poset(2), build_chain_poset(3)), None),
    (lambda: constructions.generate(5, 3), True),
    (lambda: data_io.parse_scd(data_io.serialize_scd(constructions.generate(5, 3))), False),
], ids=["cuboid", "hypercube", "table", "generated", "parsed"])
@pytest.mark.parametrize("clone", [
    lambda value: pickle.loads(pickle.dumps(value)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_hosts_and_decompositions_survive_pickle_and_copy(make, known_valid, clone):
    # The protocols restore a value's slots through its one freeze, so the
    # copy is equal, of the same type, still frozen, and validated exactly
    # when the original was: generate validates, parse_scd does not.
    value = make()
    copied = clone(value)
    assert copied == value and type(copied) is type(value)
    with pytest.raises(AttributeError):
        copied.label = "copy"
    validated = getattr(value, "known_valid", None)
    assert getattr(copied, "known_valid", None) is validated is known_valid
