from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdkit.chains import (
    SCD,
    ScdError,
    _diagnose,
    expected_chain_count,
    is_taut,
    necessary_conditions,
    validate_chain,
    validate_scd,
)
from scdkit.constructions import generate
from scdkit.data_io import builtin_table
from scdkit.posets import build_chain_poset, build_cuboid, build_hypercube, product
from scdkit.search import SearchConfig, enumerate_scds


def bits(s):
    return int(s, 2)


def test_validate_chain_maximal_row():
    t1 = builtin_table("P53")
    row6 = next(ch for ch in t1.chains if ch[0] == (0, 0))
    check = validate_chain(t1.host, row6)
    assert check.is_chain and check.is_symmetric
    assert [t1.host.rank[e] for e in row6] == list(range(8))


def test_validate_chain_singleton_not_symmetric():
    host = build_cuboid(5, 3)
    check = validate_chain(host, ((bits("11000"), 1),))
    assert check.is_chain and not check.is_symmetric


def test_validate_chain_middle_pair():
    host = build_cuboid(5, 3)
    ch = ((bits("11010"), 0), (bits("11010"), 1))
    check = validate_chain(host, ch)
    assert check.is_chain and check.is_symmetric
    assert [host.rank[e] for e in ch] == [3, 4]


def test_validate_chain_rejects_foreign():
    host = build_cuboid(2, 2)
    with pytest.raises(ScdError):
        validate_chain(host, ((9, 9),))


def test_is_taut_definitional_witness():
    chain = ((0, 0), (0, 1), (0, 2))
    assert is_taut(chain, 3)


def test_builtin_rows_are_not_taut():
    for tid, n in [("P53", 3), ("P54", 4), ("P55", 5)]:
        for ch in builtin_table(tid).chains:
            assert not is_taut(ch, n)


def test_maximal_chains_of_n2_are_taut():
    # In P(k,2) a maximal chain holds (p,0),(p,1) for some p: that run is
    # the whole chain factor, so the chain is taut whichever p it is.
    straight_up_first = ((0, 0), (0, 1), (1, 1), (3, 1), (7, 1))
    straight_up_last = ((0, 0), (1, 0), (3, 0), (7, 0), (7, 1))
    mid = ((0, 0), (1, 0), (1, 1), (3, 1), (7, 1))
    for ch in (straight_up_first, straight_up_last, mid):
        assert validate_chain(build_cuboid(3, 2), ch).is_chain
        assert is_taut(ch, 2)


def test_is_taut_needs_run_from_level_zero():
    # levels 1..2 at a fixed coordinate is not a full column for n = 3
    assert not is_taut(((1, 0), (1, 1), (1, 2)), 4)
    assert not is_taut(((0, 1), (0, 2)), 3)


def test_validate_scd_tables():
    for tid, count in [("P53", 25), ("P54", 30)]:
        t = builtin_table(tid)
        report = validate_scd(t.host, t)
        assert report.valid and report.chain_count == count and report.taut_count == 0


def test_validate_scd_detects_missing_chain():
    t1 = builtin_table("P53")
    report = validate_scd(t1.host, t1.chains[:-1])
    assert not report.is_partition
    assert any("2 elements" in m for m in report.messages)


def test_validate_scd_detects_duplicates_and_noncovers():
    host = build_cuboid(1, 2)
    chains = [((0, 0), (1, 0), (1, 1)), ((0, 1), (0, 1))]
    report = validate_scd(host, chains)
    assert not report.is_partition
    assert any("already used" in m for m in report.messages)
    report2 = validate_scd(host, [((0, 0), (1, 1))])
    assert any("non-cover" in m for m in report2.messages)


@pytest.mark.parametrize("chain, spelled", [
    (("x",), "['x']"),
    (((1, 0), 5), "[5]"),
], ids=["short", "no-pair"])
def test_elements_that_are_no_base_level_pair_are_reported(chain, spelled):
    # The taut test reads (base, level) pairs, so it skips such a chain.
    report = validate_scd(build_cuboid(1, 2), [chain])
    assert not report.valid and report.taut_chain_indices == ()
    assert report.messages[0] == f"chain 0: foreign elements {spelled}"


def test_expected_chain_count_by_enumeration():
    host = build_cuboid(5, 3)
    middle = sum(1 for e in host.elements if host.rank[e] == 3)
    assert expected_chain_count(host) == middle == 25

    host5 = build_cuboid(5, 5)
    middle5 = sum(1 for e in host5.elements if host5.rank[e] == 4)
    assert expected_chain_count(host5) == middle5 == 31

    assert expected_chain_count(build_chain_poset(9)) == 1


def test_expected_chain_count_rejects_asymmetric():
    from scdkit.posets import GradedPoset

    vee = GradedPoset("abc", [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1})
    with pytest.raises(ScdError):
        expected_chain_count(vee)


def test_tables_have_expected_chain_count():
    for tid in ("P53", "P54", "P55"):
        t = builtin_table(tid)
        assert t.chain_count == expected_chain_count(t.host)


def test_necessary_conditions_hypercubes():
    q4 = necessary_conditions(build_hypercube(4), for_nontaut=True)
    assert q4.rank_symmetric and q4.middle_rank_ok is False  # 6 > 1 + 4

    q5 = necessary_conditions(build_hypercube(5), for_nontaut=True)
    assert q5.middle_rank_ok is True  # 10 <= 2 * (1 + 5)

    q3 = necessary_conditions(build_hypercube(3), for_nontaut=True)
    assert q3.middle_rank_ok is False  # 3 > 2 * 1


def test_necessary_conditions_without_taut_question():
    nc = necessary_conditions(build_hypercube(4))
    assert nc.rank_symmetric and nc.middle_rank_ok is None


def test_nontaut_scd_implies_conditions_hold():
    # Observed taut-free decompositions only occur over bases passing the
    # counting conditions.
    from scdkit.constructions import generate

    for k, n in [(5, 3), (5, 7), (6, 4)]:
        scd = generate(k, n)
        report = validate_scd(scd.host, scd)
        assert report.taut_count == 0
        base = scd.host.chain_factor[0]
        nc = necessary_conditions(base, for_nontaut=True)
        assert nc.rank_symmetric and nc.middle_rank_ok


def permute_bits(scd, perm):
    """Apply a permutation of bit positions to every element of an SCD."""
    k = scd.host.chain_factor[0].hypercube_k

    def move(b):
        out = 0
        for i in range(k):
            if b & (1 << i):
                out |= 1 << perm[i]
        return out

    chains = tuple(tuple((move(b), c) for b, c in ch) for ch in scd.chains)
    return SCD(scd.host, chains)


@pytest.mark.parametrize("perm", [(1, 0, 2, 3, 4), (4, 0, 1, 2, 3), (2, 3, 4, 0, 1)])
def test_tautness_stable_under_bit_permutations(perm):
    t1 = builtin_table("P53")
    moved = permute_bits(t1, perm)
    report = validate_scd(moved.host, moved)
    assert report.valid and report.taut_count == 0


def test_taut_count_stable_under_bit_permutations():
    from scdkit.search import enumerate_scds

    host = build_cuboid(2, 2)
    for scd in enumerate_scds(host).found:
        base_taut = validate_scd(host, scd).taut_count
        moved = permute_bits(scd, (1, 0))
        report = validate_scd(host, moved)
        assert report.valid and report.taut_count == base_taut


def test_scd_equality_ignores_chain_order_and_notes():
    t1 = builtin_table("P53")
    shuffled = SCD(t1.host, tuple(reversed(t1.chains)), notes=("x",))
    assert shuffled == t1


# The verdict on a cuboid host is reached without is_cover (see the chains
# module doc); these decompositions are exact partitions into symmetric
# chains that break exactly one of the other tests it relies on.
def test_a_chain_that_skips_a_rank_is_invalid_in_an_exact_partition():
    # (0,0) < (1,1) ascends componentwise; rank 1 is covered by singletons.
    host = build_cuboid(1, 2)
    report = validate_scd(host, [((0, 0), (1, 1)), ((0, 1),), ((1, 0),)])
    assert not report.valid
    assert report.messages == ("chain 0: non-cover steps [((0, 0), (1, 1))]",)


def test_a_step_that_lowers_the_level_is_invalid_even_when_the_rank_climbs():
    host = build_cuboid(2, 2)
    chains = [
        ((0b00, 0), (0b00, 1), (0b11, 0), (0b11, 1)),  # (0,1) -> (3,0) drops a level
        ((0b01, 0), (0b01, 1)),
        ((0b10, 0), (0b10, 1)),
    ]
    report = validate_scd(host, chains)
    assert not report.valid
    assert report.messages == ("chain 0: non-cover steps [((0, 1), (3, 0))]",)


@lru_cache(maxsize=None)
def _valid_documents() -> tuple[SCD, ...]:
    """Taut-free generated decompositions, and taut-bearing ones that
    search finds on small hosts, one of them over a generic product."""
    docs = [generate(k, n) for k in (5, 6) for n in (3, 4, 5)]
    for k, n in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        docs += enumerate_scds(build_cuboid(k, n), SearchConfig(limit=4)).found
    generic = product(build_hypercube(2), build_chain_poset(3))
    docs += [SCD(generic, scd.chains) for scd in docs if scd.host.label == "P(2,3)"]
    return tuple(docs)


MUTATIONS = ("drop", "insert", "replace", "foreign", "move", "swap", "reverse")


def _mutate(data, host, chains: list[list]) -> None:
    """Apply one one-element mutation in place.  Each kind, applied once
    to a decomposition, leaves a document that is not one."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    i = data.draw(st.sampled_from([i for i, ch in enumerate(chains) if ch]))
    ch = chains[i]
    j = data.draw(st.integers(0, len(ch) - 1))
    if kind in ("swap", "reverse") and len(ch) < 2:
        kind = "drop"
    if kind == "drop":
        del ch[j]
    elif kind == "insert":
        ch.insert(data.draw(st.integers(0, len(ch))), data.draw(st.sampled_from(host.elements)))
    elif kind == "replace":
        ch[j] = data.draw(st.sampled_from([e for e in host.elements if e != ch[j]]))
    elif kind == "foreign":
        k = host.chain_factor[0].hypercube_k
        ch[j] = data.draw(st.sampled_from([(1 << k, 0), (0, host.chain_factor[1]), (0, -1)]))
    elif kind == "move":
        # into another chain, or into a new chain of its own
        target = data.draw(st.sampled_from([t for t in range(len(chains) + 1) if t != i]))
        e = ch.pop(j)
        if target == len(chains):
            chains.append([e])
        else:
            chains[target].insert(data.draw(st.integers(0, len(chains[target]))), e)
    elif kind == "swap":
        a, b = data.draw(st.lists(st.integers(0, len(ch) - 1), min_size=2, max_size=2, unique=True))
        ch[a], ch[b] = ch[b], ch[a]
    else:
        ch.reverse()


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), mutations=st.integers(0, 3))
def test_the_verdict_matches_the_diagnostic_pass(data, mutations):
    scd = data.draw(st.sampled_from(_valid_documents()))
    chains = [list(ch) for ch in scd.chains]
    for _ in range(mutations):
        _mutate(data, scd.host, chains)
    chains = tuple(tuple(ch) for ch in chains)
    report = validate_scd(scd.host, chains)
    assert report == _diagnose(scd.host, chains)
    if mutations == 0:
        assert report.valid
    if mutations == 1:
        assert not report.valid
