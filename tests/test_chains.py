from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdkit import chains
from scdkit.chains import SCD, canonical_chain_order, cuboid_key, is_taut, validate_scd
from scdkit.constructions import generate
from scdkit.data_io import builtin_table
from scdkit.posets import (
    GradedPoset, _Cuboid, _Hypercube, build_chain_poset, build_cuboid, build_hypercube,
    cuboid_shape, product,
)
from scdkit.search import enumerate_scds

from oracles import (
    diagnose_by_elements, is_taut_by_definition, middle_rank_bound_holds, middle_rank_size,
    permute_scd,
)


def _chain_findings(host, chain):
    """What ``validate_scd`` reports about ``chain`` itself."""
    return [m for m in validate_scd(host, [chain]).messages if m.startswith("chain 0:")]


def test_validate_chain_maximal_row():
    t1 = builtin_table("P53")
    row6 = next(ch for ch in t1.chains if ch[0] == (0, 0))
    assert _chain_findings(t1.host, row6) == []
    assert [t1.host.rank_of(e) for e in row6] == list(range(8))


def test_validate_chain_singleton_not_symmetric():
    host = build_cuboid(5, 3)
    assert _chain_findings(host, ((0b11000, 1),)) == [
        "chain 0: spans ranks 3..3, not symmetric about 7/2"]


def test_validate_chain_middle_pair():
    host = build_cuboid(5, 3)
    ch = ((0b11010, 0), (0b11010, 1))
    assert _chain_findings(host, ch) == []
    assert [host.rank_of(e) for e in ch] == [3, 4]


def test_validate_chain_rejects_foreign():
    host = build_cuboid(2, 2)
    assert _chain_findings(host, ((9, 9),)) == ["chain 0: foreign elements [(9, 9)]"]


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
    host = build_cuboid(3, 2)
    for ch in (straight_up_first, straight_up_last, mid):
        assert all(host.is_cover(a, b) for a, b in zip(ch, ch[1:]))
        assert is_taut(ch, 2)


def test_is_taut_needs_run_from_level_zero():
    # levels 1..2 at a fixed coordinate is not a full column for n = 3
    assert not is_taut(((1, 0), (1, 1), (1, 2)), 4)
    assert not is_taut(((0, 1), (0, 2)), 3)


_pair = st.tuples(st.integers(0, 2), st.integers(0, 4))


@settings(max_examples=500, deadline=None, database=None)
@given(head=st.lists(_pair, max_size=4), run=st.tuples(st.integers(0, 2), st.integers(0, 5)),
       tail=st.lists(_pair, max_size=4), n=st.integers(1, 5))
def test_is_taut_agrees_with_the_definition(head, run, tail, n):
    # A planted run (p,0) .. (p,len-1) between random pairs: full for
    # len >= n, one short or cut off by the tail otherwise.
    p, length = run
    chain = head + [(p, c) for c in range(length)] + tail
    assert is_taut(chain, n) == is_taut_by_definition(chain, n)


def test_validate_scd_tables():
    for tid, count in [("P53", 25), ("P54", 30)]:
        t = builtin_table(tid)
        report = validate_scd(t.host, t)
        assert report.valid and report.chain_count == count and report.taut_count == 0


def test_validate_scd_detects_missing_chain():
    t1 = builtin_table("P53")
    report = validate_scd(t1.host, t1.chains[:-1])
    assert not report.valid
    assert any("2 elements" in m for m in report.messages)


def test_validate_scd_detects_duplicates_and_noncovers():
    host = build_cuboid(1, 2)
    chains = [((0, 0), (1, 0), (1, 1)), ((0, 1), (0, 1))]
    report = validate_scd(host, chains)
    assert not report.valid
    assert any("already used" in m for m in report.messages)
    report2 = validate_scd(host, [((0, 0), (1, 1))])
    assert not report2.valid
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
    # Every chain of a decomposition crosses the middle rank once.
    host = build_cuboid(5, 3)
    assert middle_rank_size(host) == host.rank_vector[3] == generate(5, 3).chain_count == 25
    host5 = build_cuboid(5, 5)
    assert middle_rank_size(host5) == host5.rank_vector[4] == generate(5, 5).chain_count == 31
    assert middle_rank_size(build_chain_poset(9)) == 1


def test_tables_have_expected_chain_count():
    for tid in ("P53", "P54", "P55"):
        t = builtin_table(tid)
        assert t.chain_count == middle_rank_size(t.host)


def test_nontaut_scd_implies_conditions_hold():
    # Taut-free decompositions only occur over bases that pass the
    # middle-rank counting condition.
    for k, n in [(5, 3), (5, 7), (6, 4)]:
        scd = generate(k, n)
        assert scd.report.taut_count == 0
        assert middle_rank_bound_holds(scd.host.chain_factor[0].rank_vector)


@pytest.mark.parametrize("perm", [(1, 0, 2, 3, 4), (4, 0, 1, 2, 3), (2, 3, 4, 0, 1)])
def test_tautness_stable_under_bit_permutations(perm):
    t1 = builtin_table("P53")
    moved = permute_scd(t1, perm)
    report = validate_scd(moved.host, moved)
    assert report.valid and report.taut_count == 0


def test_taut_count_stable_under_bit_permutations():
    from scdkit.search import enumerate_scds

    host = build_cuboid(2, 2)
    for scd in enumerate_scds(host).found:
        base_taut = validate_scd(host, scd).taut_count
        moved = permute_scd(scd, (1, 0))
        report = validate_scd(host, moved)
        assert report.valid and report.taut_count == base_taut


def test_scd_equality_ignores_chain_order_and_notes():
    t1 = builtin_table("P53")
    shuffled = SCD(t1.host, tuple(reversed(t1.chains)), notes=("x",))
    assert shuffled == t1


def test_decompositions_of_equal_cuboids_compare_without_tables(monkeypatch):
    a, b = generate(6, 3), generate(6, 3)
    fresh = SCD(_Cuboid(6, 3), b.chains, b.notes)
    generic = SCD(product(build_hypercube(6), build_chain_poset(3)), tuple(reversed(b.chains)))
    other = generate(6, 4)

    def refuse(host):
        raise AssertionError(f"{host.label} read an element table")

    for cls in (_Hypercube, _Cuboid):
        monkeypatch.setattr(cls, "elements", property(refuse))
        monkeypatch.setattr(cls, "by_rank", property(refuse))
    assert a is not b and a == b
    assert a == fresh == generic and fresh.host is not a.host
    assert a.host == generic.host == fresh.host
    assert a != SCD(a.host, a.chains[1:]) and a != other


def test_decompositions_over_hosts_with_different_covers_are_unequal():
    square = product(build_chain_poset(2), build_chain_poset(2))
    rank = {e: square.rank_of(e) for e in square.elements}
    fewer = GradedPoset(square.elements, square.covers[:-1], rank)
    assert fewer.elements == square.elements and len(fewer.covers) == 3
    picked = (((0, 0), (0, 1), (1, 1)), ((1, 0),))
    a, b = SCD(square, picked), SCD(fewer, picked)
    assert a.report.valid and b.report.valid
    assert a.host != b.host and a != b


@pytest.mark.parametrize("name", ["host", "chains", "notes"])
def test_an_scd_cannot_be_changed(name):
    scd = builtin_table("P53")
    value = getattr(scd, name)
    with pytest.raises(AttributeError):
        setattr(scd, name, ())
    with pytest.raises(AttributeError):
        delattr(scd, name)
    assert getattr(scd, name) is value


def test_a_report_is_computed_once_and_passed_on_to_noted_copies(monkeypatch):
    calls = []

    def counting(host, scd):
        calls.append(scd)
        return validate_scd(host, scd)

    monkeypatch.setattr(chains, "validate_scd", counting)
    t1 = builtin_table("P53")
    scd = SCD(t1.host, t1.chains)
    early = scd.with_notes("before")
    assert not scd.known_valid and not early.known_valid and calls == []
    report = scd.report
    assert scd.report is report and calls == [scd]
    noted = scd.with_notes("after")
    assert noted.known_valid and noted.report is report and noted.notes == ("after",)
    assert calls == [scd] and not early.known_valid


def test_a_report_reads_as_before():
    report = validate_scd(build_cuboid(1, 2), [((0, 0), (0, 1), (1, 1)), ((1, 0),)])
    assert repr(report) == (
        "ValidationReport(taut_chain_indices=(0,), chain_count=2, messages=())"
    )


# A chain of a cuboid host that climbs is judged without is_cover (see the
# chains module doc); these decompositions are exact partitions into symmetric
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


# Exact counts of symmetric chains that ascend, each missing one member for
# an element just out of range or for a repeat; the messages are those of
# the checks element by element, with every step checked by is_cover.
@pytest.mark.parametrize("k, n, chains, messages", [
    (1, 2, [((1, -1), (1, 0), (1, 1)), ((0, 1),)],
     ("chain 0: foreign elements [(1, -1)]", "3 elements of P(1,2) uncovered")),
    (1, 1, [((0, 0), (2, 0))],
     ("chain 0: foreign elements [(2, 0)]", "2 elements of P(1,1) uncovered")),
    (1, 2, [((0, 0), (0, 1), (1, 1)), ((-2, 0),)],
     ("chain 1: foreign elements [(-2, 0)]", "1 elements of P(1,2) uncovered")),
    (2, 1, [((0, 0), (0, 0), (3, 0)), ((1, 0),), ((2, 0),)],
     ("chain 0: non-cover steps [((0, 0), (0, 0)), ((0, 0), (3, 0))]",
      "chain 0: (0, 0) already used by chain 0")),
], ids=["level-below-0", "bits-above-range", "negative-bits", "repeat"])
def test_partitions_by_count_alone_are_caught(k, n, chains, messages):
    report = validate_scd(build_cuboid(k, n), chains)
    assert not report.valid and report.messages == messages


@lru_cache(maxsize=None)
def _valid_documents() -> tuple[SCD, ...]:
    """Taut-free generated decompositions, and taut-bearing ones that
    search finds on small hosts, one of them over a generic product."""
    docs = [generate(k, n) for k in (5, 6) for n in (3, 4, 5)]
    for k, n in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        docs += enumerate_scds(build_cuboid(k, n), limit=4).found
    generic = product(build_hypercube(2), build_chain_poset(3))
    docs += [SCD(generic, scd.chains) for scd in docs if scd.host.label == "P(2,3)"]
    return tuple(docs)


# "cross" swaps two elements of different ranks between two chains, as the
# benchmark's mutated documents do: the elements stay distinct members.
# "empty" inserts an empty chain.
MUTATIONS = ("drop", "insert", "replace", "foreign", "move", "swap", "reverse", "cross", "empty")


def _mutate(data, host, chains: list[list]) -> None:
    """Apply one one-element mutation in place.  Each kind, applied once
    to a decomposition, leaves a document that is not one."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    i = data.draw(st.sampled_from([i for i, ch in enumerate(chains) if ch]))
    ch = chains[i]
    j = data.draw(st.integers(0, len(ch) - 1))
    if kind in ("swap", "reverse") and len(ch) < 2:
        kind = "drop"
    if kind == "cross":  # between members only: a generic host ranks no other element
        rank = host.rank_of
        others = [(t, u) for t, other in enumerate(chains) if t != i
                  for u, e in enumerate(other)
                  if e in host and rank(e) != rank(ch[j])] if ch[j] in host else []
        if not others:
            kind = "drop"
    if kind == "drop":
        del ch[j]
    elif kind == "insert":
        ch.insert(data.draw(st.integers(0, len(ch))), data.draw(st.sampled_from(host.elements)))
    elif kind == "replace":
        ch[j] = data.draw(st.sampled_from([e for e in host.elements if e != ch[j]]))
    elif kind == "foreign":
        k, _ = cuboid_shape(host)
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
    elif kind == "cross":
        t, u = data.draw(st.sampled_from(others))
        ch[j], chains[t][u] = chains[t][u], ch[j]
    elif kind == "empty":
        chains.insert(data.draw(st.integers(0, len(chains))), [])
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
    assert report == diagnose_by_elements(scd.host, chains)
    if mutations == 0:
        assert report.valid
    if mutations == 1:
        assert not report.valid


def test_is_cover_runs_only_on_the_chains_that_fail_the_saturation_test(monkeypatch):
    # A cross-chain swap of two elements of different ranks breaks the two
    # chains it touches, and a dropped element the chain it leaves; every
    # other chain climbs, so none of its steps is asked for a cover.
    scd = generate(6, 4)
    swapped = [list(ch) for ch in scd.chains]
    swapped[0][0], swapped[1][1] = swapped[1][1], swapped[0][0]
    longest = max(range(scd.chain_count), key=lambda i: len(scd.chains[i]))
    dropped = [list(ch) for ch in scd.chains]
    del dropped[longest][len(dropped[longest]) // 2]
    cases = [(tuple(map(tuple, swapped)), (0, 1)), (tuple(map(tuple, dropped)), (longest,))]
    expected = [diagnose_by_elements(scd.host, mutant) for mutant, _ in cases]
    asked = []
    is_cover = GradedPoset.is_cover

    def counting(host, a, b):
        asked.append((a, b))
        return is_cover(host, a, b)

    monkeypatch.setattr(GradedPoset, "is_cover", counting)
    for (mutant, broken), report in zip(cases, expected):
        asked.clear()
        assert validate_scd(scd.host, mutant) == report and not report.valid
        assert asked == [step for i in broken for step in zip(mutant[i], mutant[i][1:])]


@pytest.mark.parametrize("make", [lambda: builtin_table("P53"), lambda: build_cuboid(2, 3)],
                         ids=["SCD", "GradedPoset"])
def test_a_value_of_another_type_is_unequal(make):
    value = make()
    assert value != 1 and not value == 1


@pytest.mark.parametrize("k, n", [(0, 1), (1, 3), (3, 2), (4, 5)])
def test_cuboid_order_orders_elements_as_the_canonical_key_does(k, n):
    # Every element of a small cuboid, as the bottom of a one-element
    # chain, in a scrambled order: the packed key sorts them as
    # canonical_chain_order's (rank, element) key does.
    host = build_cuboid(k, n)
    elements = sorted(host.elements, key=lambda e: (e[1], -e[0]))
    want = sorted(elements, key=lambda e: (host.rank_of(e), e))
    assert sorted(elements, key=lambda e: cuboid_key(*e, k, n)) == want
    assert canonical_chain_order(host, [(e,) for e in elements]) == tuple((e,) for e in want)
