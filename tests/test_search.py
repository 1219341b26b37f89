import hashlib
from math import factorial

import pytest

from scdkit import search
from scdkit.chains import validate_scd
from scdkit.data_io import serialize_scd
from scdkit.posets import (
    GradedPoset,
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    poset_times_chain,
    product,
)
from scdkit.search import (
    SearchConfig,
    SearchError,
    _Cover,
    count_scds,
    count_search,
    enumerate_scds,
    exists_nontaut_scd,
)

from oracles import brute_force_scds, has_full_column


def generic_host(a=2, b=3, n=4):
    """(chain(a) x chain(b)) x chain(n): a chain-factor host that is no cuboid."""
    return poset_times_chain(product(build_chain_poset(a), build_chain_poset(b)), n)


def test_square_has_two_scds():
    out = enumerate_scds(build_cuboid(1, 2))
    assert len(out.found) == 2 and out.exhausted


def test_chain_poset_has_one_scd():
    for s in (1, 4, 7):
        out = enumerate_scds(build_chain_poset(s))
        assert len(out.found) == 1 and out.exhausted


def test_q2_has_two_scds():
    out = enumerate_scds(build_hypercube(2))
    assert len(out.found) == 2 and out.exhausted


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_cuboid(1, 2),
        lambda: build_cuboid(1, 3),
        lambda: build_cuboid(2, 2),
        lambda: build_cuboid(2, 3),
        lambda: build_hypercube(3),
    ],
)
def test_counts_agree_with_exact_cover_oracle(make):
    host = make()
    out = enumerate_scds(host)
    oracle = brute_force_scds(host)
    assert out.exhausted
    assert len(out.found) == len(oracle)
    assert {s.chain_set for s in out.found} == set(oracle)


def test_every_emitted_scd_validates():
    out = enumerate_scds(build_cuboid(2, 3))
    for s in out.found:
        assert validate_scd(s.host, s).valid


def test_enumeration_is_deterministic_bitwise():
    docs1 = [serialize_scd(s) for s in enumerate_scds(build_cuboid(2, 3)).found]
    docs2 = [serialize_scd(s) for s in enumerate_scds(build_cuboid(2, 3)).found]
    assert docs1 == docs2


def test_forbid_taut_filters_everything_for_low_k():
    out = enumerate_scds(build_cuboid(2, 3), SearchConfig(forbid_taut=True))
    assert out.exhausted and not out.found


def test_forbid_taut_outputs_have_no_taut_chains():
    from scdkit.posets import poset_times_chain, product

    host = poset_times_chain(product(build_chain_poset(2), build_chain_poset(3)), 4)
    out = enumerate_scds(host, SearchConfig(forbid_taut=True))
    assert out.exhausted
    assert out.found
    for s in out.found:
        assert validate_scd(host, s).taut_count == 0


def test_forbid_taut_needs_chain_coordinate():
    with pytest.raises(SearchError):
        enumerate_scds(build_hypercube(2), SearchConfig(forbid_taut=True))


def test_limit_stops_early():
    out = enumerate_scds(build_cuboid(2, 3), SearchConfig(limit=5))
    assert len(out.found) == 5
    assert not out.exhausted and out.stop_reason == "limit"


@pytest.mark.parametrize("config", [
    SearchConfig(limit=0),
    SearchConfig(limit=-3),
    SearchConfig(node_budget=-1),
    SearchConfig(time_budget=-0.5),
])
def test_rejects_nonpositive_limit_and_negative_budgets(config):
    with pytest.raises(SearchError):
        enumerate_scds(build_cuboid(2, 2), config)


def test_node_budget_reported_distinctly():
    out = enumerate_scds(build_cuboid(2, 3), SearchConfig(node_budget=10))
    assert not out.exhausted and out.stop_reason == "node-budget"
    assert out.nodes_visited <= 11


def test_time_budget_reported_distinctly():
    from scdkit.posets import poset_times_chain, product

    # Needs a host whose search outlives the first periodic clock check.
    host = poset_times_chain(product(build_chain_poset(2), build_chain_poset(3)), 4)
    out = enumerate_scds(host, SearchConfig(time_budget=0.0))
    assert not out.exhausted and out.stop_reason == "time-budget"
    # The prover reads the same clock.
    out = enumerate_scds(build_cuboid(4, 3), SearchConfig(forbid_taut=True, time_budget=0.0))
    assert not out.exhausted and out.stop_reason == "time-budget"


def test_non_rank_symmetric_host_is_empty_exhausted():
    vee = GradedPoset("abc", [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1})
    out = enumerate_scds(vee)
    assert out.exhausted and not out.found and out.stop_reason == "not-rank-symmetric"


def test_use_symmetry_requires_existence_query():
    with pytest.raises(SearchError):
        enumerate_scds(build_cuboid(2, 2), SearchConfig(use_symmetry=True))


def test_use_symmetry_witness_validates_on_original_host():
    host = build_cuboid(2, 3)
    out = enumerate_scds(host, SearchConfig(limit=1, use_symmetry=True))
    assert out.found
    assert validate_scd(host, out.found[0]).valid


def test_count_scds_values():
    assert count_scds(build_cuboid(1, 1)) == 1
    assert count_scds(build_cuboid(1, 2)) == 2
    assert count_scds(build_cuboid(2, 3)) == 3 * count_scds(build_cuboid(2, 2))


def test_count_scds_guard():
    with pytest.raises(SearchError):
        count_scds(build_cuboid(2, 7))  # 28 elements > default guard


def test_count_scds_guard_override():
    # P(1,n) has exactly two decompositions for n >= 2: the bit may only
    # flip at the very bottom or the very top if the leftover column is to
    # stay a single chain.
    assert count_scds(build_cuboid(1, 13), force=True) == 2


def test_exists_desk_scale_negatives_are_search_proofs():
    for k, n in [(1, 3), (1, 4), (2, 3), (2, 4)]:
        res = exists_nontaut_scd(k, n)
        assert res.exists is False
        assert res.proof_exhaustive is True
        assert res.method == "exhaustive"
        assert res.nodes_visited > 0


def test_exists_fast_paths():
    for k in (3, 4):
        for n in (3, 5, 9):
            res = exists_nontaut_scd(k, n)
            assert res.exists is False and res.method == "middle-rank-bound"
    for k in range(9):
        res = exists_nontaut_scd(k, 2)
        assert res.exists is False and res.method == "n-rule"
        res1 = exists_nontaut_scd(k, 1)
        assert res1.exists is False and res1.method == "n-rule"


def test_exists_positive_with_validated_witness():
    res = exists_nontaut_scd(5, 3)
    assert res.exists is True and res.method == "construction"
    report = validate_scd(res.witness.host, res.witness)
    assert report.valid and report.taut_count == 0
    assert res.witness.chain_count == 25


def test_exists_inconclusive_under_tiny_budget():
    res = exists_nontaut_scd(2, 4, SearchConfig(node_budget=3))
    assert res.exists is None and res.method == "inconclusive"
    assert res.proof_exhaustive is False


def test_exists_rejects_bad_arguments():
    with pytest.raises(SearchError):
        exists_nontaut_scd(-1, 3)
    with pytest.raises(SearchError):
        exists_nontaut_scd(2, 0)


def _digest(found) -> str:
    """sha256 over the found decompositions, as documents where the host is
    a cuboid and as chain tuples otherwise."""
    docs = [serialize_scd(s) if s.host.chain_factor[0].hypercube_k is not None
            else f"{s.chains!r}\n" for s in found]
    return hashlib.sha256("".join(docs).encode()).hexdigest()


# (found, exhausted, nodes_visited, stop_reason) and the digest of the
# found decompositions of fixed searches: each engine must visit the same
# nodes in the same order and find the same decompositions.  The
# forbid-taut cuboid searches run the prover; the others run the walker.
PINNED_WALKS = [
    (lambda: build_cuboid(3, 3), SearchConfig(), (1488, True, 35923, None),
     "32159449e31d046bce6ba82e59a8351a9f8409d9cf94cf187cca88ba9e3eb4cf"),
    (lambda: build_cuboid(2, 6), SearchConfig(), (18, True, 706, None),
     "1ba12ff841410ac3ca3372f863999ee4f04ab33d7d370db264bd748dee81c026"),
    (lambda: build_cuboid(3, 4), SearchConfig(forbid_taut=True), (0, True, 209, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(2, 3), SearchConfig(limit=1, use_symmetry=True),
     (1, False, 19, "limit"),
     "1e10caff83263d41df954ade67b4516309645d2de2f0d91d1f5045428fd8cbc0"),
    (lambda: build_cuboid(3, 3), SearchConfig(limit=1, use_symmetry=True),
     (1, False, 30, "limit"),
     "d9580253da37509cf1484367ae55f1c1037310f1717476620310ce8aa0998357"),
    (lambda: build_cuboid(3, 3), SearchConfig(forbid_taut=True, limit=1, use_symmetry=True),
     (0, True, 93, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(2, 4), SearchConfig(node_budget=3), (0, False, 4, "node-budget"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (generic_host, SearchConfig(forbid_taut=True), (48, True, 5328, None),
     "ff29dae7dcd97dcbcd0f1b84598afc001320c23af4d1a53eb904ad5e4c96a41c"),
    (lambda: build_cuboid(4, 3), SearchConfig(forbid_taut=True), (0, True, 7905, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(5, 3), SearchConfig(forbid_taut=True, limit=1),
     (1, False, 3808, "limit"),
     "4d5fbb9810c72bd68a2a18a1c7b1610994acc345a3878d50646ae7934af463d5"),
]


@pytest.mark.parametrize("make, config, summary, digest", PINNED_WALKS, ids=[
    "P(3,3)", "P(2,6)", "P(3,4)-forbid-taut", "P(2,3)-symmetry", "P(3,3)-symmetry",
    "P(3,3)-forbid-taut-symmetry", "P(2,4)-budget", "generic-forbid-taut",
    "P(4,3)-forbid-taut", "P(5,3)-forbid-taut-limit",
])
def test_pinned_walks(make, config, summary, digest):
    out = enumerate_scds(make(), config)
    assert (len(out.found), out.exhausted, out.nodes_visited, out.stop_reason) == summary
    assert _digest(out.found) == digest


@pytest.mark.parametrize(
    "make",
    [lambda k=k, n=n: build_cuboid(k, n) for k in range(3) for n in range(1, 5)]
    + [generic_host, lambda: generic_host(2, 3, 3), lambda: generic_host(2, 4, 3)],
    ids=[f"P({k},{n})" for k in range(3) for n in range(1, 5)]
    + ["2x3x4", "2x3x3", "2x4x3"],
)
def test_forbid_taut_agrees_with_filtered_oracle(make):
    host = make()
    n = host.chain_factor[1]
    out = enumerate_scds(host, SearchConfig(forbid_taut=True))
    taut_free = {
        s for s in brute_force_scds(host) if not any(has_full_column(ch, n) for ch in s)
    }
    assert out.exhausted
    assert len(out.found) == len(taut_free)
    assert {s.chain_set for s in out.found} == taut_free
    first = enumerate_scds(host, SearchConfig(forbid_taut=True, limit=1))
    if taut_free:
        assert first.found[0].chain_set in taut_free
    else:
        assert first.exhausted and not first.found


def _maximal_word(scd):
    """The level (True) and bit (False) steps of the chain through the bottom."""
    chain = next(ch for ch in scd.chains if ch[0] == (0, 0))
    return tuple(b == b2 for (b, _), (b2, _) in zip(chain, chain[1:]))


@pytest.mark.parametrize("k, n", [(2, 6), (3, 3), (3, 4)])
def test_prover_quotient_weighs_up_to_the_full_count(k, n):
    # With taut chains allowed, every solution of the quotient stands for
    # k! decompositions when its maximal chain's word is a palindrome and
    # for 2 * k! otherwise (the duality reverses the word).
    host = build_cuboid(k, n)
    cover = _Cover(host, SearchConfig(), taut_free=False)
    solutions = [cover.decode(sol) for sol in cover.solve(limit=None)]
    weights = [1 if w == w[::-1] else 2 for w in map(_maximal_word, solutions)]
    assert all(validate_scd(host, s).valid for s in solutions)
    assert len({s.chain_set for s in solutions}) == len(solutions)
    assert factorial(k) * sum(weights) == len(enumerate_scds(host).found)


# Counting: the prover's weighted quotient count, checked against the
# walker, the oracle, and the paper's counting identities.

def _count(k, n, **config):
    out = count_search(build_cuboid(k, n), SearchConfig(**config))
    assert out.exhausted and out.stop_reason is None
    return out.count


# Every cuboid whose enumeration takes well under a second.
ENUMERATED = [
    (k, n, forbid_taut)
    for k, n in [(k, n) for k in range(3) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]
    for forbid_taut in (False, True)
] + [(4, n, True) for n in range(1, 4)]


@pytest.mark.parametrize("k, n, forbid_taut", ENUMERATED, ids=[
    f"P({k},{n})" + "-taut-free" * forbid_taut for k, n, forbid_taut in ENUMERATED])
def test_the_count_matches_the_walker(k, n, forbid_taut):
    host = build_cuboid(k, n)
    cfg = SearchConfig(forbid_taut=forbid_taut)
    walked = enumerate_scds(host, cfg)
    assert walked.exhausted
    assert _count(k, n, forbid_taut=forbid_taut) == len(walked.found)


@pytest.mark.parametrize("k, n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 1)])
def test_the_count_matches_the_oracle(k, n):
    host = build_cuboid(k, n)
    oracle = brute_force_scds(host)
    taut_free = [s for s in oracle if not any(has_full_column(ch, n) for ch in s)]
    assert _count(k, n) == len(oracle)
    assert _count(k, n, forbid_taut=True) == len(taut_free)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_counts_of_p_times_rk_plus_1_are_rk_plus_1_times_those_of_p_times_rk(k):
    # Q_k has a unique minimum and maximum and rank k: the (rk+1)-to-1
    # surjection from the decompositions of Q_k x (k+1) onto Q_k x k.
    assert _count(k, k + 1) == (k + 1) * _count(k, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_counts_of_p_times_m_agree_for_every_m_past_rk(k):
    # The canonical bijection between the decompositions of Q_k x m and
    # Q_k x (k+1) for m >= k+1.
    assert [_count(k, m) for m in range(k + 1, k + 4)] == [_count(k, k + 1)] * 3


def test_the_count_of_q5_is_pinned():
    # P(4,2) is Q_5; the walker takes seconds to enumerate the same number.
    assert _count(4, 2) == 235_200
    assert count_scds(build_cuboid(4, 2), force=True) == 235_200


def test_a_count_builds_no_decomposition(monkeypatch):
    def refuse(*args):
        raise AssertionError("a count built a decomposition")

    monkeypatch.setattr(search, "SCD", refuse)
    monkeypatch.setattr(search, "canonical_chain_order", refuse)
    assert _count(3, 4) == 5952


def test_counts_on_other_hosts_are_walked():
    assert count_search(generic_host(), SearchConfig(forbid_taut=True)).count == 48
    assert count_search(build_hypercube(3)).count == 6
    out = count_search(generic_host(), SearchConfig(forbid_taut=True, node_budget=10))
    assert out == search.CountOutcome(0, False, 11, "node-budget")


@pytest.mark.parametrize("config", [
    SearchConfig(limit=1),
    SearchConfig(limit=1, use_symmetry=True),
    SearchConfig(use_symmetry=True),
    SearchConfig(node_budget=-1),
])
def test_a_count_takes_no_limit_and_checks_its_config(config):
    with pytest.raises(SearchError):
        count_search(build_cuboid(2, 2), config)


def test_a_count_stops_at_its_budgets():
    # P(3,3) has 72 rows without the taut test: the budget stops the count
    # in the row table or past it.
    for budget in (10, 100):
        out = count_search(build_cuboid(3, 3), SearchConfig(node_budget=budget))
        assert out == search.CountOutcome(0, False, budget + 1, "node-budget")
    out = count_search(build_cuboid(4, 3), SearchConfig(time_budget=0.0))
    assert (out.count, out.exhausted, out.stop_reason) == (0, False, "time-budget")


def test_a_count_stops_at_the_row_limit(monkeypatch):
    monkeypatch.setattr(search, "MAX_COVER_BITS", 32 * 100)
    out = count_search(build_cuboid(3, 4), SearchConfig(forbid_taut=True))
    assert out == search.CountOutcome(0, False, 101, "row-limit")


def test_a_full_memo_only_counts_slower(monkeypatch):
    # With room for only 5 memo entries beside the row table, P(3,3) is
    # counted right, in more nodes.
    host = build_cuboid(3, 3)
    unbounded = _Cover(host, SearchConfig(), taut_free=False)
    assert unbounded.count() == 1488
    monkeypatch.setattr(search, "MAX_COVER_BITS", len(host) * (len(unbounded.rows) + 5))
    cover = _Cover(host, SearchConfig(), taut_free=False)
    assert cover.count() == 1488
    assert len(cover.memo) == 5 and cover.nodes > unbounded.nodes


@pytest.mark.parametrize("n", [3, 4, 5])
def test_prover_finds_taut_free_witnesses_for_k5(n):
    host = build_cuboid(5, n)
    out = enumerate_scds(host, SearchConfig(forbid_taut=True, limit=1))
    assert out.stop_reason == "limit" and len(out.found) == 1
    report = validate_scd(host, out.found[0])
    assert report.valid and report.taut_count == 0


@pytest.mark.parametrize("k, n", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_prover_agrees_with_the_middle_rank_bound(k, n):
    out = enumerate_scds(build_cuboid(k, n), SearchConfig(forbid_taut=True, limit=1))
    assert out.exhausted and not out.found
    res = exists_nontaut_scd(k, n)
    assert res.exists is False and res.method == "middle-rank-bound"


def test_prover_hands_its_budget_on_to_the_walker(monkeypatch):
    # P(5,3) has a taut-free decomposition, so an enumeration goes on in
    # the walker after the prover's 3808 nodes, on the same budget.
    starts = []
    place = search._Walk.place

    def recording_place(walk, r, opens, closed):
        if r == 0:
            starts.append(walk.nodes)
        place(walk, r, opens, closed)

    monkeypatch.setattr(search._Walk, "place", recording_place)
    out = enumerate_scds(build_cuboid(5, 3), SearchConfig(forbid_taut=True, limit=2, node_budget=5000))
    assert starts == [3808]
    assert not out.exhausted and out.stop_reason == "node-budget"
    assert out.nodes_visited == 5001


@pytest.mark.parametrize("k", [5, 12])
def test_prover_decides_n2_at_its_first_node(k):
    # Every maximal chain of P(k, 2) is taut, so no row covers the bottom.
    out = enumerate_scds(build_cuboid(k, 2), SearchConfig(forbid_taut=True))
    assert (out.found, out.exhausted, out.nodes_visited) == ((), True, 1)


def test_prover_stops_at_its_row_limit(monkeypatch):
    host = build_cuboid(3, 4)  # 32 elements, 166 taut-free rows
    monkeypatch.setattr(search, "MAX_COVER_BITS", 32 * 100)
    out = enumerate_scds(host, SearchConfig(forbid_taut=True))
    assert (out.found, out.exhausted, out.stop_reason) == ((), False, "row-limit")
    assert out.nodes_visited == 101  # the 101st row is generated, then refused


# The memo: sets of uncovered elements that a finished part of a run
# showed to have no solution, recorded as zeros and shared by every run on
# one _Cover.

@pytest.mark.parametrize("k, n, taut_free, seed, limit", [
    (5, 3, True, 2, 1), (5, 4, True, 6, 1), (3, 4, False, None, None),
], ids=["P(5,3)-seed-2", "P(5,4)-seed-6", "P(3,4)-canonical-all"])
def test_cut_off_runs_leave_no_false_dead_sets(k, n, taut_free, seed, limit):
    # Every seeded run is cut off early on one _Cover, then a run in the
    # order of a seed that finishes (or in canonical order) goes on with
    # their memo.  It must find what the same run finds on a fresh _Cover:
    # an unfinished subproblem recorded as dead would lose its solutions
    # (and the budget stops a run that then searches on in vain).
    host = build_cuboid(k, n)
    shared = _Cover(host, SearchConfig(node_budget=50_000), taut_free)
    for s in search.RESTART_SEEDS:
        with pytest.raises(search._StopSearch) as stop:
            shared.solve(s, cutoff=20 if taut_free else 5)
        assert stop.value.reason == "cutoff"
    assert shared.memo and not any(shared.memo.values())
    expected = _Cover(host, SearchConfig(), taut_free).solve(seed, limit=limit)
    assert expected and shared.solve(seed, limit=limit) == expected


def test_restarts_cost_little_on_an_empty_host():
    # The seeded runs of P(4,3) find nothing, but what they exhaust prunes
    # the canonical run, so the whole schedule costs under 5% more nodes
    # than the canonical run alone.
    host = build_cuboid(4, 3)
    cfg = SearchConfig(forbid_taut=True)
    scheduled, alone = _Cover(host, cfg), _Cover(host, cfg)
    assert scheduled.witness() is None and alone.solve() == []
    assert scheduled.nodes < 1.05 * alone.nodes


@pytest.mark.parametrize("make, config, summary, digest", PINNED_WALKS[-2:],
                         ids=["P(4,3)-forbid-taut", "P(5,3)-forbid-taut-limit"])
def test_a_full_memo_only_prunes_less(monkeypatch, make, config, summary, digest):
    # With room for only 3 dead sets beside the row table, the pinned
    # searches give the same answers, in no fewer nodes.
    host = make()
    monkeypatch.setattr(search, "MAX_COVER_BITS", len(host) * (len(_Cover(host, config).rows) + 3))
    cover = _Cover(host, config)
    cover.witness()
    assert list(cover.memo.values()) == [0, 0, 0]
    out = enumerate_scds(host, config)
    found, exhausted, nodes, reason = summary
    assert (len(out.found), out.exhausted, out.stop_reason) == (found, exhausted, reason)
    assert out.nodes_visited >= nodes and _digest(out.found) == digest
