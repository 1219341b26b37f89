import hashlib
import inspect
import sys
from functools import lru_cache
from itertools import islice
from math import factorial

import pytest

from scdkit import chains, constructions, search
from scdkit.chains import validate_scd
from scdkit.data_io import serialize_scd
from scdkit.posets import (
    GradedPoset,
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    cuboid_shape,
    poset_times_chain,
    product,
)
from scdkit.search import (
    DEFAULT_NODE_BUDGET,
    SearchError,
    _Cover,
    _StopSearch,
    count_scds,
    count_search,
    enumerate_scds,
    exists_nontaut_scd,
)

from oracles import brute_force_scds, has_full_column, middle_rank_bound_holds


# The methods of an existence answer that a finished search backs.
PROOFS = ("exhaustive", "exhaustive+shift")


def generic_host(a=2, b=3, n=4):
    """(chain(a) x chain(b)) x chain(n): a chain-factor host that is no cuboid."""
    return poset_times_chain(product(build_chain_poset(a), build_chain_poset(b)), n)


def test_square_has_two_scds():
    out = enumerate_scds(build_cuboid(1, 2))
    assert len(out.found) == 2 and out.stop_reason is None


def test_chain_poset_has_one_scd():
    # chain(1500) is one row of 1500 elements, grown on the search's own
    # stack: a chain poset has no chain factor, so no map shortens it.
    for s in (1, 4, 7, 1500):
        out = enumerate_scds(build_chain_poset(s))
        assert len(out.found) == 1 and out.stop_reason is None
        assert out.found[0].chains == (tuple(range(s)),)
        assert count_search(build_chain_poset(s)).count == 1


def test_q2_has_two_scds():
    out = enumerate_scds(build_hypercube(2))
    assert len(out.found) == 2 and out.stop_reason is None


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
    assert out.stop_reason is None
    assert len(out.found) == len(oracle)
    assert {s.chain_set for s in out.found} == set(oracle)


def antichain(size):
    return GradedPoset(range(size), [], {i: 0 for i in range(size)})


def _oracle(host):
    """The oracle's decompositions; it recurses once per chain picked."""
    frames = sys.getrecursionlimit()
    sys.setrecursionlimit(max(frames, 4 * len(host)))
    try:
        return set(brute_force_scds(host))
    finally:
        sys.setrecursionlimit(frames)


@pytest.mark.parametrize("make", [
    lambda: product(build_chain_poset(3), build_hypercube(2)),
    lambda: build_hypercube(3),
    lambda: antichain(7),
], ids=["chain(3)xQ2", "Q3", "antichain(7)"])
def test_hosts_without_a_chain_factor_agree_with_the_oracle(make):
    # Without a chain factor there is no quotient, and every row weighs 1.
    host = make()
    oracle = _oracle(host)
    out = enumerate_scds(host)
    assert out.stop_reason is None and {s.chain_set for s in out.found} == oracle
    assert len(out.found) == count_search(host).count == count_scds(host)
    first = enumerate_scds(host, limit=1)
    assert first.stop_reason == "limit" and first.found[0].chain_set in oracle


def test_a_wide_antichain_is_searched_without_recursion():
    # Its one decomposition picks 1500 rows, one node each, on the search's
    # own stack: no search runs into Python's frame limit.
    host = antichain(1500)
    out = enumerate_scds(host)
    assert (len(out.found), out.stop_reason) == (1, None)
    assert {s.chain_set for s in out.found} == _oracle(host)
    assert count_search(host) == search.CountOutcome(1, 3000)


def test_every_emitted_scd_validates():
    out = enumerate_scds(build_cuboid(2, 3))
    for s in out.found:
        assert validate_scd(s.host, s).valid


def test_enumeration_is_deterministic_bitwise():
    docs1 = [serialize_scd(s) for s in enumerate_scds(build_cuboid(2, 3)).found]
    docs2 = [serialize_scd(s) for s in enumerate_scds(build_cuboid(2, 3)).found]
    assert docs1 == docs2


def test_forbid_taut_filters_everything_for_low_k():
    out = enumerate_scds(build_cuboid(2, 3), forbid_taut=True)
    assert out.stop_reason is None and not out.found


def test_forbid_taut_outputs_have_no_taut_chains():
    from scdkit.posets import poset_times_chain, product

    host = poset_times_chain(product(build_chain_poset(2), build_chain_poset(3)), 4)
    out = enumerate_scds(host, forbid_taut=True)
    assert out.stop_reason is None
    assert out.found
    for s in out.found:
        assert validate_scd(host, s).taut_count == 0


def test_forbid_taut_needs_chain_coordinate():
    with pytest.raises(SearchError):
        enumerate_scds(build_hypercube(2), forbid_taut=True)


def test_limit_stops_early():
    out = enumerate_scds(build_cuboid(2, 3), limit=5)
    assert len(out.found) == 5
    assert out.stop_reason == "limit"


@pytest.mark.parametrize("config", [
    dict(limit=0),
    dict(limit=-3),
    dict(node_budget=-1),
])
def test_rejects_nonpositive_limit_and_negative_budgets(config):
    with pytest.raises(SearchError):
        enumerate_scds(build_cuboid(2, 2), **config)


def test_node_budget_reported_distinctly():
    out = enumerate_scds(build_cuboid(2, 3), node_budget=10)
    assert out.stop_reason == "node-budget"
    assert out.nodes_visited <= 11


def test_the_node_budget_bounds_the_chains_a_quotient_discards(monkeypatch):
    # Most of P(7,20)'s maximal chains in bit order are not their orbit's
    # representative and are discarded; each one generated is a node.
    weighed = []
    weight = search._word_weight
    monkeypatch.setattr(search, "_word_weight", lambda c: weighed.append(c) or weight(c))
    out = enumerate_scds(build_cuboid(7, 20), forbid_taut=True, limit=1, node_budget=10)
    assert out.stop_reason == "node-budget"
    assert len(weighed) <= out.nodes_visited == 11


def test_the_default_budget_has_one_spelling(monkeypatch):
    # The default and the same budget spelled out are one existence query:
    # a fresh cache, so no earlier query has filled it.
    searched = []
    real = search.enumerate_scds

    def recording(host, **settings):
        searched.append(host.label)
        return real(host, **settings)

    monkeypatch.setattr(search, "enumerate_scds", recording)
    monkeypatch.setattr(search, "_taut_free_search",
                        lru_cache(maxsize=16)(search._taut_free_search.__wrapped__))
    first = exists_nontaut_scd(3, 4)
    assert exists_nontaut_scd(3, 4, node_budget=search.DEFAULT_NODE_BUDGET) == first
    assert searched == ["P(3,4)"]


def test_the_node_budget_is_the_only_bound():
    # No wall clock: every answer, a stopped one included, is deterministic.
    assert list(inspect.signature(enumerate_scds).parameters) == [
        "host", "forbid_taut", "limit", "node_budget"]
    assert list(inspect.signature(count_search).parameters) == [
        "host", "forbid_taut", "node_budget"]


def test_non_rank_symmetric_host_is_empty_exhausted():
    # No decomposition at all: a finished search, with nothing found.
    vee = GradedPoset("abc", [("a", "b"), ("a", "c")], {"a": 0, "b": 1, "c": 1})
    out = enumerate_scds(vee)
    assert (out.found, out.nodes_visited, out.stop_reason) == ((), 0, None)
    assert count_search(vee) == search.CountOutcome(0, 0, None)


def test_an_existence_witness_validates_on_the_original_host():
    # An existence query searches the quotient by bit permutations and
    # duality; its witness is a decomposition of the host itself.
    host = build_cuboid(2, 3)
    out = enumerate_scds(host, limit=1)
    assert out.found
    assert validate_scd(host, out.found[0]).valid


def test_count_scds_values():
    assert count_scds(build_cuboid(1, 1)) == 1
    assert count_scds(build_cuboid(1, 2)) == 2
    assert count_scds(build_cuboid(2, 3)) == 3 * count_scds(build_cuboid(2, 2))


def test_count_scds_guard_override():
    # P(1,n) has exactly two decompositions for n >= 2: the bit may only
    # flip at the very bottom or the very top if the leftover column is to
    # stay a single chain.
    assert count_scds(build_cuboid(1, 13)) == 2


def test_exists_desk_scale_negatives_are_search_proofs():
    # P(k, n) is searched as P(k, min(n, k+1)), which answers for every
    # taller n through shift: P(0, 1) for P(0, 3), P(1, 2) for P(1, 3) and
    # P(1, 4), and P(2, 3) for P(2, 4).
    for k, n, method in [(0, 3, "exhaustive+shift"), (1, 3, "exhaustive+shift"),
                         (1, 4, "exhaustive+shift"), (2, 3, "exhaustive"),
                         (2, 4, "exhaustive+shift")]:
        res = exists_nontaut_scd(k, n)
        searched = enumerate_scds(build_cuboid(k, k + 1), forbid_taut=True, limit=1)
        assert (res.exists, res.witness, res.method) == (False, None, method)
        assert res.method in PROOFS
        assert res.nodes_visited == searched.nodes_visited > 0


def test_exists_fast_paths():
    # k = 3, 4: P(k, n) is searched for n <= k+1, and P(k, k+1) stands for
    # every taller n, one past the host limit included: no P(k, 10**6) is
    # built.
    for k in (3, 4):
        for n in (3, 5, 9, 10**6):
            res = exists_nontaut_scd(k, n)
            assert res.exists is False and res.method in PROOFS
            assert res.method == ("exhaustive" if n <= k + 1 else "exhaustive+shift")
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
    res = exists_nontaut_scd(2, 4, node_budget=3)
    assert res.exists is None and res.method == "inconclusive"
    assert res.method not in PROOFS


def test_each_existence_search_runs_once_per_config(monkeypatch):
    # A budget of its own, so no earlier query has filled these entries;
    # a query is keyed by its budget, and each search gets its own config.
    searched = []
    real = search.enumerate_scds

    def recording(host, **settings):
        searched.append((host.label, settings))
        return real(host, **settings)

    monkeypatch.setattr(search, "enumerate_scds", recording)
    for _ in range(2):
        for n in range(3, 9):
            assert exists_nontaut_scd(3, n, node_budget=123_456).method in PROOFS
    taut_free = dict(forbid_taut=True, limit=1, node_budget=123_456)
    assert searched == [("P(3,3)", taut_free), ("P(3,4)", taut_free)]


def test_outcomes_read_as_before():
    assert repr(enumerate_scds(build_cuboid(1, 2))) == (
        "SearchOutcome(found=(SCD(P(1,2), 2 chains), SCD(P(1,2), 2 chains)), "
        "nodes_visited=9, stop_reason=None)"
    )
    assert repr(count_search(build_cuboid(1, 3))) == (
        "CountOutcome(count=2, nodes_visited=2, stop_reason=None)"
    )
    assert repr(exists_nontaut_scd(1, 4)) == (
        "ExistenceResult(exists=False, witness=None, method='exhaustive+shift', "
        "nodes_visited=1)"
    )


def test_exists_rejects_bad_arguments():
    with pytest.raises(SearchError):
        exists_nontaut_scd(-1, 3)
    with pytest.raises(SearchError):
        exists_nontaut_scd(2, 0)


def _digest(found) -> str:
    """sha256 over the found decompositions, as documents where the host is
    a cuboid and as chain tuples otherwise."""
    docs = [serialize_scd(s) if cuboid_shape(s.host) is not None
            else f"{s.chains!r}\n" for s in found]
    return hashlib.sha256("".join(docs).encode()).hexdigest()


# (found, nodes_visited, stop_reason) and the digest of the
# found decompositions of fixed searches: each must visit the same nodes in
# the same order and find the same decompositions.  Existence queries and
# forbid-taut cuboid searches run on the quotient, by bit permutations and
# duality; the others enumerate unquotiented.
PINNED_WALKS = [
    (lambda: build_cuboid(3, 3), dict(), (1488, 5182, None),
     "796718d61d3c908f083c5855621a5f5663598ed02a35c979e1f4c2133f4ffa4d"),
    (lambda: build_cuboid(2, 6), dict(), (18, 86, None),
     "429609513b987c7e66a1a4d5f5ab7b3aa9284b56650d9c1f166232f0bfff5f22"),
    (lambda: build_cuboid(3, 4), dict(forbid_taut=True), (0, 217, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(2, 3), dict(limit=1), (1, 27, "limit"),
     "473cc98297717c9da63d00621ad38dabcf0c8b6c555aacb8aa2f3eeb20822a96"),
    (lambda: build_cuboid(3, 3), dict(limit=1), (1, 96, "limit"),
     "a59abbb69936c586413e0b3e21d6aa278c419aa2f03979dd42d722df94d213ca"),
    (lambda: build_cuboid(3, 3), dict(forbid_taut=True, limit=1), (0, 95, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(2, 4), dict(node_budget=3), (0, 4, "node-budget"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (generic_host, dict(forbid_taut=True), (48, 347, None),
     "77d3e6ff96542203b49d15b91a1afce8b36ff3b7dfa8b6cde55d0c8b3f352e05"),
    (lambda: build_cuboid(4, 3), dict(forbid_taut=True), (0, 7892, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(5, 3), dict(forbid_taut=True, limit=1),
     (1, 3814, "limit"),
     "4d5fbb9810c72bd68a2a18a1c7b1610994acc345a3878d50646ae7934af463d5"),
]


@pytest.mark.parametrize("make, config, summary, digest", PINNED_WALKS, ids=[
    "P(3,3)", "P(2,6)", "P(3,4)-forbid-taut", "P(2,3)-limit-1", "P(3,3)-limit-1",
    "P(3,3)-forbid-taut-limit-1", "P(2,4)-budget", "generic-forbid-taut",
    "P(4,3)-forbid-taut", "P(5,3)-forbid-taut-limit",
])
def test_pinned_walks(make, config, summary, digest):
    out = enumerate_scds(make(), **config)
    assert (len(out.found), out.nodes_visited, out.stop_reason) == summary
    assert _digest(out.found) == digest


def test_a_chain_is_decoded_in_rank_order_not_position_order():
    # The columns are numbered in sorted order, a, b, c, which here runs
    # against the ranks: the one decomposition's chain must come out
    # bottom up, by rank.
    host = GradedPoset(["c", "b", "a"], [("c", "b"), ("b", "a")], {"c": 0, "b": 1, "a": 2})
    out = enumerate_scds(host)
    assert out.stop_reason is None and [s.chains for s in out.found] == [(("c", "b", "a"),)]
    assert validate_scd(host, out.found[0]).valid


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
    out = enumerate_scds(host, forbid_taut=True)
    taut_free = {
        s for s in brute_force_scds(host) if not any(has_full_column(ch, n) for ch in s)
    }
    assert out.stop_reason is None
    assert len(out.found) == len(taut_free)
    assert {s.chain_set for s in out.found} == taut_free
    first = enumerate_scds(host, forbid_taut=True, limit=1)
    if taut_free:
        assert first.found[0].chain_set in taut_free
    else:
        assert first.stop_reason is None and not first.found


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
    cover = _Cover(host, False, DEFAULT_NODE_BUDGET)
    solutions = [cover.decode(sol) for sol in cover.solve()]
    weights = [1 if w == w[::-1] else 2 for w in map(_maximal_word, solutions)]
    assert all(validate_scd(host, s).valid for s in solutions)
    assert len({s.chain_set for s in solutions}) == len(solutions)
    assert factorial(k) * sum(weights) == len(enumerate_scds(host).found)


# Counting: the weighted quotient count, checked against enumeration, the
# oracle, and the paper's counting identities.

def _base(p):
    """Q_p for an integer p; "axb" is chain(a) x chain(b), such as "2x3"
    of rank 3, with a unique minimum and maximum but no cuboid."""
    if isinstance(p, int):
        return build_hypercube(p)
    a, b = map(int, p.split("x"))
    return product(build_chain_poset(a), build_chain_poset(b))


def _count(p, m, **config):
    """The count of ``_base(p) x chain(m)``: of P(p, m) for an integer p."""
    out = count_search(poset_times_chain(_base(p), m), **config)
    assert out.stop_reason is None
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
    # The count on the quotient against the unquotiented enumeration.
    host = build_cuboid(k, n)
    enumerated = enumerate_scds(host, forbid_taut=forbid_taut)
    assert enumerated.stop_reason is None
    assert _count(k, n, forbid_taut=forbid_taut) == len(enumerated.found)


# P(0,3), P(1,3), P(1,4), P(2,4) and P(2,5) are counted by the paper's maps.
@pytest.mark.parametrize("k, n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 1),
                                  (0, 3), (1, 4), (2, 4), (2, 5)])
def test_the_count_matches_the_oracle(k, n):
    host = build_cuboid(k, n)
    oracle = brute_force_scds(host)
    taut_free = [s for s in oracle if not any(has_full_column(ch, n) for ch in s)]
    assert _count(k, n) == len(oracle)
    assert _count(k, n, forbid_taut=True) == len(taut_free)


@pytest.mark.parametrize("p", [1, 2, 3, "2x3"])
def test_counts_of_p_times_rk_plus_1_are_rk_plus_1_times_those_of_p_times_rk(p):
    # P has a unique minimum and maximum: the (rk+1)-to-1 surjection from
    # the decompositions of P x (rk+1) onto P x rk.
    rk = _base(p).rk
    assert _count(p, rk + 1) == (rk + 1) * _count(p, rk)


@pytest.mark.parametrize("p", [1, 2, 3, "2x3"])
def test_counts_of_p_times_m_agree_for_every_m_past_rk(p):
    # The canonical bijection between the decompositions of P x m and
    # P x (rk+1) for m >= rk+1, which keeps taut chains taut.
    rk = _base(p).rk
    for forbid_taut in (False, True):
        counts = [_count(p, m, forbid_taut=forbid_taut) for m in range(rk + 1, rk + 4)]
        assert counts == counts[:1] * 3


# The paper's maps answer every count of P x n with n >= rk+1: a count of
# every decomposition runs on P x rk, times rk+1, and a taut-free count on
# P x (rk+1).  A direct count of the host itself, on one _Cover, checks it.

MAPPED = [(k, n) for k in range(4) for n in range(1, 8)] + [
    (p, m) for p in ("2x3", "3x3") for m in range(1, 8)]


@pytest.mark.parametrize("p, m", MAPPED, ids=[f"{p}x{m}" if isinstance(p, str) else f"P({p},{m})"
                                             for p, m in MAPPED])
def test_map_based_counts_equal_direct_counts(p, m):
    host = poset_times_chain(_base(p), m)
    for forbid_taut in (False, True):
        direct = _Cover(host, forbid_taut, DEFAULT_NODE_BUDGET)
        assert _count(p, m, forbid_taut=forbid_taut) == direct.count()


def test_an_enumeration_past_rk_plus_1_is_carried_by_shift(monkeypatch):
    # P(2,6) is enumerated on P(2,3), and each of its 18 decompositions is
    # carried to P(2,6): the same decompositions, in the same order.  A
    # decoded decomposition enters shift with its report, so only shift's
    # output gate validates: once per decomposition.
    host = build_cuboid(2, 6)
    validated = []
    monkeypatch.setattr(chains, "validate_scd",
                        lambda h, scd: validated.append(h) or validate_scd(h, scd))
    out = enumerate_scds(host)
    monkeypatch.undo()
    assert validated == [host] * 18
    assert (len(out.found), out.stop_reason) == (18, None)
    assert len({s.chain_set for s in out.found}) == 18
    assert all(s.host == host and validate_scd(host, s).valid for s in out.found)
    assert _digest(out.found) == PINNED_WALKS[1][3]


def test_an_enumeration_on_a_generic_base_builds_its_host_once(monkeypatch):
    # 2x3 x 6 is enumerated on 2x3 x 4, and its 336 decompositions are
    # carried onto the host the caller built: no P x 6 is built per
    # decomposition.  They are those of a direct search of 2x3 x 6.
    built = []
    for module in (search, constructions):
        real = module.poset_times_chain
        monkeypatch.setattr(module, "poset_times_chain",
                            lambda p, n, real=real: built.append(n) or real(p, n))
    host = search.poset_times_chain(_base("2x3"), 6)
    out = enumerate_scds(host)
    monkeypatch.undo()
    assert built.count(6) == 1
    assert (len(out.found), out.stop_reason) == (336, None)
    assert all(s.host is host and s.report.valid for s in out.found)
    direct = _Cover(host, False, DEFAULT_NODE_BUDGET, quotient=False)
    assert {s.chain_set for s in out.found} == {direct.decode(s).chain_set for s in direct.solve()}


def test_the_counts_of_2x3_times_m_are_pinned():
    assert [_count("2x3", m) for m in (3, 4, 5)] == [84, 336, 336]
    assert [_count("2x3", m, forbid_taut=True) for m in (3, 4, 5)] == [11, 48, 48]


def test_the_counts_of_3x3_times_m_are_pinned():
    # Rank 4: both count identities, 20,052 * 5 = 100,260, on a second
    # product of chains.
    assert [_count("3x3", m) for m in (4, 5, 6)] == [20_052, 100_260, 100_260]
    assert [_count("3x3", m, forbid_taut=True) for m in (4, 5, 6)] == [3_368, 17_600, 17_600]


def test_the_count_of_q5_is_pinned():
    # P(4,2) is Q_5.
    assert _count(4, 2) == 235_200
    assert count_scds(build_cuboid(4, 2)) == 235_200


def test_the_taut_free_count_of_p44_is_pinned():
    # The count path's longest pinned walk: its verdict and every node.
    out = count_search(build_cuboid(4, 4), forbid_taut=True)
    assert out == search.CountOutcome(0, 75872, None)


def test_a_count_builds_no_decomposition(monkeypatch):
    def refuse(*args):
        raise AssertionError("a count built a decomposition")

    monkeypatch.setattr(search, "SCD", refuse)
    monkeypatch.setattr(search, "canonical_chain_order", refuse)
    assert _count(3, 4) == 5952


def test_counts_on_other_hosts_are_walked():
    assert count_search(generic_host(), forbid_taut=True).count == 48
    assert count_search(build_hypercube(3)).count == 6
    out = count_search(generic_host(), forbid_taut=True, node_budget=10)
    assert out == search.CountOutcome(0, 11, "node-budget")


@pytest.mark.parametrize("config", [
    dict(limit=1),
    dict(limit=2),
    dict(node_budget=-1),
])
def test_a_count_takes_no_limit_and_checks_its_config(config):
    with pytest.raises(TypeError if "limit" in config else SearchError):
        count_search(build_cuboid(2, 2), **config)


def test_a_count_stops_at_its_budgets(monkeypatch):
    # P(3,3) has 84 quotient rows without the taut test: the budget stops
    # the count in the row table or past it.
    for budget in (10, 100):
        out = count_search(build_cuboid(3, 3), node_budget=budget)
        assert out == search.CountOutcome(0, budget + 1, "node-budget")
    # count_scds refuses to answer from a stopped count: here the row table
    # has room for 50 of P(3,3)'s 84 rows.
    monkeypatch.setattr(search, "MAX_COVER_BITS", 27 * 50)
    with pytest.raises(SearchError, match="count interrupted by row-limit"):
        count_scds(build_cuboid(3, 3))


def test_a_count_stops_at_the_row_limit(monkeypatch):
    monkeypatch.setattr(search, "MAX_COVER_BITS", 32 * 100)
    out = count_search(build_cuboid(3, 4), forbid_taut=True)
    assert out == search.CountOutcome(0, 109, "row-limit")


def test_a_full_memo_only_counts_slower(monkeypatch):
    # With room for only 5 memo entries beside the row table, P(3,3) is
    # counted right, in more nodes: a count recounts each set it could not
    # record.
    host = build_cuboid(3, 3)
    unbounded = _Cover(host, False, DEFAULT_NODE_BUDGET)
    assert unbounded.count() == 1488
    monkeypatch.setattr(search, "MAX_COVER_BITS", len(host) * (len(unbounded.rows) + 5))
    cover = _Cover(host, False, DEFAULT_NODE_BUDGET)
    assert cover.count() == 1488
    assert len(cover.memo) == 5 and (cover.nodes, unbounded.nodes) == (444, 300)
    assert count_search(host) == search.CountOutcome(1488, cover.nodes)
    # The conflict cache has an allowance of its own, one bit per row for
    # each mask: 25 masks of P(3,3)'s 84 rows, which this count fills.
    assert len(cover.rows) == 84
    assert len(cover.conflicts) == cover.max_conflicts == search.MAX_COVER_BITS // 84 == 25


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_prover_finds_taut_free_witnesses_for_k5(n):
    host = build_cuboid(5, n)
    out = enumerate_scds(host, forbid_taut=True, limit=1)
    assert out.stop_reason == "limit" and len(out.found) == 1
    report = validate_scd(host, out.found[0])
    assert report.valid and report.taut_count == 0


@pytest.mark.parametrize("k, n", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_prover_agrees_with_the_middle_rank_bound(k, n):
    # The middle-rank counting condition fails for Q_3 and Q_4.  A finished
    # search agrees, and exists_nontaut_scd reports that search.
    assert not middle_rank_bound_holds(build_hypercube(k).rank_vector)
    out = enumerate_scds(build_cuboid(k, n), forbid_taut=True, limit=1)
    assert out.stop_reason is None and not out.found
    res = exists_nontaut_scd(k, n)
    assert (res.exists, res.method) == (False, "exhaustive")
    assert res.nodes_visited == out.nodes_visited


def test_the_prover_hands_its_budget_on_to_the_enumeration(monkeypatch):
    # P(5,3) has a taut-free decomposition, so an enumeration goes on in an
    # unquotiented cover after the quotient's 3814 nodes, on the same budget.
    starts = []
    init = _Cover.__init__

    def recording_init(cover, host, forbid_taut, node_budget, quotient=True, nodes=0):
        starts.append((quotient, nodes))
        init(cover, host, forbid_taut, node_budget, quotient, nodes)

    monkeypatch.setattr(_Cover, "__init__", recording_init)
    out = enumerate_scds(build_cuboid(5, 3), forbid_taut=True, limit=2, node_budget=5000)
    assert starts == [(True, 0), (False, 3814)]
    assert out.stop_reason == "node-budget"
    assert out.nodes_visited == 5001


@pytest.mark.parametrize("k", [5, 12])
def test_prover_decides_n2_at_its_first_node(k):
    # Every maximal chain of P(k, 2) is taut, so no row covers the bottom.
    out = enumerate_scds(build_cuboid(k, 2), forbid_taut=True)
    assert (out.found, out.nodes_visited, out.stop_reason) == ((), 1, None)


def test_prover_stops_at_its_row_limit(monkeypatch):
    host = build_cuboid(3, 4)  # 32 elements, 166 taut-free rows
    monkeypatch.setattr(search, "MAX_COVER_BITS", 32 * 100)
    out = enumerate_scds(host, forbid_taut=True)
    assert (out.found, out.stop_reason) == ((), "row-limit")
    # 100 rows and 8 discarded maximal chains are generated, then the
    # 101st row, which is refused.
    assert out.nodes_visited == 109


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
    shared = _Cover(host, taut_free, 50_000)
    for s in range(1, 9):
        with pytest.raises(_StopSearch) as stop:
            list(shared.solve(s, cutoff=20 if taut_free else 5))
        assert stop.value.reason == "cutoff"
    assert shared.memo and not any(shared.memo.values())
    expected = list(islice(_Cover(host, taut_free, DEFAULT_NODE_BUDGET).solve(seed), limit))
    assert expected and list(islice(shared.solve(seed), limit)) == expected


def test_restarts_cost_little_on_an_empty_host():
    # The cut-off runs of P(4,3) find nothing, but what each exhausts prunes
    # the later ones, so the whole schedule costs under 5% more nodes than
    # one uncapped canonical run.
    host = build_cuboid(4, 3)
    scheduled, alone = (_Cover(host, True, DEFAULT_NODE_BUDGET) for _ in range(2))
    assert scheduled.witness() is None and list(alone.solve()) == []
    assert scheduled.nodes < 1.05 * alone.nodes


@pytest.mark.parametrize("make, config, summary, digest", PINNED_WALKS[-2:],
                         ids=["P(4,3)-forbid-taut", "P(5,3)-forbid-taut-limit"])
def test_a_full_memo_only_prunes_less(monkeypatch, make, config, summary, digest):
    # With room for only 3 dead sets beside the row table, the pinned
    # searches give the same answers, in no fewer nodes.
    host = make()
    rows = len(_Cover(host, config["forbid_taut"], DEFAULT_NODE_BUDGET).rows)
    monkeypatch.setattr(search, "MAX_COVER_BITS", len(host) * (rows + 3))
    cover = _Cover(host, config["forbid_taut"], DEFAULT_NODE_BUDGET)
    cover.witness()
    assert list(cover.memo.values()) == [0, 0, 0]
    out = enumerate_scds(host, **config)
    found, nodes, reason = summary
    assert (len(out.found), out.stop_reason) == (found, reason)
    assert out.nodes_visited >= nodes and _digest(out.found) == digest


# The restart schedule of an existence query: seeds 1, 2, 3, ..., run i
# cut off after unit * luby(i) nodes, and no uncapped run.

def test_luby_sequence():
    assert [search._luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


# Runs per witness search, by (k, n, RESTART_NODES).
LUBY_RUNS = {(5, 4, 1000): 3, (4, 3, 1000): 6, (5, 4, 1): 5, (4, 3, 1): 109}


@pytest.mark.parametrize("k, n, restart_nodes", LUBY_RUNS, ids=[
    f"P({k},{n})-unit-{u}" for k, n, u in LUBY_RUNS])
def test_a_witness_search_runs_on_the_luby_schedule(monkeypatch, k, n, restart_nodes):
    # Run i is cut off after unit * luby(i) nodes, unit being at least
    # twice the width, until a run finds a witness or finishes.  With a
    # unit of one node most runs are cut off and hand their dead sets on:
    # one recorded from an unfinished run would lose P(5,4)'s witness or
    # prove a false "no" on P(4,3).
    monkeypatch.setattr(search, "RESTART_NODES", restart_nodes)
    runs = []
    solve = _Cover.solve

    def recording(cover, seed=None, cutoff=None):
        # Each run is recorded as it ends: cut off, finished, or closed at
        # its first solution.
        cut = False
        try:
            yield from solve(cover, seed, cutoff)
        except _StopSearch as stop:
            cut = stop.reason == "cutoff"
            raise
        finally:
            runs.append((seed, cutoff, cut))

    monkeypatch.setattr(_Cover, "solve", recording)
    host = build_cuboid(k, n)
    out = enumerate_scds(host, forbid_taut=True, limit=1)
    unit = max(restart_nodes, 2 * max(host.rank_vector))
    assert runs == [(i, unit * search._luby(i), i < len(runs)) for i in range(1, len(runs) + 1)]
    assert len(runs) == LUBY_RUNS[k, n, restart_nodes]
    if k == 4:
        assert out.stop_reason is None and not out.found
    else:
        report = validate_scd(host, out.found[0])
        assert out.stop_reason == "limit" and report.valid and report.taut_count == 0


def test_the_unit_cutoff_reaches_a_leaf_of_a_wide_host():
    # A path from the root to a leaf of antichain(1500) takes 1501 nodes,
    # so the first run, of twice the width, finds the one decomposition
    # after the 1500 rows are generated.
    out = enumerate_scds(antichain(1500), limit=1)
    assert out.stop_reason == "limit" and out.nodes_visited <= 3001


SHORT_RUNS = [(k, n) for k in range(3) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]


@pytest.mark.parametrize("k, n", SHORT_RUNS, ids=[f"P({k},{n})" for k, n in SHORT_RUNS])
def test_cut_off_runs_keep_existence_answers_exact(monkeypatch, k, n):
    # With a unit of one node, raised to twice the width, the answer and
    # the witness must still agree with the oracle.  (On these hosts that
    # unit is short enough to cut runs off only on taut-free P(3,3).)
    monkeypatch.setattr(search, "RESTART_NODES", 1)
    host = build_cuboid(k, n)
    oracle = set(brute_force_scds(host))
    for forbid_taut in (False, True):
        wanted = {s for s in oracle if not any(has_full_column(ch, n) for ch in s)} \
            if forbid_taut else oracle
        out = enumerate_scds(host, forbid_taut=forbid_taut, limit=1)
        if wanted:
            assert out.stop_reason == "limit" and out.found[0].chain_set in wanted
        else:
            assert out.stop_reason is None and not out.found

