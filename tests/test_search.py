import hashlib

import pytest

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
    count_scds,
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
# found decompositions of fixed walks: the engine must visit the same
# nodes in the same order and find the same decompositions.
PINNED_WALKS = [
    (lambda: build_cuboid(3, 3), SearchConfig(), (1488, True, 35923, None),
     "32159449e31d046bce6ba82e59a8351a9f8409d9cf94cf187cca88ba9e3eb4cf"),
    (lambda: build_cuboid(2, 6), SearchConfig(), (18, True, 706, None),
     "1ba12ff841410ac3ca3372f863999ee4f04ab33d7d370db264bd748dee81c026"),
    (lambda: build_cuboid(3, 4), SearchConfig(forbid_taut=True), (0, True, 113084, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(2, 3), SearchConfig(limit=1, use_symmetry=True),
     (1, False, 19, "limit"),
     "1e10caff83263d41df954ade67b4516309645d2de2f0d91d1f5045428fd8cbc0"),
    (lambda: build_cuboid(3, 3), SearchConfig(limit=1, use_symmetry=True),
     (1, False, 30, "limit"),
     "d9580253da37509cf1484367ae55f1c1037310f1717476620310ce8aa0998357"),
    (lambda: build_cuboid(3, 3), SearchConfig(forbid_taut=True, limit=1, use_symmetry=True),
     (0, True, 4975, None),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: build_cuboid(2, 4), SearchConfig(node_budget=3), (0, False, 4, "node-budget"),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (generic_host, SearchConfig(forbid_taut=True), (48, True, 5328, None),
     "ff29dae7dcd97dcbcd0f1b84598afc001320c23af4d1a53eb904ad5e4c96a41c"),
]


@pytest.mark.parametrize("make, config, summary, digest", PINNED_WALKS, ids=[
    "P(3,3)", "P(2,6)", "P(3,4)-forbid-taut", "P(2,3)-symmetry", "P(3,3)-symmetry",
    "P(3,3)-forbid-taut-symmetry", "P(2,4)-budget", "generic-forbid-taut",
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
