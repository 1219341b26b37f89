import hashlib

import pytest

from scdkit.chains import SCD, canonical_chain_order, expected_chain_count, validate_scd
from scdkit.constructions import (
    ConstructionError,
    RegionError,
    _check,
    _taut_free_p56,
    collapse,
    enumerate_matchings,
    expand,
    extend_dimension,
    generate,
    grid_scd,
    hypercube_scd,
    middle_graph,
    product_lift,
    repair,
    shift,
)
from scdkit.data_io import builtin_table, serialize_scd
from scdkit.posets import (
    build_chain_poset,
    build_cuboid,
    build_hypercube,
    poset_times_chain,
    product,
)
from scdkit.search import SearchConfig, enumerate_scds

from oracles import brute_force_scds


# -- rectangles and hypercubes ------------------------------------------------


def test_grid_scd_single_column():
    for b in (1, 2, 5):
        scd = grid_scd(1, b)
        assert scd.chain_count == 1 and len(scd.chains[0]) == b


def test_grid_scd_2x3_matches_exhaustive_oracle():
    scd = grid_scd(2, 3)
    assert scd.chain_set == frozenset(
        {((0, 0), (0, 1), (0, 2), (1, 2)), ((1, 0), (1, 1))}
    )
    # The 6-element grid has exactly two decompositions; ours is one.
    oracle = brute_force_scds(scd.host)
    assert len(oracle) == 2 and scd.chain_set in oracle


def test_grid_scd_3x3_lengths():
    scd = grid_scd(3, 3)
    assert sorted(len(ch) for ch in scd.chains) == [1, 3, 5]


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_grid_scd_shape(a, b):
    scd = grid_scd(a, b)
    report = validate_scd(scd.host, scd)
    assert report.valid
    assert scd.chain_count == min(a, b)
    assert sorted(len(ch) for ch in scd.chains) == sorted(
        a + b - 1 - 2 * i for i in range(min(a, b))
    )


def test_hypercube_scd_small():
    one = hypercube_scd(1)
    assert one.chains == ((0, 1),)
    assert hypercube_scd(4).chain_count == 6
    assert hypercube_scd(5).chain_count == 10


@pytest.mark.parametrize("k", range(9))
def test_hypercube_scd_counts_and_validity(k):
    from math import comb

    scd = hypercube_scd(k)
    assert validate_scd(scd.host, scd).valid
    assert scd.chain_count == comb(k, k // 2)


# -- product lift --------------------------------------------------------------


def test_product_lift_table1_by_q1():
    out = product_lift(builtin_table("P53"), hypercube_scd(1))
    report = validate_scd(out.host, out)
    assert report.valid and report.taut_count == 0
    assert len(out.host) == 192
    assert out.chain_count == expected_chain_count(out.host)


def test_product_lift_with_point_is_relabeling():
    t1 = builtin_table("P53")
    out = product_lift(t1, hypercube_scd(0))
    stripped = frozenset(
        tuple((b, c) for ((b, _), c) in ch) for ch in out.chains
    )
    assert stripped == t1.chain_set


def test_product_lift_table2_by_q2():
    out = product_lift(builtin_table("P54"), hypercube_scd(2))
    report = validate_scd(out.host, out)
    assert report.valid and report.taut_count == 0
    assert out.chain_count == expected_chain_count(build_cuboid(7, 4))


def test_product_lift_rejects_taut_input():
    taut_scd = enumerate_scds(build_cuboid(2, 2)).found[0]
    with pytest.raises(ConstructionError):
        product_lift(taut_scd, hypercube_scd(1))


def test_extend_dimension_identity():
    t1 = builtin_table("P53")
    assert extend_dimension(t1, 5) is t1


@pytest.mark.parametrize("tid,k2", [("P53", 6), ("P55", 8)])
def test_extend_dimension_valid(tid, k2):
    out = extend_dimension(builtin_table(tid), k2)
    n = out.host.chain_factor[1]
    assert out.host == build_cuboid(k2, n)
    report = validate_scd(out.host, out)
    assert report.valid and report.taut_count == 0
    assert out.chain_count == expected_chain_count(out.host)


def test_extend_dimension_rejects_narrowing():
    with pytest.raises(ConstructionError):
        extend_dimension(builtin_table("P53"), 4)


def test_extend_dimension_rejects_taut_input():
    taut_scd = enumerate_scds(build_cuboid(2, 2)).found[0]
    for k2 in (2, 3):  # the identity lift checks its input too
        with pytest.raises(ConstructionError):
            extend_dimension(taut_scd, k2)


@pytest.mark.parametrize("k2", [6, 7])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_extend_dimension_matches_product_lift(n, k2):
    # Reference: lift through the generic product host, then renumber
    # ((b1, b2), level) -> ((b1 << j) | b2, level) into the cuboid.
    scd = generate(5, n)
    j = k2 - 5
    lifted = product_lift(scd, hypercube_scd(j))
    host = build_cuboid(k2, n)
    chains = [tuple(((b1 << j) | b2, c) for ((b1, b2), c) in ch) for ch in lifted.chains]
    reference = SCD(host, canonical_chain_order(host, chains), scd.notes)
    assert serialize_scd(extend_dimension(scd, k2)) == serialize_scd(reference)


# -- the validation gate --------------------------------------------------------


def test_gate_requires_the_exact_taut_count():
    free = builtin_table("P53")
    taut = enumerate_scds(build_cuboid(2, 2)).found[0]
    count = validate_scd(taut.host, taut).taut_count
    assert count and _check(taut, "taut", taut_count=count).taut_count == count
    for scd, wrong in ((free, 1), (taut, count - 1), (taut, count + 1)):
        with pytest.raises(ConstructionError, match="taut chains"):
            _check(scd, "input", taut_count=wrong)


# -- shift ----------------------------------------------------------------------


def test_shift_identity():
    s = generate(5, 6)
    assert shift(s, 6) is s


def test_shift_round_trip_over_enumerated_scds():
    for s in enumerate_scds(build_cuboid(2, 3)).found:
        for m in range(4, 9):
            there = shift(s, m)
            assert validate_scd(there.host, there).valid
            assert shift(there, 3) == s


def test_shift_preserves_taut_count_exactly():
    for s in enumerate_scds(build_cuboid(2, 3)).found:
        before = validate_scd(s.host, s).taut_count
        after = validate_scd(shift(s, 7).host, shift(s, 7)).taut_count
        assert before == after


def test_shift_of_generated_is_taut_free():
    out = shift(generate(5, 6), 9)
    report = validate_scd(out.host, out)
    assert report.valid and report.taut_count == 0


def test_shift_rejects_short_chains():
    with pytest.raises(ConstructionError):
        shift(builtin_table("P53"), 8)  # n = 3 < rk + 1
    with pytest.raises(ConstructionError):
        shift(generate(5, 6), 5)  # m = 5 < rk + 1


# -- collapse / expand -----------------------------------------------------------


def test_collapse_squares_to_segment():
    all_12 = enumerate_scds(build_cuboid(1, 2)).found
    all_11 = enumerate_scds(build_cuboid(1, 1)).found
    assert len(all_12) == 2 and len(all_11) == 1
    for s in all_12:
        assert collapse(s) == all_11[0]


def test_collapse_q2_cuboids():
    for s in enumerate_scds(build_cuboid(2, 3)).found:
        down = collapse(s)
        assert validate_scd(down.host, down).valid


def test_collapse_rejects_wrong_height():
    with pytest.raises(ConstructionError):
        collapse(builtin_table("P54"))  # n = 4 != rk + 1 = 6
    with pytest.raises(ConstructionError):
        collapse(enumerate_scds(build_cuboid(2, 2)).found[0])  # n = rk, not rk + 1


def test_collapse_rejects_corrupted_input():
    s = enumerate_scds(build_cuboid(2, 3)).found[0]
    from scdkit.chains import SCD

    broken = SCD(s.host, s.chains[:-1])
    with pytest.raises(ConstructionError):
        collapse(broken)


def test_middle_graph_of_segment():
    scd = enumerate_scds(build_cuboid(1, 1)).found[0]
    graph = middle_graph(scd)
    assert graph.edges == ((0, 1),)
    assert graph.path == (0, 1)
    assert not graph.loop_vertices


def test_middle_graph_of_squares():
    for s in enumerate_scds(build_cuboid(2, 2)).found:
        graph = middle_graph(s)
        assert graph.path[0] == 0 and graph.path[-1] == 3
        assert graph.path[1] in (1, 2)
        assert len(graph.loop_vertices) == 1
        assert len(graph.edges) == 3


def test_middle_graph_single_maximal_path():
    host = poset_times_chain(product(build_chain_poset(2), build_chain_poset(3)), 3)
    for s in enumerate_scds(host, SearchConfig(limit=20)).found:
        graph = middle_graph(s)
        nonloops = [e for e in graph.edges if e[0] != e[1]]
        assert len(nonloops) == graph.base.rk


def test_enumerate_matchings_counts():
    q1 = enumerate_scds(build_cuboid(1, 1)).found[0]
    assert len(enumerate_matchings(middle_graph(q1))) == 2
    q2 = enumerate_scds(build_cuboid(2, 2)).found[0]
    assert len(enumerate_matchings(middle_graph(q2))) == 3
    t3 = builtin_table("P55")
    assert len(enumerate_matchings(middle_graph(t3))) == 6


def test_expand_segment_gives_both_squares():
    base = enumerate_scds(build_cuboid(1, 1)).found[0]
    squares = {s.chain_set for s in enumerate_scds(build_cuboid(1, 2)).found}
    lifted = {
        expand(base, f).chain_set for f in enumerate_matchings(middle_graph(base))
    }
    assert lifted == squares


def test_expand_outputs_are_pairwise_distinct():
    for s in enumerate_scds(build_cuboid(2, 2)).found:
        matchings = enumerate_matchings(middle_graph(s))
        lifts = [expand(s, f) for f in matchings]
        assert len({l.chain_set for l in lifts}) == len(matchings)
        for lift in lifts:
            assert collapse(lift) == s


def test_expand_table3_with_any_matching():
    t3 = builtin_table("P55")
    for f in enumerate_matchings(middle_graph(t3)):
        out = expand(t3, f)
        report = validate_scd(out.host, out)
        assert report.valid
        assert out.host == build_cuboid(5, 6)


# sha256 of the serialized outputs of the separate shift, collapse and
# expand loops that the restretch kernel replaced; it must keep the bytes.
EXPAND_P55_DIGESTS = (
    "d0aed0170b02a9781edbf9baec45b911288fa4beb771c04b5369a68a3c6627be",
    "ca3633da5e998014261389e53477a28dda3a98e90e00638d2c6ed927a782e22e",
    "09ecbce1e48bf5b173e837b7aeb9b8a42ccb589d932a957378cc435c1658de95",
    "9b293c3b9a0dde295b256f4514586962423884b7403e38140774c94f549d7590",
    "8621f5a948c2dcd2b6ee51c4d2e6a7513d54e07882fad9e3ff5834ef7bed9c63",
    "9c598c47fe1c2b2657a4e8795745f233d8ce1c1f6c86c7a1cd9a7860ed2f8828",
)
COLLAPSE_P56_DIGEST = "812cae5c1431a1a3caab5e53e2e20f0f2e6277f2a70fa7c247c94e19b7163bd2"
SHIFT_P56_DIGESTS = {
    7: "a8b34c403576d6b91518117646fab98c8f3c6802b87273fee028a7123ab3ca82",
    8: "6fc5dd1ec4a71e29a5e5668b498d84f669b906fee30166e989147a24e3ec216e",
    9: "a2cd0f7eed0d1e1b97299518ca917dbd776fdfcf793b2f1e09438d4f3c755ae9",
}


def _digest(scd):
    return hashlib.sha256(serialize_scd(scd).encode("ascii")).hexdigest()


def test_restretch_maps_keep_their_bytes():
    t3 = builtin_table("P55")
    matchings = enumerate_matchings(middle_graph(t3))
    assert len(matchings) == len(EXPAND_P55_DIGESTS)
    for f, expected in zip(matchings, EXPAND_P55_DIGESTS):
        up = expand(t3, f)
        assert _digest(up) == expected
        assert _digest(collapse(up)) == COLLAPSE_P56_DIGEST
    for m, expected in SHIFT_P56_DIGESTS.items():
        assert _digest(shift(generate(5, 6), m)) == expected


def test_expand_rejects_foreign_matching():
    scds = enumerate_scds(build_cuboid(2, 2)).found
    f_other = enumerate_matchings(middle_graph(scds[1]))[0]
    if f_other.edges != middle_graph(scds[0]).edges:
        with pytest.raises(ConstructionError):
            expand(scds[0], f_other)


# -- repair -----------------------------------------------------------------------


def grid23_host():
    return poset_times_chain(product(build_chain_poset(2), build_chain_poset(3)), 4)


def test_repair_noop_on_safe_input():
    t3 = builtin_table("P55")
    for f in enumerate_matchings(middle_graph(t3)):
        lifted = expand(t3, f)
        assert repair(lifted) is lifted  # these lifts are already safe


def test_repair_surgery_over_nontaut_grid_lifts():
    # P = chain(2) x chain(3): rank 3, unique min/max, max covers 2, and
    # P x 4 has taut-free decompositions reachable by exhaustive search.
    host = grid23_host()
    base = host.chain_factor[0]
    lo, hi, rk = base.bottom, base.top, base.rk
    found = enumerate_scds(host, SearchConfig(forbid_taut=True)).found
    assert len(found) == 48
    surgeries = 0
    for s in found:
        fixed = repair(s)
        surgeries += fixed != s
        report = validate_scd(fixed.host, fixed)
        assert report.valid and report.taut_count == 0
        cmax = next(ch for ch in fixed.chains if fixed.host.rank[ch[0]] == 0)
        assert (lo, rk - 1) not in cmax and (hi, 1) not in cmax
        down = collapse(fixed)
        down_report = validate_scd(down.host, down)
        assert down_report.valid and down_report.taut_count == 0
    assert surgeries == 4  # the forbidden-run cases actually get rerouted


def test_repair_rejects_narrow_maximum():
    # chain(3) as base: its maximum covers one element only.
    host = poset_times_chain(build_chain_poset(3), 3)
    scd = enumerate_scds(host, SearchConfig(limit=1)).found[0]
    with pytest.raises(ConstructionError):
        repair(scd)


def test_repair_rejects_taut_input():
    s = enumerate_scds(build_cuboid(2, 3)).found[0]  # every such SCD is taut
    with pytest.raises(ConstructionError):
        repair(s)


# -- generate ----------------------------------------------------------------------


def test_generate_returns_tables_verbatim():
    assert generate(5, 3) is builtin_table("P53")
    assert generate(5, 4) is builtin_table("P54")
    assert generate(5, 5) is builtin_table("P55")


def test_generate_5_12():
    out = generate(5, 12)
    report = validate_scd(out.host, out)
    assert report.valid and report.taut_count == 0
    assert out.chain_count == expected_chain_count(out.host)


def test_generate_rejects_outside_region():
    with pytest.raises(RegionError):
        generate(4, 7)
    with pytest.raises(RegionError):
        generate(5, 2)
    with pytest.raises(RegionError):
        generate(3, 3)


def test_generate_validates_each_decomposition_once(monkeypatch):
    calls = []

    def counted(host, scd):
        calls.append(scd)
        return validate_scd(host, scd)

    for cached in (generate, _taut_free_p56, builtin_table):
        cached.cache_clear()
    monkeypatch.setattr("scdkit.chains.validate_scd", counted)
    generate(5, 6)
    assert len(calls) == 2  # the P(5,5) certificate and its expansion
    generate(5, 7)
    assert len(calls) == 3  # the shifted output; its input is already checked
    generate(6, 7)
    assert len(calls) == 4  # the lifted output; the Q_1 chains are not checked apart


def test_generate_records_matching_choice():
    assert any(note.startswith("matching:") for note in generate(5, 6).notes)


@pytest.mark.parametrize("n", range(6, 11))
def test_generated_middle_block_is_vertical(n):
    scd = generate(5, n)
    rk = scd.host.chain_factor[0].rk
    for ch in scd.chains:
        mid = {p for (p, c) in ch if rk <= scd.host.rank[(p, c)] <= n - 1}
        assert len(mid) == 1
