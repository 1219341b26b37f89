"""Acceptance suite: one test per criterion, one pass/fail line each.

Every check here is exact (no tolerances): chain counts, element counts,
taut counts, boolean search outcomes, byte-level round trips, and the
golden grid rendering.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines as they print).
"""

import math

from scdkit.chains import validate_scd
from scdkit.constructions import (
    collapse,
    expand,
    generate,
    grid_scd,
    hypercube_scd,
    middle_graph,
    repair,
    shift,
)
from scdkit.data_io import builtin_table, render_pictorial, serialize_scd
from scdkit.posets import build_cuboid, build_hypercube
from scdkit.search import count_scds, enumerate_scds, exists_nontaut_scd

from oracles import middle_rank_size


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_table_fidelity():
    expected = {"P53": (3, 25, 96), "P54": (4, 30, 128), "P55": (5, 31, 160)}
    ok = True
    details = []
    for tid, (n, chains, elements) in expected.items():
        t = builtin_table(tid)
        report = validate_scd(t.host, t)
        total = sum(len(ch) for ch in t.chains)
        good = (
            report.valid
            and report.taut_count == 0
            and report.chain_count == chains
            and total == elements
            and t.host == build_cuboid(5, n)
        )
        ok &= good
        details.append(f"{tid}={report.chain_count}ch/{total}el/{report.taut_count}taut")
    _report("criterion 1 (table fidelity)", ok, ", ".join(details))


def test_criterion_2_negative_side_at_desk_scale():
    ok = True
    details = []

    # P(k, n) is searched for n <= k+1 and shifted from there.
    for k in range(5):
        for n in range(3, 13):
            res = exists_nontaut_scd(k, n)
            method = "exhaustive" if n <= k + 1 else "exhaustive+shift"
            ok &= res.exists is False and res.method == method
    details.append("(0..4,3..12):search-false")

    for k in range(9):
        res = exists_nontaut_scd(k, 2)
        ok &= res.exists is False and res.method == "n-rule"
    details.append("(k,2):n-rule-false")

    _report("criterion 2 (negative side)", ok, ", ".join(details))


def test_criterion_3_generation_sweep():
    ok = True
    checked = 0
    for k in range(5, 9):
        for n in range(3, 13):
            scd = generate(k, n)
            report = validate_scd(scd.host, scd)
            ok &= (
                report.valid
                and report.taut_count == 0
                and scd.chain_count == middle_rank_size(scd.host)
            )
            checked += 1
    _report(
        "criterion 3 (generation sweep)",
        ok,
        f"{checked} pairs over k=5..8, n=3..12, all valid/taut-free/exact-count",
    )


def test_criterion_4_shift_bijection():
    host = build_cuboid(2, 3)
    scds = enumerate_scds(host).found
    ok = len(scds) > 0
    for s in scds:
        doc = serialize_scd(s)
        taut = validate_scd(host, s).taut_count
        for m in range(4, 9):
            moved = shift(s, m)
            report = validate_scd(moved.host, moved)
            ok &= report.valid and report.taut_count == taut
            ok &= serialize_scd(shift(moved, 3)) == doc
    _report(
        "criterion 4 (shift bijection)",
        ok,
        f"{len(scds)} decompositions of P(2,3) x m in 4..8: valid, taut-preserving, "
        "bitwise round trip",
    )


def test_criterion_5_surjection():
    c11 = count_scds(build_cuboid(1, 1))
    c12 = count_scds(build_cuboid(1, 2))
    c22 = count_scds(build_cuboid(2, 2))
    c23 = count_scds(build_cuboid(2, 3))
    ok = c12 == 2 * c11 and c23 == 3 * c22

    fiber_sizes = set()
    for k, n_upper, expected_fiber in [(1, 2, 2), (2, 3, 3)]:
        lifts = enumerate_scds(build_cuboid(k, n_upper)).found
        downs = enumerate_scds(build_cuboid(k, n_upper - 1)).found
        fibers = {}
        for s in lifts:
            fibers.setdefault(collapse(s).chain_set, []).append(s)
        fiber_sizes |= {len(v) for v in fibers.values()}
        ok &= set(fibers) == {d.chain_set for d in downs}
        ok &= all(len(v) == expected_fiber for v in fibers.values())
        for down in downs:
            for j in range(len(middle_graph(down).path)):
                ok &= collapse(expand(down, j)) == down

    _report(
        "criterion 5 (surjection)",
        ok,
        f"counts {c12}=2*{c11}, {c23}=3*{c22}; fiber sizes {sorted(fiber_sizes)}; "
        "collapse(expand(s,f))=s everywhere",
    )


def test_criterion_6_repair():
    t3 = builtin_table("P55")
    matchings = range(len(middle_graph(t3).path))
    ok = len(matchings) == 6
    for j in matchings:
        fixed = repair(expand(t3, j))
        up_report = validate_scd(fixed.host, fixed)
        down = collapse(fixed)
        down_report = validate_scd(down.host, down)
        ok &= up_report.valid and up_report.taut_count == 0
        ok &= down_report.valid and down_report.taut_count == 0
    _report(
        "criterion 6 (repair)",
        ok,
        "all 6 matchings: repaired lift of P(5,5) is taut-free and collapses taut-free",
    )


def test_criterion_7_grid_rendering():
    expected = (
        "        1\n"
        "      4 1\n"
        "    6 4 1\n"
        "  4 6 4 1\n"
        "1 4 6 4 1\n"
        "1 4 6 4 1\n"
        "1 4 6 4\n"
        "1 4 6\n"
        "1 4\n"
        "1\n"
    )
    rendered = render_pictorial(build_hypercube(4), 6)
    normalize = lambda text: [line.rstrip() for line in text.strip("\n").splitlines()]
    ok = normalize(rendered) == normalize(expected)
    _report("criterion 7 (grid rendering)", ok, "Q_4 x 6 packet grid matches the golden layout")


def test_criterion_8_structural_invariants():
    ok = True
    for a in range(1, 13):
        for b in range(1, 13):
            scd = grid_scd(a, b)
            ok &= scd.chain_count == min(a, b)
            ok &= validate_scd(scd.host, scd).valid
    for k in range(11):
        scd = hypercube_scd(k)
        ok &= scd.chain_count == math.comb(k, k // 2)
        ok &= validate_scd(scd.host, scd).valid
    vertical_checks = 0
    for k in range(5, 9):
        for n in range(k + 1, 13):
            scd = generate(k, n)
            rk = scd.host.chain_factor[0].rk
            for ch in scd.chains:
                mid = {p for (p, c) in ch if rk <= scd.host.rank_of((p, c)) <= n - 1}
                ok &= len(mid) == 1
            vertical_checks += 1
    _report(
        "criterion 8 (structural invariants)",
        ok,
        f"grids to 12x12, hypercubes to k=10, middle-block verticality on "
        f"{vertical_checks} generated hosts",
    )
