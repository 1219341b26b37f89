import contextlib
import io
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scdkit import cli, data_io, posets
from scdkit.chains import SCD, validate_scd
from scdkit.constructions import generate
from scdkit.data_io import (
    COMPACT_LEVEL_LIMIT,
    ParseError,
    _token_memo,
    builtin_table,
    parse_scd,
    render_pictorial,
    serialize_scd,
)
from scdkit.posets import build_cuboid, build_hypercube
from scdkit.tables import BUILTIN_TABLES

from oracles import permute_scd

GOLDEN_GRID_Q4_6 = """\
        1
      4 1
    6 4 1
  4 6 4 1
1 4 6 4 1
1 4 6 4 1
1 4 6 4
1 4 6
1 4
1
"""


def test_builtin_p53_shape():
    t = builtin_table("P53")
    assert t.chain_count == 25
    assert sum(len(ch) for ch in t.chains) == 96


def test_builtin_p54_singleton_row():
    t = builtin_table("P54")
    assert t.chain_count == 30
    singletons = [ch for ch in t.chains if len(ch) == 1]
    assert ((int("01110", 2), 1),) in singletons  # the "011101" one-element chain


def test_builtin_p55_maximal_row():
    t = builtin_table("P55")
    assert t.chain_count == 31
    maximal = [ch for ch in t.chains if len(ch) == 10]
    assert len(maximal) == 1 and maximal[0][0] == (0, 0)


def test_builtin_unknown_id():
    with pytest.raises(ParseError):
        builtin_table("P99")


def test_serialize_parse_round_trip_tables():
    for tid in ("P53", "P54", "P55"):
        t = builtin_table(tid)
        assert parse_scd(serialize_scd(t)) == t


def test_serialized_tokens_match_shipped_text():
    # Chain order and every token survive the SCD round trip unchanged.
    for tid, (k, n, raw) in BUILTIN_TABLES.items():
        doc = serialize_scd(builtin_table(tid))
        body = [ln for ln in doc.splitlines() if ln and not ln.startswith("#")][1:]
        assert [ln.split() for ln in body] == [ln.split() for ln in raw.splitlines()]


def test_round_trip_general_form():
    wide = generate(5, 12)
    doc = serialize_scd(wide)
    assert ";" in doc.splitlines()[-1]
    assert parse_scd(doc) == wide


def test_parse_single_taut_chain():
    scd = parse_scd("000000 000001 000002", 5, 3)
    assert scd.chain_count == 1
    report = validate_scd(scd.host, scd)
    assert report.taut_chain_indices == (0,)
    assert not report.is_partition  # one chain cannot cover P(5,3)


def test_parse_rejects_bad_tokens():
    with pytest.raises(ParseError):
        parse_scd("00000A", 5, 3)
    with pytest.raises(ParseError):
        parse_scd("0000000", 5, 3)  # too many digits
    with pytest.raises(ParseError):
        parse_scd("000005", 5, 3)  # level beyond the chain
    with pytest.raises(ParseError):
        parse_scd("1,1;0 1,0;0", 3, 2)  # wrong bit count
    with pytest.raises(ParseError):
        parse_scd("000000 000001", 5, 12)  # compact form refused for n > 10


@pytest.mark.parametrize("text, token", [
    ("1 3\n0\u00b2 1\u00b2", "0\u00b2"),  # superscript two passes str.isdigit()
    ("1 3\n0;\u00b2", "0;\u00b2"),
    ("\u00b2 3\n00", "\u00b2 3"),
    ("1 12\n0;\u0663", "0;\u0663"),  # Arabic-Indic three: int() reads it as 3
])
def test_parse_requires_ascii_digits(text, token):
    with pytest.raises(ParseError, match=repr(token)):
        parse_scd(text)


def test_parse_requires_header_without_dimensions():
    with pytest.raises(ParseError):
        parse_scd("000000 000001")
    scd = parse_scd("# comment\n2 2\n000 100 110 111\n".replace("000 100 110 111", "000"))
    assert scd.host == build_cuboid(2, 2)


def test_parse_normalizes_descending_chains():
    up = parse_scd("000 100 110 111", 2, 2)
    down = parse_scd("111 110 100 000", 2, 2)
    assert up.chains == down.chains


def test_parse_flips_only_lines_whose_ranks_never_rise():
    # ranks 1, 1: never rise, so flipped; ranks 2, 0, 1: left as written
    assert parse_scd("010 100\n110 000 100", 2, 2).chains == (
        ((0b10, 0), (0b01, 0)),
        ((0b11, 0), (0b00, 0), (0b10, 0)),
    )


@pytest.mark.parametrize("text", [
    "1" * 5000 + " 3\n0",  # more digits than Python's int() converts
    "1 3\n0;1" + "0" * 5000,
    "12345678 3\n",
    "1 12\n0;10000000",
])
def test_over_long_numbers_are_parse_errors(text):
    with pytest.raises(ParseError, match="significant digits"):
        parse_scd(text)


def test_leading_zeros_do_not_count_toward_the_digit_bound():
    assert parse_scd("1 3\n0;" + "0" * 5000).chains == (((0, 0),),)


def test_parse_strict_duplicates():
    text = "000000 100000\n000000 010000"
    scd = parse_scd(text, 5, 3)  # lax: left for the validator
    assert any("already used" in message for message in scd.report.messages)


def test_builtin_table_rejects_repeated_elements(monkeypatch):
    monkeypatch.setitem(BUILTIN_TABLES, "PDUP", (5, 3, "000000 100000\n000000 010000"))
    with pytest.raises(ParseError, match="failed validation"):
        builtin_table("PDUP")


def test_serialize_requires_cuboid_host():
    from scdkit.constructions import grid_scd

    with pytest.raises(ParseError):
        serialize_scd(grid_scd(2, 3))


# Each is foreign to P(k, n): a negative or too large bit pattern or
# level, a float equal to a member's int, or no tuple though it unpacks
# as the member (0, 0).
def _foreign(k, n):
    return [(-1, 0), (1 << k, 0), (0, n), (0, -1), (1.0, 0), (0, 1.0), [0, 0], b"\0\0"]


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("n", [4, 12], ids=["compact", "general"])
@pytest.mark.parametrize("where", ["alone", "between", "reported"])
def test_a_foreign_element_is_never_spelled_as_a_member(k, n, where):
    host = build_cuboid(k, n)
    for e in _foreign(k, n):
        assert e not in host
        chain = (e,) if where == "alone" else ((0, 0), e, (0, n - 1))
        scd = SCD(host, (chain,))
        if where == "reported":
            assert not scd.report.valid
        try:
            text = serialize_scd(scd)
        except ParseError as exc:
            assert repr(e) in str(exc)
            continue
        with pytest.raises(ParseError):  # written, but no member's token
            parse_scd(text)


@pytest.mark.parametrize("n", [4, 12], ids=["compact", "general"])
def test_a_bool_is_spelled_as_the_member_it_equals(n):
    host = build_cuboid(3, n)
    scd = SCD(host, (((False, False), (True, False), (True, True)),))
    assert parse_scd(serialize_scd(scd)).chains == (((0, 0), (1, 0), (1, 1)),)


def test_render_q4_6_matches_golden_grid():
    assert render_pictorial(build_hypercube(4), 6) == GOLDEN_GRID_Q4_6


def test_render_q0():
    assert render_pictorial(build_hypercube(0), 3) == "1\n1\n1\n"


def test_render_q5_3_against_grid():
    from scdkit.posets import packet_grid

    text = render_pictorial(build_hypercube(5), 3)
    lines = text.splitlines()
    assert len(lines) == 8  # ranks 7 down to 0
    grid = packet_grid(build_hypercube(5), 3)
    width = 2  # widest count is 10
    for y, line in zip(range(7, -1, -1), lines):
        padded = line.ljust(6 * width + 5)
        row = {}
        for x in range(6):
            cell = padded[x * (width + 1): x * (width + 1) + width].strip()
            if cell:
                row[x] = int(cell)
        assert row == {x: c for (x, yy), c in grid.items() if yy == y}
    assert lines[0].strip() == "1"  # single packet at x=5 on top
    assert lines[-1].strip() == "1"  # single packet at x=0 on the bottom


def test_notes_survive_serialization_as_comments():
    scd = builtin_table("P53").with_notes("extra: check")
    doc = serialize_scd(scd)
    assert "# note: extra: check" in doc.splitlines()


# -- the per-host token memo -------------------------------------------------


@pytest.mark.parametrize("k, n, canonical, spellings", [
    (2, 3, "101", ["1,0;1", "1,0;01", "1,0;001"]),
    (5, 6, "110102", ["1,1,0,1,0;2", "1,1,0,1,0;02"]),
    (0, 4, "3", [";3", ";03"]),
])
def test_every_spelling_parses_to_the_canonical_element(k, n, canonical, spellings):
    element = (int(canonical[:k] or "0", 2), int(canonical[k:]))
    for order in (1, -1):  # warm the memo with either spelling first
        _token_memo(k, n).clear()
        for token in ([canonical] + spellings)[::order]:
            assert parse_scd(token, k, n).chains == ((element,),)
            assert parse_scd(f"{k} {n}\n{token}").chains == ((element,),)


@pytest.mark.parametrize("token, k, n", [
    ("000005", 5, 3),  # accepted by P(5,6) below: the memo is per host
    ("00000A", 5, 3),
    ("0;\u0663", 1, 12),
    ("1,1;0", 3, 2),
])
def test_a_rejected_token_is_never_recorded(token, k, n):
    assert parse_scd("000005", 5, 6).chains == (((0, 5),),)
    for _ in range(2):
        with pytest.raises(ParseError):
            parse_scd(token, k, n)
        assert token not in _token_memo(k, n)


def test_the_memo_stops_at_the_host_size():
    host = build_cuboid(1, 2)
    _token_memo(1, 2).clear()
    spellings = [f"{b};{'0' * pad}{c}" for pad in range(4) for b in (0, 1) for c in (0, 1)]
    scd = parse_scd("\n".join(spellings), 1, 2)
    assert {e for ch in scd.chains for e in ch} == set(host.elements)
    assert len(_token_memo(1, 2)) == len(host)
    # A one-token document records one entry, not a table of the host, and
    # only for the canonical spelling.
    for n, other, canonical in [(9, "1,0,1,1;00000007", "10117"), (12, "1,0,1,1;07", "1,0,1,1;7")]:
        _token_memo(4, n).clear()
        parse_scd(other, 4, n)
        parse_scd(canonical, 4, n)
        assert _token_memo(4, n) == {canonical: (0b1011, 7)}


def test_no_memo_outgrows_its_host():
    # Documents of 20 hosts in turn, more than the cache keeps, each naming
    # every element in four spellings: no memo outgrows its host, and the
    # cache keeps at most 16 memos.
    for k in range(4):
        for n in range(1, 6):
            host = build_cuboid(k, n)
            bits = [",".join(format(b, f"0{k}b")) if k else "" for b in range(1 << k)]
            doc = [f"{bits[b]};{'0' * pad}{c}" for pad in range(4) for b, c in host.elements]
            parse_scd("\n".join(doc), k, n)
            assert len(_token_memo(k, n)) == len(host)
    assert _token_memo.cache_info().currsize <= 16


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.sampled_from([5, 6]), n=st.integers(3, 6), data=st.data())
def test_parsing_permuted_shuffled_documents(k, n, data):
    s = generate(k, n)
    doc = serialize_scd(s)
    # Parsing the same host's documents again and again keeps its memo warm.
    assert serialize_scd(parse_scd(doc)) == doc
    perm = data.draw(st.permutations(range(k)), label="perm")
    header, *body = [ln for ln in doc.splitlines() if ln and not ln.startswith("#")]
    body = data.draw(st.permutations(body), label="lines")
    lines = [
        " ".join("".join(t[perm[j]] for j in range(k)) + t[k:] for t in line.split())
        for line in body
    ]
    expected = permute_scd(s, perm)
    for _ in range(2):
        assert parse_scd("\n".join([header, *lines])) == expected


@lru_cache(maxsize=None)
def _differential_source(k: int, n: int) -> SCD:
    if k == 0:  # P(0, n) is one chain
        return SCD(build_cuboid(0, n), (tuple((0, c) for c in range(n)),))
    return generate(k, n)


def _spell(e: tuple[int, int], k: int, general: bool, pad: int = 0) -> str:
    bits = format(e[0], f"0{k}b") if k else ""
    level = "0" * pad + str(e[1])
    return ",".join(bits) + ";" + level if general else bits + level


@settings(max_examples=40, deadline=None, database=None)
@given(shape=st.sampled_from([(5, 4), (5, 12), (0, 4), (0, 12)]), data=st.data())
def test_the_memo_never_changes_what_a_document_parses_to(shape, data):
    # Bit-permuted documents, some lines top-down and some tokens in a
    # non-canonical spelling, parse alike from a cold memo (which a whole
    # document seeds), a seeded one, and ones filled by earlier documents.
    k, n = shape
    rnd = data.draw(st.randoms(use_true_random=False), label="rnd")
    scd = _differential_source(k, n)
    if k:
        scd = permute_scd(scd, data.draw(st.permutations(range(k)), label="perm"))
    chains = list(scd.chains)
    rnd.shuffle(chains)
    general = n > COMPACT_LEVEL_LIMIT

    def odd(e):  # a non-canonical spelling
        return _spell(e, k, True, rnd.randint(1, 2) if general else rnd.randint(0, 2))

    lines = []
    for ch in chains:
        tokens = [odd(e) if rnd.random() < 0.3 else _spell(e, k, general) for e in ch]
        lines.append(" ".join(tokens[::-1] if rnd.random() < 0.5 else tokens))
    doc = "\n".join(["# note: differential", f"{k} {n}", *lines]) + "\n"
    expected = (tuple(chains), ("differential",))
    memo, size = _token_memo(k, n), len(scd.host)

    def parsed():
        got = parse_scd(doc)
        assert len(memo) <= size
        return got.chains, got.notes

    memo.clear()
    assert parsed() == expected  # cold
    assert parsed() == expected  # seeded
    memo.clear()
    for line in lines:
        parse_scd(line, k, n)
    assert parsed() == expected  # filled line by line
    memo.clear()
    for e in scd.host.elements:
        parse_scd(odd(e), k, n)
    assert not memo  # a non-canonical spelling is never recorded
    assert parsed() == expected  # after non-canonical spellings only


def test_a_long_canonical_document_seeds_a_memo_after_other_spellings(monkeypatch):
    # Short documents spelling every element of P(5,4) in the general form
    # record nothing, so a whole canonical document still seeds the memo,
    # and the next one parses without the token-by-token path.
    k, n = 5, 4
    host = build_cuboid(k, n)
    memo = _token_memo(k, n)
    memo.clear()
    for e in host.elements:
        parse_scd(_spell(e, k, True), k, n)
    scd = generate(k, n)
    assert parse_scd(serialize_scd(scd)) == scd
    assert memo == {_spell(e, k, False): e for e in host.elements}

    def refuse(*args):
        raise AssertionError("a canonical line took the token-by-token path")

    monkeypatch.setattr(data_io, "_parse_tokens", refuse)
    moved = permute_scd(scd, (4, 0, 1, 2, 3))
    assert parse_scd(serialize_scd(moved)) == moved


ASCII = st.text(st.characters(max_codepoint=127))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(
    ASCII,
    # a header of a small host, so that the body reaches the token parser
    st.builds("{} {}\n{}".format, st.integers(0, 3), st.integers(1, 12),
              st.one_of(ASCII, st.text(st.sampled_from("0123456789,; \n#"))))))
def test_arbitrary_text_is_parsed_or_refused(tmp_path_factory, monkeypatch, text):
    # A header may name any admissible host; here those over 2^12 elements
    # are refused like those over the real limit, so none is built.
    monkeypatch.setattr(posets, "MAX_HOST_ELEMENTS", 1 << 12)
    try:
        parse_scd(text)
    except ValueError:  # ParseError, or a host refused by posets
        pass
    path = tmp_path_factory.getbasetemp() / "fuzzed.scd"
    path.write_text(text, encoding="ascii")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(["validate", str(path)]) in (0, 1)
