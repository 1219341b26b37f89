import contextlib
import io
import re
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scdkit import cli, data_io, posets
from scdkit.chains import SCD, validate_scd
from scdkit.constructions import generate
from scdkit.data_io import (
    BLOCK_LINES,
    COMPACT_LEVEL_LIMIT,
    MAX_DIGITS,
    ParseError,
    _elements_by_spelling,
    _spellings,
    builtin_table,
    parse_scd,
    render_pictorial,
    serialize_scd,
    write_scd,
)
from scdkit.posets import build_cuboid, build_hypercube
from scdkit.search import enumerate_scds
from scdkit.tables import BUILTIN_TABLES

from oracles import element_of_token, permute_scd

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
    # Chain order and every token survive the SCD round trip: comments
    # aside, a serialized table is its shipped document.
    for tid, raw in BUILTIN_TABLES.items():
        doc = serialize_scd(builtin_table(tid))
        assert [ln for ln in doc.splitlines() if not ln.startswith("#")] == raw.splitlines()


def test_round_trip_general_form():
    wide = generate(5, 12)
    doc = serialize_scd(wide)
    assert ";" in doc.splitlines()[-1]
    assert parse_scd(doc) == wide


def test_parse_single_taut_chain():
    scd = parse_scd("5 3\n000000 000001 000002")
    assert scd.chain_count == 1
    report = validate_scd(scd.host, scd)
    assert report.taut_chain_indices == (0,)
    assert not report.valid  # one chain cannot cover P(5,3)


def test_parse_rejects_bad_tokens():
    with pytest.raises(ParseError):
        parse_scd("5 3\n00000A")
    with pytest.raises(ParseError):
        parse_scd("5 3\n0000000")  # too many digits
    with pytest.raises(ParseError):
        parse_scd("5 3\n000005")  # level beyond the chain
    with pytest.raises(ParseError):
        parse_scd("3 2\n1,1;0 1,0;0")  # wrong bit count
    with pytest.raises(ParseError):
        parse_scd("5 12\n000000 000001")  # compact form refused for n > 10
    with pytest.raises(ParseError, match="outside chain"):
        parse_scd("2 12\n0,0;12")  # general-form level beyond the chain


@pytest.mark.parametrize("text, token", [
    ("1 3\n0\u00b2 1\u00b2", "0\u00b2"),  # superscript two passes str.isdigit()
    ("1 3\n0;\u00b2", "0;\u00b2"),
    ("\u00b2 3\n00", "\u00b2 3"),
    ("1 12\n0;\u0663", "0;\u0663"),  # Arabic-Indic three: int() reads it as 3
])
def test_parse_requires_ascii_digits(text, token):
    with pytest.raises(ParseError, match=repr(token)):
        parse_scd(text)


@st.composite
def near_tokens(draw, k, n):
    """A spelling, in either form, of k bits (or one more or fewer) and a
    level up to n + 1 with up to two leading zeros, then as often as not
    one or two characters inserted, deleted or replaced: tokens of both
    spellings and their near misses."""
    size = draw(st.sampled_from([k, k, k - 1, k + 1]))
    bits = draw(st.text("01", min_size=max(size, 0), max_size=max(size, 0)))
    level = "0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, n + 1)))
    token = ",".join(bits) + ";" + level if draw(st.booleans()) else bits + level
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(token)))
        cut = draw(st.integers(0, 1))
        token = token[:i] + draw(st.sampled_from(["", *"01,;9a\u00b2"])) + token[i + cut:]
    return token


@settings(max_examples=800, deadline=None, database=None, derandomize=True)
@given(k=st.integers(0, 6), n=st.integers(1, 13), data=st.data())
def test_the_parser_accepts_exactly_the_tokens_of_the_two_spellings(k, n, data):
    token = data.draw(near_tokens(k, n), label="token")
    assume(token)  # an empty line is no chain
    element = element_of_token(token, k, n, MAX_DIGITS)
    if element is None:
        with pytest.raises(ParseError):
            parse_scd(f"{k} {n}\n{token}")
    else:
        assert parse_scd(f"{k} {n}\n{token}").chains == ((element,),)


def test_parse_requires_a_header():
    with pytest.raises(ParseError):
        parse_scd("000000 000001")
    scd = parse_scd("# comment\n2 2\n000\n")
    assert scd.host == build_cuboid(2, 2)
    with pytest.raises(ParseError, match="bad dimensions"):
        parse_scd("3 0\n")


def test_parse_normalizes_descending_chains():
    up = parse_scd("2 2\n000 100 110 111")
    down = parse_scd("2 2\n111 110 100 000")
    assert up.chains == down.chains


def test_parse_flips_only_lines_whose_ranks_never_rise():
    # ranks 1, 1: never rise, so flipped; ranks 2, 0, 1: left as written
    assert parse_scd("2 2\n010 100\n110 000 100").chains == (
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
    text = "5 3\n000000 100000\n000000 010000"
    scd = parse_scd(text)  # lax: left for the validator
    assert any("already used" in message for message in scd.report.messages)


def test_builtin_table_rejects_repeated_elements(monkeypatch):
    monkeypatch.setitem(BUILTIN_TABLES, "PDUP", "5 3\n000000 100000\n000000 010000")
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


# Each would be written over two lines: the second line is then taken for
# the header or a chain, or dropped as a comment, or left empty.
@pytest.mark.parametrize("note", ["x\nzz", "x\n# y", "x\r\n", "x\ry", "x\x0bzz", "x\u2028zz"])
def test_a_note_that_spans_lines_is_refused(note):
    scd = builtin_table("P53").with_notes("ok", note)
    with pytest.raises(ParseError, match=re.escape(f"note {note!r} spans lines")):
        serialize_scd(scd)


@pytest.mark.parametrize("notes", [("extra: check",), ("a  b", "", "x\ty"), ()],
                         ids=["one", "inner-blanks-and-empty", "none"])
def test_notes_round_trip(notes):
    scd = builtin_table("P53").with_notes(*notes)
    assert parse_scd(serialize_scd(scd)).notes == ("builtin: P53", *notes)


# Parsing strips a note, so a note with blanks at either end would come back
# as another note.
@pytest.mark.parametrize("note", ["  x ", "x ", " x", "x\t", "\tx"])
def test_a_note_with_leading_or_trailing_blanks_is_refused(note):
    scd = builtin_table("P53").with_notes("ok", note)
    with pytest.raises(ParseError, match=re.escape(f"note {note!r} has leading or trailing")):
        serialize_scd(scd)


def test_a_note_that_is_not_ascii_is_refused():
    scd = builtin_table("P53").with_notes("caf\xe9")
    with pytest.raises(ParseError, match="is not ASCII"):
        serialize_scd(scd)


def test_the_writer_refuses_before_its_first_block():
    from scdkit.constructions import grid_scd

    p53 = builtin_table("P53")
    refused = [
        grid_scd(2, 3),
        SCD(p53.host, p53.chains + (((1 << 5, 0),),)),
        p53.with_notes("x\ny"),
        p53.with_notes(" x"),
        p53.with_notes("caf\xe9"),
    ]
    for scd in refused:
        with pytest.raises(ParseError):
            next(write_scd(scd))


def test_the_writer_yields_the_header_then_blocks_of_chain_lines():
    scd = generate(11, 4)  # 1,584 chains, two notes
    blocks = list(write_scd(builtin_table("P53"))) + list(write_scd(scd))
    assert [b.count("\n") for b in blocks] == [4, 25, 5, BLOCK_LINES, 1584 - BLOCK_LINES]
    assert "".join(blocks[2:]) == serialize_scd(scd)


@pytest.mark.parametrize("line", ["# note: caf\xe9", "# \u2603", "\u00a0"],
                         ids=["note", "comment", "blank-line"])
def test_a_document_that_is_not_ascii_is_refused(line):
    doc = serialize_scd(builtin_table("P53"))
    with pytest.raises(ParseError, match="a document is ASCII text"):
        parse_scd(f"{line}\n{doc}")


# -- the per-host spelling table --------------------------------------------


@pytest.mark.parametrize("k, n, canonical, spellings", [
    (2, 3, "101", ["1,0;1", "1,0;01", "1,0;001"]),
    (5, 6, "110102", ["1,1,0,1,0;2", "1,1,0,1,0;02"]),
    (0, 4, "3", [";3", ";03"]),
])
def test_every_spelling_parses_to_the_canonical_element(k, n, canonical, spellings):
    element = (int(canonical[:k] or "0", 2), int(canonical[k:]))
    assert _elements_by_spelling(k, n)[canonical] == element
    for token in [canonical] + spellings:
        assert parse_scd(f"{k} {n}\n{token}").chains == ((element,),)


@pytest.mark.parametrize("token, k, n", [
    ("000005", 5, 3),  # accepted by P(5,6) below: the table is per host
    ("00000A", 5, 3),
    ("0;\u0663", 1, 12),
    ("1,1;0", 3, 2),
])
def test_a_rejected_token_is_never_recorded(token, k, n):
    # Refused alone, as a short document, and again as the last line of a
    # document long enough to take the host's table, in either order.
    assert parse_scd("5 6\n000005").chains == (((0, 5),),)
    bases, levels = _spellings(k, n)
    long_doc = "\n".join([f"{k} {n}", *(b + c for b in bases for c in levels), token])
    assert len(long_doc) >= len(build_cuboid(k, n)) * (k + 2)
    for doc in [f"{k} {n}\n{token}", long_doc] * 2:
        with pytest.raises(ParseError):
            parse_scd(doc)


def test_no_memo_outgrows_its_host():
    # Documents of 20 hosts in turn, more than the cache keeps, each naming
    # every element in four spellings: each host's table holds one entry
    # per element, and the cache keeps at most 16 tables.
    for k in range(4):
        for n in range(1, 6):
            host = build_cuboid(k, n)
            bits = [",".join(format(b, f"0{k}b")) if k else "" for b in range(1 << k)]
            doc = [f"{bits[b]};{'0' * pad}{c}" for pad in range(4) for b, c in host.elements]
            scd = parse_scd("\n".join([f"{k} {n}", *doc]))
            assert scd.chains == tuple((e,) for e in host.elements) * 4
            assert len(_elements_by_spelling(k, n)) == len(host)
    assert _elements_by_spelling.cache_info().currsize <= 16


def test_a_short_document_builds_no_table():
    # A document shorter than len(host) * (k + 2) characters takes the
    # token parser, so a host's table is built only for a document as
    # long as one.
    _elements_by_spelling.cache_clear()
    for k, n, token in [(4, 9, "10117"), (4, 12, "1,0,1,1;07"), (17, 8, "0" * 17 + "7")]:
        assert parse_scd(f"{k} {n}\n{token}").chains == (((0b1011 if k == 4 else 0, 7),),)
    assert _elements_by_spelling.cache_info().currsize == 0
    host = build_cuboid(1, 2)
    parse_scd("1 2\n0;0 1;0\n0;1 1;1")  # 19 characters, over the 12 of P(1,2)
    assert len(_elements_by_spelling(1, 2)) == len(host)
    assert _elements_by_spelling.cache_info().currsize == 1


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.sampled_from([5, 6]), n=st.integers(3, 6), data=st.data())
def test_parsing_permuted_shuffled_documents(k, n, data):
    s = generate(k, n)
    doc = serialize_scd(s)
    # The same host's documents parse alike, again and again.
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
    if k < 5:
        return enumerate_scds(build_cuboid(k, n), limit=1).found[0]
    return generate(k, n)


def _spell(e: tuple[int, int], k: int, general: bool, pad: int = 0) -> str:
    bits = format(e[0], f"0{k}b") if k else ""
    level = "0" * pad + str(e[1])
    return ",".join(bits) + ";" + level if general else bits + level


@settings(max_examples=40, deadline=None, database=None)
@given(shape=st.sampled_from([(5, 4), (5, 12), (2, 4), (2, 12), (0, 4), (0, 12)]), data=st.data())
def test_the_memo_never_changes_what_a_document_parses_to(shape, data):
    # The table path against the token path.  A bit-permuted document,
    # some lines top-down and some tokens in a non-canonical spelling, is
    # long enough to take the host's spelling table, from a cold cache and
    # from a warm one.  Each of its lines under the header is a document
    # of its own, and one shorter than the gate takes the token parser.  Both parse alike, in either
    # order.
    k, n = shape
    header = f"{k} {n}"
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
    doc = "\n".join(["# note: differential", header, *lines]) + "\n"
    gate = len(scd.host) * (k + 2)
    assert len(doc) >= gate
    docs = [f"{header}\n{line}" for line in lines]
    short = [(d, ch) for d, ch in zip(docs, chains) if len(d) < gate]
    if k:
        assert len(short) == len(lines)

    def whole():
        got = parse_scd(doc)
        return got.chains, got.notes

    expected = (tuple(chains), ("differential",))
    for whole_first in (True, False):  # from a cold table, in either order
        _elements_by_spelling.cache_clear()
        if whole_first:
            assert whole() == expected  # cold
        assert [parse_scd(d).chains[0] for d, _ in short] == [ch for _, ch in short]
        assert whole() == expected  # warm, or cold after the short documents


def _refuse_the_token_parser(monkeypatch):
    def refuse(*args):
        raise AssertionError("a canonical token took the token parser")

    monkeypatch.setattr(data_io, "_parse_token", refuse)


def test_the_bundled_tables_are_long_enough_for_the_spelling_table(monkeypatch):
    # Each shipped body, after its header, spells every element once, in
    # exactly len(host) * (k + 2) characters.
    _refuse_the_token_parser(monkeypatch)
    for raw in BUILTIN_TABLES.values():
        header, body = raw.split("\n", 1)
        k, n = map(int, header.split())
        assert len(body) == len(build_cuboid(k, n)) * (k + 2)
        assert parse_scd(raw).chain_count == len(body.splitlines())


@pytest.mark.parametrize("k, n", [(5, 4), (5, 12), (0, 4)])
def test_a_long_canonical_document_never_reaches_the_token_parser(monkeypatch, k, n):
    scd = _differential_source(k, n)
    doc = serialize_scd(scd)
    _refuse_the_token_parser(monkeypatch)
    assert parse_scd(doc) == scd
    if k:
        moved = permute_scd(scd, (4, 0, 1, 2, 3))
        assert parse_scd(serialize_scd(moved)) == moved
    # One token of the last line in another spelling takes the token parser.
    *head, last = doc.splitlines()
    token, *rest = last.split()
    assert token == _spell(scd.chains[-1][0], k, n > COMPACT_LEVEL_LIMIT)
    odd = "\n".join([*head, " ".join([_spell(scd.chains[-1][0], k, True, 1), *rest])])
    with pytest.raises(AssertionError, match="token parser"):
        parse_scd(odd)


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
