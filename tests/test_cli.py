import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scdkit
from scdkit import chains, cli, constructions, data_io, search
from scdkit.cli import run
from scdkit.constructions import (
    ConstructionError,
    collapse,
    expand,
    extend_dimension,
    generate,
    repair,
    shift,
)
from scdkit.data_io import builtin_table, parse_scd, render_pictorial, serialize_scd
from scdkit.posets import build_cuboid, build_hypercube, cuboid_shape


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_then_validate_pipeline(tmp_path, capsys):
    doc = tmp_path / "p53.scd"
    code, _, _ = invoke(capsys, "tables", "--id", "P53", "--out", str(doc))
    assert code == 0
    code, out, _ = invoke(capsys, "validate", str(doc), "--require-nontaut")
    assert code == 0
    assert out.splitlines()[0] == "25 chains, 0 taut"


def test_validate_flags_taut_documents(tmp_path, capsys):
    doc = tmp_path / "taut.scd"
    # A full decomposition of P(1,2); its maximal chain is taut.
    doc.write_text("1 2\n00 01 11\n10\n")
    code, out, _ = invoke(capsys, "validate", str(doc))
    assert code == 0 and out.splitlines()[0] == "2 chains, 1 taut"
    code, out, _ = invoke(capsys, "validate", str(doc), "--require-nontaut")
    assert code == 1


def test_validate_invalid_document(tmp_path, capsys):
    doc = tmp_path / "broken.scd"
    doc.write_text("1 2\n00 01 11\n")  # misses the element (1,0)
    code, out, _ = invoke(capsys, "validate", str(doc))
    assert code == 1
    assert any("uncovered" in line for line in out.splitlines())


def test_show_matches_golden_grid(capsys):
    code, out, _ = invoke(capsys, "show", "--k", "4", "--n", "6")
    assert code == 0
    assert out == (
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


def test_generate_rejects_region_with_reason(capsys):
    code, _, err = invoke(capsys, "generate", "--k", "4", "--n", "7")
    assert code == 1
    assert "k >= 5" in err


def test_generate_writes_valid_document(tmp_path, capsys):
    doc = tmp_path / "p57.scd"
    code, _, _ = invoke(capsys, "generate", "--k", "5", "--n", "7", "--out", str(doc))
    assert code == 0
    scd = parse_scd(doc.read_text())
    assert scd.chain_count == 32


def test_generate_is_deterministic_bytes(capsys):
    code, out1, _ = invoke(capsys, "generate", "--k", "6", "--n", "6")
    code, out2, _ = invoke(capsys, "generate", "--k", "6", "--n", "6")
    assert out1 == out2


def test_surgery_pipeline_through_files(tmp_path, capsys):
    t3 = tmp_path / "p55.scd"
    lifted = tmp_path / "p56.scd"
    fixed = tmp_path / "p56r.scd"
    down = tmp_path / "back.scd"

    assert invoke(capsys, "tables", "--id", "P55", "--out", str(t3))[0] == 0
    assert invoke(
        capsys, "expand", "--file", str(t3), "--matching", "0", "--out", str(lifted)
    )[0] == 0
    assert invoke(capsys, "repair", "--file", str(lifted), "--out", str(fixed))[0] == 0
    assert invoke(capsys, "collapse", "--file", str(fixed), "--out", str(down))[0] == 0

    code, out, _ = invoke(capsys, "validate", str(down), "--require-nontaut")
    assert code == 0 and out.splitlines()[0] == "31 chains, 0 taut"


def test_expand_matching_out_of_range(tmp_path, capsys):
    t3 = tmp_path / "p55.scd"
    invoke(capsys, "tables", "--id", "P55", "--out", str(t3))
    code, _, err = invoke(capsys, "expand", "--file", str(t3), "--matching", "9")
    assert code == 1 and "0..5" in err


def test_shift_round_trip_files(tmp_path, capsys):
    first = tmp_path / "n6.scd"
    wide = tmp_path / "n9.scd"
    back = tmp_path / "n6b.scd"
    invoke(capsys, "generate", "--k", "5", "--n", "6", "--out", str(first))
    assert invoke(capsys, "shift", "--file", str(first), "--to", "9", "--out", str(wide))[0] == 0
    assert invoke(capsys, "shift", "--file", str(wide), "--to", "6", "--out", str(back))[0] == 0
    assert back.read_text() == first.read_text()


def test_lift_adds_dimensions(tmp_path, capsys):
    src = tmp_path / "p53.scd"
    out = tmp_path / "p63.scd"
    invoke(capsys, "tables", "--id", "P53", "--out", str(src))
    code, _, _ = invoke(
        capsys, "lift", "--file", str(src), "--with-hypercube", "1", "--out", str(out)
    )
    assert code == 0
    lifted = parse_scd(out.read_text())
    assert cuboid_shape(lifted.host) == (6, 3)
    code, txt, _ = invoke(capsys, "validate", str(out), "--require-nontaut")
    assert code == 0


def test_lift_rejects_taut_documents(tmp_path, capsys):
    doc = tmp_path / "taut.scd"
    doc.write_text("1 2\n00 01 11\n10\n")  # P(1,2); its maximal chain is taut
    for extra in ("0", "1"):
        code, out, _ = invoke(capsys, "lift", "--file", str(doc), "--with-hypercube", extra)
        assert code == 1 and out == ""


# generate streams its lift for k > 5 and lift streams its own: each chain
# is spelled as it is checked, so the command line and the library take
# two paths that must give one document.  n = 3, 4 and 6 are the compact
# spelling (n = 6 shifted out of the repaired P(5,6)), n = 11 the general.
@pytest.mark.parametrize("n", [3, 4, 6, 11])
@pytest.mark.parametrize("k", range(6, 13))
def test_generate_writes_the_library_document(capsys, k, n):
    assert invoke(capsys, "generate", "--k", str(k), "--n", str(n)) == (
        0, serialize_scd(generate(k, n)), "")


@pytest.mark.parametrize("j", [0, 1, 3])
@pytest.mark.parametrize("name", ["P54", "P5_11"])
def test_lift_writes_the_library_document(tmp_path, capsys, name, j):
    # The bundled P(5,4) is not in canonical order, so J = 0 shows that
    # the input comes back unchanged.
    scd = builtin_table(name) if name == "P54" else generate(5, 11)
    doc = tmp_path / "in.scd"
    doc.write_text(serialize_scd(scd))
    assert invoke(capsys, "lift", "--file", str(doc), "--with-hypercube", str(j)) == (
        0, serialize_scd(extend_dimension(scd, 5 + j)), "")


# Broken Q_j decompositions, for j = 2: one drops a chain and one repeats
# a chain.  Two more keep every count: one swaps (2,) for (1,), so the lift
# repeats some elements and misses others, and one splits (0, 1, 3) into
# (0, 3) and (1,), so its lifted chains skip ranks.
DEFECTS = {
    "drop": lambda chains: chains[1:],
    "repeat": lambda chains: chains + chains[-1:],
    "overlap": lambda chains: chains[:-1] + [chains[0][1:2]],
    "gap": lambda chains: [chains[0][::2], chains[0][1:2]] + chains[1:],
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_lift_defect_is_refused(tmp_path, capsys, monkeypatch, defect):
    # A broken Q_j decomposition gives a lift that misses or repeats
    # elements.  The library and the command line refuse it with the text
    # the output gate gives for those chains, and no --out file is written
    # or changed.
    hypercube_chains = constructions._hypercube_chains
    broken = lambda j: DEFECTS[defect](hypercube_chains(j))  # noqa: E731
    monkeypatch.setattr(constructions, "_hypercube_chains", broken)
    p53, j = builtin_table("P53"), 2
    host = build_cuboid(5 + j, 3)
    chains = [
        tuple([((c[x][0] << j) | d[y], c[x][1]) for x, y in walk])
        for c in p53.chains for d in broken(j) for walk in constructions._grid_cells(len(c), len(d))
    ]
    with pytest.raises(ConstructionError) as want:
        constructions._checked(host, chains, what="extend_dimension", taut_count=0)
    with pytest.raises(ConstructionError) as got:
        extend_dimension(p53, 5 + j)
    assert str(got.value) == str(want.value)
    out = tmp_path / "p73.scd"
    argv = ["generate", "--k", "7", "--n", "3", "--out", str(out)]
    assert invoke(capsys, *argv) == (1, "", f"error: {want.value}\n")
    assert not out.exists()
    out.write_bytes(b"kept as it was\n")
    assert invoke(capsys, *argv)[0] == 1
    assert out.read_bytes() == b"kept as it was\n"


def test_search_exhaustive_summary(capsys):
    code, out, _ = invoke(capsys, "search", "--k", "1", "--n", "2")
    assert code == 0
    assert out.startswith("found 2, exhausted")


def test_search_forbid_taut_negative(capsys):
    code, out, _ = invoke(capsys, "search", "--k", "2", "--n", "3", "--forbid-taut")
    assert code == 0
    assert out.startswith("found 0, exhausted")


def test_search_budget_inconclusive_exit_code(capsys):
    code, out, _ = invoke(capsys, "search", "--k", "2", "--n", "3", "--budget", "7")
    assert code == 2
    assert "stopped (node-budget)" in out


def test_the_budget_stops_a_search_while_it_grows_its_rows(capsys):
    # P(15,32) has over a million elements, and its quotient discards most
    # maximal chains it generates: every one is a node against the budget.
    code, out, _ = invoke(capsys, "search", "--k", "15", "--n", "32", "--budget", "10")
    assert (code, out) == (2, "found 0, stopped (node-budget), nodes 11\n")


# The summary line of each count in the benchmark's search_prove list, and
# of P(3,40), counted as P(3,3) times 4 (its own rows overflow the cover's
# table): a search with neither --limit nor --out counts, and every node is
# pinned.
PINNED_COUNTS = [
    (["--k", "3", "--n", "3"], "found 1488, exhausted, nodes 300"),
    (["--k", "2", "--n", "6"], "found 18, exhausted, nodes 14"),
    (["--k", "3", "--n", "4", "--forbid-taut"], "found 0, exhausted, nodes 217"),
    (["--k", "3", "--n", "5", "--forbid-taut"], "found 0, exhausted, nodes 217"),
    (["--k", "4", "--n", "3", "--forbid-taut", "--budget", "400000"],
     "found 0, exhausted, nodes 7844"),
    (["--k", "3", "--n", "40"], "found 5952, exhausted, nodes 300"),
]


@pytest.mark.parametrize("args, summary", PINNED_COUNTS,
                         ids=["P(3,3)", "P(2,6)", "P(3,4)-forbid-taut", "P(3,5)-forbid-taut",
                              "P(4,3)-forbid-taut", "P(3,40)"])
def test_pinned_counts(capsys, args, summary):
    assert invoke(capsys, "search", *args) == (0, summary + "\n", "")


@pytest.mark.parametrize("option", [("--limit", "0"), ("--limit", "-3"), ("--budget", "-1")])
def test_search_rejects_nonpositive_limit_and_negative_budget(capsys, option):
    code, out, err = invoke(capsys, "search", "--k", "2", "--n", "2", *option)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_search_writes_witness(tmp_path, capsys):
    doc = tmp_path / "witness.scd"
    code, _, _ = invoke(
        capsys, "search", "--k", "2", "--n", "2", "--limit", "1", "--out", str(doc)
    )
    assert code == 0
    assert parse_scd(doc.read_text()).chain_count == 3


def test_search_out_dash_writes_a_pipeable_document(tmp_path, capsys):
    # The document alone goes to stdout; the summary line goes to stderr.
    argv = ("search", "--k", "5", "--n", "3", "--forbid-taut", "--limit", "1")
    code, out, err = invoke(capsys, *argv, "--out", "-")
    assert code == 0 and err == "found 1, stopped (limit), nodes 3814\n"
    scd = parse_scd(out)
    assert scd.report.valid and scd.report.taut_count == 0
    # With a file, or no --out, the summary stays on stdout.
    doc = tmp_path / "witness.scd"
    assert invoke(capsys, *argv, "--out", str(doc)) == (0, err, "")
    assert doc.read_text(encoding="ascii") == out
    assert invoke(capsys, *argv) == (0, err, "")


# The command line counts each decomposition as the search finds it and
# decodes only the first, for --out; enumerate_scds decodes and keeps them
# all.  Both read the same search: P(2,6) is searched as P(2,3) and
# carried by shift, the others on their own host.
SEARCHED = [(2, 6, False, 17), (2, 6, False, 18), (2, 6, False, 100), (3, 3, False, 5),
            (5, 3, True, 1)]


@pytest.mark.parametrize("k, n, forbid_taut, limit", SEARCHED, ids=[
    f"P({k},{n})" + "-forbid-taut" * taut + f"-limit-{limit}" for k, n, taut, limit in SEARCHED])
def test_a_search_reports_what_enumerate_scds_finds(capsys, k, n, forbid_taut, limit):
    out = search.enumerate_scds(build_cuboid(k, n), forbid_taut=forbid_taut, limit=limit)
    argv = ["search", "--k", str(k), "--n", str(n), "--limit", str(limit)]
    code, doc, summary = invoke(capsys, *argv, *["--forbid-taut"] * forbid_taut, "--out", "-")
    found, status, nodes = re.fullmatch(r"found (\d+), (.+), nodes (\d+)\n", summary).groups()
    reason = None if status == "exhausted" else status[len("stopped ("):-1]
    assert (int(found), int(nodes), reason) == (len(out.found), out.nodes_visited, out.stop_reason)
    assert (code, doc) == (0, serialize_scd(out.found[0]))


def test_use_symmetry_is_accepted_with_limit_1_only(capsys, tmp_path):
    # The flag changes nothing: an existence query already runs on the
    # quotient by bit permutations.
    args = ("search", "--k", "3", "--n", "3", "--forbid-taut")
    assert invoke(capsys, *args, "--limit", "1", "--use-symmetry") == invoke(
        capsys, *args, "--limit", "1")
    code, out, err = invoke(capsys, *args, "--use-symmetry")
    assert (code, out) == (1, "") and "--limit 1" in err
    code, out, err = invoke(capsys, *args, "--limit", "2", "--use-symmetry")
    assert (code, out) == (1, "") and "--limit 1" in err
    # --out alone searches as --limit 1 does, so it takes the flag too.
    flagged, plain = tmp_path / "flagged.scd", tmp_path / "plain.scd"
    args = ("search", "--k", "2", "--n", "3")
    assert invoke(capsys, *args, "--use-symmetry", "--out", str(flagged)) == invoke(
        capsys, *args, "--out", str(plain)) == (0, "found 1, stopped (limit), nodes 27\n", "")
    assert flagged.read_text(encoding="ascii") == plain.read_text(encoding="ascii")


def test_unwritable_out_path(tmp_path, capsys):
    out = tmp_path / "missing" / "p53.scd"
    code, _, err = invoke(capsys, "generate", "--k", "5", "--n", "3", "--out", str(out))
    assert code == 1 and "cannot write" in err


def test_unknown_table_id(capsys):
    code, _, err = invoke(capsys, "tables", "--id", "P53x")
    assert code == 1  # usage errors map to the invalid-input exit code


def test_unreadable_file(capsys):
    code, _, err = invoke(capsys, "validate", "/nonexistent/path.scd")
    assert code == 1 and "cannot read" in err


def stdin_of(data: bytes) -> io.TextIOWrapper:
    """A stdin that holds ``data``, with the byte buffer a real one has."""
    return io.TextIOWrapper(io.BytesIO(data))


def test_stdin_validate(capsys, monkeypatch):
    doc = serialize_scd(builtin_table("P54"))
    monkeypatch.setattr("sys.stdin", stdin_of(doc.encode("ascii")))
    code, out, _ = invoke(capsys, "validate", "-", "--require-nontaut")
    assert code == 0 and out.splitlines()[0] == "30 chains, 0 taut"


def test_a_document_that_is_not_ascii_exits_1_wherever_it_is_read_or_written(
    tmp_path, capsys, monkeypatch
):
    doc = serialize_scd(generate(5, 6)).replace("\n5 6\n", "\n# note: caf\xe9\n5 6\n")
    source = tmp_path / "p56.scd"
    source.write_text(doc, encoding="utf-8")
    out = tmp_path / "p59.scd"
    errs = []
    for argv in (["--file", "-"], ["--file", "-", "--out", str(out)], ["--file", str(source)]):
        monkeypatch.setattr("sys.stdin", stdin_of(doc.encode("utf-8")))
        code, stdout, err = invoke(capsys, "shift", *argv, "--to", "9")
        assert (code, stdout) == (1, "") and err.startswith("error: ")
        assert not out.exists()
        errs.append(err)
    # A file is read as stdin is: parse_scd names the character either way.
    assert errs == ["error: document holds '\xe9'; a document is ASCII text\n"] * 3


def test_an_undecodable_byte_gives_one_error_from_a_file_and_from_stdin(
    tmp_path, capsys, monkeypatch
):
    # Both are decoded as UTF-8, the byte 0xff read as U+FFFD, so the
    # codec never speaks and stdin's own encoding plays no part.
    data = b"# \xff\n1 2\n00 01 11\n10\n"
    doc = tmp_path / "ff.scd"
    doc.write_bytes(data)
    from_file = invoke(capsys, "validate", str(doc))
    monkeypatch.setattr("sys.stdin", stdin_of(data))
    from_stdin = invoke(capsys, "validate", "-")
    expected = (1, "", "error: document holds '\ufffd'; a document is ASCII text\n")
    assert from_file == from_stdin == expected


def test_a_document_the_writer_refuses_leaves_no_file(tmp_path, capsys, monkeypatch):
    # Parsing gives back only notes the writer takes, so the note that
    # spans lines is added after the parse.
    source, out = tmp_path / "p56.scd", tmp_path / "p59.scd"
    source.write_text(serialize_scd(generate(5, 6)), encoding="ascii")
    parse = data_io.parse_scd
    monkeypatch.setattr(data_io, "parse_scd", lambda text: parse(text).with_notes("x\ny"))
    code, stdout, err = invoke(capsys, "shift", "--file", str(source), "--to", "9", "--out", str(out))
    assert (code, stdout) == (1, "") and "spans lines" in err
    assert not out.exists()


def test_a_refused_generate_leaves_an_existing_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "p43.scd"
    out.write_bytes(b"kept\r\n")
    code, stdout, err = invoke(capsys, "generate", "--k", "4", "--n", "3", "--out", str(out))
    assert (code, stdout) == (1, "") and "no taut-free decomposition" in err
    assert out.read_bytes() == b"kept\r\n"


class RecordingStream(io.StringIO):
    """A stdout that keeps every write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


# P(12,4) has 3,003 chains in the compact form, P(11,11) 2,047 in the
# general form: more than one block each.
@pytest.mark.parametrize("k, n", [(12, 4), (11, 11)])
def test_a_document_is_written_one_block_at_a_time(capsys, monkeypatch, k, n):
    stream = RecordingStream()
    monkeypatch.setattr("sys.stdout", stream)
    assert run(["generate", "--k", str(k), "--n", str(n)]) == 0
    scd = generate(k, n)
    blocks = -(-scd.chain_count // data_io.BLOCK_LINES)
    assert blocks > 1 and len(stream.writes) == 1 + blocks  # the header lines, then the chains
    assert all(w.count("\n") <= data_io.BLOCK_LINES for w in stream.writes)
    assert "".join(stream.writes) == serialize_scd(scd)


def test_one_parser_serves_every_request_without_carrying_state(tmp_path, capsys):
    cli._parser.cache_clear()
    code, out, _ = invoke(capsys, "search", "--k", "2", "--n", "3", "--limit", "1")
    assert code == 0 and out.startswith("found 1, stopped (limit)")
    code, out, _ = invoke(capsys, "search", "--k", "2", "--n", "3")
    assert code == 0 and out.startswith("found 18, exhausted")

    doc = tmp_path / "p53.scd"
    assert invoke(capsys, "tables", "--id", "P53", "--out", str(doc))[0] == 0
    assert invoke(capsys, "validate", "--no-such-flag", str(doc))[0] == 1
    code, out, _ = invoke(capsys, "validate", str(doc))
    assert code == 0 and out == "25 chains, 0 taut\n"
    # Each of the three commands built its own parser once, and no other.
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_a_call_builds_only_its_own_command_parser(capsys, monkeypatch):
    cli._parser.cache_clear()
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    assert invoke(capsys, "generate", "--k", "5", "--n", "3")[0] == 0
    assert built == ["generate"]
    cli._parser.cache_clear()


COMMANDS = ["validate", "show", "tables", "generate", "shift", "collapse", "expand",
            "repair", "lift", "search"]
# Every help and usage request: the top level's, and for each command its
# --help, an unknown flag (reported by the top level) and no arguments.
USAGE_CASES = [["--help"], [], ["nosuch"], ["-h", "validate"]] + [
    [command, *tail] for command in COMMANDS for tail in (["--help"], ["--bogus"], [])]


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_one_command_parser_reads_as_the_full_parser(capsys, monkeypatch, argv):
    # argparse words help and usage differently from one Python to the
    # next, so the reference is the full parser of this interpreter.
    # validate with no arguments reads an empty stdin.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"")))
    got = invoke(capsys, *argv)
    full = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda command=None: full)
    assert invoke(capsys, *argv) == got
    assert got[0] == (0 if "--help" in argv or "-h" in argv else 1)


def test_the_full_parser_lists_every_command(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0 and "{" + ",".join(COMMANDS) + "}" in out
    code, _, err = invoke(capsys, "validate", "--bogus")
    usage = " ".join(err.split("scdkit: error:")[0].split())
    assert (code, usage) == (1, "usage: scdkit [-h] {" + ",".join(COMMANDS) + "} ...")


# The inputs of the write commands: P(5,6) is shiftable and collapsible,
# P(5,5) expandable, and its expansion repairable.
@pytest.fixture(scope="module")
def write_inputs(tmp_path_factory):
    inputs = {
        "p53": builtin_table("P53"),
        "p55": builtin_table("P55"),
        "p56": generate(5, 6),
        "p56x": expand(builtin_table("P55"), 0),
    }
    base = tmp_path_factory.mktemp("inputs")
    files = {name: base / f"{name}.scd" for name in inputs}
    for name, scd in inputs.items():
        files[name].write_text(serialize_scd(scd), encoding="ascii")
    return inputs, files


# Each command that writes, with the library call whose text it writes.
WRITE_COMMANDS = {
    "show": (["show", "--k", "4", "--n", "6"],
             lambda d: render_pictorial(build_hypercube(4), 6)),
    "tables": (["tables", "--id", "P54"], lambda d: serialize_scd(builtin_table("P54"))),
    "generate": (["generate", "--k", "5", "--n", "7"], lambda d: serialize_scd(generate(5, 7))),
    "shift": (["shift", "--file", "{p56}", "--to", "9"],
              lambda d: serialize_scd(shift(d["p56"], 9))),
    "collapse": (["collapse", "--file", "{p56}"], lambda d: serialize_scd(collapse(d["p56"]))),
    "expand": (["expand", "--file", "{p55}", "--matching", "2"],
               lambda d: serialize_scd(expand(d["p55"], 2))),
    "repair": (["repair", "--file", "{p56x}"], lambda d: serialize_scd(repair(d["p56x"]))),
    "lift": (["lift", "--file", "{p53}", "--with-hypercube", "1"],
             lambda d: serialize_scd(extend_dimension(d["p53"], 6))),
}


@pytest.mark.parametrize("command", WRITE_COMMANDS)
def test_every_write_command_writes_the_same_bytes_wherever_it_writes(
    tmp_path, capsys, write_inputs, command
):
    inputs, files = write_inputs
    argv, build = WRITE_COMMANDS[command]
    argv = [arg.format(**files) for arg in argv]
    expected = build(inputs)
    # A file first, so that a later request carrying its --out would show.
    out_file = tmp_path / "out.txt"
    assert invoke(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == expected.encode("ascii")
    assert invoke(capsys, *argv) == (0, expected, "")
    assert invoke(capsys, *argv, "--out", "-") == (0, expected, "")


@pytest.mark.parametrize(
    "text", ["1" * 5000 + " 3\n0", "1 3\n0;1" + "0" * 5000], ids=["header", "level"]
)
def test_over_long_numbers_exit_1(tmp_path, capsys, text):
    doc = tmp_path / "long.scd"
    doc.write_text(text)
    code, out, err = invoke(capsys, "validate", str(doc))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "significant digits" in err


def test_each_request_pays_for_each_gate_once(tmp_path, capsys, monkeypatch):
    doc, mutant, out = tmp_path / "p56.scd", tmp_path / "mutant.scd", tmp_path / "p59.scd"
    text = serialize_scd(generate(5, 6))
    doc.write_text(text, encoding="ascii")
    mutant.write_text(text.rsplit("\n", 2)[0] + "\n", encoding="ascii")  # last chain dropped

    calls = []
    validate = chains.validate_scd

    def counted(host, scd):
        calls.append(host.label)
        return validate(host, scd)

    monkeypatch.setattr(chains, "validate_scd", counted)

    assert invoke(capsys, "validate", str(doc))[0] == 0
    assert calls == ["P(5,6)"]
    calls.clear()
    assert invoke(capsys, "validate", str(mutant))[0] == 1
    assert calls == ["P(5,6)"]
    calls.clear()
    assert invoke(capsys, "shift", "--file", str(doc), "--to", "9", "--out", str(out))[0] == 0
    assert calls == ["P(5,6)", "P(5,9)"]


# Runs the CLI under an address-space limit given as the first argument,
# so that a host built before the size check fails the test instead of
# exhausting memory.
LIMITED_CLI = """
import resource, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from scdkit.cli import run
sys.exit(run(sys.argv[1:]))
"""


def run_limited(limit, argv, timeout=60):
    src = str(Path(scdkit.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, str(limit), *argv],
        capture_output=True, text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("argv", [
    ["validate", "{doc}"],
    ["generate", "--k", "40", "--n", "3"],
    ["search", "--k", "40", "--n", "3"],
    ["show", "--k", "40", "--n", "3"],
    ["show", "--k", "21", "--n", "1"],
    ["search", "--k", "18", "--n", "5"],
    ["show", "--k", "2", "--n", "30000000"],
], ids="-".join)
def test_huge_hosts_fail_fast(tmp_path, argv):
    doc = tmp_path / "huge.scd"
    doc.write_text("40 3\n")
    proc = run_limited(1 << 28, [arg.format(doc=doc) for arg in argv])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "over the limit" in proc.stderr


def test_a_short_document_of_the_largest_host_is_validated_within_memory(tmp_path):
    # P(17,8) has 2^20 elements, the most admitted.  A one-line document is
    # too short to spell them all, so its parse must not table their
    # spellings, which would not fit under the limit.
    doc = tmp_path / "p17_8.scd"
    doc.write_text("17 8\n" + "0" * 17 + "0 " + "0" * 17 + "1\n")
    proc = run_limited(1 << 27, ["validate", str(doc)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("1 chains, 0 taut\n")
    assert proc.stdout.endswith("finding: 1048574 elements of P(17,8) uncovered\n")


def test_generate_writes_a_large_document_within_memory(tmp_path):
    # Under RLIMIT_AS (CPython 3.11, x86-64 Linux, bisected to 1 MiB),
    # generate --k 16 --n 4 --out needs 36 MiB with the lift streamed, each
    # chain checked and spelled as it is built.  It needed 54 MiB when the
    # whole decomposition was held and validated apart, 57 MiB before the
    # lift shared its bit ints, and 72 MiB when the document was joined
    # whole.  48 MiB sits between the streamed and the held lift.
    out = tmp_path / "p16_4.scd"
    proc = run_limited(48 << 20, ["generate", "--k", "16", "--n", "4", "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b9492e839cb9343b231cbdf748b0d76df27026ae456353ded2747d4b6de8532c"
    )


def test_generate_writes_the_largest_host_within_memory(tmp_path):
    # P(17,8) has 2^20 elements, the most admitted.  Bisected as above,
    # generate --out needs 71 MiB with the lift streamed and needed
    # 152 MiB with the whole decomposition held; 96 MiB sits between.
    out = tmp_path / "p17_8.scd"
    proc = run_limited(96 << 20, ["generate", "--k", "17", "--n", "8", "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "798d264315f4c12c1573d9a67f78140d349692e402daed5720309f5f570c485b"
    )


def test_a_lift_of_a_large_document_works_in_blocks_within_memory(tmp_path):
    # Lifting P(16,4) by one dimension needs 111 MiB (bisected as above to
    # 2 MiB) with the lift's batches bounded by BLOCK_LINES input chains,
    # as it did with one batch per rectangle; one batch per Q_j chain over
    # every input chain needed 175 MiB.  144 MiB sits between.
    doc, out = tmp_path / "p16_4.scd", tmp_path / "p17_4.scd"
    assert run(["generate", "--k", "16", "--n", "4", "--out", str(doc)]) == 0
    argv = ["lift", "--file", str(doc), "--with-hypercube", "1", "--out", str(out)]
    proc = run_limited(144 << 20, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0344e6261e34cba943d4573443e1def5bbb63577e1e2f3a0653a7cf6a2659d1d"
    )


def test_a_long_chain_of_repeats_on_a_tall_host_is_validated_in_linear_time(tmp_path):
    # P(0, 2^20) is one column of 2^20 elements.  A chain of 3000 copies of
    # (0,0) fails the saturation test, so its tautness is read element by
    # element; a test that spelled out the column at each level-0 element
    # would build 3000 * 2^20 pairs and miss the timeout by minutes.
    doc = tmp_path / "repeats.scd"
    doc.write_text("0 1048576\n" + " ".join([";0"] * 3000) + "\n")
    proc = run_limited(1 << 28, ["validate", str(doc)], timeout=20)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("1 chains, 0 taut\n")
    assert proc.stdout.endswith("finding: 1048575 elements of P(0,1048576) uncovered\n")


def test_a_witness_past_rk_plus_1_is_carried_by_shift(tmp_path, capsys):
    # P(5,9) is searched as P(5,6), and the witness is shifted to P(5,9):
    # before, P(5,9)'s rows overflowed the cover's table.
    doc = tmp_path / "p5_9.scd"
    code, out, err = invoke(capsys, "search", "--k", "5", "--n", "9", "--forbid-taut",
                            "--limit", "1", "--out", str(doc))
    assert (code, err) == (0, "") and out.startswith("found 1, stopped (limit), nodes ")
    scd = parse_scd(doc.read_text(encoding="ascii"))
    assert cuboid_shape(scd.host) == (5, 9)
    assert scd.report.valid and scd.report.taut_count == 0


# The largest admitted host: a search must stop at its budget, or at the
# cover's row limit, before it allocates anything per element.  With
# neither --limit nor --out a search counts instead of enumerating.
@pytest.mark.parametrize("argv, reason", [
    (["--budget", "1", "--limit", "2"], "node-budget"),
    (["--budget", "1", "--forbid-taut", "--limit", "2"], "node-budget"),
    (["--forbid-taut"], "row-limit"),
    (["--budget", "1"], "node-budget"),
], ids=["enumeration", "prover", "prover-unbudgeted", "count"])
def test_searches_on_the_largest_host_stop_within_memory(argv, reason):
    proc = run_limited(1 << 29, ["search", "--k", "18", "--n", "4", *argv])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("found 0, stopped (" + reason + "), nodes ")
    assert proc.stdout.count("\n") == 1


def test_a_search_with_out_and_no_limit_stops_at_the_one_document_it_writes(tmp_path):
    # --out writes the first decomposition only, so with no --limit the
    # search stops at one, as with --limit 1.  Enumerating all 299,356,200
    # of P(4,3)'s first ran out of memory under this limit.
    doc = tmp_path / "w43.scd"
    proc = run_limited(1 << 28, ["search", "--k", "4", "--n", "3", "--out", str(doc)], timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "found 1, stopped (limit), nodes 506\n", "")
    assert parse_scd(doc.read_text(encoding="ascii")).report.valid


def test_a_search_counts_past_the_first_decomposition_within_memory():
    # --limit N holds none of the decompositions it counts.  Bisected as
    # above to 4 MiB, P(4,3)'s first 50,000 need 20 MiB, no more than the
    # interpreter; held and decoded, as they were, they needed over 192 MiB.
    proc = run_limited(64 << 20, ["search", "--k", "4", "--n", "3", "--limit", "50000"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "found 50000, stopped (limit), nodes 171604\n", "")


# Hosts that a search recursing once per chain or per cover would take past
# Python's frame limit: the widest ranks of P(12,2) hold over 1000 chains.
# Rows are grown and picked on explicit stacks, so each search ends with its
# own verdict: P(12,2) has more rows than the cover's table holds.  P(0,1500)
# is now searched as P(0,1), by shift, and has no taut-free row; a chain of
# 1500 elements that no map shortens is searched in test_search.py.
@pytest.mark.parametrize("argv, code, status", [
    (["--k", "12", "--n", "2", "--limit", "2"], 2, "found 0, stopped (row-limit)"),
    (["--k", "0", "--n", "1500", "--forbid-taut"], 0, "found 0, exhausted"),
    (["--k", "12", "--n", "2"], 2, "found 0, stopped (row-limit)"),
], ids=["enumeration", "prover", "count"])
def test_searches_past_the_frame_limit_stop_with_a_status_line(argv, code, status):
    proc = run_limited(1 << 29, ["search", *argv])
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith(status + ", nodes ")
    assert proc.stdout.count("\n") == 1


# Runs CLI requests, given as a JSON list of argv lists, in a fresh process
# in which every read of ``elements`` or ``by_rank`` of a hypercube or a
# cuboid raises, and prints their exit codes as the last line.  Implicit
# hosts keep no table; these two are derived on each call, so each read
# would cost a pass over every element.
TABLE_FREE_CLI = """
import json, sys
from scdkit import posets
from scdkit.cli import run

def refuse(host):
    raise AssertionError(f"{host.label} read an element table")

for cls in (posets._Hypercube, posets._Cuboid):
    cls.elements = cls.by_rank = property(refuse)
print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_generate_validate_and_shift_build_no_element_table(tmp_path):
    text = serialize_scd(generate(8, 12))
    doc, mutant = tmp_path / "p8_12.scd", tmp_path / "mutant.scd"
    p94, p810 = tmp_path / "p9_4.scd", tmp_path / "p8_10.scd"
    p55, p56, p55c = tmp_path / "p5_5.scd", tmp_path / "p5_6.scd", tmp_path / "p5_5c.scd"
    p56r = tmp_path / "p5_6r.scd"
    doc.write_text(text, encoding="ascii")
    # Swap the bottoms of the first and the last chain, of ranks 0 and 9.
    lines = text.splitlines()
    first, last = lines.index("8 12") + 1, len(lines) - 1
    a, b = lines[first].split(), lines[last].split()
    a[0], b[0] = b[0], a[0]
    lines[first], lines[last] = " ".join(a), " ".join(b)
    mutant.write_text("\n".join(lines) + "\n", encoding="ascii")

    requests = [
        ["generate", "--k", "9", "--n", "4", "--out", str(p94)],
        ["validate", str(doc)],
        ["validate", str(mutant)],
        ["shift", "--file", str(doc), "--to", "10", "--out", str(p810)],
        # The surgery reads the hypercube's bottom, top and down, arithmetic too.
        ["tables", "--id", "P55", "--out", str(p55)],
        ["expand", "--file", str(p55), "--matching", "0", "--out", str(p56)],
        ["collapse", "--file", str(p56), "--out", str(p55c)],
        ["repair", "--file", str(p56), "--out", str(p56r)],
    ]
    src = str(Path(scdkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", TABLE_FREE_CLI, json.dumps(requests)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 1, 0, 0, 0, 0, 0]
    assert "finding: chain 0: non-cover steps" in proc.stdout
    assert p94.read_text(encoding="ascii") == serialize_scd(generate(9, 4))
    assert p810.read_text(encoding="ascii") == serialize_scd(shift(generate(8, 12), 10))
    assert p56.read_text(encoding="ascii") == serialize_scd(expand(builtin_table("P55"), 0))
    p55_back = collapse(expand(builtin_table("P55"), 0))
    assert p55c.read_text(encoding="ascii") == serialize_scd(p55_back)
    p56r_want = repair(expand(builtin_table("P55"), 0))
    assert p56r.read_text(encoding="ascii") == serialize_scd(p56r_want)


def test_searches_of_cuboids_build_no_element_table(tmp_path):
    witness = tmp_path / "p5_3.scd"
    requests = [
        ["search", "--k", "5", "--n", "3", "--forbid-taut", "--limit", "1", "--out", str(witness)],
        # P(18,4) has 2^20 elements: a table of them alone would take
        # about a second and 140 MB.
        ["search", "--k", "18", "--n", "4", "--budget", "1", "--limit", "2"],
        ["search", "--k", "3", "--n", "4"],
        ["search", "--k", "5", "--n", "3", "--forbid-taut", "--limit", "1"],
    ]
    src = str(Path(scdkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", TABLE_FREE_CLI, json.dumps(requests)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines == [
        "found 1, stopped (limit), nodes 3814",
        "found 0, stopped (node-budget), nodes 2",
        "found 5952, exhausted, nodes 300",
        "found 1, stopped (limit), nodes 3814",
        "[0, 2, 0, 0]",
    ]
    scd = parse_scd(witness.read_text(encoding="ascii"))
    assert scd.report.valid and scd.report.taut_count == 0


# Prints the sorted names of the modules loaded by importing the CLI in a
# fresh interpreter that writes no bytecode, as on a cold start.
IMPORTED_BY_CLI = "import sys, scdkit.cli; print(*sorted(sys.modules))"


def test_the_cli_loads_every_module_of_the_package_and_no_dataclasses():
    src = str(Path(scdkit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTED_BY_CLI],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    # dataclasses pulls in inspect, ast, dis and tokenize on every start.
    assert not {"dataclasses", "inspect"} & modules
    # Nothing is imported lazily: no set-up cost moves into a first request.
    layers = {f"scdkit.{name}" for name in ("posets", "chains", "data_io", "constructions", "search")}
    assert layers <= modules


def test_a_closed_stdout_ends_quietly_with_exit_1():
    # P(12,4)'s document, about 230 kB, is more than a pipe holds, so
    # scdkit is still writing when its reader stops after 100 bytes.
    src = str(Path(scdkit.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-c", "from scdkit.cli import main; main()",
         "generate", "--k", "12", "--n", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["generate", "--k", "9", "--n", "4"],
    ["show", "--k", "3", "--n", "3"],
    ["validate", "{doc}"],
    ["search", "--k", "2", "--n", "3", "--limit", "3"],
    ["tables", "--id", "P53"],
], ids=lambda argv: argv[0])
def test_a_stdout_that_cannot_be_written_ends_with_one_error_line(tmp_path, argv):
    # Every write to /dev/full fails with ENOSPC, as on a full disk.
    doc = tmp_path / "p53.scd"
    doc.write_text(serialize_scd(builtin_table("P53")), encoding="ascii")
    src = str(Path(scdkit.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "from scdkit.cli import main; main()",
             *[arg.format(doc=doc) for arg in argv]],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write stdout: ") and proc.stderr.count("\n") == 1
