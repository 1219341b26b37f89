import os
import subprocess
import sys
from pathlib import Path

import pytest

import scdkit
from scdkit import chains
from scdkit.cli import run
from scdkit.constructions import generate
from scdkit.data_io import builtin_table, parse_scd, serialize_scd


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
    assert lifted.host.chain_factor[0].hypercube_k == 6
    code, txt, _ = invoke(capsys, "validate", str(out), "--require-nontaut")
    assert code == 0


def test_lift_rejects_taut_documents(tmp_path, capsys):
    doc = tmp_path / "taut.scd"
    doc.write_text("1 2\n00 01 11\n10\n")  # P(1,2); its maximal chain is taut
    for extra in ("0", "1"):
        code, out, _ = invoke(capsys, "lift", "--file", str(doc), "--with-hypercube", extra)
        assert code == 1 and out == ""


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


def test_search_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("SCDKIT_NODE_BUDGET", "7")
    code, out, _ = invoke(capsys, "search", "--k", "2", "--n", "3")
    assert code == 2 and "node-budget" in out


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


def test_check_reports_middle_rank_obstruction(capsys):
    code, out, _ = invoke(capsys, "check", "--k", "4")
    assert code == 0
    assert "rank_symmetric: True" in out
    assert "middle_rank_ok: False" in out
    code, out, _ = invoke(capsys, "check", "--k", "5")
    assert "middle_rank_ok: True" in out


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


def test_stdin_validate(capsys, monkeypatch):
    import io

    doc = serialize_scd(builtin_table("P54"))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = invoke(capsys, "validate", "-", "--require-nontaut")
    assert code == 0 and out.splitlines()[0] == "30 chains, 0 taut"


def test_one_parser_serves_every_request_without_carrying_state(tmp_path, capsys):
    code, out, _ = invoke(capsys, "search", "--k", "2", "--n", "3", "--limit", "1")
    assert code == 0 and out.startswith("found 1, stopped (limit)")
    code, out, _ = invoke(capsys, "search", "--k", "2", "--n", "3")
    assert code == 0 and out.startswith("found 18, exhausted")

    doc = tmp_path / "p53.scd"
    assert invoke(capsys, "tables", "--id", "P53", "--out", str(doc))[0] == 0
    assert invoke(capsys, "validate", "--no-such-flag", str(doc))[0] == 1
    code, out, _ = invoke(capsys, "validate", str(doc))
    assert code == 0 and out == "25 chains, 0 taut\n"

    out_file = tmp_path / "p53-generated.scd"
    assert invoke(capsys, "generate", "--k", "5", "--n", "3", "--out", str(out_file))[0] == 0
    code, out, _ = invoke(capsys, "generate", "--k", "5", "--n", "3")
    assert code == 0 and out == out_file.read_text(encoding="ascii")


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


def run_limited(limit, argv):
    src = str(Path(scdkit.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, str(limit), *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("argv", [
    ["validate", "{doc}"],
    ["generate", "--k", "40", "--n", "3"],
    ["search", "--k", "40", "--n", "3"],
    ["show", "--k", "40", "--n", "3"],
    ["check", "--k", "40"],
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


# The largest admitted host: a search must stop at its budget, or at the
# prover's row limit, before it allocates anything per element.  With
# neither --limit nor --out a search counts instead of enumerating.
@pytest.mark.parametrize("argv, reason", [
    (["--budget", "1", "--limit", "2"], "node-budget"),
    (["--budget", "1", "--forbid-taut", "--limit", "2"], "node-budget"),
    (["--forbid-taut"], "row-limit"),
    (["--budget", "1"], "node-budget"),
], ids=["walker", "prover", "prover-unbudgeted", "count"])
def test_searches_on_the_largest_host_stop_within_memory(argv, reason):
    proc = run_limited(1 << 29, ["search", "--k", "18", "--n", "4", *argv])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("found 0, stopped (" + reason + "), nodes ")
    assert proc.stdout.count("\n") == 1


# Hosts whose search recurses deeper than Python's frame limit: the widest
# ranks of P(12,2) hold over 1000 open chains for the walker, and every row
# of P(0,1500) is a chain of 1500 elements for the prover's row generator.
# Counting P(12,2) stops at the row limit first.
@pytest.mark.parametrize("argv, reason", [
    (["--k", "12", "--n", "2", "--limit", "2"], "depth-limit"),
    (["--k", "0", "--n", "1500", "--forbid-taut"], "depth-limit"),
    (["--k", "12", "--n", "2"], "row-limit"),
], ids=["walker", "prover", "count"])
def test_searches_past_the_frame_limit_stop_with_a_status_line(argv, reason):
    proc = run_limited(1 << 29, ["search", *argv])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("found 0, stopped (" + reason + "), nodes ")
    assert proc.stdout.count("\n") == 1
