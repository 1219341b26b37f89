"""Command-line front end.

Thin wrappers over the library that compose in shell pipelines: a path
of ``-`` reads stdin, and ``--out -`` or no ``--out`` writes stdout.
``validate`` prints a report, ``show`` a packet grid, and ``search`` a
summary, on stderr when its document goes to stdout.  Every other command
names its one library call as ``build`` in the parser; ``_cmd_write`` has
``_emit`` write what that returns block by block, as ``data_io.write_lines``
yields it, never whole (``data_io.serialize_scd`` joins the blocks for
library callers), and ``generate`` (k > 5) and ``lift`` hold only the line
of each chain the lift has checked.  An ``--out`` file is opened only once
the first block exists, so a refused document leaves none.  Stdin and files
are decoded alike, as UTF-8 with an undecodable byte read as U+FFFD.  Exit
codes: 0 success, 1 invalid input, out-of-region request or output that
cannot be written, 2 search stopped by budget before reaching a conclusion.

A call that names a command builds that command's parser alone, from its
row of ``_COMMANDS``, and only one that names none (``--help``, no
arguments, an unknown command) builds all ten; either way help, usage
and error texts are those of the full parser.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Iterable

from . import constructions, data_io, search
from .chains import SCD
from .posets import build_cuboid, build_hypercube, cuboid_shape

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2


class CliError(Exception):
    """One-line user-facing failure; maps to exit code 1."""


def _read_scd(path: str):
    # Stdin and files alike: bytes decoded once as UTF-8, a byte that is no
    # UTF-8 read as U+FFFD, so parse_scd and not the codec names the first
    # character that is not ASCII, with one message wherever it was read.
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return data_io.parse_scd(data.decode("utf-8", "replace"))


def _emit(blocks: Iterable[str], out: str | None) -> None:
    """Write ``blocks`` one at a time to stdout, or to the file ``out``.

    The file is opened only once the first block exists, so a document
    refused by its writer leaves no file.
    """
    blocks = iter(blocks)
    first = next(blocks)
    if out is None or out == "-":
        sys.stdout.write(first)
        sys.stdout.writelines(blocks)  # one write call per block
        return
    try:
        with open(out, "w", encoding="ascii", newline="") as stream:
            stream.write(first)
            stream.writelines(blocks)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _cmd_validate(args) -> int:
    report = _read_scd(args.file).report
    print(f"{report.chain_count} chains, {report.taut_count} taut")
    for message in report.messages:
        print(f"finding: {message}")
    if not report.valid:
        return EXIT_INVALID
    if args.require_nontaut and report.taut_count:
        print(f"taut chains at indices {list(report.taut_chain_indices)}")
        return EXIT_INVALID
    return EXIT_OK


def _cmd_show(args) -> int:
    _emit([data_io.render_pictorial(build_hypercube(args.k), args.n)], args.out)
    return EXIT_OK


def _cmd_write(args) -> int:
    doc = args.build(args)
    _emit(data_io.write_scd(doc) if isinstance(doc, SCD) else doc, args.out)
    return EXIT_OK


def _lift_blocks(scd: SCD, k_prime: int, *notes: str):
    """The document of ``extend_dimension(scd, k_prime).with_notes(*notes)``,
    each chain spelled as the lift builds and checks it, then dropped."""
    host, lines, _ = constructions._lift(scd, k_prime, data_io.chain_lines)
    return data_io.write_lines(host, scd.notes + notes, lines, list)


def _lift(args):
    scd = _read_scd(args.file)
    k, _ = cuboid_shape(scd.host)
    return _lift_blocks(scd, k + args.with_hypercube)


def _cmd_search(args) -> int:
    # Only the first decomposition is written, so --out alone searches for one.
    limit = 1 if args.limit is None and args.out else args.limit
    if args.use_symmetry and limit != 1:
        raise CliError("--use-symmetry is only sound for existence queries (--limit 1)")
    host = build_cuboid(args.k, args.n)
    first = None
    if limit is None:
        # Only the number is printed, so count without building decompositions.
        found, nodes, reason = search.count_search(host, forbid_taut=args.forbid_taut,
                                                   node_budget=args.budget)
    else:
        # Each decomposition is counted as the search finds it, and only the
        # first, the one --out writes, is decoded.
        found = 0
        try:
            for cover, solution in search._search(host, args.forbid_taut, limit, args.budget):
                if not found and args.out:
                    first = search._decoded(cover, solution, host)
                found += 1
        except search._StopSearch as stop:
            nodes, reason = stop.nodes, stop.reason
    status = "exhausted" if reason is None else f"stopped ({reason})"
    summary_out = sys.stderr if args.out == "-" else sys.stdout
    print(f"found {found}, {status}, nodes {nodes}", file=summary_out)
    if first is not None:
        _emit(data_io.write_scd(first), args.out)
    return EXIT_OK if reason in (None, "limit") else EXIT_INCONCLUSIVE


# Each command's help, its arguments as (name, add_argument keywords)
# pairs, and its defaults: ``fn`` runs it, and ``build`` names the library
# call whose result ``_cmd_write`` writes.
_K = ("--k", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_FILE = ("--file", {"required": True})
_OUT = ("--out", {})
_COMMANDS = {
    "validate": ("validate a decomposition document", [
        ("file", {"nargs": "?", "default": "-", "help": "document path, or - for stdin"}),
        ("--require-nontaut", {"action": "store_true"}),
    ], {"fn": _cmd_validate}),
    "show": ("render the packet grid of Q_k x n", [_K, _N, _OUT], {"fn": _cmd_show}),
    "tables": ("emit a bundled certificate decomposition", [
        ("--id", {"required": True, "choices": sorted(data_io.BUILTIN_TABLES)}), _OUT,
    ], {"fn": _cmd_write, "build": lambda a: data_io.builtin_table(a.id)}),
    "generate": ("generate a taut-free decomposition of P(k,n)", [_K, _N, _OUT], {
        "fn": _cmd_write, "build": lambda a: constructions._generate(a.k, a.n, _lift_blocks),
    }),
    "shift": ("restretch the middle block to a new chain length", [
        _FILE, ("--to", {"type": int, "required": True}), _OUT,
    ], {"fn": _cmd_write, "build": lambda a: constructions.shift(_read_scd(a.file), a.to)}),
    "collapse": ("project P x (rk+1) down to P x rk", [_FILE, _OUT], {
        "fn": _cmd_write, "build": lambda a: constructions.collapse(_read_scd(a.file)),
    }),
    "expand": ("lift P x rk up to P x (rk+1) via a matching", [
        _FILE,
        ("--matching", {"type": int, "required": True,
                        "help": "0-based index in unmatched-vertex rank order"}),
        _OUT,
    ], {"fn": _cmd_write,
        "build": lambda a: constructions.expand(_read_scd(a.file), a.matching)}),
    "repair": ("reroute the maximal chain so collapse stays taut-free", [_FILE, _OUT], {
        "fn": _cmd_write, "build": lambda a: constructions.repair(_read_scd(a.file)),
    }),
    "lift": ("widen the hypercube factor by extra dimensions", [
        _FILE,
        ("--with-hypercube", {"type": int, "required": True, "metavar": "J",
                              "help": "number of extra hypercube dimensions"}),
        _OUT,
    ], {"fn": _cmd_write, "build": _lift}),
    "search": ("enumerate decompositions of Q_k x n", [
        _K, _N,
        ("--forbid-taut", {"action": "store_true"}),
        ("--limit", {"type": int}),
        ("--budget", {"type": int, "default": search.DEFAULT_NODE_BUDGET,
                      "help": "node budget (default 10^8)"}),
        ("--use-symmetry", {"action": "store_true",
                            "help": "accepted with --limit 1, or --out and no --limit, which "
                            "already search up to bit permutations; changes nothing"}),
        ("--out", {"help": "write the first decomposition found"}),
    ], {"fn": _cmd_search}),
}


# Building a parser costs far more than parsing with it, and parse_args
# keeps no state between calls: each returns a new Namespace.
@functools.cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command for None.  A
    one-command parser names every command in its usage, so a usage error
    it reports reads as the full parser's would."""
    parser = argparse.ArgumentParser(
        prog="scdkit",
        description="Symmetric chain decompositions of cuboids Q_k x n, "
        "with taut-chain avoidance.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        text, arguments, defaults = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(**defaults)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A call that names a command builds that command's parser alone.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _parser(command).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for inconclusive
        # searches here, so usage problems map to the invalid-input code.
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # A reader that closed stdout (``| head``) ends the run silently, a
        # full disk with one line; what is left in the buffer goes to
        # devnull, so the interpreter's last flush is silent.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INVALID
    sys.exit(code)


if __name__ == "__main__":
    main()
