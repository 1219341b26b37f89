"""Command-line front end.

Thin wrappers over the library: every subcommand reads/writes the text
document format from :mod:`scdkit.data_io` through files or stdio, so
commands compose in shell pipelines.  Exit codes: 0 success, 1 invalid
input or out-of-region request, 2 search stopped by budget before
reaching a conclusion.

The default node budget for ``search`` can be set with the
``SCDKIT_NODE_BUDGET`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import constructions, data_io, search
from .chains import necessary_conditions
from .posets import build_cuboid, build_hypercube
from .search import SearchConfig

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2

NODE_BUDGET_ENV = "SCDKIT_NODE_BUDGET"


class CliError(Exception):
    """One-line user-facing failure; maps to exit code 1."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_scd(path: str):
    return data_io.parse_scd(_read_text(path))


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="ascii")
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
    _emit(data_io.render_pictorial(build_hypercube(args.k), args.n), args.out)
    return EXIT_OK


def _cmd_tables(args) -> int:
    _emit(data_io.serialize_scd(data_io.builtin_table(args.id)), args.out)
    return EXIT_OK


def _cmd_generate(args) -> int:
    _emit(data_io.serialize_scd(constructions.generate(args.k, args.n)), args.out)
    return EXIT_OK


def _cmd_shift(args) -> int:
    _emit(data_io.serialize_scd(constructions.shift(_read_scd(args.file), args.to)), args.out)
    return EXIT_OK


def _cmd_collapse(args) -> int:
    _emit(data_io.serialize_scd(constructions.collapse(_read_scd(args.file))), args.out)
    return EXIT_OK


def _cmd_expand(args) -> int:
    scd = _read_scd(args.file)
    matchings = constructions.enumerate_matchings(constructions.middle_graph(scd))
    if not 0 <= args.matching < len(matchings):
        raise CliError(
            f"--matching must be in 0..{len(matchings) - 1} "
            "(unmatched-vertex rank order)"
        )
    _emit(data_io.serialize_scd(constructions.expand(scd, matchings[args.matching])), args.out)
    return EXIT_OK


def _cmd_repair(args) -> int:
    _emit(data_io.serialize_scd(constructions.repair(_read_scd(args.file))), args.out)
    return EXIT_OK


def _cmd_lift(args) -> int:
    scd = _read_scd(args.file)
    k = scd.host.chain_factor[0].hypercube_k
    _emit(
        data_io.serialize_scd(constructions.extend_dimension(scd, k + args.with_hypercube)),
        args.out,
    )
    return EXIT_OK


def _cmd_search(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get(NODE_BUDGET_ENV)
        budget = int(env) if env else None
    cfg = SearchConfig(
        forbid_taut=args.forbid_taut,
        limit=args.limit,
        node_budget=budget,
        use_symmetry=args.use_symmetry,
    )
    host = build_cuboid(args.k, args.n)
    if args.limit is None and not args.out:
        # Only the number is printed, so count without building decompositions.
        outcome = search.count_search(host, cfg)
        found = outcome.count
    else:
        outcome = search.enumerate_scds(host, cfg)
        found = len(outcome.found)
    status = "exhausted" if outcome.exhausted else f"stopped ({outcome.stop_reason})"
    print(f"found {found}, {status}, nodes {outcome.nodes_visited}")
    if args.out and outcome.found:
        _emit(data_io.serialize_scd(outcome.found[0]), args.out)
    conclusive = outcome.exhausted or outcome.stop_reason == "limit"
    return EXIT_OK if conclusive else EXIT_INCONCLUSIVE


def _cmd_check(args) -> int:
    cube = build_hypercube(args.k)
    conditions = necessary_conditions(cube, for_nontaut=True)
    print(f"Q{args.k} rank vector: {cube.rank_vector}")
    print(f"rank_symmetric: {conditions.rank_symmetric}")
    print(f"middle_rank_ok: {conditions.middle_rank_ok}")
    if not conditions.middle_rank_ok:
        print(
            f"no taut-free decomposition of P({args.k},n) exists for any n: "
            "the middle rank outnumbers what lower ranks can absorb"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdkit",
        description="Symmetric chain decompositions of cuboids Q_k x n, "
        "with taut-chain avoidance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a decomposition document")
    p.add_argument("file", nargs="?", default="-", help="document path, or - for stdin")
    p.add_argument("--require-nontaut", action="store_true")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("show", help="render the packet grid of Q_k x n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("tables", help="emit a bundled certificate decomposition")
    p.add_argument("--id", required=True, choices=["P53", "P54", "P55"])
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("generate", help="generate a taut-free decomposition of P(k,n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("shift", help="restretch the middle block to a new chain length")
    p.add_argument("--file", required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_shift)

    p = sub.add_parser("collapse", help="project P x (rk+1) down to P x rk")
    p.add_argument("--file", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_collapse)

    p = sub.add_parser("expand", help="lift P x rk up to P x (rk+1) via a matching")
    p.add_argument("--file", required=True)
    p.add_argument("--matching", type=int, required=True,
                   help="0-based index in unmatched-vertex rank order")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("repair", help="reroute the maximal chain so collapse stays taut-free")
    p.add_argument("--file", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_repair)

    p = sub.add_parser("lift", help="widen the hypercube factor by extra dimensions")
    p.add_argument("--file", required=True)
    p.add_argument("--with-hypercube", type=int, required=True, metavar="J",
                   help="number of extra hypercube dimensions")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("search", help="enumerate decompositions of Q_k x n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid-taut", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--budget", type=int, help="node budget (default from env or 10^8)")
    p.add_argument("--use-symmetry", action="store_true",
                   help="prune by bit permutations; needs --limit 1")
    p.add_argument("--out", help="write the first decomposition found")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("check", help="report the counting conditions for Q_k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs far more than parsing with it, and
    # parse_args keeps no state between calls: each returns a new Namespace.
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
