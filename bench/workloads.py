"""The benchmark's workloads: seeded inputs and the expected outcome of
every request.

A workload turns a seed into a fixed list of ``scdkit`` argv lists plus
the input files they read, all written before any timed pass, so the
program receives only generated files and argv lists.  The amount of
work per pass does not depend on the seed: in doc_stream the seed picks
the order, the bit permutations and which documents are mutated, never
how many; generate_wide and search_prove run fixed lists.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checker import check_document, middle_rank_size, permuted_variant, swap_mutant

BENCH = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH / "expected.json"

# Why each workload exists, which layers it stresses and the layer ->
# end-to-end metric map are recorded in layers.json.


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def generated_problem(table: dict, k: int, n: int, text: str) -> str | None:
    """A ``generate`` output must match the digest table byte for byte
    and pass the independent checker."""
    want = table.get(f"P({k},{n})")
    if want is None:
        return f"P({k},{n}) has no entry in the digest table"
    if digest(text) != want:
        return f"P({k},{n}) bytes differ from the digest table"
    return check_document(text, k, n)


Check = Callable[[int | None, str, str | None], str | None]


@dataclass
class Request:
    """One CLI call; ``check(code, stdout, output_text)`` returns a failure
    reason or None.  ``out`` is the file the call must write, if any."""

    argv: list[str]
    check: Check
    out: Path | None = None


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = work / "inputs"
        self.outputs = work / "outputs"
        self.inputs.mkdir(parents=True)
        self.outputs.mkdir(parents=True)
        self.requests: list[Request] = []
        self.problems: list[str] = []  # findings that make the run incorrect

    def prepare(self, run_untimed: Callable[[list[list[str]]], list[dict]]) -> None:
        """Build ``self.requests``; ``run_untimed`` runs argv lists in a
        child process outside any timed pass."""
        raise NotImplementedError


class GenerateWide(Workload):
    """Cold ``generate --out`` of wide hosts: host construction dominates."""

    name = "generate_wide"
    # A fixed list in ascending size, the same for every seed: generate
    # is deterministic, and the order is the only input left to vary, but
    # the process keeps every host it built, so the order moves peak RSS
    # (by 35%) and per-request latency (by 15%, through the garbage
    # collector) between seeds without any change in the program.
    # k >= 13 is left out: P(13,4) alone costs about as much as this list.
    PAIRS = ((9, 4), (10, 3), (10, 4), (11, 3), (12, 4))

    def prepare(self, run_untimed) -> None:
        table = expected()["digests"]
        for k, n in self.PAIRS:
            out = self.outputs / f"P{k}_{n}.scd"

            def check(code, stdout, text, k=k, n=n):
                if code != 0 or text is None:
                    return f"generate P({k},{n}): exit {code}, output {'missing' if text is None else 'written'}"
                return generated_problem(table, k, n, text)

            argv = ["generate", "--k", str(k), "--n", str(n), "--out", str(out)]
            self.requests.append(Request(argv, check, out))


class DocStream(Workload):
    """A stream of validate and shift requests over four warm hosts."""

    name = "doc_stream"
    # host (k, n) -> shift target m, or None where shift does not apply
    # (shift needs n, m >= k+1).  n <= 10 documents use the compact token
    # spelling, larger n the general one; m is fixed per host so that the
    # shifted host stays warm after its first build.
    HOSTS = {(8, 12): 10, (9, 6): None, (6, 40): 32, (7, 9): 11}
    # (request kind, mutated) -> documents per host: 32 per host, about a
    # quarter of them shifts, one in eight carrying a one-element swap.
    SHIFT_MIX = {("shift", True): 1, ("shift", False): 10,
                 ("validate", True): 3, ("validate", False): 18}
    VALIDATE_MIX = {("validate", True): 4, ("validate", False): 28}

    def prepare(self, run_untimed) -> None:
        table = expected()["digests"]
        base_argv = [
            ["generate", "--k", str(k), "--n", str(n), "--out", str(self.inputs / f"base{k}_{n}.scd")]
            for k, n in self.HOSTS
        ]
        outcomes = run_untimed(base_argv)
        plan = []
        for (k, n), argv, outcome in zip(self.HOSTS, base_argv, outcomes):
            path = Path(argv[-1])
            if outcome["code"] != 0 or not path.exists():
                raise RuntimeError(f"cannot build doc_stream input P({k},{n}): {outcome['stderr']}")
            base = path.read_text(encoding="ascii")
            base_problem = generated_problem(table, k, n, base)
            m = self.HOSTS[(k, n)]
            mix = self.VALIDATE_MIX if m is None else self.SHIFT_MIX
            for (kind, mutated), count in mix.items():
                plan += [(k, n, m, kind, mutated, base, base_problem)] * count
        self.rng.shuffle(plan)

        for i, (k, n, m, kind, mutated, base, base_problem) in enumerate(plan):
            text = permuted_variant(base, self.rng)
            if mutated:
                text = swap_mutant(text, self.rng)
            if (check_document(text, k, n) is None) == mutated:
                self.problems.append(
                    f"checker self-test: {'accepted a mutated' if mutated else 'rejected an unmutated'} "
                    f"P({k},{n}) input"
                )
            doc = self.inputs / f"d{i:03d}.scd"
            doc.write_text(text, encoding="ascii")
            if kind == "validate":
                argv = ["validate", str(doc), "--require-nontaut"]
                check, out = self._validate_check(k, n, mutated, base_problem), None
            else:
                out = self.outputs / f"d{i:03d}.scd"
                argv = ["shift", "--file", str(doc), "--to", str(m), "--out", str(out)]
                check = self._shift_check(k, m, mutated, base_problem)
            self.requests.append(Request(argv, check, out))

    @staticmethod
    def _validate_check(k, n, mutated, base_problem) -> Check:
        verdict = f"{middle_rank_size(k, n)} chains, 0 taut\n"

        def check(code, stdout, text):
            if base_problem:
                return f"base document: {base_problem}"
            if mutated:
                return None if code == 1 and "finding:" in stdout else f"mutant accepted: exit {code}"
            return None if code == 0 and stdout == verdict else f"valid document: exit {code}, {stdout!r}"

        return check

    @staticmethod
    def _shift_check(k, m, mutated, base_problem) -> Check:
        def check(code, stdout, text):
            if base_problem:
                return f"base document: {base_problem}"
            if mutated:
                return None if code == 1 and text is None else f"mutant shifted: exit {code}"
            if code != 0 or text is None:
                return f"shift to {m}: exit {code}"
            return check_document(text, k, m)

        return check


STATUS = re.compile(r"found (\d+), (exhausted|stopped \([^)]*\)), nodes \d+\n")


class SearchProve(Workload):
    """Search instances with known verdicts."""

    name = "search_prove"

    def prepare(self, run_untimed) -> None:
        # The instances run in table order for every seed: as with
        # generate_wide, the order moved peak RSS (by 7%) and latency
        # between seeds through what the process retains.
        for i, inst in enumerate(expected()["search_prove"]):
            argv = ["search", *inst["args"]]
            out = None
            if inst.get("out"):
                out = self.outputs / f"s{i}.scd"
                argv += ["--out", str(out)]
            self.requests.append(Request(argv, self._check(inst), out))

    @staticmethod
    def _check(inst: dict) -> Check:
        args = inst["args"]
        k, n = int(args[args.index("--k") + 1]), int(args[args.index("--n") + 1])

        def check(code, stdout, text):
            match = STATUS.fullmatch(stdout)
            if match is None:
                return f"search P({k},{n}): exit {code}, unexpected output {stdout!r}"
            seen = {"code": code, "found": int(match[1]), "exhausted": match[2] == "exhausted"}
            if seen not in inst["accept"]:
                return f"search P({k},{n}): verdict {seen} not in {inst['accept']}"
            if inst.get("out"):
                if seen["found"] == 0:
                    return None if text is None else "output written without a find"
                if text is None:
                    return "find not written"
                return check_document(text, k, n)
            return None

        return check


WORKLOADS = {w.name: w for w in (GenerateWide, DocStream, SearchProve)}
