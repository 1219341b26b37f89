"""scdkit benchmark: end-to-end metrics of the CLI and per-layer metrics
from a traced run.

Usage, from the repository root:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--results DIR]
  python3 bench/run.py --workload all [--seed N] [--seconds S]
  python3 bench/run.py --write-digests
  python3 bench/compare.py BASE_DIR NEW_DIR

A run builds the workload's inputs from the seed, then repeats passes
over the workload's fixed request list until ``--seconds`` have passed
(at least three).  Each pass is one fresh child process (``child.py``)
that imports ``scdkit`` from ``src/`` and calls ``scdkit.cli.run(argv)``
for each request in turn.  Every request's exit code, stdout and output
file is checked outside the timed region by the independent checker
(``checker.py``) and the digest table (``expected.json``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

  setup_s       spawn of the child to scdkit imported and requests loaded
  wall_s        one pass over the request list
  peak_rss_mb   the child's peak resident set (VmHWM; see child.py)
  decided_frac  requests ending with a conclusive verdict (exit 0 or 1);
                below 1 only on search_prove, where budgets can run out
  req_p50_ms    median request latency, pooled over the run's passes
  req_p90_ms    90th percentile of the same pool

each the median over the run's passes where it is per pass.  Every
time is scaled to a reference machine speed (see ``calibrate``); the
raw medians stay in the ``--results`` file.  With
``--trace 1`` plain and traced passes alternate, and the line reports
the per-layer metrics of ``spans.py`` (medians over the traced passes)
plus ``trace.overhead_frac``, the traced over the plain median wall
time, minus one.  ``layers.json`` says which end-to-end metric each
layer metric should move, and on which workload.

Failed requests count in ``failed``; a run is ``correct`` only when no
request failed, the checker's self-test passed and, when traced, the
layer self times fit inside each traced pass.  ``--results DIR`` also
writes the whole run, with the commit, Python version, CPU count and
load average, as JSON for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, layer_metrics
from workloads import EXPECTED_PATH, WORKLOADS, DocStream, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = BENCH / ".work"
MIN_PASSES = 3
# Set-up takes about 0.05 s, so a pass alone gives too few samples of it:
# before each pass, this many processes start, load an empty request list
# and exit, and setup_s is the median over all of them.
SETUPS_PER_PASS = 2
# Reported times are rescaled to the speed at which calibrate() takes this
# long; see calibrate().
CALIBRATION_REF_S = 0.1


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel that, like scdkit,
    allocates tuples and dicts, sorts and loops.

    The machine this benchmark was defined on (2 vCPUs) is shared:
    neighbours slow a pass by up to 70% for minutes at a time, far beyond
    any useful bound.  The benchmark pins itself and its passes to
    one CPU and runs this kernel there before and after every pass; each
    run's times are scaled by CALIBRATION_REF_S over the median kernel
    time, which cancels that drift.  Raw times stay in the results file.
    """
    start = time.perf_counter()
    table = {}
    for bits in range(1 << 14):
        for level in range(4):
            table[(bits, level)] = (bits.bit_count() + level, [bits, level])
    sorted(table, key=lambda e: (table[e][0], e))
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


class Runner:
    """Starts child processes in one work directory and reaps each one."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def spawn(self, requests: Path, traced: bool) -> dict:
        self.count += 1
        result_path = self.work / f"result{self.count}.json"
        err_path = self.work / f"stderr{self.count}.txt"
        argv = [sys.executable, str(CHILD), str(SRC), str(requests), str(result_path),
                "1" if traced else "0"]
        with open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait()
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"pass process exited with {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        result["setup_s"] = result["ready"] - spawned
        return result

    def run_untimed(self, argvs: list[list[str]]) -> list[dict]:
        requests = self.work / f"untimed{self.count}.json"
        requests.write_text(json.dumps(argvs), encoding="utf-8")
        return self.spawn(requests, traced=False)["outcomes"]


class Verifier:
    """Checks each pass's outcomes; equal outcomes are checked once, and
    an output whose bytes change between passes is a failure."""

    def __init__(self, workload):
        self.workload = workload
        self.memo: dict[tuple, str | None] = {}
        self.first: dict[int, str] = {}

    def failures(self, outcomes: list[dict]) -> list[str]:
        found = []
        for i, (req, outcome) in enumerate(zip(self.workload.requests, outcomes)):
            text = None
            if req.out is not None and req.out.exists():
                text = req.out.read_text(encoding="ascii", errors="replace")
            sha = digest(text) if text is not None else None
            key = (i, outcome["code"], outcome["stdout"], sha)
            if key not in self.memo:
                self.memo[key] = req.check(outcome["code"], outcome["stdout"], text)
            reason = self.memo[key]
            if sha is not None and self.first.setdefault(i, sha) != sha:
                reason = reason or "output bytes differ between passes"
            if reason:
                found.append(f"request {i} ({' '.join(req.argv)}): {reason}")
        return found


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # see calibrate()
    started = time.time()
    load = os.getloadavg()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work)
        runner = Runner(work)
        workload.prepare(runner.run_untimed)
        requests = work / "requests.json"
        requests.write_text(json.dumps([r.argv for r in workload.requests]), encoding="utf-8")
        empty = work / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        runner.spawn(empty, False)  # warm the bytecode and file caches before timing
        verifier = Verifier(workload)

        passes = []
        clock_start = time.monotonic()
        while len(passes) < (2 * MIN_PASSES - 2 if trace else MIN_PASSES) \
                or time.monotonic() - clock_start < seconds or (trace and len(passes) % 2):
            for old in workload.outputs.iterdir():
                old.unlink()
            traced = trace and len(passes) % 2 == 1
            before = calibrate()
            setups = [runner.spawn(empty, False)["setup_s"] for _ in range(SETUPS_PER_PASS)]
            result = runner.spawn(requests, traced)
            after = calibrate()
            outcomes = result["outcomes"]
            record = {
                "traced": traced,
                "setup_s": setups + [result["setup_s"]],
                "wall_s": result["wall_s"],
                "calibration_s": [before, after],
                "rss_mb": result["rss_mb"],
                "ms": [o["ms"] for o in outcomes],
                "decided": sum(o["code"] in (0, 1) for o in outcomes),
                "failures": verifier.failures(outcomes),
            }
            if traced:
                record["layers"], record["not_applicable"] = layer_metrics(
                    result["spans"], len(outcomes))
            passes.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(name, seed, seconds, trace, workload, passes, started, load)


def summarize(name, seed, seconds, trace, workload, passes, started, load) -> dict:
    problems = list(workload.problems)
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["ms"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    calibration = statistics.median([c for p in passes for c in p["calibration_s"]])
    scale = CALIBRATION_REF_S / calibration
    if trace:
        traced = [p for p in passes if p["traced"]]
        layer_names = traced[0]["layers"]
        metrics = {}
        for m in layer_names:
            value = statistics.median([p["layers"][m] for p in traced])
            metrics[m] = value / scale if m.endswith("_per_s") else \
                value * scale if m.endswith("_s") else value
        metrics["trace.overhead_frac"] = (
            statistics.median([p["wall_s"] for p in traced]) / statistics.median([p["wall_s"] for p in plain]) - 1
        )
        for p in traced:
            self_sum = sum(p["layers"][f"{layer}.self_s"] for layer in LAYERS)
            if self_sum > p["wall_s"]:
                problems.append(f"layer self times sum to {self_sum} s > traced wall {p['wall_s']} s")
        not_applicable = traced[0]["not_applicable"]
    else:
        pooled = [ms for p in plain for ms in p["ms"]]
        metrics = {
            "setup_s": statistics.median([s for p in passes for s in p["setup_s"]]) * scale,
            "wall_s": statistics.median([p["wall_s"] for p in plain]) * scale,
            "peak_rss_mb": statistics.median([p["rss_mb"] for p in plain]),
            "decided_frac": sum(p["decided"] for p in plain) / sum(len(p["ms"]) for p in plain),
            "req_p50_ms": statistics.median(pooled) * scale,
            "req_p90_ms": statistics.quantiles(pooled, n=10)[8] * scale,
        }
        not_applicable = []
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load,
        "started": started,
        "requests_per_pass": len(workload.requests),
        "calibration_s": calibration,
        "speed_scale": scale,
        "raw_wall_s": statistics.median([p["wall_s"] for p in plain]),
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "problems": problems,
        "not_applicable": not_applicable,
        "metrics": metrics,
        "correct": not failures and not problems,
    }


def report(result: dict, units: dict[str, str]) -> None:
    print(
        f"{result['workload']}: seed {result['seed']}, trace {result['trace']}, "
        f"{len(result['passes'])} passes of {result['requests_per_pass']} requests, "
        f"attempted {result['attempted']}, failed {result['failed']} "
        f"(failed_frac {result['failed_frac']}); commit {result['commit']}, "
        f"python {result['python']}, nproc {result['nproc']}, "
        f"load {' '.join(f'{x:.2f}' for x in result['loadavg_start'])}; "
        f"times scaled by {result['speed_scale']:.4f} (calibration {result['calibration_s']:.4f} s, "
        f"raw median wall {result['raw_wall_s']:.4f} s)"
    )
    for metric, value in result["metrics"].items():
        na = "  (not applicable: never called)" if metric in result["not_applicable"] else ""
        print(f"  {metric:36s} {value:>14.6g} {units[metric]}{na}")
    for line in result["failures"] + result["problems"]:
        print(f"  FAIL {line}")


def write_digests() -> None:
    """Rebuild the digest table from the program at the current commit."""
    pairs = sorted({(k, n) for k in range(9, 13) for n in (3, 4)} | set(DocStream.HOSTS))
    work = WORK / f"digests-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        table = {}
        for k, n in pairs:
            out = work / f"P{k}_{n}.scd"
            (outcome,) = runner.run_untimed([["generate", "--k", str(k), "--n", str(n), "--out", str(out)]])
            if outcome["code"] != 0:
                raise RuntimeError(f"generate P({k},{n}) failed: {outcome['stderr']}")
            table[f"P({k},{n})"] = digest(out.read_text(encoding="ascii"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    data["digests"] = table
    EXPECTED_PATH.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {EXPECTED_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="directory to write the run's JSON into")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running pass process is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "scdkit" / "__init__.py").is_file():
        print(f"error: no scdkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = declared()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        if set(result["metrics"]) != set(units):
            raise RuntimeError(f"{name} reports {sorted(result['metrics'])}, BENCHMARK.json declares {sorted(units)}")
        report(result, units)
        if args.results is not None:
            args.results.mkdir(parents=True, exist_ok=True)
            path = args.results / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
            path.write_text(json.dumps(result, indent=1), encoding="utf-8")
        results.append(result)

    def keyed(result: dict, metric: str) -> str:
        return metric if len(results) == 1 else f"{result['workload']}.{metric}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            keyed(r, m): {"value": v, "unit": units[m]}
            for r in results for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
