"""One benchmark pass: run a request list through ``scdkit.cli.run``.

Usage: python3 child.py SRC_DIR REQUESTS_JSON RESULT_JSON TRACE

Each pass is its own process because ``generate``, ``build_cuboid``,
``builtin_table`` and ``_taut_free_p56`` are ``lru_cache``d: a second
pass in one process would only measure cache hits.  Requests run
back to back, each issued when the previous one returns (a closed loop
with one client).  The result records when the process was ready
(monotonic clock, comparable with the parent's), the pass wall time,
the process's peak resident set, each request's exit code, latency and captured stdout/stderr, and with
TRACE=1 the spans of :mod:`spans`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set size of this process image (VmHWM).

    Not ``ru_maxrss``: Linux carries the peak of the image replaced by
    exec, the parent's size at the fork, into the child's ``ru_maxrss``,
    which puts the benchmark's own size under every measurement.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    src, requests_path, result_path, trace = sys.argv[1:]
    sys.path.insert(0, src)
    from scdkit import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"scdkit was imported from {cli.__file__}, not from {src}")
    requests = json.loads(Path(requests_path).read_text(encoding="utf-8"))
    ready = time.monotonic()

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    clock = time.perf_counter
    start = clock()
    for index, argv in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = cli.run(argv)
            except Exception:  # a crash is a failed request, not a failed pass
                code = None
                traceback.print_exc()
            t1 = clock()
        outcomes.append({
            "code": code,
            "ms": (t1 - t0) * 1e3,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        })
    wall_s = clock() - start

    result = {"ready": ready, "wall_s": wall_s, "rss_mb": peak_rss_mb(), "outcomes": outcomes}
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
