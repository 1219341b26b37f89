"""Out-of-process runs for the tests: Python code in a fresh interpreter
that imports the scdkit under test, optionally under an address-space
limit, so that a test can bound memory, cold-start an import or close a
stdout without touching the interpreter running the suite."""

import os
import subprocess
import sys
from pathlib import Path

import scdkit

# The directory that holds the scdkit package under test.
SRC = str(Path(scdkit.__file__).resolve().parents[1])

# Run before the code of a limited run: takes the limit, in bytes, off the
# front of the arguments and sets it as the address-space limit.
LIMIT = """
import resource, sys
limit = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
"""


def python(code, *args, limit=None, env=None, start=subprocess.run, **kwargs):
    """``start`` (``subprocess.run`` or ``subprocess.Popen``) of a fresh
    interpreter running ``code`` with ``args`` as ``sys.argv[1:]``, under
    ``limit`` bytes of address space when given.  Its environment is this
    one with scdkit's source as PYTHONPATH, and ``env`` on top; ``kwargs``
    go to ``start``."""
    if limit is not None:
        code, args = LIMIT + code, (str(limit), *args)
    environment = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    return start([sys.executable, "-c", code, *args], env=environment, **kwargs)
