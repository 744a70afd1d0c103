"""The traced benchmark's bindings: every name its tracer must wrap is
wrapped.  A refactor can leave a name bound to an unwrapped original (a
class attribute left on a dataclass, a from-import copy); the rest of the
suite passes then, but ``perfbench/run.py --trace 1`` stops before it
measures.  The check is perfbench's own ``smoke.check_bindings``, run in a
fresh interpreter from the repository root as the smoke test runs it."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHECK = (
    "import json, sys\n"
    "sys.path.insert(0, 'perfbench')\n"
    "import smoke\n"
    "print(json.dumps(smoke.check_bindings()))\n"
)


def test_tracer_wraps_every_binding():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
