"""The benchmark's traced run wraps program functions by name.

``perfbench/spans.py`` lists every (module, class, attribute) it wraps in
``SPANS`` and ``COUNTS``.  A rename in ``src/`` that drops one of them would
break the traced run without failing any other test, so each name must
resolve on a fresh import of the package, made here in a new interpreter.
``perfbench/selftest.py`` feeds the bench's output checks real outputs of
the program and corrupted copies; it runs here in a new interpreter too.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

RESOLVE = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
importlib.import_module("olmcheck")
missing = []
for modname, cls, attr, _ in spans.SPANS + spans.COUNTS:
    owner = importlib.import_module(modname)
    if cls:
        owner = getattr(owner, cls, None)
    if not callable(getattr(owner, attr, None)):
        missing.append([modname, cls, attr])
print(json.dumps(missing))
"""


def test_every_wrapped_name_resolves():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", RESOLVE, str(ROOT / "perfbench" / "spans.py")],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_bench_selftest_passes():
    out = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.rstrip().endswith("0 case(s) wrong")
