import json
import os
import subprocess
import sys
from pathlib import Path

import goursatkit

SRC = Path(goursatkit.__file__).resolve().parents[1]

PROBE = """
import json, sys, types
import goursatkit
loaded = sorted(m for m in sys.modules if m.startswith(("goursatkit.", "numpy")))
import goursatkit.classify
print(json.dumps([loaded, isinstance(goursatkit.classify, types.ModuleType)]))
"""


def test_package_import_loads_no_submodule():
    # the package root holds __version__ alone: a fresh import compiles no
    # suite and loads no numpy, and no root name hides a submodule
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == [[], True]
