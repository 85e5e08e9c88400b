import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import goursatkit

SRC = Path(goursatkit.__file__).resolve().parents[1]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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


def test_perfbench_tracer_installs():
    # the benchmark's tracer binds exterior.CoFormField, jets.Jet,
    # web.WebFunction and cli.RunReport when it is imported, and wraps the
    # program's functions by name when it is installed
    from goursatkit import cli

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    run, t = cli.run, tracer.Tracer()
    try:
        t.install()
        assert cli.run is not run
    finally:
        t.uninstall()
    assert cli.run is run
