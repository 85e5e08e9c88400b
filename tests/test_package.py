import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goursatkit

SRC = Path(goursatkit.__file__).resolve().parents[1]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

PROBE = """
import json, sys, types
import goursatkit
loaded = sorted(m for m in sys.modules if m.startswith(("goursatkit.", "numpy")))
import goursatkit.classify
print(json.dumps([loaded, isinstance(goursatkit.classify, types.ModuleType)]))
"""


# the package's submodules, and json, that ``code`` loads in a fresh process
LOADS = """
import sys
{code}
loaded = sorted(m for m in sys.modules if m.startswith("goursatkit.") or m == "json")
import json
print(json.dumps(loaded))
"""
# what config parsing and build_web need
CLI_MODULES = ["goursatkit." + name
               for name in ("classify", "cli", "expr", "exterior", "jets", "web")]


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def _loaded_by_run(golden: str, suites: str) -> list[str]:
    """The modules a fresh ``cli.run`` of a golden config loads, with its
    [suites] run replaced by ``suites``."""
    text = (GOLDEN / f"{golden}.cfg").read_text().replace("run = all", f"run = {suites}")
    return json.loads(_fresh(LOADS.format(code=f"""
from goursatkit import cli
cli.run(cli.parse_config_text({text!r}))
""")))


def test_package_import_loads_no_submodule():
    # the package root holds __version__ alone: a fresh import compiles no
    # suite and loads no numpy, and no root name hides a submodule
    assert json.loads(_fresh(PROBE)) == [[], True]


def test_cli_import_loads_what_config_parsing_needs():
    # no suite module past classify and exterior, and not json: the report
    # writer imports it
    assert json.loads(_fresh(LOADS.format(code="from goursatkit import cli"))) == CLI_MODULES


@pytest.mark.parametrize("suites", ["classify", "frobenius", "classify, frobenius"])
def test_closed_form_run_loads_no_identities_or_families(suites):
    assert _loaded_by_run("closed-n8", suites) == CLI_MODULES


def test_family_run_loads_families():
    assert _loaded_by_run("family2-n6", "classify") == sorted(
        CLI_MODULES + ["goursatkit.families"])


def test_identities_run_loads_identities():
    assert _loaded_by_run("closed-n8", "identities") == sorted(
        CLI_MODULES + ["goursatkit.identities"])


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
