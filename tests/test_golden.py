"""Golden reports: stored JSON reports that the code must keep reproducing.

Each case is a config file under ``tests/data/golden`` with the report it
gave when it was stored, minus ``meta.timing_seconds``.  Floats are compared
with ``math.isclose(rel_tol=1e-12, abs_tol=1e-12)``; the absolute floor is
there because normalized residuals of ~1e-16 change at rounding level.  The
numbers inside strings (assertion details print such residuals) are
compared the same way and the rest of the text exactly.  Everything else
(verdicts, ranks, counts) must match exactly.

Run this module as a script to regenerate every config and report:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from goursatkit import catalog
from goursatkit.cli import parse_config_text, run
from goursatkit.expr import to_text

GOLDEN = Path(__file__).parent / "data" / "golden"

ALL_SYSTEMS = "S10,S11,S12,S13,S10_11,THETA_RHO,DELTA2,DELTA3,DELTA4,DELTA4B,DELTA4P"
SUITES = f"[suites]\nrun = all\nfrobenius_systems = {ALL_SYSTEMS}\nidentity_trials = 20\n"

# F = A(x1, x2) B(x3, x4) + C(x1, x5) makes F13 F24 = F14 F23 identically
FIRST_KIND_EXPR = "(x1 + x2^2/2)*exp(x3 + x4/2) + x1*x5 + x5^2/2"
# the closed-n8 benchmark web
CLOSED_N8_EXPR = ("(x1+x2)*(x3+x4) + exp(x5*x6) + sin(x1*x5) + x1*x3^2*x5/3"
                  " + x2*x4*x5^2/5 + x6*x7 + cos(x7*x8)")


def _expr_config(n: int, expr: str) -> str:
    return (f"[web]\nn = {n}\nsource = expr\nexpr = {expr}\n\n"
            "[sampling]\nbox = 0.5:1.5\ncount = 8\nseed = 0\n\n" + SUITES)


def _family_config(spec) -> str:
    slot = f"slot = {spec.slot}\n" if spec.kind == "second" else ""
    return (f"[web]\nn = {spec.arity}\nsource = family\n\n"
            f"[family]\nkind = {spec.kind}\nphi = {to_text(spec.phi)}\n"
            f"psi = {to_text(spec.psi)}\n{slot}a0 = {spec.a0!r}\n\n"
            "[sampling]\nbox = 0.8:1.2\ncount = 8\nseed = 0\n\n" + SUITES)


def case_configs() -> dict[str, str]:
    """Config text per case name, built from the catalog generators."""
    return {
        "first-kind-closed-n5": _expr_config(5, FIRST_KIND_EXPR),
        "closed-n8": _expr_config(8, CLOSED_N8_EXPR),
        "family1-n5": _family_config(
            catalog.random_first_kind_spec(np.random.default_rng(0), 5)),
        "family2-n6": _family_config(
            catalog.random_second_kind_spec(np.random.default_rng(0), 6)),
    }


CASES = sorted(path.stem for path in GOLDEN.glob("*.cfg"))


def report_for(config_text: str) -> dict:
    data = json.loads(run(parse_config_text(config_text)).to_json())
    del data["meta"]["timing_seconds"]
    return data


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(want: float, got: float) -> bool:
    return math.isclose(want, got, rel_tol=1e-12, abs_tol=1e-12)


def mismatches(want, got, path: str = "$"):
    """Paths where ``got`` differs from ``want`` beyond the golden tolerance."""
    if isinstance(want, float) and type(got) in (float, int):
        if not _close(want, got):
            yield f"{path}: {want!r} != {got!r}"
    elif isinstance(want, str) and isinstance(got, str):
        numbers = NUMBER.findall(want), NUMBER.findall(got)
        if (NUMBER.split(want) != NUMBER.split(got) or len(numbers[0]) != len(numbers[1])
                or not all(_close(float(w), float(g)) for w, g in zip(*numbers))):
            yield f"{path}: {want!r} != {got!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            yield f"{path}: keys {sorted(want)} != {sorted(got)}"
            return
        for key in want:
            yield from mismatches(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield f"{path}: length {len(want)} != {len(got)}"
            return
        for i, (w, g) in enumerate(zip(want, got)):
            yield from mismatches(w, g, f"{path}[{i}]")
    elif type(want) is not type(got) or want != got:
        yield f"{path}: {want!r} != {got!r}"


def test_cases_present():
    assert CASES == sorted(case_configs())


@pytest.mark.parametrize("name", CASES)
def test_golden_report(name):
    config_text = (GOLDEN / f"{name}.cfg").read_text(encoding="utf-8")
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    problems = list(mismatches(want, report_for(config_text)))
    assert not problems, "\n".join(problems[:20])


def test_mismatches_tolerance():
    assert not list(mismatches({"r": [1e-16, 2.0]}, {"r": [0.0, 2.0 + 1e-13]}))
    assert list(mismatches({"r": 2.0}, {"r": 2.0 + 1e-11}))
    assert list(mismatches({"k": 2}, {"k": 2.0}))
    assert list(mismatches({"v": "integrable"}, {"v": "inconclusive"}))
    assert list(mismatches({"ok": True}, {"ok": 1}))
    # numbers inside strings: float tolerance; the text around them: exact
    assert not list(mismatches({"d": "gap 1.855e-16"}, {"d": "gap 1.477e-16"}))
    assert list(mismatches({"d": "gap 2.2e-04"}, {"d": "gap 2.5e-16"}))
    assert list(mismatches({"d": "gap"}, {"d": "gaps"}))


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, config_text in case_configs().items():
        (GOLDEN / f"{name}.cfg").write_text(config_text, encoding="utf-8")
        text = json.dumps(report_for(config_text), indent=2, sort_keys=True)
        (GOLDEN / f"{name}.json").write_text(text + "\n", encoding="utf-8")
        print(f"wrote {name}.cfg and {name}.json")


if __name__ == "__main__":
    regenerate()
