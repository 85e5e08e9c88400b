"""Benchmark workloads: config text from a seed, and the output check.

Each workload turns a seed into the text of a goursatkit config file; the
program under test sees only that text.  The seed picks the random family
spec (``family2-n6``) and is always the sampling seed.

The output check compares what a run decided -- exit status, assertion
names and outcomes, first/second kind, per-system verdict counts and kernel
dimensions, and the absence of failure records -- with ``expected.json``.
Report floats and digests are never pinned: a faster kernel may reorder
random draws or change the last digits.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

ALL_SYSTEMS = ("S10", "S11", "S12", "S13", "S10_11", "THETA_RHO",
               "DELTA2", "DELTA3", "DELTA4", "DELTA4B", "DELTA4P")

CLOSED_N8 = ("(x1+x2)*(x3+x4) + exp(x5*x6) + sin(x1*x5) + x1*x3^2*x5/3"
             " + x2*x4*x5^2/5 + x6*x7 + cos(x7*x8)")
CLOSED_N6 = "(x1+x2)*(x3+x4) + exp(x5*x6) + sin(x1*x5)"

# workload -> point count (the reference sizes); why each exists is in
# BENCHMARK.json and README.md
WORKLOADS = {"family2-n6": 128, "closed-n8": 256, "identities-algebra": 16}


def config_text(name: str, seed: int, count: int | None = None) -> str:
    """Config file text for workload ``name`` at ``seed``.

    ``count`` overrides the workload's point count (quick checks only).
    Imports goursatkit, so call it where the package is importable.
    """
    count = WORKLOADS[name] if count is None else count
    if name == "family2-n6":
        import numpy as np
        from goursatkit import catalog
        from goursatkit.expr import to_text

        spec = catalog.random_second_kind_spec(np.random.default_rng(seed), 6)
        return (
            "[web]\nn = 6\nsource = family\n\n"
            f"[family]\nkind = second\nphi = {to_text(spec.phi)}\n"
            f"psi = {to_text(spec.psi)}\nslot = {spec.slot}\na0 = {spec.a0!r}\n\n"
            f"[sampling]\nbox = 0.8:1.2\ncount = {count}\nseed = {seed}\n\n"
            "[suites]\nrun = all\n"
            "frobenius_systems = THETA_RHO,S10_11,DELTA2,DELTA3,DELTA4\n"
            "identity_trials = 200\n")
    if name == "closed-n8":
        return (
            f"[web]\nn = 8\nsource = expr\nexpr = {CLOSED_N8}\n\n"
            f"[sampling]\nbox = 0.5:1.5\ncount = {count}\nseed = {seed}\n\n"
            f"[suites]\nrun = all\nfrobenius_systems = {','.join(ALL_SYSTEMS)}\n"
            "identity_trials = 200\n")
    if name == "identities-algebra":
        return (
            f"[web]\nn = 6\nsource = expr\nexpr = {CLOSED_N6}\n\n"
            f"[sampling]\nbox = 0.8:1.2\ncount = {count}\nseed = {seed}\n\n"
            "[suites]\nrun = identities\nidentity_trials = 2000\n")
    raise KeyError(f"unknown workload {name!r}")


# --- output check -------------------------------------------------------------

def _has_failure(obj) -> bool:
    if isinstance(obj, dict):
        return "failure" in obj or any(_has_failure(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_failure(v) for v in obj)
    return False


def point_records(report: dict) -> list[bool]:
    """One flag per point record (classify point, Frobenius point entry,
    identities sample): True where the record carries a failure entry."""
    flags = []
    cls = report.get("classification")
    if cls is not None:
        arrays = [cls["first_kind_residuals"]["torsion_form_rel"],
                  cls["first_kind_residuals"]["pde_form_rel"]]
        if cls.get("second_kind_residuals"):
            arrays += [cls["second_kind_residuals"]["det_form_rel"],
                       cls["second_kind_residuals"]["pde_form_rel"]]
        for i in range(len(cls["points"])):
            flags.append(any(_has_failure(a[i]) for a in arrays))
    for entry in report.get("frobenius") or []:
        flags.extend(_has_failure(p) for p in entry["points"])
    idents = report.get("identities")
    if idents is not None:
        flags.extend(_has_failure(s) for s in idents["samples"])
    return flags


def outcome(report: dict, exit_code: int) -> dict:
    """The decisions a run made, in the shape ``expected.json`` stores."""
    cls = report.get("classification")
    frob = {}
    for entry in report.get("frobenius") or []:
        frob[entry["system"]] = {
            "verdicts": sorted(entry.get("verdict_counts", {})),
            "kernel_dim": sorted({p["kernel_dim"] for p in entry["points"]
                                  if "kernel_dim" in p}),
            "expected_kernel_dim": entry.get("expected_kernel_dim"),
        }
    return {
        "exit": exit_code,
        "assertions": {a["name"]: a["passed"] for a in report["meta"]["assertions"]},
        "first_kind": None if cls is None else cls["first_kind"],
        "second_kind": None if cls is None else cls["second_kind"],
        "frobenius": frob,
        "suite_failures": len(report["meta"]["failures"]),
        "failed_records": sum(point_records(report)),
    }


def load_expected(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check(report: dict, exit_code: int, expected: dict) -> list[str]:
    """Mismatches between a run and its expected outcome; empty when correct.

    Each system lists the verdicts its points may get; every point must get
    one of them, so the verdict counts sum to the point count.
    """
    got = outcome(report, exit_code)
    problems = []
    for key in ("exit", "assertions", "first_kind", "second_kind"):
        if got[key] != expected[key]:
            problems.append(f"{key}: expected {expected[key]!r}, got {got[key]!r}")
    for system in sorted(set(got["frobenius"]) | set(expected["frobenius"])):
        want = expected["frobenius"].get(system)
        have = got["frobenius"].get(system)
        if want is None or have is None:
            problems.append(f"frobenius {system}: expected {want!r}, got {have!r}")
            continue
        for key in ("kernel_dim", "expected_kernel_dim"):
            if have[key] != want[key]:
                problems.append(f"frobenius {system} {key}: expected {want[key]!r}, "
                                f"got {have[key]!r}")
        if not have["verdicts"] or not set(have["verdicts"]) <= set(want["verdicts"]):
            problems.append(f"frobenius {system} verdicts: expected one of "
                            f"{want['verdicts']!r}, got {have['verdicts']!r}")
    if got["suite_failures"]:
        problems.append(f"{got['suite_failures']} suite failure record(s)")
    if got["failed_records"]:
        problems.append(f"{got['failed_records']} point record(s) with a failure entry")
    return problems
