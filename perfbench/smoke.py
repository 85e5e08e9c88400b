#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny point counts.

    python3 perfbench/smoke.py

Run from the repository root.  For every workload, in both modes, it
checks that the result line carries exactly the metrics BENCHMARK.json
names, each with its unit, that each is printed by name with its unit,
and that the run is correct.  Then it runs one workload against an
expected-outcomes file with one verdict changed and checks that the run
is reported as failed.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
COUNT = "8"

failures: list[str] = []


def check(ok: bool, message: str):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--count", COUNT, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, text = bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{tag}: correct={result['correct']} failed={result['failed']}"
                  f" attempted={result['attempted']}")
            metrics = result["metrics"]
            check(set(metrics) == set(wanted[trace]),
                  f"{tag}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ set(wanted[trace]))}")
            printed = {line.split()[0]: line.split()[2] for line in text.splitlines()
                       if len(line.split()) >= 3}
            for name, unit in wanted[trace].items():
                got = metrics.get(name, {})
                check(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
                      f"{tag}: {name} is {got!r}, unit should be {unit}")
                check(printed.get(name) == unit, f"{tag}: {name} not printed with {unit}")
            check("failed_frac" in printed, f"{tag}: failed_frac not printed")
            print(f"ok   {tag}: {len(metrics)} metrics")

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected["family2-n6"]["frobenius"]["S10_11"]["verdicts"] = ["non_integrable"]
    wrong = ROOT / ".perfbench_out" / "smoke-wrong-expected.json"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text(json.dumps(expected), encoding="utf-8")
    result, text = bench("family2-n6", 0, "--expected", str(wrong))
    check(not result["correct"] and result["failed"] == result["attempted"] > 0,
          f"wrong expected verdict not reported as a failed run: {result}")
    check("check failed: frobenius S10_11 verdicts" in text,
          "wrong expected verdict not printed")
    print("ok   wrong expected verdict fails the run" if not failures else "")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
