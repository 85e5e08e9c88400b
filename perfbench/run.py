#!/usr/bin/env python3
"""goursatkit benchmark: one workload at one seed, measured for a fixed time.

    python3 perfbench/run.py --workload family2-n6 --seed 0 --seconds 40 --trace 0

Run it from the repository root; it imports goursatkit from ``src``.  The
loop is closed and single-process: one program run at a time, and every
process of a run is pinned to one CPU.

With ``--trace 0`` it measures the end-to-end metrics (tracing off):

* ``setup_s``: a fresh process importing goursatkit, building the config
  from the seed, ``build_web`` and one regular jet at the top order;
* ``wall_s`` and ``peak_rss_mb``: a fresh ``python -m goursatkit run
  --config ... --json ...``, its wall time and its ``ru_maxrss``;
* ``run_s``: ``cli.run(config)`` in a warm worker that has done the set-up.

Several set-up samples come first, then fresh-process and warm runs
alternate until ``--seconds`` is spent.  Each timing is the median of its
samples after scaling by the speed probe (calibrate.py).  Every report is
checked against ``expected.json``; the failed share of point records is
printed as ``failed_frac`` and is the ``failed``/``attempted`` pair of the
result line.  With ``--trace 1`` one traced set-up and ``cli.run`` give the
per-layer metrics instead (see README.md).

The last line of standard output is the JSON result.  Outputs go to
``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
os.environ["PYTHONHASHSEED"] = "0"  # same dict layouts in every fresh process

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
CHILD_LIMIT_S = 150  # a child still running after this is killed and the run fails
MIN_SETUP_SAMPLES = 5
MAX_SETUP_SAMPLES = 11
SETUP_SHARE = 0.15  # of --seconds, spent on set-up samples beyond the minimum


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so the speed probe sees
    the vCPU the samples ran on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def spawn(cmd: list[str], **kwargs) -> subprocess.Popen:
    """Start a child in its own session, with ``src`` on its import path."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            text=True, start_new_session=True, **kwargs)


def worker_cmd(mode: str, args) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--expected", args.expected]
    if args.count is not None:
        cmd += ["--count", str(args.count)]
    return cmd


def wait_for(proc: subprocess.Popen, done, inter: calibrate.Interleaver | None = None):
    """Wait until ``done(timeout)`` is true.  With ``inter``, pause the
    child's session for a probe burst every INTERVAL_S.  Past CHILD_LIMIT_S
    kill the session and raise."""
    limit = time.perf_counter() + CHILD_LIMIT_S
    while not done(calibrate.INTERVAL_S):
        if time.perf_counter() > limit:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"child {proc.args[:4]} exceeded {CHILD_LIMIT_S} s")
        if inter is not None:
            inter.pause(proc.pid)


def exited(proc: subprocess.Popen):
    def done(timeout: float) -> bool:
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return False
        return True
    return done


def readable(proc: subprocess.Popen):
    return lambda timeout: bool(select.select([proc.stdout], [], [], timeout)[0])


def run_worker(mode: str, args, inter: calibrate.Interleaver | None = None) -> dict:
    """Run a worker to completion and return its last JSON line."""
    with open(OUT / f"{mode}.stderr", "w") as err:
        proc = spawn(worker_cmd(mode, args), stderr=err)
        wait_for(proc, exited(proc), inter)
    with proc.stdout:
        lines = proc.stdout.read().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}; see {err.name}")
    return json.loads(lines[-1])


class WarmWorker:
    """A worker process that times one ``cli.run`` per request."""

    def __init__(self, args):
        self.err = open(OUT / "warm.stderr", "w")
        self.proc = spawn(worker_cmd("warm", args), stdin=subprocess.PIPE, stderr=self.err)
        self.ready = self._read(None)

    def _read(self, inter: calibrate.Interleaver | None) -> dict:
        wait_for(self.proc, readable(self.proc), inter)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"warm worker stopped; see {self.err.name}")
        return json.loads(line)

    def run(self, inter: calibrate.Interleaver) -> dict:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return self._read(inter)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.err.close()


def wall_sample(inter: calibrate.Interleaver, config_path: Path, report_path: Path,
                expected: dict) -> dict:
    """One fresh ``python -m goursatkit run``, timed by launch.py, and checked."""
    cmd = [sys.executable, str(HERE / "launch.py"), str(OUT / "wall.stdout"),
           str(OUT / "wall.stderr"), sys.executable, "-m", "goursatkit", "run",
           "--config", str(config_path), "--json", str(report_path)]
    report_path.unlink(missing_ok=True)
    proc = spawn(cmd)
    wait_for(proc, exited(proc), inter)
    with proc.stdout:
        sample = json.loads(proc.stdout.read())
    if not report_path.is_file():
        return dict(sample, problems=[f"exit code {sample['exit']} and no report"],
                    records=0, failed_records=0)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    flags = workloads.point_records(report)
    return dict(sample, problems=workloads.check(report, sample["exit"], expected),
                records=len(flags), failed_records=sum(flags))


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, config_text: str, cpu: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "child_env": {var: os.environ[var] for var in THREAD_VARS + ("PYTHONHASHSEED",)},
    }


def tally(checks: list[dict], fallback_records: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over checked reports; every record of a
    report whose check fails counts as failed."""
    attempted = failed = 0
    problems = []
    for c in checks:
        records = c["records"] or fallback_records
        attempted += records
        if c["problems"]:
            failed += records
            problems.extend(c["problems"])
        else:
            failed += c["failed_records"]
    return attempted, failed, problems


def measure(args, expected: dict) -> dict:
    started = time.perf_counter()
    deadline = started + args.seconds
    inter = calibrate.Interleaver()
    windows = {"setup_s": [], "wall_s": [], "run_s": []}  # (seconds, t0, t1)

    def keep(name: str, sample: dict):
        windows[name].append((sample[name], sample["t0"], sample["t1"]))

    run_worker("setup", args)  # untimed: compiles bytecode, fills the page cache
    inter.burst()
    while len(windows["setup_s"]) < MIN_SETUP_SAMPLES or (
            len(windows["setup_s"]) < MAX_SETUP_SAMPLES
            and time.perf_counter() - started < SETUP_SHARE * args.seconds):
        sample = run_worker("setup", args, inter)
        inter.burst()
        keep("setup_s", sample)
    config_text = sample["config"]
    config_path = OUT / f"{args.workload}-s{args.seed}.cfg"
    config_path.write_text(config_text, encoding="utf-8")
    report_path = OUT / f"{args.workload}-s{args.seed}.report.json"

    walls, runs = [], []
    worker = WarmWorker(args)
    try:
        inter.burst()
        keep("setup_s", worker.ready)
        while True:
            t0 = time.perf_counter()
            walls.append(wall_sample(inter, config_path, report_path, expected))
            inter.burst()
            runs.append(worker.run(inter))
            inter.burst()
            keep("wall_s", walls[-1])
            keep("run_s", runs[-1])
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    finally:
        worker.close()

    raw = {name: [w[0] for w in ws] for name, ws in windows.items()}
    scaled = {name: [inter.scaled(*w) for w in ws] for name, ws in windows.items()}
    rss = [w["peak_rss_mb"] for w in walls]
    metrics = {name: (statistics.median(scaled[name]), "s") for name in raw}
    metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
    for name, (value, unit) in metrics.items():
        vals = scaled.get(name, rss)
        line = (f"{name:<12} {value:12.6g} {unit:<3} median of {len(vals)}"
                f" (min {min(vals):.6g}, max {max(vals):.6g})")
        if name in raw:
            line += f"; unscaled median {statistics.median(raw[name]):.6g}"
        print(line)
    probe_s = [d for _, d in inter.bursts]
    print(f"probe        {statistics.median(probe_s):12.6g} s   median of {len(probe_s)}"
          f" bursts (min {min(probe_s):.6g}, max {max(probe_s):.6g});"
          f" reference {calibrate.REFERENCE_S}")
    fallback = max([c["records"] for c in walls + runs] + [1])
    attempted, failed, problems = tally(walls + runs, fallback)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "config": config_text,
            "samples": {"scaled": scaled, "unscaled": raw, "peak_rss_mb": rss,
                        "probe_s": probe_s}}


def trace(args, expected: dict) -> dict:
    result = run_worker("trace", args)
    attempted, failed, problems = tally(result["checks"], 1)
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:14.6g} {unit}")
    print(f"spans: {result['spans']} written to {result['trace_file']}")
    if result["missing_sites"]:
        print(f"not traced (binding site missing): {', '.join(result['missing_sites'])}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "config": result["config"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="goursatkit benchmark, one workload run")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--count", type=int,
                    help="override the workload's point count (quick checks only)")
    ap.add_argument("--expected", default=str(workloads.EXPECTED_PATH),
                    help="expected outcomes file (default: perfbench/expected.json)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "goursatkit" / "__init__.py").is_file():
        print(f"error: no goursatkit sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()
    expected = workloads.load_expected(args.expected)[args.workload]

    result = trace(args, expected) if args.trace else measure(args, expected)
    env = environment(args, result["config"], cpu)
    print("env: " + json.dumps(env, sort_keys=True))
    frac = result["failed"] / result["attempted"]
    print(f"failed_frac  {frac:12.6g} ratio ({result['failed']} of "
          f"{result['attempted']} point records)")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    record = dict(line, env=env, samples=result.get("samples"), failed_frac=frac)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
