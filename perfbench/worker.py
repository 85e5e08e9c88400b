"""Child-process side of the benchmark; ``run.py`` starts it with ``src`` on
PYTHONPATH and one BLAS/OpenMP thread.

    worker.py setup --workload W --seed N   time one fresh-process set-up
    worker.py warm  --workload W --seed N   set up, then time one cli.run
                                            per "run" line read from stdin
    worker.py trace --workload W --seed N   traced set-up and cli.run, an
                                            untraced cli.run, jet kernels

Set-up is import, building the config from the seed, ``build_web`` and one
regular ``web.jet`` at the config's top order (at the box centre).  Each
mode prints one JSON object per line.
"""

import time

_STARTED = time.perf_counter()  # before goursatkit and numpy are imported

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def set_up(name: str, seed: int, count: int | None):
    from goursatkit import cli

    text = workloads.config_text(name, seed, count)
    config = cli.parse_config_text(text)
    web = cli.build_web(config)
    web.jet([(lo + hi) / 2 for lo, hi in config.box], config.order)
    return config, text, time.perf_counter()


def checked_run(config, expected: dict) -> dict:
    """Time one cli.run and check its report."""
    from goursatkit import cli

    t0 = time.perf_counter()
    report = cli.run(config)
    t1 = time.perf_counter()
    return dict(check_report(report, expected), run_s=t1 - t0, t0=t0, t1=t1)


def check_report(report, expected: dict) -> dict:
    from goursatkit import cli

    data = report.to_dict()
    code = cli.EXIT_OK if report.all_assertions_passed() else cli.EXIT_ASSERTION
    flags = workloads.point_records(data)
    return {"problems": workloads.check(data, code, expected),
            "records": len(flags), "failed_records": sum(flags)}


def emit(obj: dict):
    print(json.dumps(obj), flush=True)


def warm(args, expected: dict):
    config, text, done = set_up(args.workload, args.seed, args.count)
    emit({"setup_s": done - _STARTED, "t0": _STARTED, "t1": done, "config": text})
    for line in sys.stdin:
        if line.strip() != "run":
            break
        emit(checked_run(config, expected))


def trace(args, expected: dict):
    from goursatkit import jets

    import kernels
    import tracer as tr

    jets.space.cache_clear()  # the traced set-up builds the tables afresh
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.begin("setup")
        config, text, _ = set_up(args.workload, args.seed, args.count)
        tracer.begin("run")
        report = tr.cli.run(config)
        tracer.begin("to_json")
        report.to_json()
    finally:
        tracer.uninstall()
    traced_check = check_report(report, expected)
    untraced = checked_run(config, expected)

    metrics = layer_metrics(tracer, config.count, untraced["run_s"])
    metrics.update(kernels.run_all(args.seed))
    path = Path.cwd() / ".perfbench_out" / f"trace-{args.workload}-s{args.seed}.npz"
    tracer.save(path)
    emit({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
          "checks": [traced_check, untraced], "config": text, "trace_file": str(path),
          "spans": len(tracer.span_name), "missing_sites": tracer.missing_sites})


SPAN_METRICS = {
    # phase -> [(span name, field)]; fields: calls, s (inclusive), self_s
    "setup": [("expr.parse", "s"), ("catalog.random_second_kind_spec", "s"),
              ("cli.parse_config_text", "s"), ("cli.build_web", "s")],
    "run": [(f"jets.{k}", f) for k in ("eval_with_bindings", "apply_unary", "divide",
                                        "restrict_last", "substitute_last", "mul")
            for f in ("calls", "self_s")]
    + [(f"web.{k}", f) for k in ("jet", "torsion", "pfaffian_derivs")
       for f in ("calls", "self_s")]
    + [("web.is_regular", "calls"),
       ("families.solve_parameter", "calls"), ("families.solve_parameter", "self_s"),
       ("families.constraint_with_slope", "calls"),
       ("classify.sample_regular_points", "calls"),
       ("classify.sample_regular_points", "self_s"), ("classify.classify", "self_s"),
       ("exterior.make_system", "s"), ("exterior.frobenius_residual", "calls"),
       ("exterior.frobenius_residual", "self_s"), ("exterior.coefficients", "calls"),
       ("exterior.d_form", "calls"), ("exterior.d_form", "self_s")]
    + [(f"identities.{k}", f) for k in ("condition_values", "second_kind_polynomial_residuals")
       for f in ("calls", "self_s")]
    + [("identities.implication_test", "self_s"), ("identities.witness_search", "self_s"),
       ("identities.sample_second_kind_torsion", "calls"),
       ("cli.run", "s"), ("cli.run", "self_s")],
    "to_json": [("cli.to_json", "s")],
}

RUN_COUNTS = ("jets.mul.terms", "web.is_regular.rejected", "families.newton_iters",
              "families.solve_parameter.raised", "exterior.verdict.degenerate",
              "exterior.verdict.inconclusive", "identities.implication_test.trials",
              "identities.implication_test.rejected",
              "identities.witness_search.trials_used")


def layer_metrics(tracer, count: int, untraced_run_s: float) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    out = {}
    for phase, fields in SPAN_METRICS.items():
        summary = tracer.summary(phase)
        for name, field in fields:
            unit = "count" if field == "calls" else "s"
            out[f"{name}.{field}"] = (summary[name][field], unit)
    out["jets.space.build_s"] = (tracer.counts_of("setup")["jets.space.build_s"], "s")
    counts = tracer.counts_of("run")
    for key in RUN_COUNTS:
        out[key] = (counts[key], "count")
    for system in workloads.ALL_SYSTEMS:
        key = f"exterior.frobenius.{system}.s"
        out[key] = (counts[key], "s")
    calls = out["web.jet.calls"][0]
    out["web.jet.calls_per_point"] = (calls / count, "calls/point")
    out["web.jet.distinct_ratio"] = (len(tracer.jet_keys_of("run")) / calls if calls else 0.0,
                                     "ratio")
    trials = counts["identities.implication_test.trials"]
    attempts = trials + counts["identities.implication_test.rejected"]
    out["identities.implication_test.accept_ratio"] = (trials / attempts if attempts else 0.0,
                                                       "ratio")
    out["trace.overhead_frac"] = (out["cli.run.s"][0] / untraced_run_s - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("setup", "warm", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, help="override the workload's point count")
    ap.add_argument("--expected", required=True, help="expected outcomes file")
    args = ap.parse_args(argv)
    expected = workloads.load_expected(args.expected)[args.workload]
    if args.mode == "setup":
        _, text, done = set_up(args.workload, args.seed, args.count)
        emit({"setup_s": done - _STARTED, "t0": _STARTED, "t1": done, "config": text})
    elif args.mode == "warm":
        warm(args, expected)
    else:
        trace(args, expected)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
