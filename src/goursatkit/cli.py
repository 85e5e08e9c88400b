"""Batch front end: config-driven classification, Frobenius and identity runs.

Config files are flat ``key = value`` lines under bracketed section headers;
``#`` starts a comment.  Recognized sections and keys:

    [web]        n, source (expr | family), expr
    [family]     kind (first | second), phi, psi, slot, a0
    [sampling]   box (lo:hi or comma list of lo:hi per coordinate),
                 count, seed
    [tolerances] classify, frobenius (finite, > 0), order (only 3)
    [gauge]      w (comma list, length n)
    [suites]     run (comma list of classify | frobenius | identities | all),
                 frobenius_systems (comma list), identity_trials

Jets of the defining function are taken to the fixed order 3, the order the
Pfaffian derivatives need; ``order = 3`` is accepted for old configs, and any
other order is a config error.

The machine report is JSON with top-level keys "meta", "classification",
"frobenius", "identities"; residual arrays are ordered by sample index and
the schema is versioned as "goursat-kit/1".  Identical config and seed give
byte-identical JSON up to meta.timing_seconds.  Exit codes: 0 all recorded
assertions passed, 1 some assertion failed, 2 config/input error,
3 numerical failure.  A reader that closes stdout early (``run ... | head``)
does not change the exit code, and the ``--json`` report is still written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import identities as ident
from .classify import Box, TooFewRegularPoints, classify_bundle, first_kind_pde, \
    first_kind_residual, fold_max, running_max, sample_regular_points, second_kind_residuals
from .exterior import NON_FINITE, SYSTEM_NAMES, frobenius_reports, make_system
from .expr import Expr, ExprError, parse
from .families import FamilySpec, FamilySpecError, NoConvergence, SingularEnvelope, \
    family_web
from .web import JET_ORDER, DerivativeBundle, Gauge, PfaffianDerivs, RegularityError, \
    TorsionTensor, WebFunction, derivative_bundle

SCHEMA_VERSION = "goursat-kit/1"
SUITES = ("classify", "frobenius", "identities")
# the README's scope; jet tables and wedge minors grow combinatorially in n
MAX_ARITY = 8

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    n: int
    source: str                      # "expr" | "family"
    expr_text: str | None = None
    family_kind: str | None = None
    phi_text: str | None = None
    psi_text: str | None = None
    slot: str = "s"
    a0: float = 0.0
    box: tuple[tuple[float, float], ...] = ()
    count: int = 32
    seed: int = 0
    classify_tol: float = 1e-7
    frobenius_tol: float = 1e-7
    gauge: tuple[float, ...] = ()
    suites: tuple[str, ...] = SUITES
    frobenius_systems: tuple[str, ...] = ("S10", "S10_11", "THETA_RHO")
    identity_trials: int = 200
    order = JET_ORDER  # not a field: reported, never set

    def validate(self):
        if not 4 <= self.n <= MAX_ARITY:
            raise ConfigError(f"n must be between 4 and {MAX_ARITY}")
        if self.source not in ("expr", "family"):
            raise ConfigError("web source must be 'expr' or 'family'")
        if self.source == "expr" and not self.expr_text:
            raise ConfigError("source 'expr' needs an expression")
        if self.source == "family" and not (self.family_kind and self.phi_text and self.psi_text):
            raise ConfigError("source 'family' needs kind, phi and psi")
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if len(self.box) != self.n:
            raise ConfigError("box must provide one interval per coordinate")
        for lo, hi in self.box:
            # the width is finite only when both ends are and it does not
            # overflow, which would make the uniform draw raise
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ConfigError(f"invalid box interval {lo}:{hi}")
        for name, tol in (("classify", self.classify_tol), ("frobenius", self.frobenius_tol)):
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(f"{name} tolerance must be finite and > 0, got {tol}")
        if self.identity_trials <= 0:
            raise ConfigError("identity_trials must be a positive integer")
        if self.gauge and len(self.gauge) != self.n:
            raise ConfigError("gauge must have n components")
        if not all(math.isfinite(w) for w in self.gauge):
            raise ConfigError("gauge components must be finite")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        for name in self.frobenius_systems:
            if name.upper() not in SYSTEM_NAMES:
                raise ConfigError(f"unknown frobenius system {name!r}")
        needs_five = any(name.upper().startswith("DELTA") for name in self.frobenius_systems)
        if (needs_five or "identities" in self.suites) and self.n < 5:
            raise ConfigError("second-kind/Delta suites need n >= 5")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "source": self.source,
            "expr": self.expr_text,
            "family": None if self.source != "family" else {
                "kind": self.family_kind, "phi": self.phi_text,
                "psi": self.psi_text, "slot": self.slot, "a0": self.a0,
            },
            "box": [list(b) for b in self.box],
            "count": self.count,
            "seed": self.seed,
            "classify_tol": self.classify_tol,
            "frobenius_tol": self.frobenius_tol,
            "order": self.order,
            "gauge": list(self.gauge) if self.gauge else [0.0] * self.n,
            "suites": list(self.suites),
            "frobenius_systems": [s.upper() for s in self.frobenius_systems],
            "identity_trials": self.identity_trials,
        }


def _expand_suites(suites: tuple[str, ...], n: int) -> tuple[str, ...]:
    """Replace a list holding ``all`` with every suite that runs at arity n."""
    if "all" not in suites:
        return suites
    # the identity suite needs the five-column torsion block
    return SUITES if n >= 5 else ("classify", "frobenius")


def parse_config_text(text: str) -> RunConfig:
    """Parse the line-oriented config format into a validated RunConfig."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        current[key.strip().lower()] = value.strip()

    def get(section: str, key: str, default=None):
        return sections.get(section, {}).get(key, default)

    def as_int(section, key, default):
        raw = get(section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as err:
            raise ConfigError(f"[{section}] {key} must be an integer") from err

    def as_float(section, key, default):
        raw = get(section, key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as err:
            raise ConfigError(f"[{section}] {key} must be a number") from err

    n = as_int("web", "n", 0)
    if n <= 0:
        raise ConfigError("[web] n is required")
    if n > MAX_ARITY:  # before n sizes the box below
        raise ConfigError(f"n must be between 4 and {MAX_ARITY}")
    source = (get("web", "source") or ("family" if "family" in sections else "expr")).lower()

    box_raw = get("sampling", "box", "0.8:1.2")
    parts = [p.strip() for p in box_raw.split(",") if p.strip()]
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise ConfigError("[sampling] box must give one interval or n intervals")
    box = []
    for part in parts:
        try:
            lo, hi = part.split(":")
            box.append((float(lo), float(hi)))
        except ValueError as err:
            raise ConfigError(f"[sampling] bad box interval {part!r}") from err

    gauge_raw = get("gauge", "w")
    gauge: tuple[float, ...] = ()
    if gauge_raw:
        try:
            gauge = tuple(float(v) for v in gauge_raw.split(","))
        except ValueError as err:
            raise ConfigError("[gauge] w must be a comma list of numbers") from err

    suites_raw = (get("suites", "run", "all") or "all").lower()
    suites = _expand_suites(tuple(s.strip() for s in suites_raw.split(",") if s.strip()), n)

    if as_int("tolerances", "order", JET_ORDER) != JET_ORDER:
        raise ConfigError(f"[tolerances] order is fixed at {JET_ORDER}")

    systems_raw = get("suites", "frobenius_systems", "S10,S10_11,THETA_RHO")
    systems = tuple(s.strip().upper() for s in systems_raw.split(",") if s.strip())

    config = RunConfig(
        n=n,
        source=source,
        expr_text=get("web", "expr"),
        family_kind=(get("family", "kind") or None),
        phi_text=get("family", "phi"),
        psi_text=get("family", "psi"),
        slot=get("family", "slot", "s"),
        a0=as_float("family", "a0", 0.0),
        box=tuple(box),
        count=as_int("sampling", "count", 32),
        seed=as_int("sampling", "seed", 0),
        classify_tol=as_float("tolerances", "classify", 1e-7),
        frobenius_tol=as_float("tolerances", "frobenius", 1e-7),
        gauge=gauge,
        suites=suites,
        frobenius_systems=systems,
        identity_trials=as_int("suites", "identity_trials", 200),
    )
    config.validate()
    return config


def build_web(config: RunConfig) -> WebFunction:
    if config.source == "expr":
        try:
            expression = parse(config.expr_text, config.n)
        except ExprError as err:
            raise ConfigError(f"bad expression: {err}") from err
        web = WebFunction.from_expr(expression)
    else:
        try:
            phi = parse(config.phi_text, config.n, ["a", config.slot])
            psi = parse(config.psi_text, config.n, ["a"])
            if config.slot not in phi.parameters_used and config.family_kind == "second":
                raise ConfigError(f"phi never uses the psi slot '{config.slot}'")
            if config.family_kind == "first":
                phi = parse(config.phi_text, config.n, ["a"])
            spec = FamilySpec(kind=config.family_kind, phi=phi, psi=psi,
                              arity=config.n, a0=config.a0, slot=config.slot)
        except (ExprError, FamilySpecError) as err:
            raise ConfigError(f"bad family spec: {err}") from err
        web = family_web(spec)
    return web


# --- report assembly --------------------------------------------------------

def _finite(obj):
    """Map non-finite numbers to explicit failure records, recursively."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else {"failure": "non-finite"}
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _finite(float(obj))
    if isinstance(obj, np.ndarray):
        return _finite(obj.tolist())
    return obj


@dataclass
class RunReport:
    config: RunConfig
    classification: dict | None = None
    frobenius: list = field(default_factory=list)
    identities: dict | None = None
    assertions: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    timing_seconds: float = 0.0

    def all_assertions_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def to_dict(self) -> dict:
        meta = {
            "schema": SCHEMA_VERSION,
            "tool": "goursatkit",
            "version": __version__,
            "config": self.config.to_dict(),
            "assertions": self.assertions,
            "failures": self.failures,
            "timing_seconds": self.timing_seconds,
        }
        return _finite({
            "meta": meta,
            "classification": self.classification,
            "frobenius": self.frobenius,
            "identities": self.identities,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def _assert_entry(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


@np.errstate(all="ignore")  # non-finite values are recorded, not warned about
def _consistency_assertions(b: DerivativeBundle, config: RunConfig) -> list[dict]:
    """Exact algebraic cross-checks on the first eight bundle points, recorded
    into the report."""
    out = []
    b = b[:8]
    n = b.n
    t = TorsionTensor(n, b.torsion_values())
    raw, _ = first_kind_residual(t)
    raw_pde, _ = first_kind_pde(b)
    factor = b.grad[:, :4].prod(axis=-1)
    h, v = b.hess, t.values
    # relative to the largest monomial of either form, as classify._rel
    # scales: both residuals can be rounding-sized on first-kind webs
    scale = fold_max([abs(h[:, 0, 2] * h[:, 1, 3]), abs(h[:, 0, 3] * h[:, 1, 2]),
                      abs(v[:, 0, 2] * v[:, 1, 3] * factor),
                      abs(v[:, 0, 3] * v[:, 1, 2] * factor), 1e-12])
    worst_eq = running_max(0.0, abs(raw_pde - raw * factor) / scale)
    if n >= 5:
        res = second_kind_residuals(t)
        scale = np.maximum(res.scale, 1e-12)
        # sum25 is the cyclic minor sum A + B + C, so this also covers it
        gaps = [abs(res.sum25 - res.det24) / scale, abs(res.expr26 - 2 * res.det24) / scale]
        worst_det = running_max(0.0, np.stack(gaps, axis=-1))
    # one random gauge per point, drawn point by point
    w = np.random.default_rng(config.seed + 1).uniform(-1.0, 1.0, b.points.shape)
    d0 = b.pfaffian_values(np.zeros(n))
    dw = b.pfaffian_values(w)
    slope = v[..., None] * w[:, None, None, :]
    shift = dw - d0 + slope
    # relative to the values compared (floored at 1): near F_g = 0 the
    # derivatives grow large and an absolute bound fails on rounding
    scale = np.maximum.reduce([np.abs(d0), np.abs(dw), np.abs(slope), np.ones_like(slope)])
    worst_gauge = running_max(0.0, np.nanmax(np.abs(shift) / scale, axis=(1, 2, 3)))
    out.append(_assert_entry(
        "pde_form_matches_torsion_form", worst_eq < 1e-9,
        f"max relative gap {worst_eq:.3e} between cleared mixed-partial and torsion forms"))
    if n >= 5:
        out.append(_assert_entry(
            "determinant_forms_agree", worst_det < 1e-12,
            f"max relative gap {worst_det:.3e} among det/minor-sum/expansion forms"))
    out.append(_assert_entry(
        "derivs_affine_in_gauge", worst_gauge < 1e-10,
        f"max relative deviation {worst_gauge:.3e} from slope -a_ab per gauge component"))
    return out


def run(config: RunConfig) -> RunReport:
    """Execute the requested suites; numerical failures become report entries."""
    started = time.perf_counter()
    report = RunReport(config=config)
    web = build_web(config)
    box = Box(config.box)
    gauge = Gauge.of(config.gauge) if config.gauge else Gauge.zero(config.n)

    # one sample, one jet read per point: every suite works on this bundle
    points = sample_regular_points(web, box, config.count, config.seed)
    derivs = derivative_bundle(web, points)

    if "classify" in config.suites:
        report.classification = classify_bundle(
            derivs, config.classify_tol, config.seed).to_dict()

    if "frobenius" in config.suites:
        for name in config.frobenius_systems:
            try:
                system = make_system(web, name)
            except ValueError as err:
                report.failures.append({"suite": "frobenius", "system": name,
                                        "error": str(err)})
                continue
            entry = {"system": system.name, "expected_kernel_dim": system.expected_kernel_dim}
            reports = frobenius_reports(system, derivs.points, config.frobenius_tol, derivs)
            entry["points"] = [fr.to_dict() if fr else {"point": p.tolist(), "failure": NON_FINITE}
                               for p, fr in zip(derivs.points, reports)]
            entry["verdict_counts"] = dict(sorted(Counter(
                fr.verdict for fr in reports if fr).items()))
            report.frobenius.append(entry)

    if "identities" in config.suites:
        head = derivs[:16]
        t = TorsionTensor(config.n, head.torsion_values())
        d = PfaffianDerivs(config.n, head.pfaffian_values(gauge.w), gauge)
        conditions = ident.condition_values(t, d).to_dict()
        eq15 = ident.first_kind_derivative_residuals(t, d).relative.max(axis=-1)
        samples = [{"point": p.tolist(), "first_kind_derivative_max_rel": float(rel),
                    "conditions": {key: value[i] for key, value in conditions.items()}}
                   for i, (p, rel) in enumerate(zip(head.points, eq15))]
        trials = config.identity_trials
        algebra = {
            "implications": {}, "witness": None, "polynomial_constrained_max": None,
        }
        for imposed, checked in ((("m", "n"), "r"), (("n", "r"), "m"), (("m", "r"), "n")):
            res = ident.implication_test(trials, config.seed, imposed, checked)
            algebra["implications"]["+".join(imposed) + "->" + checked] = {
                "max_relative": res.max_relative, "rejected": res.rejected,
                "trials": res.trials,
            }
        wr = ident.witness_search(trials, config.seed)
        algebra["witness"] = {
            "found": wr.found, "trials_used": wr.trials_used,
            "imposed_max_rel": wr.s_max_relative,
            "violated_rel": wr.uv_max_relative,
        }
        worst_poly = ident.polynomial_sweep(trials, config.seed)
        algebra["polynomial_constrained_max"] = worst_poly
        report.identities = {"gauge": list(gauge.w), "samples": samples,
                             "algebra": algebra}
        report.assertions.append(_assert_entry(
            "implications_two_imply_third",
            max(v["max_relative"] for v in algebra["implications"].values()) < 1e-8,
            "worst third-system relative residual over constrained trials"))
        report.assertions.append(_assert_entry(
            "polynomial_identities_on_variety", worst_poly < 1e-10,
            f"max relative residual {worst_poly:.3e} on constrained samples"))

    report.assertions.extend(_consistency_assertions(derivs, config))
    report.timing_seconds = time.perf_counter() - started
    return report


def render_human(report: RunReport) -> str:
    lines = [f"goursatkit {__version__} :: schema {SCHEMA_VERSION}"]
    cfg = report.config
    source = cfg.expr_text if cfg.source == "expr" else f"{cfg.family_kind}-kind family"
    lines.append(f"web: n={cfg.n}  source: {source}")
    lines.append(f"sampling: count={cfg.count} seed={cfg.seed} box={cfg.box[0]}...")
    if report.classification is not None:
        c = report.classification
        lines.append("classification:")
        lines.append(f"  first_kind:  {c['first_kind']}"
                     f"  (max rel residual {max(c['first_kind_residuals']['torsion_form_rel']):.3e})")
        if c.get("second_kind") is not None:
            lines.append(f"  second_kind: {c['second_kind']}"
                         f"  (max rel residual {max(c['second_kind_residuals']['det_form_rel']):.3e})")
        if any(c["degenerate_rows"]):
            lines.append("  note: torsion row(s) vanish; verdicts are vacuous")
    for entry in report.frobenius:
        if "verdict_counts" in entry:
            lines.append(f"frobenius {entry['system']}: {entry['verdict_counts']}")
    if report.identities is not None:
        alg = report.identities["algebra"]
        lines.append("identities:")
        for key, val in alg["implications"].items():
            lines.append(f"  {key}: max rel {val['max_relative']:.3e}")
        w = alg["witness"]
        lines.append(f"  witness (s-family without u/v-family): found={w['found']}"
                     f" after {w['trials_used']} trials")
    lines.append("assertions:")
    for a in report.assertions:
        status = "pass" if a["passed"] else "FAIL"
        lines.append(f"  [{status}] {a['name']}: {a['detail']}")
    for f in report.failures:
        lines.append(f"  [numerical failure] {f}")
    lines.append(f"elapsed: {report.timing_seconds:.2f}s")
    return "\n".join(lines)


# --- selftest ----------------------------------------------------------------

def builtin_checks() -> list[tuple[str, callable]]:
    from . import selftest_corpus
    return selftest_corpus.CHECKS


def selftest(names: list[str] | None = None, list_only: bool = False,
             checks: list | None = None, stream=None) -> int:
    stream = stream or sys.stdout
    checks = checks if checks is not None else builtin_checks()
    if names:
        known = {n for n, _ in checks}
        missing = [n for n in names if n not in known]
        if missing:
            print(f"unknown check name(s): {', '.join(missing)}", file=stream)
            return EXIT_CONFIG
        checks = [(n, fn) for n, fn in checks if n in names]
    if list_only:
        for name, _ in checks:
            print(name, file=stream)
        return EXIT_OK
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failing check, not a crash of the tool
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        status = "pass" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}", file=stream)
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed", file=stream)
    return EXIT_OK if failures == 0 else EXIT_ASSERTION


# --- entry point --------------------------------------------------------------

def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.points is not None:
        config.count = args.points
    if args.seed is not None:
        config.seed = args.seed
    if args.tol is not None:
        config.classify_tol = args.tol
        config.frobenius_tol = args.tol
    if args.suite:
        config.suites = _expand_suites(tuple(s.lower() for s in args.suite), config.n)
    if args.gauge is not None:
        try:
            config.gauge = tuple(float(v) for v in args.gauge.split(","))
        except ValueError as err:
            raise ConfigError("--gauge must be a comma list of numbers") from err
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="goursatkit",
        description="classification, integrability and identity checks for "
                    "codimension-one (n+1)-webs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run suites from a config file")
    runp.add_argument("--config", required=True, help="path to the config file")
    runp.add_argument("--json", dest="json_path", help="write the machine report here")
    runp.add_argument("--points", type=int, help="override sample count")
    runp.add_argument("--seed", type=int, help="override RNG seed")
    runp.add_argument("--tol", type=float, help="override classify and frobenius tolerances")
    runp.add_argument("--suite", action="append",
                      help="suite to run (repeatable): classify | frobenius | identities | all")
    runp.add_argument("--gauge", help="connection coefficients, e.g. '0,0,0,0'")

    selfp = sub.add_parser("selftest", help="run the bundled example corpus")
    selfp.add_argument("--list", action="store_true", help="print check names and exit")
    selfp.add_argument("names", nargs="*", help="run only these checks")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        return selftest(names=args.names or None, list_only=args.list)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = _apply_overrides(parse_config_text(text), args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (TooFewRegularPoints, NoConvergence, SingularEnvelope, RegularityError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    code = EXIT_OK if report.all_assertions_passed() else EXIT_ASSERTION
    text = render_human(report)
    if args.json_path:
        try:
            Path(args.json_path).write_text(report.to_json() + "\n", encoding="utf-8")
        except OSError as err:
            print(f"error: cannot write report: {err}", file=sys.stderr)
            code = EXIT_CONFIG
        else:
            text += f"\nwrote {args.json_path}"
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): the report file is already
        # written, and stdout goes to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
