"""Batch front end: config-driven classification, Frobenius and identity runs.

Config files are flat ``key = value`` lines under bracketed section headers;
``#`` starts a comment.  Recognized sections and keys:

    [web]        n, source (expr | family), expr
    [family]     kind (first | second), phi, psi, slot, a0
    [sampling]   box (lo:hi or comma list of lo:hi per coordinate),
                 count (1..MAX_COUNT), seed
    [tolerances] classify, frobenius (finite, > 0), order (only 3)
    [gauge]      w (comma list, length n)
    [suites]     run (comma list of classify | frobenius | identities | all),
                 frobenius_systems (comma list),
                 identity_trials (1..MAX_IDENTITY_TRIALS)

The ``run`` flags override config keys: ``--points`` [sampling] count,
``--seed`` [sampling] seed, ``--tol`` both [tolerances] keys, ``--suite``
(repeatable) [suites] run and ``--gauge`` [gauge] w.  A flag's value text
replaces the file's, and the two are converted and validated together, so a
bad flag value is a config error that names its key.

Jets of the defining function are taken to the fixed order 3, the order the
Pfaffian derivatives need; ``order = 3`` is accepted for old configs, and any
other order is a config error.

The machine report is canonical JSON (indent 2, sorted keys, ASCII) with
top-level keys "meta", "classification", "frobenius", "identities"; residual
arrays are ordered by sample index and the schema is versioned as
"goursat-kit/1".  Identical config and seed give
byte-identical JSON up to meta.timing_seconds.  Exit codes: 0 all recorded
assertions passed, 1 some assertion failed, 2 config/input error,
3 numerical failure.  The variable-free parts of ``expr``, ``phi`` and
``psi`` are judged before sampling by one dry run of the jets' evaluator,
under the rules the run applies: ``sqrt(0)*x1``, ``x1*(2-2)^0.5``,
``x1/1e-301`` and ``1/1e-301*x1`` exit 2, where they once spent the draw
budget and exited 3.  A reader that closes stdout early (``run ... | head``)
does not change the exit code, and the ``--json`` report is still written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__, jets
from . import identities as ident
from .classify import DEFAULT_TOL, SCALE_FLOOR, Box, TooFewRegularPoints, classify_bundle, \
    first_kind_pde, first_kind_residual, fold_max, running_max, sample_bundle, \
    second_kind_residuals
from .exterior import DEFAULT_FROBENIUS_TOL, DEGENERATE, NON_FINITE, SYSTEM_NAMES, VERDICTS, \
    FrobeniusColumns, frobenius_columns, make_system
from .expr import Const, Expr, ExprError, parse, walk
from .families import FamilySpec, FamilySpecError, NoConvergence, SingularEnvelope, \
    family_web
from .web import JET_ORDER, DerivativeBundle, Gauge, PfaffianDerivs, RegularityError, \
    TorsionTensor, WebFunction

SCHEMA_VERSION = "goursat-kit/1"
SUITES = ("classify", "frobenius", "identities")
# the README's scope; jet tables and wedge minors grow combinatorially in n
MAX_ARITY = 8
# run sizes past these are config errors: a run holds every sample point's
# jet and report record in memory, and the trial suites run in time linear
# in identity_trials
MAX_COUNT = 16384
MAX_IDENTITY_TRIALS = 10**6

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


class RunConfig:
    """A run's settings: ``n``, ``source`` and any of the fields below by
    keyword; a field not given keeps its default."""

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
    classify_tol: float = DEFAULT_TOL
    frobenius_tol: float = DEFAULT_FROBENIUS_TOL
    gauge: tuple[float, ...] = ()
    suites: tuple[str, ...] = SUITES
    frobenius_systems: tuple[str, ...] = ("S10", "S10_11", "THETA_RHO")
    identity_trials: int = 200
    order = JET_ORDER  # not a field: reported, never set

    def __init__(self, n: int, source: str, **fields):
        self.n = n
        self.source = source
        for name, value in fields.items():
            if name not in RunConfig.__annotations__:
                raise TypeError(f"RunConfig has no field {name!r}")
            setattr(self, name, value)

    def validate(self):
        """Raise :class:`ConfigError` unless every field holds a value a run
        accepts; the box is checked by building :class:`Box`.  The range of
        ``n`` and the number of box intervals are :func:`_config`'s checks."""
        if self.source not in ("expr", "family"):
            raise ConfigError("web source must be 'expr' or 'family'")
        if self.source == "expr" and not self.expr_text:
            raise ConfigError("source 'expr' needs an expression")
        if self.source == "family" and not (self.family_kind and self.phi_text and self.psi_text):
            raise ConfigError("source 'family' needs kind, phi and psi")
        if not 1 <= self.count <= MAX_COUNT:
            raise ConfigError(f"count must be between 1 and {MAX_COUNT}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        try:
            Box(self.box)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        for name, tol in (("classify", self.classify_tol), ("frobenius", self.frobenius_tol)):
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(f"{name} tolerance must be finite and > 0, got {tol}")
        if not 1 <= self.identity_trials <= MAX_IDENTITY_TRIALS:
            raise ConfigError(f"identity_trials must be between 1 and {MAX_IDENTITY_TRIALS}")
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


def _items(text: str) -> tuple[str, ...]:
    """The non-empty items of a comma list."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",")) if text else ()


def _intervals(text: str) -> tuple[tuple[float, float], ...]:
    box = []
    for part in _items(text):
        try:
            lo, hi = part.split(":")
            box.append((float(lo), float(hi)))
        except ValueError as err:
            raise ConfigError(f"[sampling] bad box interval {part!r}") from err
    return tuple(box)


# every key a config may set: (section, key) -> (RunConfig field, converter
# of the value text), in the order _config converts them; an absent key
# leaves the field's default
_KEYS = {
    ("web", "n"): ("n", int),
    ("web", "source"): ("source", str.lower),
    ("sampling", "box"): ("box", _intervals),
    ("gauge", "w"): ("gauge", _numbers),
    # an empty run value runs every suite, as an absent key does
    ("suites", "run"): ("suites", lambda text: _items((text or "all").lower())),
    ("tolerances", "order"): ("order", int),
    ("web", "expr"): ("expr_text", str),
    ("family", "kind"): ("family_kind", str),
    ("family", "phi"): ("phi_text", str),
    ("family", "psi"): ("psi_text", str),
    ("family", "slot"): ("slot", str),
    ("family", "a0"): ("a0", float),
    ("sampling", "count"): ("count", int),
    ("sampling", "seed"): ("seed", int),
    ("tolerances", "classify"): ("classify_tol", float),
    ("tolerances", "frobenius"): ("frobenius_tol", float),
    ("suites", "frobenius_systems"): ("frobenius_systems", lambda text: _items(text.upper())),
    ("suites", "identity_trials"): ("identity_trials", int),
}
# what a converter that fails with a plain ValueError expected
_EXPECTED = {int: "an integer", float: "a number", _numbers: "a comma list of numbers"}


def parse_config_text(text: str) -> RunConfig:
    """Parse the line-oriented config format into a validated RunConfig."""
    return _config(_sections(text))


def _sections(text: str) -> dict[str, dict[str, str]]:
    """The config text as section -> key -> value text."""
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
    return sections


def _config(sections: dict[str, dict[str, str]]) -> RunConfig:
    """The validated RunConfig of the key texts in ``sections``."""
    unknown = [f"[{section}] {key}" for section, keys in sections.items() for key in keys
               if (section, key) not in _KEYS]
    if unknown:
        raise ConfigError(f"unknown config key: {', '.join(unknown)}")
    fields = {}
    for (section, key), (name, convert) in _KEYS.items():
        raw = sections.get(section, {}).get(key)
        if raw is None:
            continue
        try:
            fields[name] = convert(raw)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"[{section}] {key} must be {_EXPECTED[convert]}") from err

    # the steps that depend on n
    n = fields.pop("n", 0)
    if n <= 0:
        raise ConfigError("[web] n is required")
    if not 4 <= n <= MAX_ARITY:  # before n sizes the box below
        raise ConfigError(f"n must be between 4 and {MAX_ARITY}")
    box = fields.pop("box", ((0.8, 1.2),))
    if len(box) == 1:
        box *= n
    if len(box) != n:
        raise ConfigError("[sampling] box must give one interval or n intervals")
    suites = fields.pop("suites", ("all",))
    if "all" in suites:
        # every suite that runs at arity n: identities need the five-column torsion block
        suites = SUITES if n >= 5 else ("classify", "frobenius")
    if fields.pop("order", JET_ORDER) != JET_ORDER:
        raise ConfigError(f"[tolerances] order is fixed at {JET_ORDER}")

    source = fields.pop("source", "") or ("family" if "family" in sections else "expr")
    config = RunConfig(n, source, box=box, suites=suites, **fields)
    config.validate()
    return config


def _finite_constants(key: str, expression: Expr) -> Expr:
    """``expression``, or a config error naming ``key`` when a literal such
    as ``1e999`` parsed to a non-finite constant, or a variable-free part
    such as ``1e308*10`` or ``sqrt(0)`` fails under the jets' rules, as it
    would at every point.  One dry run of the jets finds such a part: a
    NaN-valued seed bound to every symbol passes every domain check."""
    bad = [n for n in walk(expression.root) if isinstance(n, Const) and not math.isfinite(n.value)]
    if bad:
        raise ConfigError(f"{key}: the literal at offset {bad[0].offset} is not finite "
                          f"({bad[0].value!r})")
    nan = jets.seed(1, math.nan, 1, 1)
    names = [f"x{i}" for i in range(1, expression.arity + 1)] + list(expression.params)
    try:
        with np.errstate(all="ignore"):
            jets.eval_with_bindings(expression, dict.fromkeys(names, nan))
    except ArithmeticError as err:
        raise ConfigError(f"{key}: {err}") from err
    return expression


def build_web(config: RunConfig) -> WebFunction:
    if config.source == "expr":
        try:
            expression = parse(config.expr_text, config.n)
        except ExprError as err:
            raise ConfigError(f"bad expression: {err}") from err
        web = WebFunction.from_expr(_finite_constants("[web] expr", expression))
    else:
        # a first-kind phi has no psi slot
        params = ["a"] if config.family_kind == "first" else ["a", config.slot]
        try:
            phi = _finite_constants("[family] phi", parse(config.phi_text, config.n, params))
            psi = _finite_constants("[family] psi", parse(config.psi_text, config.n, ["a"]))
            if config.slot not in phi.parameters_used and config.family_kind == "second":
                raise ConfigError(f"phi never uses the psi slot '{config.slot}'")
            spec = FamilySpec(kind=config.family_kind, phi=phi, psi=psi,
                              arity=config.n, a0=config.a0, slot=config.slot)
        except (ExprError, FamilySpecError) as err:
            raise ConfigError(f"bad family spec: {err}") from err
        web = family_web(spec)
    return web


# --- report writer --------------------------------------------------------------
#
# One writer gives the report text: the bytes json.dumps(..., indent=2,
# sort_keys=True, allow_nan=False) writes once every non-finite number is the
# record {"failure": "non-finite"}, a numpy bool a bool, any other numpy
# scalar a float and an array its tolist().  Keys must be str.  It walks the
# report once, writes each list of finite floats with one join and the
# Frobenius records column by column.


def _indent(level: int) -> str:
    return "\n" + "  " * level


def _float_text(x: float, level: int) -> str:
    text = float.__repr__(x)
    # a finite float's repr has no 'n'; nan, inf and -inf have one
    return text if "n" not in text else \
        "{" + _indent(level + 1) + '"failure": "non-finite"' + _indent(level) + "}"


def _floats_text(values, level: int) -> str | None:
    """A non-empty list of finite floats at ``level`` in one join; None when
    an item is not a finite float."""
    sep = "," + _indent(level + 1)
    try:
        body = sep.join(map(float.__repr__, values))
    except TypeError:
        return None
    return None if "n" in body else "[" + sep[1:] + body + _indent(level) + "]"


class _Writer:
    """Report text through ``write``, in chunks: the text before a system's
    Frobenius records, the records, and so on, so the whole text is never
    held at once."""

    def __init__(self, write):
        self.write = write
        self.out: list[str] = []
        self.point_texts: dict = {}  # (id(points), level) -> the points' texts

    def flush(self):
        if self.out:
            self.write("".join(self.out))
            self.out.clear()

    def text(self, obj, level: int) -> str:
        """The text of ``obj`` (no Frobenius records in it) at ``level``."""
        mark = len(self.out)
        self.value(obj, level)
        text = "".join(self.out[mark:])
        del self.out[mark:]
        return text

    def value(self, obj, level: int):
        out = self.out
        if isinstance(obj, str):
            out.append(encode_basestring_ascii(obj))
        elif obj is None:
            out.append("null")
        elif obj is True or obj is False or isinstance(obj, np.bool_):
            out.append("true" if obj else "false")
        elif isinstance(obj, float):
            out.append(_float_text(obj, level))
        elif isinstance(obj, int):
            out.append(int.__repr__(obj))
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            inner = _indent(level + 1)
            sep = "{" + inner
            for key in sorted(obj):
                out.append(sep + encode_basestring_ascii(key) + ": ")
                self.value(obj[key], level + 1)
                sep = "," + inner
            out.append(_indent(level) + "}")
        elif isinstance(obj, (list, tuple)):
            text = _floats_text(obj, level) if obj and isinstance(obj[0], float) else None
            if text is not None:
                out.append(text)
                return
            if not obj:
                out.append("[]")
                return
            inner = _indent(level + 1)
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                self.value(item, level + 1)
                sep = "," + inner
            out.append(_indent(level) + "]")
        elif isinstance(obj, (np.floating, np.integer)):
            out.append(_float_text(float(obj), level))
        elif isinstance(obj, np.ndarray):
            self.value(obj.tolist(), level)
        elif isinstance(obj, FrobeniusColumns):
            self.flush()
            self.write(self.records(obj, level))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    def records(self, cols: FrobeniusColumns, level: int) -> str:
        """One system's records, read column by column; the keys and the
        system, tol and verdict texts are formatted once per system."""
        if not len(cols.points):
            return "[]"
        key = (id(cols.points), level)
        if key not in self.point_texts:  # the systems of a run share their points
            self.point_texts[key] = [self.text(p, level + 2) for p in cols.points.tolist()]
        i1, i2 = _indent(level + 1), _indent(level + 2)
        failed = "{" + i2 + '"failure": ' + encode_basestring_ascii(NON_FINITE) + "," \
            + i2 + '"point": %s' + i1 + "}"
        # the keys in sorted order; each %d and %s is a point's value text
        record = "{" + ",".join(i2 + f'"{name}": {text}' for name, text in (
            ("kernel_dim", "%d"), ("max_residual", "%s"), ("point", "%s"), ("rank", "%d"),
            ("residuals", "%s"), ("system", encode_basestring_ascii(cols.system)),
            ("tol", self.text(cols.tol, level + 2)), ("verdict", "%s"))) + i1 + "}"
        verdicts = [encode_basestring_ascii(v) for v in VERDICTS]
        n, texts = cols.points.shape[1], []
        for point, ok, rank, code, top, row in zip(
                self.point_texts[key], cols.finite.tolist(), cols.ranks.tolist(),
                cols.codes.tolist(), cols.worst.tolist(), cols.residuals.tolist()):
            if not ok:
                texts.append(failed % point)
            elif code == DEGENERATE:
                texts.append(record % (n - rank, "0.0", point, rank, "[]", verdicts[code]))
            else:
                texts.append(record % (n - rank, _float_text(top, level + 2), point, rank,
                                       _floats_text(row, level + 2) or self.text(row, level + 2),
                                       verdicts[code]))
        return "[" + i1 + ("," + i1).join(texts) + _indent(level) + "]"


class RunReport:
    """A run's results; :func:`run` fills the suites' entries in."""

    __slots__ = ("config", "classification", "frobenius", "identities", "assertions",
                 "failures", "timing_seconds")

    def __init__(self, config: RunConfig):
        self.config = config
        self.classification = None
        self.frobenius = []
        self.identities = None
        self.assertions = []
        self.failures = []
        self.timing_seconds = 0.0

    def all_assertions_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def write_json(self, write) -> None:
        """Write the report text (no final newline) through ``write(chunk)``."""
        writer = _Writer(write)
        writer.value({
            "meta": {
                "schema": SCHEMA_VERSION,
                "tool": "goursatkit",
                "version": __version__,
                "config": self.config.to_dict(),
                "assertions": self.assertions,
                "failures": self.failures,
                "timing_seconds": self.timing_seconds,
            },
            "classification": self.classification,
            "frobenius": self.frobenius,
            "identities": self.identities,
        }, 0)
        writer.flush()

    def to_json(self) -> str:
        chunks: list[str] = []
        self.write_json(chunks.append)
        return "".join(chunks)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())


def _assert_entry(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


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
                      abs(v[:, 0, 3] * v[:, 1, 2] * factor), SCALE_FLOOR])
    worst_eq = running_max(0.0, abs(raw_pde - raw * factor) / scale)
    if n >= 5:
        res = second_kind_residuals(t)
        scale = np.maximum(res.scale, SCALE_FLOOR)
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
    # the fold skips NaNs, so a point whose every deviation is NaN adds nothing
    worst_gauge = running_max(0.0, np.abs(shift) / scale)
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


@np.errstate(all="ignore")  # non-finite values are recorded, not warned about
def run(config: RunConfig) -> RunReport:
    """Execute the requested suites; numerical failures become report entries."""
    started = time.perf_counter()
    report = RunReport(config=config)
    web = build_web(config)
    box = Box(config.box)
    gauge = Gauge.of(config.gauge) if config.gauge else Gauge.zero(config.n)

    # one sample, one jet evaluation per point: every suite works on this bundle
    derivs = sample_bundle(web, box, config.count, config.seed)

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
            cols = frobenius_columns(system, derivs, config.frobenius_tol)
            counts = np.bincount(cols.codes[cols.finite], minlength=len(VERDICTS)).tolist()
            report.frobenius.append({  # VERDICTS is sorted, so the counts are in name order
                "system": system.name, "expected_kernel_dim": system.expected_kernel_dim,
                "points": cols, "verdict_counts": {v: c for v, c in zip(VERDICTS, counts) if c}})

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
        for res in ident.implication_tests(trials, config.seed):
            algebra["implications"]["+".join(res.imposed) + "->" + res.checked] = {
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


def _worst(residuals: dict) -> float:
    """A kind's largest residual over both forms, NaN if any is (as its verdict)."""
    return float(np.max(list(residuals.values())))


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
                     f"  (max rel residual {_worst(c['first_kind_residuals']):.3e})")
        if c.get("second_kind") is not None:
            lines.append(f"  second_kind: {c['second_kind']}"
                         f"  (max rel residual {_worst(c['second_kind_residuals']):.3e})")
        if any(c["degenerate_rows"]):
            lines.append("  note: torsion row(s) vanish; verdicts are vacuous")
    for entry in report.frobenius:
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
             checks: list | None = None) -> int:
    checks = checks if checks is not None else builtin_checks()
    if names:
        known = {n for n, _ in checks}
        missing = [n for n in names if n not in known]
        if missing:
            print(f"unknown check name(s): {', '.join(missing)}")
            return EXIT_CONFIG
        checks = [(n, fn) for n, fn in checks if n in names]
    if list_only:
        for name, _ in checks:
            print(name)
        return EXIT_OK
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failing check, not a crash of the tool
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        status = "pass" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_ASSERTION


# --- entry point --------------------------------------------------------------

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
    runp.add_argument("--points", help="override [sampling] count")
    runp.add_argument("--seed", help="override [sampling] seed")
    runp.add_argument("--tol", help="override both [tolerances] keys")
    runp.add_argument("--suite", action="append",
                      help="suite to run (repeatable), overrides [suites] run: "
                           "classify | frobenius | identities | all")
    runp.add_argument("--gauge", help="override [gauge] w, e.g. '0,0,0,0'")

    selfp = sub.add_parser("selftest", help="run the bundled example corpus")
    selfp.add_argument("--list", action="store_true", help="print check names and exit")
    selfp.add_argument("names", nargs="*", help="run only these checks")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        return selftest(names=args.names or None, list_only=args.list)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # a flag replaces its keys' text, converted and validated with the file
        sections = _sections(text)
        for (section, key), value in {
            ("sampling", "count"): args.points, ("sampling", "seed"): args.seed,
            ("tolerances", "classify"): args.tol, ("tolerances", "frobenius"): args.tol,
            ("suites", "run"): args.suite and ",".join(args.suite), ("gauge", "w"): args.gauge,
        }.items():
            if value is not None:
                sections.setdefault(section, {})[key] = value
        config = _config(sections)
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
            # streamed: the report text is never held whole in memory
            with open(args.json_path, "w", encoding="utf-8") as fh:
                report.write_json(fh.write)
                fh.write("\n")
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
