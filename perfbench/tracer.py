"""Span tracing of goursatkit from the outside, by wrapping module functions.

``Tracer.install`` replaces each traced function at every name it is bound
to (``cli``, ``classify`` and ``catalog`` import names with ``from ...
import``, so ``web.torsion`` is also patched as ``cli.torsion`` and
``classify.torsion``), and methods on their class.  ``uninstall`` puts the
originals back.  The program's own files are not changed.

A span records name, start, end, parent span and phase; one phase is one
traced step (set-up, ``cli.run``, report serialization), so a phase plays
the role of a run id.  Spans are kept in flat arrays in memory and written
out by ``save``.  A layer's self time is its span time minus the time its
direct child spans cover; only wrapped functions open spans, so the self
time of ``families.solve_parameter`` excludes its ``constraint_with_slope``
and jet spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# the package re-exports functions named like some of its modules (``classify``),
# so the modules are looked up by their full name
catalog, classify, cli, expr, exterior, families, identities, jets, web = (
    importlib.import_module(f"goursatkit.{name}")
    for name in ("catalog", "classify", "cli", "expr", "exterior", "families",
                 "identities", "jets", "web"))

SPAN, COUNT = True, False


def _jet_key(tracer, args, kwargs, result, dur):
    order = args[2] if len(args) > 2 else kwargs["order"]
    key = (np.asarray(args[1], dtype=float).tobytes(), order)
    tracer.jet_keys.setdefault(tracer.phase, set()).add(key)


def _rejected(tracer, args, kwargs, result, dur):
    if not result:
        tracer.count("web.is_regular.rejected")


def _mul_terms(tracer, args, kwargs, result, dur):
    if isinstance(args[1], jets.Jet):
        tracer.count("jets.mul.terms", args[0].space.mul_out.size)


def _newton(tracer, args, kwargs, result, dur):
    tracer.count("families.newton_iters", result[1])


def _implication(tracer, args, kwargs, result, dur):
    tracer.count("identities.implication_test.trials", result.trials)
    tracer.count("identities.implication_test.rejected", result.rejected)


def _witness(tracer, args, kwargs, result, dur):
    tracer.count("identities.witness_search.trials_used", result.trials_used)


def _frobenius(tracer, args, kwargs, result, dur):
    tracer.count(f"exterior.verdict.{result.verdict}")
    tracer.count(f"exterior.frobenius.{args[0].name}.s", dur)


def _space_build(tracer, args, kwargs, result, dur):
    misses = tracer.originals[(jets, "space")].cache_info().misses
    if misses != tracer.space_misses:
        tracer.space_misses = misses
        tracer.count("jets.space.build_s", dur)


# span name -> (binding sites, opens a span?, hook on the result)
TARGETS = {
    "expr.parse": ([(expr, "parse"), (cli, "parse"), (catalog, "parse")], SPAN, None),
    "catalog.random_second_kind_spec": ([(catalog, "random_second_kind_spec")], SPAN, None),
    "jets.space": ([(jets, "space")], COUNT, _space_build),
    "jets.eval_with_bindings": ([(jets, "eval_with_bindings")], SPAN, None),
    "jets.apply_unary": ([(jets, "apply_unary")], SPAN, None),
    "jets.divide": ([(jets, "divide")], SPAN, None),
    "jets.restrict_last": ([(jets, "restrict_last")], SPAN, None),
    "jets.substitute_last": ([(jets, "substitute_last")], SPAN, None),
    "jets.mul": ([(jets.Jet, "__mul__")], SPAN, _mul_terms),
    "web.jet": ([(web.WebFunction, "jet")], SPAN, _jet_key),
    "web.is_regular": ([(web.WebFunction, "is_regular")], SPAN, _rejected),
    "web.torsion": ([(web, "torsion"), (cli, "torsion"), (classify, "torsion")], SPAN, None),
    "web.pfaffian_derivs": ([(web, "pfaffian_derivs"), (cli, "pfaffian_derivs")], SPAN, None),
    "families.solve_parameter": (
        [(families, "solve_parameter"), (catalog, "solve_parameter")], SPAN, None),
    "families.solve_parameter_with_info": (
        [(families, "solve_parameter_with_info")], COUNT, _newton),
    "families.constraint_with_slope": ([(families, "constraint_with_slope")], SPAN, None),
    "classify.sample_regular_points": (
        [(classify, "sample_regular_points"), (cli, "sample_regular_points")], SPAN, None),
    "classify.classify": ([(classify, "classify"), (cli, "classify")], SPAN, None),
    "exterior.make_system": ([(exterior, "make_system"), (cli, "make_system")], SPAN, None),
    "exterior.frobenius_residual": (
        [(exterior, "frobenius_residual"), (cli, "frobenius_residual")], SPAN, _frobenius),
    "exterior.coefficients": ([(exterior.CoFormField, "coefficients")], SPAN, None),
    "exterior.d_form": ([(exterior, "d_form")], SPAN, None),
    "identities.condition_values": ([(identities, "condition_values")], SPAN, None),
    "identities.second_kind_polynomial_residuals": (
        [(identities, "second_kind_polynomial_residuals")], SPAN, None),
    "identities.implication_test": ([(identities, "implication_test")], SPAN, _implication),
    "identities.witness_search": ([(identities, "witness_search")], SPAN, _witness),
    "identities.sample_second_kind_torsion": (
        [(identities, "sample_second_kind_torsion")], SPAN, None),
    "cli.parse_config_text": ([(cli, "parse_config_text")], SPAN, None),
    "cli.build_web": ([(cli, "build_web")], SPAN, None),
    "cli.run": ([(cli, "run")], SPAN, None),
    "cli.to_json": ([(cli.RunReport, "to_json")], SPAN, None),
}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_phase = array("i")
        self.phases = ["idle"]
        self.phase = 0
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = {}
        self.jet_keys: dict[int, set] = {}
        self.originals: dict = {}
        self.missing_sites: list[str] = []
        self.space_misses = 0

    def begin(self, phase: str):
        """Start a new phase; later spans and counts belong to it."""
        self.phases.append(phase)
        self.phase = len(self.phases) - 1

    def count(self, key: str, amount=1):
        self.counts.setdefault(self.phase, Counter())[key] += amount

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn, opens_span: bool, hook):
        nid = self.name_id[name]
        clock = time.perf_counter
        stack = self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, phases = self.span_parent, self.span_phase
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            if opens_span:
                idx = len(names)
                names.append(nid)
                starts.append(t0)
                ends.append(0.0)
                parents.append(stack[-1] if stack else -1)
                phases.append(tracer.phase)
                stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(name + ".raised")
                raise
            finally:
                t1 = clock()
                if opens_span:
                    ends[idx] = t1
                    stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result, t1 - t0)
            return result

        return traced

    def install(self):
        for name, (sites, opens_span, hook) in TARGETS.items():
            for owner, attr in sites:
                fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if fn is None:
                    self.missing_sites.append(f"{owner.__name__}.{attr}")
                    continue
                self.originals[(owner, attr)] = fn
                setattr(owner, attr, self._wrap(name, fn, opens_span, hook))
        space = self.originals.get((jets, "space"))
        if space is not None:
            self.space_misses = space.cache_info().misses

    def uninstall(self):
        for (owner, attr), fn in self.originals.items():
            setattr(owner, attr, fn)
        self.originals.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "phase": np.frombuffer(self.span_phase, dtype=np.int32),
        }

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name in ``phase``: calls, inclusive seconds, self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(dur.size)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        sel = a["phase"] == self.phases.index(phase)
        k = len(self.names)
        calls = np.bincount(a["name"][sel], minlength=k)
        incl = np.bincount(a["name"][sel], weights=dur[sel], minlength=k)
        own = np.bincount(a["name"][sel], weights=(dur - child)[sel], minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def counts_of(self, phase: str) -> Counter:
        return self.counts.get(self.phases.index(phase), Counter())

    def jet_keys_of(self, phase: str) -> set:
        """Distinct (point, order) keys of the ``web.jet`` calls in ``phase``."""
        return self.jet_keys.get(self.phases.index(phase), set())

    def save(self, path: Path):
        """Write every span and the name/phase tables to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tables = json.dumps({"names": self.names, "phases": self.phases,
                             "missing_sites": self.missing_sites})
        np.savez(path, tables=np.array(tables), **self.arrays())
