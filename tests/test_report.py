"""The report writer against a reference encoder.

The reference is the encoder the writer replaced: a recursive copy that maps
non-finite numbers to failure records and numpy values to Python ones
(``_finite``), then ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``,
with each Frobenius point record built as a dict, row by row, from the
columns (its max_residual by Python's ``max``).  The writer must give the
same bytes, and ``--json`` must reach the file in chunks.
"""

from __future__ import annotations

import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goursatkit.cli as cli_module
from goursatkit import __version__
from goursatkit.classify import Box, fold_max, sample_bundle
from goursatkit.cli import SCHEMA_VERSION, _Writer, build_web, main, parse_config_text, run
from goursatkit.exterior import NON_FINITE, SYSTEM_NAMES, VERDICTS, CoFormField, \
    FrobeniusColumns, PfaffianSystem, frobenius_columns, frobenius_reports, make_system

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
REPORT_DATA = ROOT / "tests" / "data" / "report"

_JSON_OPTIONS = {"indent": 2, "sort_keys": True, "allow_nan": False}

# hostile webs: the 1e200 factor makes every DELTA4 point a failure record
# (CI also runs that file in a fresh process), the 400th power overflows the
# first-kind products
HOSTILE = {
    "non-finite-generators": (REPORT_DATA / "non-finite-generators.cfg").read_text(),
    "power-400": "[web]\nn = 5\nexpr = (x1+x2+x3+x4+x5)^400\n"
                 "[sampling]\nbox = 0.5:1.5\ncount = 8\nseed = 0\n",
}


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


def reference(obj) -> str:
    return json.dumps(_finite(obj), **_JSON_OPTIONS)


def encode(obj) -> str:
    chunks = []
    writer = _Writer(chunks.append)
    writer.value(obj, 0)
    writer.flush()
    return "".join(chunks)


def _record(cols: FrobeniusColumns, i: int) -> dict:
    """Row ``i`` of ``cols`` as a record dict: a degenerate point has no
    residuals and max_residual 0.0, and a point without a finite result a
    failure."""
    point = cols.points[i].tolist()
    if not cols.finite[i]:
        return {"point": point, "failure": NON_FINITE}
    rank, verdict = int(cols.ranks[i]), VERDICTS[cols.codes[i]]
    residuals = [] if verdict == "degenerate" else cols.residuals[i].tolist()
    return {"system": cols.system, "point": point, "rank": rank,
            "kernel_dim": len(point) - rank, "residuals": residuals,
            "max_residual": max(residuals) if residuals else 0.0, "tol": cols.tol,
            "verdict": verdict}


def _plain(obj):
    """``obj`` with every FrobeniusColumns as its list of record dicts."""
    if isinstance(obj, FrobeniusColumns):
        return [_record(obj, i) for i in range(len(obj.points))]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_plain(v) for v in obj]
    return obj


def reference_tree(report) -> dict:
    """The report as the replaced ``RunReport.to_dict`` built it, before _finite."""
    return _plain({
        "meta": {"schema": SCHEMA_VERSION, "tool": "goursatkit", "version": __version__,
                 "config": report.config.to_dict(), "assertions": report.assertions,
                 "failures": report.failures, "timing_seconds": report.timing_seconds},
        "classification": report.classification,
        "frobenius": report.frobenius,
        "identities": report.identities,
    })


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _configs() -> dict[str, str]:
    configs = {f"golden-{p.stem}": p.read_text() for p in sorted(GOLDEN.glob("*.cfg"))}
    workloads = _workloads()
    configs.update({f"{name}-s3": workloads.config_text(name, 3) for name in workloads.WORKLOADS})
    configs.update(HOSTILE)
    return configs


CONFIGS = _configs()


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def report(request):
    return run(parse_config_text(CONFIGS[request.param]))


class TestRunReports:
    def test_bytes_match_reference(self, report):
        assert report.to_json() == reference(reference_tree(report))

    def test_dict_view(self, report):
        data = report.to_dict()
        assert data == json.loads(report.to_json())
        assert data == _finite(reference_tree(report))

    def test_verdict_counts_count_the_records(self, report):
        for entry in report.frobenius:
            verdicts = [r["verdict"] for r in _plain(entry["points"]) if "verdict" in r]
            assert entry["verdict_counts"] == dict(sorted(Counter(verdicts).items()))


def _columns(system: str, points, rows) -> FrobeniusColumns:
    """Columns from per-point rows (rank, residuals, verdict), None for a point
    without a finite result; ``worst`` is folded as the program folds it."""
    k = max((len(row[1]) for row in rows if row), default=1)
    finite = np.array([row is not None for row in rows], dtype=bool)
    ranks = np.array([row[0] if row else 0 for row in rows], dtype=np.intp)
    residuals = np.array([row[1] if row else [np.nan] * k for row in rows],
                         dtype=float).reshape(len(rows), k)
    codes = np.array([VERDICTS.index(row[2]) if row else 0 for row in rows], dtype=np.intp)
    with np.errstate(invalid="ignore"):
        worst = fold_max(list(residuals.T))
    return FrobeniusColumns(system, 1e-7, points, finite, ranks, residuals, worst, codes)


class TestRecords:
    def test_failures_and_non_finite_residuals(self):
        points = np.array([[0.5, -0.0, 1e-300], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                           [7.0, 8.0, 9.0], [1.5, 2.5, 3.5]])
        nan, inf = float("nan"), float("inf")
        cols = _columns("S10", points, [
            None,
            (2, (nan, 1.5), "inconclusive"),
            (1, (7.0, nan), "degenerate"),  # a degenerate point's residuals are not written
            (2, (1e-9, inf), "non_integrable"),
            (2, (1.5, nan), "inconclusive"),  # a later NaN is skipped, as by max
        ])
        tree = {"frobenius": [{"system": "S10", "points": cols}],
                "other": _columns("S10", points[:0], [])}
        text = encode(tree)
        assert text == reference(_plain(tree))
        records = json.loads(text)["frobenius"][0]["points"]
        assert [r.get("max_residual") for r in records] == [
            None, {"failure": "non-finite"}, 0.0, {"failure": "non-finite"}, 1.5]
        assert records[2]["residuals"] == [] and json.loads(text)["other"] == []

    def test_shared_points_at_two_depths(self):
        # the writer keeps each points array's texts per depth
        points = np.array([[1.0, 2.0], [3.0, float("nan")]])
        rows = [(2, (0.25,), "non_integrable")] * 2
        tree = {"a": _columns("S11", points, rows),
                "b": [[_columns("S11", points, rows)]]}
        assert encode(tree) == reference(_plain(tree))

    def test_worst_folds_as_max(self):
        # a NaN Jacobian entry makes its generator's residual NaN: the columns
        # keep a NaN in first place and skip a later one, as max does
        def nan_jacobian(p):
            jac = np.zeros((4, 4))
            jac[0, 1] = np.nan
            return np.array([1.0, 0.0, 0.0, 0.0]), jac

        def tilted(p):
            jac = np.zeros((4, 4))
            jac[2, 0] = 1.0
            return np.array([0.0, 1.0, p[0], 0.0]), jac

        fields = (CoFormField(4, "nan", nan_jacobian), CoFormField(4, "tilted", tilted))
        points = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 1.5, 2.0]])
        for order in (fields, fields[::-1]):
            with np.errstate(invalid="ignore"):
                cols = frobenius_columns(PfaffianSystem("NAN", 4, order), points)
            rows = cols.residuals.tolist()
            assert sum(math.isnan(r) for r in rows[0]) == 1
            assert repr(cols.worst.tolist()) == repr([max(row) for row in rows])
            assert encode([cols]) == reference(_plain([cols]))


@pytest.mark.parametrize("name", ["closed-n8", *HOSTILE])
def test_reports_are_the_column_view(name):
    # frobenius_reports row by row against the columns at the config's sample
    # points, and each verdict against Python's max of the point's residuals
    text = (GOLDEN / "closed-n8.cfg").read_text() if name == "closed-n8" else HOSTILE[name]
    config = parse_config_text(text)
    web = build_web(config)
    failures = 0
    with np.errstate(all="ignore"):
        b = sample_bundle(web, Box(config.box), config.count, config.seed)
    if name == "closed-n8":
        assert config.frobenius_systems == SYSTEM_NAMES
    for system in [make_system(web, s) for s in config.frobenius_systems]:
        with np.errstate(all="ignore"):
            cols = frobenius_columns(system, b, config.frobenius_tol)
            reports = frobenius_reports(system, b, config.frobenius_tol)
        assert len(reports) == len(b.points)
        for i, fr in enumerate(reports):
            if not cols.finite[i]:
                assert fr is None
                failures += 1
                continue
            record = _record(cols, i)
            assert (fr.system, np.asarray(fr.point).tolist(), fr.rank, fr.kernel_dim,
                    list(fr.residuals), fr.tol, fr.verdict) == (
                record["system"], record["point"], record["rank"], record["kernel_dim"],
                record["residuals"], record["tol"], record["verdict"])
            top = fr.max_residual
            assert repr(top) == repr(record["max_residual"])
            if fr.rank < len(system.fields) + len(system.sigma):
                assert fr.verdict == "degenerate"
            else:
                assert repr(top) == repr(float(cols.worst[i]))
                assert fr.verdict == ("integrable" if top < config.frobenius_tol
                                      else "non_integrable" if top > 1e-3 else "inconclusive")
    assert (failures > 0) == (name == "non-finite-generators")


# --- generated trees ----------------------------------------------------------

_text = st.text(st.characters(blacklist_categories=()), max_size=8)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _text,
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300]),
)
# float lists take one join unless an item is non-finite or not a float
_float_lists = st.lists(st.floats(), max_size=6) | st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.booleans(),
              st.floats().map(np.float64)), max_size=6)
_arrays = st.one_of(
    st.lists(st.floats(), max_size=6).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3).map(
        lambda v: np.array(v, dtype=float).reshape(len(v), 2)),
    st.lists(st.integers(-2**40, 2**40), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
    st.floats().map(np.array),  # zero-dimensional
)
_trees = st.recursive(
    _scalars | _float_lists | _arrays,
    lambda children: st.lists(children, max_size=5) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_text, children, max_size=5),
    max_leaves=40)


class TestGeneratedTrees:
    @given(_trees)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_bytes_match_reference(self, tree):
        assert encode(tree) == reference(tree)

    @pytest.mark.parametrize("values", [[1.0, float("nan"), 2.0], [float("-inf")],
                                        [np.float64(1.5), float("inf")], [1.0, 2], [0.5, True],
                                        [1.0, [2.0]], [-0.0, 5e-324, 1.7976931348623157e308]])
    def test_float_lists_leave_the_join(self, values):
        assert encode({"x": values}) == reference({"x": values})

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError):
            encode({"x": object()})
        with pytest.raises(TypeError):
            encode({1: 2.0})  # keys must be str


# --- streaming ------------------------------------------------------------------

class _RecordedFile:
    """A file whose writes are recorded."""

    def __init__(self, fh):
        self.fh = fh
        self.sizes = []

    def write(self, chunk):
        self.sizes.append(len(chunk))
        return self.fh.write(chunk)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_json_flag_streams_the_report(tmp_path, monkeypatch, capsys):
    # closed-n8 golden: 11 Frobenius systems, so the records come in 11 chunks
    files = []

    def recording_open(*args, **kwargs):
        files.append(_RecordedFile(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(cli_module, "open", recording_open, raising=False)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(GOLDEN / "closed-n8.cfg"), "--json", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    sizes = files[0].sizes
    assert sum(sizes) == len(text) and text.endswith("}\n")
    assert len(sizes) > 11 and max(sizes) < len(text) / 5
    report = run(parse_config_text((GOLDEN / "closed-n8.cfg").read_text()))
    data = json.loads(text)
    data["meta"].pop("timing_seconds")
    expected = report.to_dict()
    expected["meta"].pop("timing_seconds")
    assert data == expected
