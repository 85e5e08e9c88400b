"""The report writer against a reference encoder.

The reference is the encoder the writer replaced: a recursive copy that maps
non-finite numbers to failure records and numpy values to Python ones
(``_finite``), then ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``,
with each Frobenius point record built as a dict.  The writer must give the
same bytes, and ``--json`` must reach the file in chunks.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goursatkit.cli as cli_module
from goursatkit import __version__
from goursatkit.cli import SCHEMA_VERSION, FrobeniusRecords, _Writer, main, \
    parse_config_text, run
from goursatkit.exterior import NON_FINITE, FrobeniusReport

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"

_JSON_OPTIONS = {"indent": 2, "sort_keys": True, "allow_nan": False}

# hostile webs: the 1e200 factor makes every DELTA4 point a failure record,
# the 400th power overflows the first-kind products
HOSTILE = {
    "non-finite-generators": "[web]\nn = 5\nexpr = 1e200*x1*x3*x4 + x2*x5 + x1*x2\n"
                             "[sampling]\ncount = 4\n[suites]\nrun = all\n"
                             "frobenius_systems = DELTA4, S10, THETA_RHO\n",
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


def _record(point, fr: FrobeniusReport | None) -> dict:
    if fr is None:
        return {"point": point.tolist(), "failure": NON_FINITE}
    return {"system": fr.system, "point": np.asarray(fr.point).tolist(), "rank": fr.rank,
            "kernel_dim": fr.kernel_dim, "residuals": list(fr.residuals),
            "max_residual": fr.max_residual, "tol": fr.tol, "verdict": fr.verdict}


def _plain(obj):
    """``obj`` with every FrobeniusRecords as its list of record dicts."""
    if isinstance(obj, FrobeniusRecords):
        return [_record(p, fr) for p, fr in zip(obj.points, obj.reports)]
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


class TestRecords:
    def test_failures_and_non_finite_residuals(self):
        points = np.array([[0.5, -0.0, 1e-300], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                           [7.0, 8.0, 9.0]])
        reports = [
            None,
            FrobeniusReport("S10", points[1], 2, 1, (float("nan"), 1.5), 1e-7, "inconclusive"),
            FrobeniusReport("S10", points[2], 1, 2, (), 1e-7, "degenerate"),
            FrobeniusReport("S10", points[3], 2, 1, (1e-9, float("inf")), 1e-7,
                            "non_integrable"),
        ]
        tree = {"frobenius": [{"system": "S10", "points": FrobeniusRecords(points, reports)}],
                "other": FrobeniusRecords(points[:0], [])}
        assert encode(tree) == reference(_plain(tree))

    def test_shared_points_at_two_depths(self):
        # the writer keeps each points array's texts per depth
        points = np.array([[1.0, 2.0], [3.0, float("nan")]])
        reports = [FrobeniusReport("S11", p, 2, 0, (0.25,), 1e-7, "non_integrable")
                   for p in points]
        tree = {"a": FrobeniusRecords(points, reports),
                "b": [[FrobeniusRecords(points, reports)]]}
        assert encode(tree) == reference(_plain(tree))


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
