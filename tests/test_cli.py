import io
import json
import os
import re
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goursatkit.cli
from goursatkit.classify import DEFAULT_TOL, Box, sample_regular_points
from goursatkit.exterior import DEFAULT_FROBENIUS_TOL, NON_FINITE
from goursatkit.web import WebFunction, derivative_bundle
from goursatkit.cli import (_KEYS, EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                            MAX_COUNT, MAX_IDENTITY_TRIALS, ConfigError, RunConfig,
                            _consistency_assertions, build_web,
                            builtin_checks, main, parse_config_text, run, selftest)
from goursatkit.expr import MAX_DEPTH, parse, to_text
from genexpr import CONSTANT_PART_CONFIGS, EDGE_TREES, HOSTILE_CONFIGS, \
    NUMERICAL_FAILURE_CONFIGS, random_tree

GOLDEN = Path(__file__).parent / "data" / "golden"

PRODUCT_CFG = """
[web]
n = 4
source = expr
expr = (x1+x2)*(x3+x4)

[sampling]
box = 0.5:1.5
count = 8
seed = 11

[suites]
run = classify, frobenius
frobenius_systems = THETA_RHO, S10_11
"""

FAMILY_CFG = """
[web]
n = 5
source = family

[family]
kind = second
phi = a*(x1 + 1.1*x2) + s^2/2 + s*(0.2*x1 - 0.2*x2)
psi = a*(1 + 0.05*x3 - 0.04*x4 + 0.03*x5) + x3 + x4 + x5
slot = s
a0 = -4.0

[sampling]
box = 0.8:1.2
count = 6
seed = 3

[suites]
run = classify
"""

CLOSED_N8_CFG = """
[web]
n = 8
expr = (x1+x2)*(x3+x4) + exp(x5*x6) + sin(x1*x5) + x1*x3^2*x5/3 + x2*x4*x5^2/5 + x6*x7 + cos(x7*x8)

[sampling]
box = 0.5:1.5
count = 8
"""


class TestConfigParsing:
    def test_product_config(self):
        cfg = parse_config_text(PRODUCT_CFG)
        assert cfg.n == 4 and cfg.source == "expr"
        assert cfg.suites == ("classify", "frobenius")
        assert cfg.frobenius_systems == ("THETA_RHO", "S10_11")

    def test_missing_n(self):
        with pytest.raises(ConfigError):
            parse_config_text("[web]\nsource = expr\nexpr = x1*x3\n")

    def test_n_above_scope(self):
        with pytest.raises(ConfigError, match="n must be between 4 and 8"):
            parse_config_text(PRODUCT_CFG.replace("n = 4", "n = 9"))

    def test_n_below_scope(self):
        with pytest.raises(ConfigError, match="n must be between 4 and 8"):
            parse_config_text(PRODUCT_CFG.replace("n = 4", "n = 3"))

    @pytest.mark.parametrize("trials", [0, -3])
    def test_identity_trials_not_positive(self, trials, tmp_path, capsys):
        # zero or negative trials would pass the identity assertions vacuously
        text = (FAMILY_CFG.replace("run = classify", "run = identities")
                + f"identity_trials = {trials}\n")
        with pytest.raises(ConfigError):
            parse_config_text(text)
        cfg = tmp_path / "trials.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "identity_trials" in capsys.readouterr().err

    def test_bad_box(self):
        with pytest.raises(ConfigError):
            parse_config_text(PRODUCT_CFG.replace("0.5:1.5", "2.0:1.0"))

    def test_box_too_wide(self):
        # hi - lo overflows to inf, which the uniform draw rejects with a traceback
        with pytest.raises(ConfigError, match="box"):
            parse_config_text(PRODUCT_CFG.replace("0.5:1.5", "-1e308:1e308"))

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 4\n")

    def test_bad_suite_name(self):
        with pytest.raises(ConfigError):
            parse_config_text(PRODUCT_CFG.replace("run = classify, frobenius",
                                                  "run = classify, nonsense"))

    def test_delta_suite_needs_five(self):
        with pytest.raises(ConfigError):
            parse_config_text(PRODUCT_CFG.replace("THETA_RHO, S10_11", "DELTA2"))

    def test_comments_and_defaults(self):
        cfg = parse_config_text("# top comment\n[web]\nn = 5\nexpr = x1*x3 + x2*x4 + x5^2  # tail\n")
        assert cfg.count == 32 and cfg.order == 3
        assert cfg.suites == ("classify", "frobenius", "identities")
        # the tolerances default to their owners' defaults
        for config in (cfg, RunConfig(5, "expr")):
            assert config.classify_tol == DEFAULT_TOL
            assert config.frobenius_tol == DEFAULT_FROBENIUS_TOL

    def test_docstring_names_every_key(self):
        listed, section = set(), None
        doc = goursatkit.cli.__doc__
        block = doc.split("Recognized sections and keys:\n\n")[1].split("\n\n")[0]
        for line in block.splitlines():
            head, _, rest = line.strip().partition("]")
            if head.startswith("["):
                section, line = head[1:], rest
            line = re.sub(r"\([^)]*\)", "", line)  # drop the value notes
            listed |= {(section, key.strip()) for key in line.split(",") if key.strip()}
        assert listed == set(_KEYS)

    @pytest.mark.parametrize("text, field, value", [
        (FAMILY_CFG + "[gauge]\nw =\n", "gauge", ()),
        (FAMILY_CFG.replace("run = classify", "run ="), "suites",
         ("classify", "frobenius", "identities")),
        (PRODUCT_CFG.replace("run = classify, frobenius", "run ="), "suites",
         ("classify", "frobenius")),
        (FAMILY_CFG.replace("source = family", "source ="), "source", "family"),
        (PRODUCT_CFG.replace("source = expr", "source ="), "source", "expr"),
    ], ids=["w", "run-n5", "run-n4", "source-family", "source-expr"])
    def test_empty_value_keeps_its_meaning(self, text, field, value):
        # an empty value acts as the absent key: no gauge, every suite for n,
        # the source inferred from a [family] section
        assert getattr(parse_config_text(text), field) == value

    def test_all_suites_adapt_to_n4(self):
        cfg = parse_config_text("[web]\nn = 4\nexpr = (x1+x2)*(x3+x4)\n")
        assert cfg.suites == ("classify", "frobenius")

    def test_order_three_still_parses(self):
        cfg = parse_config_text(PRODUCT_CFG + "\n[tolerances]\norder = 3\n")
        assert cfg.order == 3 and cfg.to_dict()["order"] == 3

    @pytest.mark.parametrize("w", ["nan,0,0,0,0", "0,inf,0,0,0", "0,0,0,0,-inf"])
    def test_gauge_not_finite(self, w):
        with pytest.raises(ConfigError, match="gauge"):
            parse_config_text(FAMILY_CFG + f"\n[gauge]\nw = {w}\n")

    @pytest.mark.parametrize("key", ["classify", "frobenius"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-7"])
    def test_tolerance_not_finite_positive(self, key, value):
        # a NaN tolerance used to report every web as not first kind, exit 0
        with pytest.raises(ConfigError, match="tolerance"):
            parse_config_text(PRODUCT_CFG + f"\n[tolerances]\n{key} = {value}\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text(PRODUCT_CFG.replace("seed = 11", "seed = -1"))


class TestRun:
    def test_product_run(self):
        report = run(parse_config_text(PRODUCT_CFG))
        assert report.classification["first_kind"] is True
        systems = {e["system"]: e for e in report.frobenius}
        assert systems["THETA_RHO"]["verdict_counts"] == {"integrable": 8}
        assert report.all_assertions_passed()

    def test_one_evaluation_per_draw_in_a_run(self, monkeypatch):
        # every suite reads the bundle: each drawn point is evaluated once,
        # in one evaluator call per draw batch, and nothing after sampling
        import goursatkit.cli as cli_module
        build = cli_module.build_web
        sample = Box.sample
        for name, count in (("family2-n6", 8), ("closed-n8", 16)):
            cfg = parse_config_text((GOLDEN / f"{name}.cfg").read_text())
            cfg.count = count
            drawn, evaluated, batches = [], [], []

            def counted_build(config):
                web = build(config)
                inner = web.evaluator

                def evaluator(points):
                    batches.append(len(points))
                    evaluated.extend(p.tobytes() for p in points)
                    return inner(points)

                web.evaluator = evaluator
                return web

            def counted_sample(box, rng, count):
                points = sample(box, rng, count)
                drawn.extend(p.tobytes() for p in points)
                return points

            monkeypatch.setattr(cli_module, "build_web", counted_build)
            monkeypatch.setattr(Box, "sample", counted_sample)
            run(cfg)
            assert len(drawn) >= cfg.count
            assert evaluated == drawn
            assert len(batches) == len(drawn) // cfg.count

    def test_family_run_second_kind(self):
        report = run(parse_config_text(FAMILY_CFG))
        assert report.classification["second_kind"] is True

    def test_singular_box_numerical_failure(self):
        from goursatkit.classify import TooFewRegularPoints
        cfg = parse_config_text(
            "[web]\nn = 4\nexpr = x1^2/2 + x2^2/2 + x3^2/2 + x4^2/2\n"
            "[sampling]\nbox = -0.000000001:0.000000001\ncount = 4\n")
        with pytest.raises(TooFewRegularPoints):
            run(cfg)

    def test_json_deterministic_modulo_timing(self):
        r1 = run(parse_config_text(PRODUCT_CFG)).to_dict()
        r2 = run(parse_config_text(PRODUCT_CFG)).to_dict()
        r1["meta"].pop("timing_seconds")
        r2["meta"].pop("timing_seconds")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_json_schema_and_finiteness(self):
        report = run(parse_config_text(FAMILY_CFG))
        text = report.to_json()  # allow_nan=False raises on NaN/Inf
        data = json.loads(text)
        assert sorted(data) == ["classification", "frobenius", "identities", "meta"]
        assert data["meta"]["schema"] == "goursat-kit/1"

    def test_identities_suite_runs(self):
        cfg = parse_config_text(FAMILY_CFG.replace("run = classify",
                                                   "run = identities\nidentity_trials = 60"))
        report = run(cfg)
        assert report.identities is not None
        impl = report.identities["algebra"]["implications"]
        assert all(v["max_relative"] <= 1e-8 for v in impl.values())

    def test_identities_on_six_web_with_gauge(self):
        cfg_text = """
[web]
n = 6
expr = x1*x3 + x2*x4 + x1*x4 + x1^2*x3^2/4 + x5^2/2 + x6^2/2

[sampling]
box = 0.5:1.5
count = 5
seed = 2

[gauge]
w = 0.1, -0.2, 0, 0.3, 0, 0

[suites]
run = identities
identity_trials = 40
"""
        report = run(parse_config_text(cfg_text))
        sample = report.identities["samples"][0]
        assert len(sample["conditions"]["m"]) == 6
        json_text = report.to_json()
        assert "non-finite" not in json_text

    @pytest.mark.parametrize("seed", [7, 10, 25])
    def test_gauge_assertion_holds_near_small_gradient(self, seed):
        # these samples come close to F_7 = 0, where the Pfaffian derivatives
        # reach ~1e7; affinity in the gauge must hold to rounding relative
        # to the values compared
        cfg = parse_config_text(CLOSED_N8_CFG + f"seed = {seed}\n")
        web = build_web(cfg)
        points = sample_regular_points(web, Box(cfg.box), cfg.count, seed)
        passed = {a["name"]: a["passed"]
                  for a in _consistency_assertions(derivative_bundle(web, points), cfg)}
        assert passed["derivs_affine_in_gauge"]

    def test_pde_form_assertion_detects_disagreement(self, monkeypatch):
        import goursatkit.cli as cli_module
        cfg = parse_config_text(CLOSED_N8_CFG + "seed = 0\n")
        web = build_web(cfg)
        points = sample_regular_points(web, Box(cfg.box), cfg.count, cfg.seed)
        derivs = derivative_bundle(web, points)

        def passed():
            return {a["name"]: a["passed"] for a in _consistency_assertions(derivs, cfg)}[
                "pde_form_matches_torsion_form"]

        assert passed()
        honest = cli_module.first_kind_pde

        def offset(b):
            raw, rel = honest(b)
            return raw * (1 + 1e-6), rel

        monkeypatch.setattr(cli_module, "first_kind_pde", offset)
        assert not passed()


class TestMain:
    @pytest.mark.parametrize("cfg", HOSTILE_CONFIGS + CONSTANT_PART_CONFIGS,
                             ids=lambda cfg: cfg.stem)
    def test_hostile_config_is_a_config_error(self, cfg, capsys):
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_deepest_admitted_tree_runs(self, tmp_path):
        # a sum MAX_DEPTH deep evaluates, walks and prints inside a run
        terms = "x1*x3 + x2*x4" + " + x1" * (MAX_DEPTH - 3)
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(PRODUCT_CFG.replace("(x1+x2)*(x3+x4)", terms))
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert to_text(parse(terms, 4)) == terms

    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(PRODUCT_CFG)
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--json", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["classification"]["first_kind"] is True
        assert "classification" in capsys.readouterr().out

    def test_closed_stdout(self, tmp_path, monkeypatch):
        # `goursatkit run ... | head`: the reader is gone before the report
        cfg = tmp_path / "web.cfg"
        cfg.write_text(PRODUCT_CFG)
        out = tmp_path / "report.json"
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(["run", "--config", str(cfg), "--json", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["classification"]["first_kind"] is True

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(PRODUCT_CFG)
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--points", "5", "--seed", "99",
                     "--suite", "classify", "--json", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["meta"]["config"]["count"] == 5
        assert data["meta"]["config"]["seed"] == 99
        assert data["frobenius"] == []

    def test_flags_override_keys_before_validation(self, tmp_path, capsys):
        # a flag replaces its key's text before the file is validated: the
        # file's count = 0 alone is a config error, --points 5 replaces it
        cfg = tmp_path / "web.cfg"
        cfg.write_text(PRODUCT_CFG.replace("count = 8", "count = 0"))
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--points", "5", "--tol", "1e-6",
                     "--suite", "all", "--json", str(out)]) == EXIT_OK
        config = json.loads(out.read_text())["meta"]["config"]
        assert config["count"] == 5
        assert config["classify_tol"] == config["frobenius_tol"] == 1e-6
        assert config["suites"] == ["classify", "frobenius"]  # "all" at n = 4
        capsys.readouterr()

    @pytest.mark.parametrize("flags, key", [(["--gauge", "0.1,x,0,0,0"], "[gauge] w"),
                                            (["--points", "five"], "[sampling] count"),
                                            (["--tol", "small"], "[tolerances] classify")],
                             ids=["gauge", "points", "tol"])
    def test_bad_flag_text_names_its_key(self, flags, key, tmp_path, capsys):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(FAMILY_CFG)
        assert main(["run", "--config", str(cfg)] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[web]\nsource = expr\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_section_and_key_exit_two(self, tmp_path, capsys):
        # a [run] section in place of [suites] and a misspelt count once ran
        # every suite with the defaults
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(PRODUCT_CFG.replace("[suites]", "[run]").replace("count = 8", "cout = 8"))
        with mock.patch("goursatkit.cli.run", side_effect=AssertionError("a mistyped config ran")):
            assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "[run]" in err and "[sampling] cout" in err

    @pytest.mark.parametrize("text, message", [
        ("[web]\nn = 4\nsource = tree\nexpr = x1*x2\n", "web source must be 'expr' or 'family'"),
        ("[web]\nn = 4\nsource = expr\n", "source 'expr' needs an expression"),
        (FAMILY_CFG.replace("psi = ", "# psi = "), "source 'family' needs kind, phi and psi"),
        ("[web]\nn = 4\nexpr x1*x2\n", "line 3: expected 'key = value'"),
        (FAMILY_CFG.replace("s^2/2 + s*(0.2*x1 - 0.2*x2)", "x1*x2"),
         "phi never uses the psi slot 's'"),
        (PRODUCT_CFG.replace("box = 0.5:1.5", "box ="),
         "[sampling] box must give one interval or n intervals"),
        (PRODUCT_CFG.replace("box = 0.5:1.5", "box = all, classify"),
         "[sampling] bad box interval 'all'"),
        (PRODUCT_CFG.replace("box = 0.5:1.5", "box = 1:0"), "invalid box interval (1.0, 0.0)"),
        (FAMILY_CFG.replace("s^2/2", "s^2/2 + 1e999*0"), "[family] phi: the literal at offset"),
        (FAMILY_CFG.replace("x3 + x4 + x5", "x3 + x4 + x5 - 0*1e999"),
         "[family] psi: the literal at offset"),
        (FAMILY_CFG.replace("s^2/2", "s^2/2 + 1e308*10*x1"),
         "[family] phi: the constant part '1e+308*10' is not finite (inf)"),
        (FAMILY_CFG.replace("x3 + x4 + x5", "x3 + x4 + ln(2 - 3)*x5"),
         "[family] psi: ln of non-positive jet value -1.0"),
    ], ids=["source", "expr", "family", "line", "psi-slot", "box-empty", "box-text",
            "box-interval", "phi-literal", "psi-literal", "phi-constant", "psi-constant"])
    def test_config_error_messages(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["run", "--config", "/no/such/file.cfg"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(PRODUCT_CFG.replace("(x1+x2)", "(x1+x2) # \xe9").encode("latin-1"))
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "error: cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("edits", [
        [("slot = s", "slot = a"), ("s^2/2 + s*", "a^2/2 + a*")],
        [("a0 = -4.0", "a0 = nan")],
        [("a0 = -4.0", "a0 = -inf")],
    ])
    def test_unusable_family_spec_exit_two(self, edits, tmp_path, capsys):
        # the psi slot bound over the parameter, or a non-finite Newton start,
        # once sampled no regular point and exited 3
        text = FAMILY_CFG
        for edit in edits:
            text = text.replace(*edit)
        cfg = tmp_path / "family.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config error: bad family spec" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        cfg = tmp_path / "sing.cfg"
        cfg.write_text("[web]\nn = 4\nexpr = x1^2/2 + x2^2/2 + x3^2/2 + x4^2/2\n"
                       "[sampling]\nbox = -0.000000001:0.000000001\ncount = 4\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_overflow_inside_a_jet_product_exit_three(self, tmp_path, capsys):
        # x1*1e308*10 has no variable-free part for the config check to refuse:
        # it overflows only once 1e308 multiplies the jet of x1
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("[web]\nn = 4\nexpr = x1*x3 + x2*x4 + x1*1e308*10\n"
                       "[sampling]\nbox = 0.5:1.5\ncount = 4\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_jet_is_a_rejected_draw(self, tmp_path, capsys):
        # x1^(-100) overflows in the third derivatives over part of the box; a
        # NaN or inf jet used to pass the regularity check and crash the
        # Frobenius SVD with a traceback
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[web]\nn = 5\nexpr = x1^(-100)*x3 + x2*x4 + x5*x1\n"
                       "[sampling]\nbox = 0.0005:0.0015\ncount = 4\nseed = 0\n"
                       "[suites]\nrun = all\nfrobenius_systems = S10, DELTA2\n")
        assert main(["run", "--config", str(cfg)]) in (EXIT_OK, EXIT_ASSERTION, EXIT_NUMERICAL)
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_generators_are_point_records(self, tmp_path, capsys):
        # the 1e200 factor overflows the DELTA4 generator coefficients at
        # every point: each point is a failure record, not a traceback
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[web]\nn = 5\nexpr = 1e200*x1*x3*x4 + x2*x5 + x1*x2\n"
                       "[sampling]\ncount = 4\n"
                       "[suites]\nrun = frobenius\nfrobenius_systems = DELTA4\n")
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--json", str(out)]) == EXIT_OK
        entry, = json.loads(out.read_text())["frobenius"]
        assert len(entry["points"]) == 4 and entry["verdict_counts"] == {}
        for record in entry["points"]:
            assert record.keys() == {"point", "failure"}
            assert record["failure"] == NON_FINITE
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_second_kind_minors_are_records(self, tmp_path, capsys):
        # with the default suites the same web overflows the 3x3 minors of
        # the second-kind PDE: each is a non-finite record, not a warning
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[web]\nn = 5\nexpr = 1e200*x1*x3*x4 + x2*x5 + x1*x2\n")
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--json", str(out)]) == EXIT_OK
        pde = json.loads(out.read_text())["classification"]["second_kind_residuals"]
        assert {"failure": "non-finite"} in pde["pde_form_rel"]
        assert "Warning" not in capsys.readouterr().err

    def test_overflowing_first_kind_products_are_quiet(self, tmp_path, capsys):
        # the 400th power overflows F13*F24 (and the torsion products) at
        # every point and leaves every gauge deviation NaN; both used to
        # warn, which is a traceback under -W error::RuntimeWarning
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[web]\nn = 5\nexpr = (x1+x2+x3+x4+x5)^400\n"
                       "[sampling]\nbox = 0.5:1.5\ncount = 8\nseed = 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert "Warning" not in capsys.readouterr().err

    def test_non_finite_pde_form_fails_first_kind(self, tmp_path):
        # every first-kind PDE residual is non-finite here; Python's
        # max(0.0, nan) once made the verdict true, and the human output
        # once printed the torsion form's 0.000e+00 beside the false verdict
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[web]\nn = 5\nexpr = (x1+x2+x3+x4+x5)^400\n"
                       "[sampling]\nbox = 0.5:1.5\ncount = 8\nseed = 0\n"
                       "[suites]\nrun = classify\n")
        out = tmp_path / "huge.json"
        human = io.StringIO()
        with redirect_stdout(human):
            assert main(["run", "--config", str(cfg), "--json", str(out)]) == EXIT_OK
        c = json.loads(out.read_text())["classification"]
        assert c["first_kind_residuals"]["pde_form_rel"] == [{"failure": "non-finite"}] * 8
        assert c["first_kind"] is False
        line, = [l for l in human.getvalue().splitlines() if "first_kind:" in l]
        assert "False" in line
        assert not float(line.split("max rel residual ")[1].rstrip(")")) < c["tol"]

    def test_gauge_flag(self, tmp_path):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(FAMILY_CFG)
        assert main(["run", "--config", str(cfg), "--gauge", "0.1,0,0,0,0"]) == EXIT_OK

    def test_low_order_exits_two(self, tmp_path, capsys):
        # the jet order is fixed at 3: a lower order is a config error, not a
        # crash (order = 1 used to end in a ValueError traceback)
        cfg = tmp_path / "web.cfg"
        for order in (1, 2):
            cfg.write_text(PRODUCT_CFG + f"\n[tolerances]\norder = {order}\n")
            assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
            assert "order is fixed at 3" in capsys.readouterr().err

    def test_order_flag_removed(self, tmp_path, capsys):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(PRODUCT_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--order", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "--order" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--gauge", "nan,0,0,0,0"], ["--tol", "nan"],
                                       ["--tol", "0"], ["--seed", "-1"]])
    def test_bad_flag_values_exit_two(self, flags, tmp_path, capsys):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(FAMILY_CFG)
        assert main(["run", "--config", str(cfg)] + flags) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


# variable-free fragments, and the places they take beside a variable
CONSTANT_FRAGMENTS = ["0", "2-2", "-1", "1e-301", "1e-320", "800", "1e308*10"]
CONSTANT_PLACES = ["({c})*x1", "x1/({c})", "sqrt({c})*x1", "ln({c})*x1", "exp({c})*x1",
                   "({c})^0.5*x1"]


class TestConstantParts:
    """The config check and the run judge a variable-free part alike: a
    config exits 2 exactly when the run's jets fail on its constant part, and
    a config the check accepts never spends the draw budget and exits 3."""

    @pytest.mark.parametrize("term", [place.format(c=c) for place in CONSTANT_PLACES
                                      for c in CONSTANT_FRAGMENTS])
    def test_check_and_run_agree(self, term, tmp_path, capsys):
        text = f"x1*x3 + x2*x4 + {term}"
        web = WebFunction.from_expr(parse(text, 4))
        try:
            with np.errstate(all="ignore"):
                web.jet([1.0, 1.0, 1.0, 1.0], 3, check_regularity=False)
            fails = False
        except ArithmeticError:
            fails = True
        cfg = tmp_path / "constant.cfg"
        cfg.write_text(PRODUCT_CFG.replace("(x1+x2)*(x3+x4)", text))
        code = main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (code == EXIT_CONFIG) == fails, err
        assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_CONFIG), err

    @pytest.mark.parametrize("cfg", NUMERICAL_FAILURE_CONFIGS, ids=lambda cfg: cfg.stem)
    def test_failure_inside_the_jets_exits_three(self, cfg, capsys):
        # no variable-free part fails, so the check passes and every point fails
        build_web(parse_config_text(cfg.read_text()))
        assert main(["run", "--config", str(cfg)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err


class TestSelftest:
    def test_all_pass(self, capsys):
        assert selftest() == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and "checks passed" in out

    def test_list_only(self, capsys):
        assert selftest(list_only=True) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "web.torsion.product" in out
        assert len(out) >= 30

    def test_corrupted_corpus_fails(self, capsys):
        checks = list(builtin_checks())
        checks.append(("corrupted.expectation", lambda: (False, "forced mismatch")))
        assert selftest(checks=checks) == EXIT_ASSERTION
        assert "corrupted.expectation" in capsys.readouterr().out

    def test_main_selftest_subset(self, capsys):
        assert main(["selftest", "web.torsion.product"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1/1 checks passed" in out

    def test_unknown_check_name(self, capsys):
        assert main(["selftest", "no.such.check"]) == EXIT_CONFIG
        assert "unknown check" in capsys.readouterr().out

    def test_unwritable_json_path(self, tmp_path, capsys):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(PRODUCT_CFG)
        bad = tmp_path / "missing_dir" / "out.json"
        assert main(["run", "--config", str(cfg), "--json", str(bad)]) == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err


# one line of FUZZ_CFG is replaced by "key = value" with a hostile value
FUZZ_CFG = """[web]
n = 5
expr = x1*x3 + x2*x4 + x5*(x1 + x3) + x2*x5^2
[sampling]
box = 0.8:1.2
count = 3
seed = 0
[tolerances]
classify = 1e-7
frobenius = 1e-7
order = 3
[gauge]
w = 0,0,0,0,0
[suites]
run = all
frobenius_systems = S10
identity_trials = 5
"""
FUZZ_LINES = FUZZ_CFG.splitlines()
HOSTILE = ["0", "-1", "1", "9", "nan", "inf", "-inf", "", "1:0", "0.8:", "nan:1",
           "0:1:2", "-1e308:1e308", ",", "nan,0,0,0,0", "inf,0,0,0,0",
           "ln(x1 - 5)", "1/(x1 - x1)", "x1*"]
# count and identity_trials stay small (<= 4, <= 5) so a run stays fast
FUZZ_EDITS = [(i, value) for i, line in enumerate(FUZZ_LINES) if "=" in line
              for value in HOSTILE
              if not (line.startswith(("count", "identity_trials")) and value == "9")]


class TestConfigFuzz:
    @given(st.sampled_from(FUZZ_EDITS))
    @example((FUZZ_LINES.index("order = 3"), "1"))
    @example((FUZZ_LINES.index("w = 0,0,0,0,0"), "nan,0,0,0,0"))
    @example((FUZZ_LINES.index("box = 0.8:1.2"), "-1e308:1e308"))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_one_hostile_line(self, edit):
        i, value = edit
        key = FUZZ_LINES[i].split("=")[0].strip()
        text = "\n".join(FUZZ_LINES[:i] + [f"{key} = {value}"] + FUZZ_LINES[i + 1:])
        with TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_text(text + "\n")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["run", "--config", str(cfg)])
        assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL)

    # a run size past its cap is a config error; run() is replaced, so an
    # over-cap value can never start a run, even if the check breaks
    @given(st.sampled_from([("count", MAX_COUNT), ("identity_trials", MAX_IDENTITY_TRIALS)]),
           st.integers(1, 10**12))
    @example(("count", MAX_COUNT), 1)
    @example(("identity_trials", MAX_IDENTITY_TRIALS), 1)
    @example(("count", MAX_COUNT), 10**8 - MAX_COUNT)
    @example(("identity_trials", MAX_IDENTITY_TRIALS), 10**11 - MAX_IDENTITY_TRIALS)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_over_cap_size_exits_two(self, key_cap, excess):
        key, cap = key_cap
        i = next(i for i, line in enumerate(FUZZ_LINES) if line.startswith(key))
        text = "\n".join(FUZZ_LINES[:i] + [f"{key} = {cap + excess}"] + FUZZ_LINES[i + 1:])
        err = io.StringIO()
        with TemporaryDirectory() as tmp, mock.patch(
                "goursatkit.cli.run", side_effect=AssertionError("an over-cap config ran")):
            cfg = Path(tmp) / "big.cfg"
            cfg.write_text(text + "\n")
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["run", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert f"{key} must be between 1 and {cap}" in err.getvalue()

    def test_points_flag_over_cap_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "web.cfg"
        cfg.write_text(FUZZ_CFG)
        with mock.patch("goursatkit.cli.run", side_effect=AssertionError("an over-cap config ran")):
            assert main(["run", "--config", str(cfg), "--points", str(MAX_COUNT + 1)]) == EXIT_CONFIG
        assert f"count must be between 1 and {MAX_COUNT}" in capsys.readouterr().err

    def test_sizes_at_cap_validate(self):
        # validated only: a run at the caps would take minutes
        text = FUZZ_CFG.replace("count = 3", f"count = {MAX_COUNT}").replace(
            "identity_trials = 5", f"identity_trials = {MAX_IDENTITY_TRIALS}")
        config = parse_config_text(text)
        assert (config.count, config.identity_trials) == (MAX_COUNT, MAX_IDENTITY_TRIALS)


# a generated tree, alone or added to a regular web, optionally with a tree
# that leaves its domain (or overflows) at some draws of the box
TREE_CFG = """[web]
n = 5
expr = {expr}
[sampling]
box = 0.5:1.5
count = 3
seed = 0
[suites]
run = all
frobenius_systems = S10
identity_trials = 5
"""
REGULAR_WEB = "x1*x3 + x2*x4 + x5*(x1 + x3) + x2*x5^2"


class TestExpressionFuzz:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([None] + EDGE_TREES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_generated_tree_through_run(self, seed, on_regular_web, edge):
        terms = [REGULAR_WEB] if on_regular_web else []
        terms.append(f"0.1*{random_tree(np.random.default_rng(seed), 5)}")
        if edge:
            terms.append(edge)
        with TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "tree.cfg"
            cfg.write_text(TREE_CFG.format(expr=" + ".join(terms)))
            err = io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["run", "--config", str(cfg)])
        assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL)
        assert "Traceback" not in err.getvalue()
