import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goursatkit.cli import parse_config_text
from goursatkit.expr import (MAX_DEPTH, BinOp, Call, Const, EvalDomainError, Expr,
                             ExprError, ExprSyntaxError, Param, UnknownSymbolError, Var,
                             evaluate, parse, to_text)
from genexpr import HOSTILE_CONFIGS, random_smooth_expression


class TestParse:
    def test_product_sum_tree(self):
        e = parse("x1*x3 + x2*x4", 4)
        assert e.arity == 4
        assert isinstance(e.root, BinOp) and e.root.op == "+"
        assert e.variables_used == {1, 2, 3, 4}

    def test_incomplete_input_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x1 +", 4)
        assert exc.value.offset == 4

    def test_parameter_tree(self):
        e = parse("a*(x1+x2) + a^2/2", 2, ["a"])
        assert "a" in e.parameters_used
        assert any(isinstance(n, Param) for n in [e.root.left.left])

    def test_unknown_identifier(self):
        with pytest.raises(UnknownSymbolError):
            parse("b*x1", 2, ["a"])

    def test_variable_exceeds_arity(self):
        with pytest.raises(UnknownSymbolError):
            parse("x5 + 1", 4)
        # one check, in Expr: a tree built in code gets the parser's error
        errors = []
        for build in (lambda: parse("x1 + x9", 5),
                      lambda: Expr(BinOp("+", Var(1), Var(9, offset=5)), 5)):
            with pytest.raises(UnknownSymbolError) as exc:
                build()
            errors.append((str(exc.value), exc.value.offset))
        assert errors[0] == errors[1] == ("variable x9 exceeds arity 5 (offset 5)", 5)

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", 2)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x1 + x2", 2)

    def test_power_requires_constant_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1^x2", 2)
        e = parse("x1^-2", 1)
        assert isinstance(e.root.right, Const) and e.root.right.value == -2

    @pytest.mark.parametrize("exponent", ["(1/2)", "(2*3)", "(-(1 + 1))", "sqrt(4)"])
    def test_compound_constant_exponent_folds(self, exponent):
        folded = parse(f"x1^{exponent}", 1).root.right
        assert isinstance(folded, Const)
        assert folded.value == evaluate(parse(exponent, 1), {})
        assert evaluate(parse(f"x1^{exponent}", 1), {"x1": 1.7}) == 1.7 ** folded.value

    # the jets refuse sqrt at 0 and a divisor below their floor in every run,
    # where expr's own rules give 0.0 and 1e301
    @pytest.mark.parametrize("exponent", ["sqrt(0)", "(1/1e-301)", "((2-2)^0.5)"])
    def test_exponent_folds_by_the_jets_rules(self, exponent):
        with pytest.raises(EvalDomainError):
            parse(f"x1^{exponent}", 1)

    @pytest.mark.parametrize("cfg", HOSTILE_CONFIGS, ids=lambda cfg: cfg.stem)
    def test_hostile_expression_is_an_expr_error(self, cfg):
        config = parse_config_text(cfg.read_text())
        with pytest.raises(ExprError):
            parse(config.expr_text, config.n)

    def test_depth_cap(self):
        # "x1*x3 + x2*x4" is 3 deep, and each further term adds a level
        terms = "x1*x3 + x2*x4" + " + x1" * (MAX_DEPTH - 3)
        assert parse(terms, 4).variables_used == {1, 2, 3, 4}
        for deeper in (terms + " + x1", "-" * MAX_DEPTH + "x1", "x1" + "^1" * MAX_DEPTH):
            with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH}"):
                parse(deeper, 4)

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
    def test_depth_cap_holds_without_parse(self, depth):
        # a sum of `depth` terms, parsed and built in code, is `depth` deep
        root = Var(1)
        for _ in range(depth - 1):
            root = BinOp("+", root, Var(1))
        text = " + ".join(["x1"] * depth)
        if depth > MAX_DEPTH:
            for build in (lambda: Expr(root, 1), lambda: parse(text, 1)):
                with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH}"):
                    build()
        else:
            assert to_text(Expr(root, 1)) == to_text(parse(text, 1)) == text

    def test_deep_tree_built_in_code_is_a_syntax_error(self):
        # the depth check runs before the recursive walk, so no RecursionError
        root = Var(1)
        for _ in range(1999):
            root = BinOp("*", root, Var(2))
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH}"):
            Expr(root, 2)

    def test_precedence(self):
        assert evaluate(parse("2 + 3*4", 1), {"x1": 0}) == 14
        assert evaluate(parse("2*3^2", 1), {"x1": 0}) == 18
        assert evaluate(parse("8 - 3 - 2", 1), {"x1": 0}) == 3  # left assoc
        assert evaluate(parse("12/3/2", 1), {"x1": 0}) == 2

    def test_functions(self):
        assert evaluate(parse("exp(0)", 1), {"x1": 0}) == 1
        assert evaluate(parse("sqrt(x1)", 1), {"x1": 4}) == 2
        assert math.isclose(evaluate(parse("sin(x1)^2 + cos(x1)^2", 1), {"x1": 0.9}), 1)


class TestEvaluate:
    def test_basic(self):
        assert evaluate(parse("x1*x3", 4), {"x1": 2, "x3": 5}) == 10

    def test_ln_domain_error_names_node(self):
        with pytest.raises(EvalDomainError) as exc:
            evaluate(parse("x2 + ln(x1)", 2), {"x1": 0, "x2": 1})
        assert "ln(x1)" in str(exc.value)

    def test_parameter_arithmetic(self):
        e = parse("a*(x1+x2) + a^2/2", 2, ["a"])
        assert evaluate(e, {"x1": 1, "x2": 2, "a": 4}) == 20

    @pytest.mark.parametrize("text, env, node", [
        ("x1*10^400 + x2", {"x1": 1.0, "x2": 1.0}, BinOp("^", Const(10.0), Const(400.0))),
        ("x2 + exp(x1)", {"x1": 1000.0, "x2": 1.0}, Call("exp", Var(1))),
        ("sin(x1*1e300*1e300)", {"x1": 1.0}, Call("sin", BinOp(
            "*", BinOp("*", Var(1), Const(1e300)), Const(1e300)))),
    ])
    def test_overflow_is_a_domain_error(self, text, env, node):
        with pytest.raises(EvalDomainError) as exc:
            evaluate(parse(text, 2), env)
        assert exc.value.node == node

    @pytest.mark.parametrize("text, shown", [
        ("1e999*x1", "inf*x1"),
        ("x1 - 1e999", "x1 - inf"),
        ("x1*(-1e999)", "x1*(-inf)"),
    ])
    def test_non_finite_literal_prints(self, text, shown):
        assert to_text(parse(text, 1)) == shown
        assert to_text(Const(math.nan)) == "nan"

    def test_domain_error_on_non_finite_literal_names_node(self):
        # the message prints the node; int(inf) used to escape as OverflowError
        with pytest.raises(EvalDomainError, match=r"-inf in 'sqrt\(\(-inf\)\)'"):
            parse("x1*x3 + x2^sqrt(-1e999)", 4)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x1/(x2-1)", 2), {"x1": 1, "x2": 1})

    def test_missing_symbol(self):
        with pytest.raises(KeyError):
            evaluate(parse("x1 + x2", 2), {"x1": 1})

    def test_evaluation_leaves_no_reference_cycle(self):
        # a self-referencing recursive closure once left a cycle per call
        gc.collect()
        gc.disable()
        try:
            evaluate(parse("x1*x2 + exp(x1)", 2), {"x1": 1.0, "x2": 2.0})
            assert gc.collect() == 0
        finally:
            gc.enable()


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_roundtrip_structural(seed):
    """parse(print(e)) reproduces the tree for generated expressions."""
    rng = np.random.default_rng(seed)
    e, _ = random_smooth_expression(rng)
    printed = to_text(e)
    again = parse(printed, e.arity, e.params)
    assert again.root == e.root, printed


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_evaluate_matches_independent_interpreter(seed):
    """Compare against Python's own parser/evaluator on the printed text."""
    rng = np.random.default_rng(seed)
    e, point = random_smooth_expression(rng)
    ours = evaluate(e, point)
    env = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos,
           "sqrt": math.sqrt, "__builtins__": {}}
    env.update(point)
    theirs = eval(to_text(e).replace("^", "**"), env)
    assert ours == pytest.approx(theirs, rel=1e-14)


def test_interpreter_agreement_bulk():
    rng = np.random.default_rng(12345)
    env_fns = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos,
               "sqrt": math.sqrt, "__builtins__": {}}
    for _ in range(1000):
        e, point = random_smooth_expression(rng)
        ours = evaluate(e, point)
        theirs = eval(to_text(e).replace("^", "**"), {**env_fns, **point})
        assert abs(ours - theirs) <= 1e-14 * max(1.0, abs(theirs))
