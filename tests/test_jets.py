import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goursatkit import jets as J
from goursatkit.expr import Expr, evaluate, parse, to_text, walk
from genexpr import random_smooth_expression, random_tree


class TestSeed:
    def test_order_two(self):
        jet = J.seed(1, 3.0, 2, 2)
        assert jet.value == 3.0
        assert list(jet.gradient()) == [1.0, 0.0]
        assert jet.deriv((1, 1)) == 0 and jet.deriv((1, 2)) == 0

    def test_order_one(self):
        jet = J.seed(2, -1.0, 2, 1)
        assert jet.value == -1.0
        assert list(jet.gradient()) == [0.0, 1.0]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            J.seed(3, 0.0, 2, 2)


class TestCombine:
    """Binary jet operators."""

    def test_square(self):
        s = J.seed(1, 3.0, 1, 2)
        sq = s * s
        assert (sq.value, sq.deriv((1,)), sq.deriv((1, 1))) == (9, 6, 2)

    def test_reciprocal_derivatives(self):
        r = J.constant(1.0, J.space(1, 3)) / J.seed(1, 2.0, 1, 3)
        assert (r.value, r.deriv((1,)), r.deriv((1, 1)), r.deriv((1, 1, 1))) == \
            (0.5, -0.25, 0.25, -0.375)

    def test_mismatched_orders_error(self):
        with pytest.raises(ValueError):
            J.seed(1, 0.0, 2, 1) + J.seed(1, 0.0, 2, 2)

    def test_division_by_zero_value(self):
        with pytest.raises(J.JetDomainError):
            J.constant(1.0, J.space(1, 2)) / J.constant(0.0, J.space(1, 2))

    def test_div_mul_roundtrip(self):
        rng = np.random.default_rng(0)
        sp = J.space(3, 4)
        a = J.Jet(sp, rng.normal(size=sp.size))
        b = J.Jet(sp, rng.normal(size=sp.size))
        b.data[0] = 2.0
        back = (a / b) * b
        assert np.allclose(back.data, a.data, atol=1e-12)


class TestPartial:
    def test_matches_source_derivatives(self):
        jet = J.eval_jet(parse("exp(x1*x2) + x1^3*x3", 3),
                         {"x1": 0.7, "x2": -0.4, "x3": 1.3}, ["x1", "x2", "x3"], 3)
        d1 = jet.partial(1)
        assert d1.order == 2 and d1.slots == 3
        for t in d1.space.tuples:
            assert d1.deriv(t) == jet.deriv(t + (1,))
        d13 = d1.partial(3)
        assert d13.order == 1 and d13.value == jet.deriv((1, 3))
        assert list(d13.gradient()) == [jet.deriv((1, 3, g)) for g in (1, 2, 3)]

    def test_slot_out_of_range(self):
        with pytest.raises(IndexError):
            J.seed(1, 0.0, 2, 2).partial(3)

    def test_order_one_has_no_partial(self):
        with pytest.raises(ValueError):
            J.seed(1, 0.0, 2, 1).partial(1)


class TestUnary:
    def test_exp_at_zero(self):
        e = J.apply_unary("exp", J.seed(1, 0.0, 1, 3))
        assert np.allclose([e.value, e.deriv((1,)), e.deriv((1, 1)), e.deriv((1, 1, 1))], 1.0)

    def test_ln_at_one(self):
        l = J.apply_unary("ln", J.seed(1, 1.0, 1, 2))
        assert (l.value, l.deriv((1,)), l.deriv((1, 1))) == (0.0, 1.0, -1.0)

    def test_sqrt_domain(self):
        with pytest.raises(J.JetDomainError):
            J.apply_unary("sqrt", J.seed(1, -1.0, 1, 1))

    def test_sin_cos_fourth_order(self):
        x = 0.7
        s = J.apply_unary("sin", J.seed(1, x, 1, 4))
        assert s.deriv((1,) * 4) == pytest.approx(math.sin(x))
        c = J.apply_unary("cos", J.seed(1, x, 1, 4))
        assert c.deriv((1, 1, 1)) == pytest.approx(math.sin(x))

    def test_integer_power_at_zero_base(self):
        cube = J.power(J.seed(1, 0.0, 1, 3), 3.0)
        assert (cube.value, cube.deriv((1,)), cube.deriv((1, 1)), cube.deriv((1, 1, 1))) == \
            (0.0, 0.0, 0.0, 6.0)

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(J.JetDomainError):
            J.power(J.seed(1, -2.0, 1, 2), 0.5)


class TestEvalJet:
    def test_bilinear(self):
        jet = J.eval_jet(parse("(x1+x2)*(x3+x4)", 4),
                         {"x1": 1, "x2": 2, "x3": 3, "x4": 4}, ["x1", "x3"], 2)
        assert jet.value == 21 and jet.deriv((1, 2)) == 1

    def test_cube(self):
        jet = J.eval_jet(parse("x1^3", 1), {"x1": 2}, ["x1"], 3)
        assert jet.deriv((1, 1, 1)) == 6

    def test_mixed_exponential(self):
        jet = J.eval_jet(parse("exp(x1*x2)", 2), {"x1": 1, "x2": 1}, ["x1", "x2"], 2)
        assert jet.deriv((1, 2)) == pytest.approx(2 * math.e, rel=1e-14)

    def test_product_rule_exact_at_order_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.uniform(0.5, 2.0, 2)
            jet = J.eval_jet(parse("x1*x2", 2), {"x1": vals[0], "x2": vals[1]},
                             ["x1", "x2"], 1)
            assert jet.deriv((1,)) == vals[1] and jet.deriv((2,)) == vals[0]

    def test_parameter_slot(self):
        jet = J.eval_jet(parse("a*x1^2", 1, ["a"]), {"x1": 3, "a": 2}, ["x1", "a"], 2)
        assert jet.deriv((1, 2)) == 6  # d2/dx1 da = 2*x1

    def test_bound_jets_give_the_space(self):
        # a promoted constant and a constant result live in the bound jet's space
        cut = J.seed(3, np.array([0.5, 0.7]), 3, 2, True)
        for text in ("x2/x3 + x1", "x2 - x1"):
            jet = J.eval_with_bindings(parse(text, 3), {"x1": 2.0, "x2": 1.5, "x3": cut})
            assert jet.space is cut.space and jet.data.shape == (cut.space.size, 2)
        with pytest.raises(ValueError, match="no symbol is bound to a jet"):
            J.eval_with_bindings(parse("x1 + 2", 1), {"x1": 1.0})


def _poly_value_and_derivs(coeffs, x, y):
    # f = sum c_ij x^i y^j, i+j <= 3; returns dict of raw partials to order 3
    out = {}
    for di in range(4):
        for dj in range(4 - di):
            total = 0.0
            for (i, j), c in coeffs.items():
                if i >= di and j >= dj:
                    fall = (math.factorial(i) // math.factorial(i - di)) * \
                           (math.factorial(j) // math.factorial(j - dj))
                    total += c * fall * x ** (i - di) * y ** (j - dj)
            out[(di, dj)] = total
    return out


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_polynomial_jets_exact(seed):
    """Jets of polynomial seeds reproduce exact polynomial derivatives."""
    rng = np.random.default_rng(seed)
    coeffs = {(i, j): float(f"{rng.uniform(-2, 2):.6f}")
              for i in range(4) for j in range(4 - i)}
    text = " + ".join(f"({c!r})*x1^{i}*x2^{j}" for (i, j), c in coeffs.items())
    e = parse(text, 2)
    x, y = rng.uniform(-1.5, 1.5, 2)
    jet = J.eval_jet(e, {"x1": x, "x2": y}, ["x1", "x2"], 3)
    expected = _poly_value_and_derivs(coeffs, x, y)
    for (di, dj), want in expected.items():
        if di + dj == 0:
            got = jet.value
        else:
            got = jet.deriv((1,) * di + (2,) * dj)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_mul_commutative_associative(seed):
    rng = np.random.default_rng(seed)
    sp = J.space(3, 4)
    a, b, c = (J.Jet(sp, rng.normal(size=sp.size)) for _ in range(3))
    ab = (a * b).data
    ba = (b * a).data
    assert np.allclose(ab, ba, rtol=1e-13, atol=1e-13)
    lhs = ((a * b) * c).data
    rhs = (a * (b * c)).data
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-13 * scale


def test_first_derivatives_match_finite_differences():
    """Spot check here; the full thousand-expression sweep runs in acceptance."""
    rng = np.random.default_rng(777)
    for _ in range(100)    :
        e, point = random_smooth_expression(rng)
        _assert_fd_close(e, point)


def _assert_fd_close(e, point, h=1e-5, rel=1e-6):
    jet = J.eval_jet(e, point, [f"x{i}" for i in range(1, e.arity + 1)], 1)
    fscale = max(1.0, abs(jet.value))
    for i in range(1, e.arity + 1):
        hi = dict(point); hi[f"x{i}"] += h
        lo = dict(point); lo[f"x{i}"] -= h
        try:
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
        except ArithmeticError:
            continue
        an = jet.deriv((i,))
        assert abs(fd - an) <= rel * max(abs(an), abs(fd), 1e-3 * fscale), \
            (str(e), i, an, fd)


def test_second_derivatives_match_differenced_gradients():
    rng = np.random.default_rng(4242)
    for _ in range(50):
        e, point = random_smooth_expression(rng)
        names = [f"x{i}" for i in range(1, e.arity + 1)]
        jet = J.eval_jet(e, point, names, 2)
        h = 1e-5
        for j in range(1, e.arity + 1):
            hi = dict(point); hi[names[j - 1]] += h
            lo = dict(point); lo[names[j - 1]] -= h
            try:
                ghi = J.eval_jet(e, hi, names, 1).gradient()
                glo = J.eval_jet(e, lo, names, 1).gradient()
            except ArithmeticError:
                continue
            fd = (ghi - glo) / (2 * h)
            for i in range(1, e.arity + 1):
                an = jet.deriv((i, j))
                scale = max(abs(an), abs(fd[i - 1]), 1e-3 * max(1.0, abs(jet.value)))
                assert abs(fd[i - 1] - an) <= 2e-5 * scale, (str(e), i, j)


def test_restrict_and_substitute_last():
    # H(x, u) = (x + u)^2 over 1 x-slot; delta(x) = -x reproduces H == 0
    H = J.eval_jet(parse("(x1 + u)^2", 1, ["u"]), {"x1": 0.0, "u": 0.0},
                   ["x1", "u"], 3)
    delta = J.Jet(J.space(1, 3), np.array([0.0, -1.0, 0.0, 0.0]))
    out = J.substitute_last(H, delta)
    assert np.allclose(out.data, 0.0, atol=1e-15)

def _restrict_last_reference(jet, a_order, target):
    """Entry-by-entry restriction, the definition restrict_last implements."""
    src = jet.space
    data = np.zeros(target.size)
    for p, t in enumerate(target.tuples):
        full = tuple(sorted(t + (src.m,) * a_order))
        if len(full) <= src.order:
            data[p] = jet.data[src.pos[full]] / math.factorial(a_order)
    return data


@pytest.mark.parametrize("m,order", [(2, 4), (5, 3), (7, 4)])
def test_restrict_last_matches_reference(m, order):
    rng = np.random.default_rng(m)
    jet = J.Jet(J.space(m, order), rng.normal(size=J.space(m, order).size))
    for target_order in range(1, order + 1):
        target = J.space(m - 1, target_order)
        for a_order in range(target_order + 1):
            got = J.restrict_last(jet, a_order, target)
            assert got.space is target
            assert np.array_equal(got.data, _restrict_last_reference(jet, a_order, target))


def test_substitute_requires_zero_value():
    H = J.eval_jet(parse("x1 + u", 1, ["u"]), {"x1": 0.0, "u": 0.0}, ["x1", "u"], 2)
    with pytest.raises(ValueError):
        J.substitute_last(H, J.seed(1, 1.0, 1, 2))


def test_jet_order_consistency():
    e, point = random_smooth_expression(np.random.default_rng(9))
    names = [f"x{i}" for i in range(1, e.arity + 1)]
    j3 = J.eval_jet(e, point, names, 3)
    j2 = J.eval_jet(e, point, names, 2)
    sp2 = j2.space
    assert np.allclose(j3.data[: sp2.size], j2.data, rtol=1e-15, atol=1e-15)


def _reference_space(m, order, last=False):
    """The index tables of space(m, order, last), built term by term with a
    dict lookup per sub-tuple: the definition the array build implements."""
    tuples = [()]
    order_start = [0, 1]
    for k in range(1, order + 1):
        tuples.extend(t for t in combinations_with_replacement(range(1, m + 1), k)
                      if not (last and k == order and t[-1] != m))
        order_start.append(len(tuples))
    pos = {t: i for i, t in enumerate(tuples)}
    size = len(tuples)

    def rank_table(terms):
        outs = [t[0] for t in terms]
        assert outs == list(range(outs[0], outs[0] + len(outs)))
        assert len(set(map(len, terms))) == 1  # one index per operand in every term
        return (outs[0],) + tuple(np.asarray(col, dtype=np.intp) for col in list(zip(*terms))[1:])

    masks = {k: [([b for b in range(k) if mask >> b & 1],
                  [b for b in range(k) if not mask >> b & 1]) for mask in range(1 << k)]
             for k in range(order + 1)}
    mul = [[] for _ in range(1 << order)]
    for p, t in enumerate(tuples):
        for rank, (left, right) in zip(mul, masks[len(t)]):
            rank.append((p, pos[tuple(map(t.__getitem__, left))],
                         pos[tuple(map(t.__getitem__, right))]))
    mul_ranks = tuple(rank_table(terms) for terms in mul)
    div_ranks = [()]
    for k in range(1, order + 1):
        lo, hi = order_start[k], order_start[k + 1]
        div_ranks.append(tuple((i[lo - start:hi - start], j[lo - start:hi - start])
                               for start, i, j in mul_ranks[:(1 << k) - 1]))

    partitions = {k: J._set_partitions(k) for k in range(1, order + 1)}
    faa = [[] for _ in partitions[order]]
    for p, t in enumerate(tuples[1:], start=1):
        for rank, part in zip(faa, partitions[len(t)]):
            rank.append((p, *(pos[tuple(map(t.__getitem__, block))] for block in part)))
    faa_ranks = tuple(rank_table(terms) for terms in faa)

    return dict(
        m=m, order=order, last=last, tuples=tuple(tuples), pos=pos,
        order_start=tuple(order_start),
        slot_masks=np.asarray([sum(1 << (i - 1) for i in set(t)) for t in tuples], dtype=np.intp),
        mul_i=np.concatenate([i for _, i, _ in mul_ranks]),
        mul_j=np.concatenate([j for _, _, j in mul_ranks]),
        mul_out=np.concatenate([np.arange(lo, size) for lo, _, _ in mul_ranks]),
        faa_out=np.concatenate([np.arange(rank[0], size) for rank in faa_ranks]),
        mul_ranks=mul_ranks, div_ranks=tuple(div_ranks), faa_ranks=faa_ranks,
    )


def _assert_same_table(got, want):
    """Equal values with the same nesting of tuples, ints and intp arrays."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == np.intp == want.dtype
        assert got.shape == want.shape and np.array_equal(got, want)
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_table(g, w)
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 10))
def test_space_tables_match_reference(m, order):
    sp = J.space(m, order)
    for name, want in _reference_space(m, order).items():
        _assert_same_table(getattr(sp, name), want)
    assert sp.size == len(sp.tuples)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 10))
def test_faa_ranks_need_no_padding(m, order):
    # apply_unary takes one outer derivative per rank, that of the rank's
    # block count: the set partitions of one rank have one block count at
    # every order, and the rank has one column per block
    partitions = [J._set_partitions(k) for k in range(1, order + 1)]
    for rank, (lo, *blocks) in enumerate(J.space(m, order).faa_ranks):
        assert {len(parts[rank]) for parts in partitions if rank < len(parts)} == {len(blocks)}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 9))
def test_truncated_space_tables_match_reference(m, order):
    sp = J.space(m, order, True)
    for name, want in _reference_space(m, order, last=True).items():
        _assert_same_table(getattr(sp, name), want)
    assert sp.size == len(sp.tuples)


def _terms(sp, ranks):
    """Each rank's terms as slot tuples: (output, operand, ...) per entry."""
    return [[(sp.tuples[out],) + tuple(sp.tuples[col[p]] for col in cols)
             for p, out in enumerate(range(lo, sp.size))] for lo, *cols in ranks]


def _div_terms(sp):
    return [[[(sp.tuples[lo + p], sp.tuples[i[p]], sp.tuples[j[p]]) for p in range(len(i))]
             for i, j in sp.div_ranks[k]]
            for k, lo in enumerate(sp.order_start[:-1])]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 9))
def test_truncated_space_is_the_full_space_restricted(m, order):
    """The truncated tables are the full space's, restricted to the kept
    entries: the same tuples in the same order, and per kept entry the same
    terms in the same ranks."""
    full, cut = J.space(m, order), J.space(m, order, True)
    assert (full.last, cut.last) == (False, True)
    kept = set(cut.tuples)
    assert cut.tuples == tuple(t for t in full.tuples if len(t) < order or t[-1] == m)
    assert all(t[:-1] in kept for t in cut.tuples[1:])  # closed under sub-tuples
    assert cut.order_start[:-1] == full.order_start[:-1]
    for ranks in ("mul_ranks", "faa_ranks"):
        want = [[term for term in rank if term[0] in kept]
                for rank in _terms(full, getattr(full, ranks))]
        assert _terms(cut, getattr(cut, ranks)) == want
    assert _div_terms(cut) == [[[term for term in rank if term[0] in kept] for rank in ranks]
                               for ranks in _div_terms(full)]


def _random_truncated_pair(rng, m, order, points=5):
    """Random jets over space(m, order) and the truncated space, holding the
    same values at the kept entries."""
    full, cut = J.space(m, order), J.space(m, order, True)
    data = rng.uniform(0.5, 1.5, (full.size, points))
    kept = [full.pos[t] for t in cut.tuples]
    return J.Jet(full, data), J.Jet(cut, data[kept]), kept


class TestTruncatedSpace:
    def test_space_spellings_resolve_to_two_spaces(self):
        assert J.space(4, 3, False) is J.space(4, 3)
        assert J.space(4, 3, 1) is J.space(4, 3, True) is not J.space(4, 3)
        with pytest.raises(TypeError):
            J.space(4, 3, last=True)

    @pytest.mark.parametrize("m,order", [(1, 2), (3, 4), (7, 4), (8, 3)])
    def test_arithmetic_is_the_full_arithmetic_at_kept_entries(self, m, order):
        rng = np.random.default_rng(m * 10 + order)
        a, a_cut, kept = _random_truncated_pair(rng, m, order)
        b, b_cut, _ = _random_truncated_pair(rng, m, order)
        for op in (lambda x, y: x * y, J.divide, lambda x, y: J.apply_unary("ln", x),
                   lambda x, y: J.power(x, -1.5), lambda x, y: 2.0 / y):
            got = op(a_cut, b_cut)
            assert got.space is a_cut.space
            assert np.array_equal(got.data, op(a, b).data[kept])

    @pytest.mark.parametrize("m,order", [(1, 2), (3, 4), (7, 4), (8, 3)])
    def test_partial_along_last_slot_is_the_full_partial(self, m, order):
        a, a_cut, _ = _random_truncated_pair(np.random.default_rng(m), m, order)
        got, want = a_cut.partial(m), a.partial(m)
        assert got.space is want.space is J.space(m, order - 1)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_partial_along_another_slot_raises(self, i):
        jet = J.seed(2, 0.5, 4, 3, True)
        with pytest.raises(ValueError, match=f"no partial along slot {i}"):
            jet.partial(i)

    def test_mixing_with_a_full_jet_raises(self):
        cut, full = J.seed(1, 0.5, 3, 2, True), J.seed(1, 0.5, 3, 2)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, J.divide):
            with pytest.raises(ValueError, match="share one space"):
                op(cut, full)
            with pytest.raises(ValueError, match="share one space"):
                op(full, cut)

    def test_derivative_tensors_need_the_whole_order(self):
        jet = J.seed(1, 0.5, 3, 2, True)
        assert list(jet.gradient()) == [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="order-2"):
            jet.hessian()
        with pytest.raises(ValueError, match="order-1"):
            J.seed(3, 0.5, 3, 1, True).gradient()
        # an order-1 jet once raised a bare IndexError from the index table
        with pytest.raises(ValueError, match="order-1 jet holds no order-2 entries"):
            J.seed(1, 0.5, 3, 1).hessian()

    def test_dropped_entries_name_the_truncation(self):
        with pytest.raises(ValueError, match="no first-order entry for slot 1"):
            J.seed(1, 0.5, 3, 1, True)
        with pytest.raises(KeyError, match="truncated to the order-2 tuples that end in slot 3"):
            J.seed(3, 0.5, 3, 2, True).deriv((1, 1))


BAND_SPACES = [(6, 3, False), (8, 3, False), (7, 4, True)]


def _outside_band(jet):
    """The entries of ``jet`` whose order lies outside its band."""
    start = jet.space.order_start
    lo, hi = jet.band
    return np.r_[jet.data[:start[lo]], jet.data[start[hi + 1]:]]


def _full(jet):
    """``jet`` with its band forced full, as a jet of unknown structure."""
    return J.Jet(jet.space, jet.data)


def _banded(rng, sp, band, points=4, outside=0.0):
    """A random jet over ``sp`` whose entries outside ``band`` are ``outside``."""
    data = np.full((sp.size, points), outside)
    start = sp.order_start
    data[start[band[0]]:start[band[1] + 1]] = rng.normal(size=(start[band[1] + 1]
                                                               - start[band[0]], points))
    return J.Jet(sp, data, band)


class TestOrderBands:
    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    def test_entries_outside_the_band_are_zero(self, m, order, last):
        rng = np.random.default_rng(m * 10 + order)
        x = rng.uniform(0.5, 1.5, (m, 4))
        bindings = {f"x{i + 1}": J.seed(i + 1, x[i], m, order, last) for i in range(m)}
        narrow = 0
        for _ in range(12):
            e = parse(random_tree(rng, m, depth=3), m)
            for node in walk(e.root):
                try:
                    jet = J.eval_with_bindings(Expr(node, m), bindings)
                except ArithmeticError:
                    continue  # a subtree that leaves its domain at some point
                assert (_outside_band(jet) == 0.0).all(), (to_text(node), jet.band)
                narrow += jet.band != (0, order)
        assert narrow  # the trees' leaves and their products have narrow bands

    def test_bands_of_seeds_constants_and_operations(self):
        assert J.seed(2, 0.5, 4, 3).band == (0, 1)
        assert J.constant(2.0, J.space(4, 3)).band == (0, 0)
        assert (J.seed(1, 0.5, 4, 3) * J.seed(2, 0.5, 4, 3)).band == (0, 2)
        with np.errstate(all="ignore"):
            assert (J.seed(1, 0.5, 4, 3) * np.inf).band == (0, 3)  # 0 * inf is NaN
            assert (J.seed(1, 0.5, 4, 3) / 0.0).band == (0, 3)  # 0 / 0 is NaN
        assert (J.seed(1, 0.5, 4, 3) + 1.0).band == (0, 1)
        assert J.apply_unary("exp", J.seed(1, 0.5, 4, 3)).band == (0, 3)

    @pytest.mark.parametrize("divisor", [0, 0.0, -0.0, np.float64(0.0), np.array(0.0),
                                         np.array([1.0, 0.0, 2.0])])
    def test_a_zero_divisor_drops_the_band(self, divisor):
        # a scalar divisor is tested without np.all, an array with it
        x = J.seed(1, np.array([0.5, 0.0, 1.5]), 4, 3)
        with np.errstate(all="ignore"):
            assert (x / divisor).band == (0, 3)  # 0 / 0 is NaN

    @pytest.mark.parametrize("divisor", [2, 0.5, np.float64(-3.0), np.array([1.0, -2.0, 4.0])])
    def test_a_nonzero_divisor_keeps_the_band(self, divisor):
        assert (J.seed(1, np.array([0.5, 0.0, 1.5]), 4, 3) / divisor).band == (0, 1)


class TestBandedKernels:
    """Each banded kernel gives the bytes of the same call on full bands."""

    @staticmethod
    def bands(order):
        return sorted({(min(lo, order), min(hi, order)) for lo, hi in
                       [(0, 0), (0, 1), (0, 2), (1, 1), (1, 4), (2, 4), (2, 3), (0, 4)]})

    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    @pytest.mark.parametrize("outside", [0.0, -0.0])
    def test_mul(self, m, order, last, outside):
        rng = np.random.default_rng(m)
        sp = J.space(m, order, last)
        for band_a in self.bands(order):
            a = _banded(rng, sp, band_a, outside=outside)
            for band_b in self.bands(order):
                b = _banded(rng, sp, band_b)
                got = a * b
                assert got.data.tobytes() == (_full(a) * _full(b)).data.tobytes()
                assert (_outside_band(got) == 0.0).all()

    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    @pytest.mark.parametrize("fn,exponent", [("exp", None), ("sin", None), ("pow", 3.0),
                                             ("pow", -1.0)])
    def test_apply_unary(self, m, order, last, fn, exponent):
        rng = np.random.default_rng(m)
        sp = J.space(m, order, last)
        for band in self.bands(order):
            a = _banded(rng, sp, band)
            if fn == "pow" and exponent < 0:
                a = a + 2.0  # a value away from zero
            got = J.apply_unary(fn, a, exponent)
            assert got.data.tobytes() == J.apply_unary(fn, _full(a), exponent).data.tobytes()

    @pytest.mark.parametrize("m,order", [(6, 3), (3, 4)])
    def test_substitute_last(self, m, order):
        rng = np.random.default_rng(m)
        joint = J.Jet(J.space(m + 1, order), rng.normal(size=(J.space(m + 1, order).size, 4)))
        target = J.space(m, order)
        delta = _banded(rng, target, (1, order))
        # the composition on full bands, as substitute_last computes it
        want, dpow = J.restrict_last(joint, 0, target).data, None
        for j in range(1, order + 1):
            dpow = _full(delta) if dpow is None else _full(dpow * _full(delta))
            want += (J.restrict_last(joint, j, target) * dpow).data
        assert J.substitute_last(joint, delta).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    @np.errstate(all="ignore")
    def test_non_finite_entries_give_the_full_kernels_nans(self, m, order, last):
        sp = J.space(m, order, last)
        x = J.seed(1, np.array([0.5, np.inf, np.nan, 1.0]), m, order, last)
        y = J.seed(2, np.full(4, 0.5), m, order, last) * np.array([1.0, 1.0, 1.0, 1e308]) * 10.0
        w = J.seed(3, np.ones(4), m, order, last)
        z = J.Jet(sp, np.where(np.arange(sp.size)[:, None] == 1, np.inf, w.data), (0, 1))
        for a, b in ((x, y), (y, x), (x, x), (y, y), (y, z), (z, y), (w, z), (z, w)):
            got = (a * b).data
            assert got.tobytes() == (_full(a) * _full(b)).data.tobytes()
            assert np.isnan(got).any()
        # ln's second derivative at 1e-160 overflows to -inf
        for a in (x, y, z, J.seed(1, np.full(4, 1e-160), m, order, last)):
            for fn in ("sin", "ln"):
                try:
                    got = J.apply_unary(fn, a)
                except ArithmeticError:
                    continue  # ln of a non-positive value
                assert got.data.tobytes() == J.apply_unary(fn, _full(a)).data.tobytes()


def _outside_slots(jet, slots):
    """The entries of ``jet`` whose slot tuple holds a slot outside ``slots``."""
    return jet.data[(jet.space.slot_masks & ~slots) != 0]


def _compact(rng, top, band, slots, outside=0.0):
    """A random jet over ``top`` with this band whose entries outside the
    band or outside ``slots`` are ``outside``: as a compact jet held on
    ``slots`` (over every slot when ``slots`` is empty), and over ``top``."""
    dense = _banded(rng, top, band, outside=outside)
    dense.data[(top.slot_masks & ~slots) != 0] = outside
    if slots in (0, (1 << top.m) - 1):
        return J._whole(dense), dense
    at, sp = J._embedding(slots, (1 << top.m) - 1, top)[1], J._space_of(slots, top)
    inner = J.Jet(sp, dense.data[at], (min(band[0], sp.order), min(band[1], sp.order)))
    return J.CompactJet(inner, slots, outside, top), dense


def _support_pairs(m):
    """Slots of two factors: empty, one slot, disjoint, nested, full."""
    full = (1 << m) - 1
    last = 1 << (m - 1)  # the slot a truncated space keeps at its full order
    return [(0, 0), (0, full), (1, 1), (0b10, last), (0b11, 0b1100), (0b101 | last, 0b10),
            (0b11, 0b111 | last), (last, full), (full ^ last, full), (full, full)]


class TestSlotSupports:
    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    def test_entries_outside_the_support_are_zero(self, m, order, last):
        rng = np.random.default_rng(m * 10 + order)
        seeds = J.compact_seeds(_names(m), rng.uniform(0.5, 1.5, (m, 4)), order, last)
        narrow = 0
        for _ in range(12):
            e = parse(random_tree(rng, m, depth=3), m)
            for node in walk(e.root):
                try:
                    jet = J.eval_compact(Expr(node, m), seeds)
                except ArithmeticError:
                    continue  # a subtree that leaves its domain at some point
                outside = _outside_slots(jet.expanded(), jet.slots)
                assert (outside == 0.0).all(), (to_text(node), jet.slots)
                narrow += jet.slots != (1 << m) - 1
        assert narrow  # every subtree reads fewer than m slots

    def test_supports_of_seeds_constants_and_operations(self):
        seeds = J.compact_seeds(_names(4), [0.5] * 4, 3)
        x1, x3 = seeds["x1"], seeds["x3"]
        assert (x1.slots, x3.slots) == (0b1, 0b100)
        assert (x1 * x3).slots == (x1 + x3).slots == (x1 - x3).slots == (x1 / (x3 + 1.0)).slots \
            == 0b101
        assert (2.0 - x3).slots == (x3 * -2.0).slots == (x3 + 1.0).slots == (x3 / 2.0).slots \
            == x3.unary("exp", None).slots == (1.0 / x3).slots == 0b100
        with np.errstate(all="ignore"):
            assert (x1 * np.inf).slots == 0b1111  # 0 * inf is NaN
            assert (x1 / 0.0).slots == 0b1111  # 0 / 0 is NaN
            # the quotient's value overflows, and c[()] * b[t] is NaN outside
            assert (1e10 / (x1 * 1e-299)).slots == (x3 * 1e10 / (x1 * 1e-299)).slots == 0b1111
        # a constant result and a bound Jet are held over every slot
        assert J.eval_compact(parse("2.5", 4), seeds).slots == 0b1111
        dense = {"x1": J.seed(1, 0.5, 4, 3), "x3": J.seed(3, 0.5, 4, 3)}
        assert J.eval_compact(parse("x1*x3", 4), dense).slots == 0b1111

    def test_the_widest_space(self):
        # the last slot is the top bit an int64 mask holds
        m = J.MAX_SLOTS
        seeds = J.compact_seeds(_names(m), [0.5] * m, 2)
        x, y = seeds[f"x{m}"], seeds["x1"]
        assert x.slots == 1 << (m - 1) and (x * y).slots == x.slots | 1
        want = _full(J.seed(m, 0.5, m, 2)) * _full(J.seed(1, 0.5, m, 2))
        assert (x * y).expanded().data.tobytes() == want.data.tobytes()
        with pytest.raises(ValueError, match="slot count"):
            J.space(m + 1, 1)


class TestSupportKernels:
    """Each compact kernel, on jets held on part of their slots, gives the
    bytes of the same call over every slot on full bands."""

    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    @pytest.mark.parametrize("outside", [0.0, -0.0])
    def test_mul(self, m, order, last, outside):
        rng = np.random.default_rng(m)
        top = J.space(m, order, last)
        for slots_a, slots_b in _support_pairs(m):
            for band_a in TestBandedKernels.bands(order):
                a, dense_a = _compact(rng, top, band_a, slots_a, outside)
                for band_b in TestBandedKernels.bands(order)[::2]:
                    b, dense_b = _compact(rng, top, band_b, slots_b, outside)
                    got = (a * b).expanded()
                    assert got.data.tobytes() == (_full(dense_a) * _full(dense_b)).data.tobytes()
                    zeros = _outside_slots(got, slots_a | slots_b)
                    assert (zeros == 0.0).all() and not np.signbit(zeros).any()

    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    @pytest.mark.parametrize("fn,exponent", [("exp", None), ("sin", None), ("pow", 3.0),
                                             ("pow", -1.0)])
    @pytest.mark.parametrize("outside", [0.0, -0.0])
    def test_apply_unary(self, m, order, last, fn, exponent, outside):
        rng = np.random.default_rng(m)
        top = J.space(m, order, last)
        for slots in {s for pair in _support_pairs(m) for s in pair}:
            for band in TestBandedKernels.bands(order):
                a, dense = _compact(rng, top, band, slots, outside)
                if fn == "pow" and exponent < 0:
                    a, dense = a + 2.0, dense + 2.0  # a value away from zero
                got = a.unary(fn, exponent).expanded()
                want = J.apply_unary(fn, _full(dense), exponent)
                assert got.data.tobytes() == want.data.tobytes()
                zeros = _outside_slots(got, slots)
                assert (zeros == 0.0).all() and not np.signbit(zeros).any()

    @pytest.mark.parametrize("m,order,last", BAND_SPACES)
    @np.errstate(all="ignore")
    def test_non_finite_entries_give_the_full_kernels_nans(self, m, order, last):
        rng = np.random.default_rng(m)
        top = J.space(m, order, last)
        for slots_a, slots_b in _support_pairs(m):
            a, dense_a = _compact(rng, top, (0, order), slots_a)
            b, dense_b = _compact(rng, top, (0, order), slots_b)
            for jet in (a.jet, dense_a):  # values: read by every term
                jet.data[0, 1], jet.data[0, 2] = np.inf, np.nan
            for jet in (b.jet, dense_b):
                jet.data[0, 3] = -np.inf
            for (x, dense_x), (y, dense_y) in (((a, dense_a), (b, dense_b)),
                                               ((b, dense_b), (a, dense_a)),
                                               ((a, dense_a), (a, dense_a))):
                product = x * y
                got = product.expanded().data
                assert got.tobytes() == (_full(dense_x) * _full(dense_y)).data.tobytes()
                assert np.isnan(got).any() and product.slots == (1 << m) - 1
            # sin's outer derivatives are NaN at an inf or NaN value, and
            # ln's second derivative at 1e-160 overflows to -inf
            tiny, dense_tiny = _compact(rng, top, (0, 2), slots_a)
            for jet in (tiny.jet, dense_tiny):
                jet.data[0] = 1e-160
            for x, dense_x, fn in ((a, dense_a, "sin"), (b, dense_b, "sin"),
                                   (tiny, dense_tiny, "ln")):
                got = x.unary(fn, None).expanded()
                assert got.data.tobytes() == J.apply_unary(fn, _full(dense_x)).data.tobytes()

    @pytest.mark.parametrize("m,order,last", [(2, 4, False), (3, 4, True), (8, 3, False)])
    @np.errstate(all="ignore")
    def test_overflowing_products_of_finite_factors(self, m, order, last):
        # a skipped Faa di Bruno term multiplies a zero into a partial
        # product of kept factors, and that product may overflow to inf:
        # the full kernel's entry is then NaN, so no term may be skipped
        rng = np.random.default_rng(m)
        top = J.space(m, order, last)
        for slots, band in (((1 << m) - 1, (0, 1)), (0b1 | 1 << (m - 1), (0, order))):
            for scale in (1e150, 1e200):
                a, dense = _compact(rng, top, band, slots)
                a, dense = a * scale, dense * scale
                assert np.isfinite(dense.data).all()
                for fn in ("sin", "cos", "ln"):
                    x, dense_x = (a + 1e300, dense + 1e300) if fn == "ln" else (a, dense)
                    got = x.unary(fn, None).expanded()
                    assert got.data.tobytes() == J.apply_unary(fn, _full(dense_x)).data.tobytes()


def _names(n):
    return [f"x{i + 1}" for i in range(n)]


class TestCompactJets:
    @pytest.mark.parametrize("last", [False, True])
    def test_seeds_hold_one_slot(self, last):
        v = np.random.default_rng(0).uniform(0.5, 1.5, (4, 3))
        seeds = J.compact_seeds(_names(4), v, 3, last)
        for i in range(4):
            got = seeds[f"x{i + 1}"]
            # a truncated space keeps the order-3 tuples that end in slot 4
            want = J.space(1, 3, True) if last and i == 3 else J.space(1, 3 - (last and i < 3))
            assert got.jet.space is want and got.top is J.space(4, 3, last)
            assert got.expanded().data.tobytes() == J.seed(i + 1, v[i], 4, 3, last).data.tobytes()
        with pytest.raises(ValueError, match="no first-order entry for slot 1"):
            J.compact_seeds(_names(2), [0.5, 0.5], 1, True)

    def test_a_subexpression_lives_in_the_space_of_its_slots(self):
        seeds = J.compact_seeds(_names(8), np.full(8, 0.5), 3)
        x1, x3, x5 = seeds["x1"], seeds["x3"], seeds["x5"]
        assert ((x1 * x3).slots, (x1 * x3).jet.space) == (0b101, J.space(2, 3))
        s = (x1 * x3 + x5) * -2.0
        assert s.slots == 0b10101 and s.jet.space is J.space(3, 3)
        assert np.signbit(s.outside) and s.outside == 0.0

    @pytest.mark.parametrize("last", [False, True])
    def test_dense_and_compact_seeds_give_the_same_bytes(self, last):
        # seeds, a jet over every slot and compact seeds give the same bytes
        x = np.random.default_rng(1).uniform(0.5, 1.5, (4, 5))
        e = parse("(x1*x2 - x3)*(-0.5) + x4*x1 - 1/(x2 + x4)", 4)
        seeds = {f"x{i + 1}": J.seed(i + 1, x[i], 4, 3, last) for i in range(4)}
        dense = {name: J.Jet(jet.space, jet.data) for name, jet in seeds.items()}
        want = J.eval_with_bindings(e, dense).data.tobytes()
        mixed = {**J.compact_seeds(_names(4), x, 3, last), "x3": seeds["x3"]}
        for bindings in (seeds, mixed, J.compact_seeds(_names(4), x, 3, last)):
            assert J.eval_with_bindings(e, bindings).data.tobytes() == want

    def test_compact_jets_of_two_spaces_do_not_mix(self):
        a = J.compact_seeds(_names(4), [0.5] * 4, 3)["x1"]
        b = J.compact_seeds(_names(5), [0.5] * 5, 3)["x2"]
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
                   lambda x, y: x / y):
            with pytest.raises(ValueError, match="share one space"):
                op(a, b)
