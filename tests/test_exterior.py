import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from goursatkit import catalog
from goursatkit.classify import sample_bundle, sample_regular_points
from goursatkit.cli import build_web, parse_config_text
from goursatkit.exterior import (DEFAULT_FROBENIUS_TOL, DEGENERATE, NON_FINITE,
                                 NON_INTEGRABLE_FLOOR, NORM_FLOOR, RANK_TOL, SYSTEMS,
                                 CoFormField, PfaffianSystem, SYSTEM_NAMES, _row_values,
                                 _wedge_max, _wedge_table, coefficient_matrix, d_form,
                                 frobenius_columns, frobenius_reports, frobenius_residual,
                                 kernel_basis, make_system, rank_at, subspace_distance)
from goursatkit.expr import parse
from goursatkit.families import family_web
from goursatkit.jets import Jet, derivative_index, space
from goursatkit.web import JET_ORDER, WebFunction, derivative_bundle

GOLDEN = Path(__file__).parent / "data" / "golden"

ONES4 = [1.0] * 4


def reference_wedge_max(dtheta, thetas):
    """Max |coefficient| of dtheta ^ theta_1 ^ ... ^ theta_k, one determinant
    per minor, summed pair by pair in subset order (reference for the
    table-driven kernel)."""
    n = dtheta.shape[0]
    deg = len(thetas) + 2
    theta_mat = np.array(thetas)
    best = 0.0
    for subset in combinations(range(n), deg):
        total = 0.0
        for pi, qi in combinations(range(deg), 2):
            a = dtheta[subset[pi], subset[qi]]
            if a == 0.0:
                continue
            rest = [subset[r] for r in range(deg) if r not in (pi, qi)]
            total += (-1.0) ** (pi + qi - 1) * a * np.linalg.det(theta_mat[:, rest])
        best = max(best, abs(total))
    return best


def reference_report(sys, p):
    """(rank, residuals, verdict) at p with the wedge taken on the full
    generator matrix, coordinate forms included (reference for the
    free-slot wedge)."""
    thetas = coefficient_matrix(sys, p)
    rank, _ = rank_at(sys, p)
    if rank < len(thetas):
        return rank, (), "degenerate"
    scale = np.prod(np.maximum(np.linalg.norm(thetas, axis=1), NORM_FLOOR))
    residuals = []
    for gen in sys.generators:
        d = d_form(gen, p)
        dnorm = np.linalg.norm(d[np.triu_indices(sys.arity, 1)])
        residuals.append(0.0 if dnorm == 0.0 else reference_wedge_max(d, list(thetas))
                         / max(dnorm * scale, NORM_FLOOR))
    top = max(residuals)
    verdict = ("integrable" if top < DEFAULT_FROBENIUS_TOL else "non_integrable"
               if top > NON_INTEGRABLE_FLOOR else "inconclusive")
    return rank, tuple(residuals), verdict


def assert_matches_reference(sys, points):
    for report, p in zip(frobenius_reports(sys, points), points):
        rank, residuals, verdict = reference_report(sys, p)
        assert (report.rank, report.verdict) == (rank, verdict), (sys.name, p)
        np.testing.assert_allclose(report.residuals, residuals, rtol=1e-12, atol=0.0)


def linear_field(rng, n: int, label: str) -> CoFormField:
    """c(p) = c0 + J p with random c0 and J, nonzero in every slot."""
    c0, jac = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (n, n))
    return CoFormField(n, label, lambda p: (c0 + jac @ p, jac.copy()))


def ref_jet1(b, idx):
    """Order-1 jets (value, then gradient) of the partial F_idx (1-based
    slots, at most two) from a derivative bundle, shape (N, n + 1)."""
    at = tuple(i - 1 for i in idx)
    return b.data[:, np.append(derivative_index(b.n, len(idx))[at],
                               derivative_index(b.n, len(idx) + 1)[at])]


def ref_term(b, factors):
    """Order-1 jets (N, n + 1) of a product of partials of F by the product
    rule: entry k of a*b is 0.0 + a0*b_k + a_k*b0."""
    prod = ref_jet1(b, factors[0])
    for idx in factors[1:]:
        f = ref_jet1(b, idx)
        out = 0.0 + prod[:, :1] * f
        out[:, 1:] += prod[:, 1:] * f[:, :1]
        prod = out
    return prod


def ref_row_values(row, b):
    """Coefficients (N, n) and Jacobians (N, n, n) of a SYSTEMS row by the
    hand-written product rule, each coefficient summed from 0.0 in table order
    (reference for the jet-arithmetic rows)."""
    jets = np.zeros((len(b.points), b.n, b.n + 1))
    for slot, terms in row:
        total = 0.0
        for sign, *factors in terms:
            total = total + ref_term(b, factors) * float(sign)
        jets[:, slot - 1] = total
    return jets[..., 0], jets[..., 1:]


def assert_bitwise(got, want):
    """Equal shapes and bytes: signed zeros must match too."""
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _golden_closed_n8():
    cfg = parse_config_text((Path(__file__).parent / "data" / "golden" / "closed-n8.cfg")
                            .read_text())
    return build_web(cfg), catalog.control_box(8)


ROW_WEBS = {
    "control6": lambda: (catalog.control_web(6), catalog.control_box(6)),
    # every vanishing partial of -F is -0.0, which the sums from 0.0 clear
    "control6-negated": lambda: (catalog.control_web(6).scaled(-1.0), catalog.control_box(6)),
    "closed-n8": _golden_closed_n8,
    "second-kind-family": lambda: catalog.random_family_web(
        np.random.default_rng(3), "second", 6)[1:],
}


def contact_form():
    return CoFormField(
        3, "dx1 + x2 dx3",
        lambda p: (np.array([1.0, 0.0, p[1]]),
                   np.array([[0, 0, 0], [0, 0, 0], [0, 1.0, 0]])))


class TestMakeSystem:
    def test_theta_rho_product_coordinates(self):
        system = make_system(catalog.product_web(4), "THETA_RHO")
        theta, rho = system.fields
        assert np.allclose(theta.coefficients(ONES4), [0, 0, 1, 1])
        assert np.allclose(rho.coefficients(ONES4), [1, 1, 0, 0])

    def test_s10_generator_count_n6(self):
        system = make_system(catalog.product_web(6), "S10")
        assert len(system.fields) == 1 and system.sigma == (5, 6)
        assert len(system.generators) == 3

    def test_delta4_degenerate_when_row_constant(self):
        # equal a13 = a14 = a15 makes the cleared difference form vanish
        web = WebFunction.from_expr(
            parse("x1*(x3+x4+x5) + x2^2/2 + (x3^2+x4^2+x5^2)/2", 5))
        system = make_system(web, "DELTA4")
        p = [1.0, 1.0, 0.5, 0.5, 0.5]
        assert np.allclose(system.fields[0].coefficients(p), 0.0, atol=1e-14)
        assert frobenius_residual(system, p).verdict == "degenerate"

    def test_arity_guards(self):
        with pytest.raises(ValueError):
            make_system(catalog.product_web(4), "DELTA2")
        with pytest.raises(ValueError):
            make_system(catalog.product_web(4), "NOPE")

    def test_all_names_constructible_n6(self):
        web = catalog.control_web(6)
        for name in SYSTEM_NAMES:
            make_system(web, name)


class TestDForm:
    def test_linear_coefficient(self):
        f = CoFormField(3, "x2 dx1",
                        lambda p: (np.array([p[1], 0, 0]),
                                   np.array([[0, 1.0, 0], [0, 0, 0], [0, 0, 0]])))
        d = d_form(f, [1.0, 2.0, 3.0])
        assert d[1, 0] == 1.0 and d[0, 1] == -1.0
        assert np.allclose(d + d.T, 0.0)

    def test_gradient_field_is_closed(self):
        f = CoFormField.gradient(catalog.control_web(4))
        d = d_form(f, [1.1, 0.9, 1.2, 0.8])
        assert np.abs(d).max() == 0.0

    def test_two_entries(self):
        f = CoFormField(3, "dx1 + x2 dx3",
                        lambda p: (np.array([1.0, 0, p[1]]),
                                   np.array([[0, 0, 0], [0, 0, 0], [0, 1.0, 0]])))
        d = d_form(f, [0.0, 0.0, 0.0])
        nonzero = {(i, j) for i in range(3) for j in range(3) if d[i, j] != 0}
        assert nonzero == {(1, 2), (2, 1)}

    def test_named_system_jacobians_match_finite_differences(self):
        # independent oracle for every web-derived coefficient Jacobian
        web = catalog.control_web(5)
        p = np.array([1.1, 0.8, 1.2, 0.9, 1.3])
        h = 1e-6
        for name in SYSTEM_NAMES:
            system = make_system(web, name)
            for f in system.fields:
                _, jac = f.evaluate(p)
                for j in range(5):
                    hi = p.copy(); hi[j] += h
                    lo = p.copy(); lo[j] -= h
                    fd = (f.coefficients(hi) - f.coefficients(lo)) / (2 * h)
                    assert np.allclose(jac[:, j], fd, rtol=1e-5, atol=1e-5), \
                        (name, f.label, j)


class TestSystemRows:
    @pytest.mark.parametrize("case", list(ROW_WEBS))
    def test_rows_match_product_rule_reference(self, case):
        # every SYSTEMS row, batched and at each point
        web, box = ROW_WEBS[case]()
        b = sample_bundle(web, box, 6, seed=1)
        n = b.n
        batch = Jet(space(n, JET_ORDER), b.data.T)
        rows = [row for table, _, _ in SYSTEMS.values() for row in table]
        for row in rows:
            got = _row_values(row, batch)
            for g, w in zip(got, ref_row_values(row, b)):
                assert_bitwise(g, w)
            for i, p in enumerate(b.points):
                for one, g in zip(_row_values(row, web.jet(p, JET_ORDER)), got):
                    assert_bitwise(one, g[i])


class TestFrobenius:
    @pytest.mark.parametrize("sigma, message", [
        ((), "at least one generator"), ((1, 2, 3, 4, 1), "more generators")],
        ids=["none", "more-than-arity"])
    def test_generator_count_checked(self, sigma, message):
        # a system spanned by nothing once raised IndexError in the rank
        with pytest.raises(ValueError, match=message):
            PfaffianSystem("BAD", 4, (), sigma)

    def test_coordinate_foliation(self):
        rep = frobenius_residual(PfaffianSystem("COORDS", 4, (), (3, 4)), ONES4)
        assert rep.verdict == "integrable" and rep.max_residual == 0.0

    def test_contact_form_not_integrable(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(-1, 1, 3)
            rep = frobenius_residual(PfaffianSystem("K", 3, (contact_form(),), ()), p)
            assert rep.verdict == "non_integrable"
            assert rep.max_residual == pytest.approx(1 / np.sqrt(1 + p[1] ** 2), rel=1e-12)

    def test_theta_rho_on_first_kind_families(self):
        rng = np.random.default_rng(1)
        for n in (5, 6):
            _, web, box = catalog.random_family_web(rng, "first", n)
            system = make_system(web, "THETA_RHO")
            for p in sample_regular_points(web, box, 3, seed=n):
                rep = frobenius_residual(system, p)
                assert rep.verdict == "integrable"
                assert rep.max_residual <= 1e-7

    def test_s10_control_non_integrable(self):
        web = catalog.control_web(4)
        system = make_system(web, "S10")
        pts = sample_regular_points(web, catalog.control_box(4), 20, seed=3)
        bad = sum(frobenius_residual(system, p).max_residual >= 1e-3 for p in pts)
        assert bad >= 18  # at least 90 percent of sampled points

    def test_rescaling_invariance(self):
        # multiply a generator by the smooth nonzero factor 1 + x1^2:
        # integrable systems keep residual ~0, negative controls keep verdict
        def scaled(f):
            def ev(p):
                c, dc = f.evaluate(p)
                factor = 1 + p[0] ** 2
                dfactor = np.zeros(len(p))
                dfactor[0] = 2 * p[0]
                return factor * c, factor * dc + np.outer(c, dfactor)
            return CoFormField(f.arity, f.label + " scaled", ev)

        rng = np.random.default_rng(2)
        _, web, box = catalog.random_family_web(rng, "first", 5)
        system = make_system(web, "THETA_RHO")
        p = sample_regular_points(web, box, 1, seed=4)[0]
        base = frobenius_residual(system, p)
        mod = PfaffianSystem("THETA_RHO*", 5,
                             (scaled(system.fields[0]), system.fields[1]),
                             system.sigma)
        alt = frobenius_residual(mod, p)
        assert abs(alt.max_residual - base.max_residual) < 1e-10

        ctrl = catalog.control_web(4)
        csys = make_system(ctrl, "S10")
        cp = sample_regular_points(ctrl, catalog.control_box(4), 1, seed=5)[0]
        cmod = PfaffianSystem("S10*", 4, (scaled(csys.fields[0]),), csys.sigma)
        assert frobenius_residual(cmod, cp).verdict == "non_integrable"

    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_wedge_kernel_matches_reference(self, n):
        rng = np.random.default_rng(n)
        for k in range(1, n - 1):
            table = _wedge_table(n, k)
            for _ in range(5):
                thetas = rng.uniform(-2, 2, (k, n))
                jac = rng.uniform(-2, 2, (n, n))
                jac[rng.uniform(size=(n, n)) < 0.3] = 0.0
                dtheta = jac.T - jac
                minors = np.linalg.det(thetas[:, table[0]].transpose(1, 0, 2))
                assert _wedge_max(dtheta, minors, table) == reference_wedge_max(
                    dtheta, list(thetas))

    @pytest.mark.parametrize("n, kf, sigma", [
        (4, 1, ()), (5, 2, ()), (6, 3, ()),                    # no coordinate forms
        (6, 1, (5, 6)), (6, 2, (1, 2)), (7, 2, (4, 5, 6)),     # contiguous sigma
        (5, 1, (2, 4)), (7, 2, (1, 4, 7)), (6, 1, (1, 3, 6)),  # non-contiguous sigma
        (6, 3, (2, 5)),                                        # kf + 2 > free slots
        (4, 0, (3, 4)), (5, 0, (1, 4))])                       # no fields
    def test_free_slot_wedge_matches_full_reference(self, n, kf, sigma):
        # the fields are nonzero in the sigma slots too, which dx_sigma kills
        rng = np.random.default_rng(100 * n + 10 * kf + len(sigma))
        fields = tuple(linear_field(rng, n, f"t{i}") for i in range(kf))
        system = PfaffianSystem("RANDOM", n, fields, sigma)
        assert_matches_reference(system, rng.uniform(-1, 1, (4, n)))

    def test_named_systems_match_full_reference_at_golden_points(self):
        web, _ = _golden_closed_n8()
        golden = json.loads((Path(__file__).parent / "data" / "golden" / "closed-n8.json")
                            .read_text())
        points = np.array([r["point"] for r in golden["frobenius"][0]["points"]])
        for name in SYSTEM_NAMES:
            assert_matches_reference(make_system(web, name), points)

    def test_non_finite_coefficient_raises(self):
        field = CoFormField(4, "inf", lambda p: (np.array([np.inf, 1.0, 0.0, 0.0]),
                                                 np.zeros((4, 4))))
        with pytest.raises(ArithmeticError, match=NON_FINITE):
            frobenius_residual(PfaffianSystem("INF", 4, (field,)), ONES4)

    def test_user_field_with_no_points(self):
        # a field without a SYSTEMS row once failed to stack zero points
        system = PfaffianSystem("X", 4, (CoFormField.constant([1, 0, 0, 0], "dx1"),), (3,))
        assert frobenius_reports(system, np.zeros((0, 4))) == []

    @pytest.mark.parametrize("points", [np.ones((2, 5)), [[np.nan, 1.0, 1.0, 1.0]],
                                        [[1.0, np.inf, 1.0, 1.0]]])
    def test_points_checked_without_a_web(self, points):
        # a coordinate-only system reads no jets, so only the check rejects these
        with pytest.raises(ValueError):
            frobenius_reports(PfaffianSystem("C", 4, (), (3, 4)), points)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("call", [rank_at, kernel_basis])
    def test_non_finite_coefficient_raises_in_rank_and_kernel(self, bad, call):
        # inf once gave rank 0 and a full kernel, NaN a LinAlgError
        field = CoFormField.constant([bad, 1.0, 0.0, 0.0], "bad")
        with pytest.raises(ArithmeticError, match=NON_FINITE):
            call(PfaffianSystem("BAD", 4, (field,)), ONES4)

    def test_degenerate_on_dependent_generators(self):
        dup = CoFormField.constant([1, 1, 0, 0], "dup")
        system = PfaffianSystem("DUP", 4, (dup, dup), ())
        assert frobenius_residual(system, ONES4).verdict == "degenerate"

    def test_inconclusive_gap_zone(self):
        # nearly-integrable: a huge constant component shrinks the normalized
        # residual into the (1e-7, 1e-3) gap
        field = CoFormField(
            3, "dx1 + C dx2 + x2 dx3",
            lambda p: (np.array([1.0, 1e5, p[1]]),
                       np.array([[0, 0, 0], [0, 0, 0], [0, 1.0, 0]])))
        rep = frobenius_residual(PfaffianSystem("NEAR", 3, (field,), ()),
                                 [0.1, 0.2, 0.3])
        assert rep.verdict == "inconclusive"
        assert 1e-7 < rep.max_residual < 1e-3


class TestRanks:
    def test_s10_s11_three_dimensional_separately(self):
        web = catalog.control_web(5)
        p = sample_regular_points(web, catalog.control_box(5), 1, seed=6)[0]
        for name in ("S10", "S11", "S12", "S13"):
            rank, kern = rank_at(make_system(web, name), p)
            assert kern == 3

    def test_union_kernel_three_iff_first_kind(self):
        rng = np.random.default_rng(7)
        _, web, box = catalog.random_family_web(rng, "first", 5)
        p = sample_regular_points(web, box, 1, seed=7)[0]
        assert rank_at(make_system(web, "S10_11"), p)[1] == 3
        ctrl = catalog.control_web(5)
        cp = sample_regular_points(ctrl, catalog.control_box(5), 1, seed=7)[0]
        assert rank_at(make_system(ctrl, "S10_11"), cp)[1] == 2
        # padded minimal non-first-kind web: same generic count
        cross = catalog.cross_web(5)
        xp = sample_regular_points(cross, catalog.control_box(5), 1, seed=7)[0]
        assert rank_at(make_system(cross, "S10_11"), xp)[1] == 2

    def test_kernels_coincide_exactly_on_first_kind(self):
        rng = np.random.default_rng(8)
        _, web, box = catalog.random_family_web(rng, "first", 5)
        p = sample_regular_points(web, box, 1, seed=8)[0]
        b10 = kernel_basis(make_system(web, "S10"), p)
        b11 = kernel_basis(make_system(web, "S11"), p)
        assert subspace_distance(b10, b11) < 1e-8
        ctrl = catalog.control_web(5)
        cp = sample_regular_points(ctrl, catalog.control_box(5), 1, seed=8)[0]
        c10 = kernel_basis(make_system(ctrl, "S10"), cp)
        c11 = kernel_basis(make_system(ctrl, "S11"), cp)
        assert subspace_distance(c10, c11) > 1e-3

    def test_delta_dimensions_both_branches(self):
        rng = np.random.default_rng(9)
        _, web, box = catalog.random_family_web(rng, "second", 5)
        p = sample_regular_points(web, box, 1, seed=9)[0]
        assert rank_at(make_system(web, "DELTA2"), p)[1] == 2
        assert rank_at(make_system(web, "DELTA3"), p)[1] == 3
        assert rank_at(make_system(web, "DELTA4"), p)[1] == 4
        assert rank_at(make_system(web, "DELTA4P"), p)[1] == 4
        ctrl = catalog.control_web(5)
        cp = sample_regular_points(ctrl, catalog.control_box(5), 1, seed=9)[0]
        assert rank_at(make_system(ctrl, "DELTA2"), cp)[1] == 1
        assert rank_at(make_system(ctrl, "DELTA3"), cp)[1] == 2

    def test_delta4_variants_same_kernel_on_second_kind(self):
        rng = np.random.default_rng(10)
        _, web, box = catalog.random_family_web(rng, "second", 6)
        p = sample_regular_points(web, box, 1, seed=10)[0]
        b1 = kernel_basis(make_system(web, "DELTA4"), p)
        b2 = kernel_basis(make_system(web, "DELTA4B"), p)
        assert subspace_distance(b1, b2) < 1e-8

    def test_delta2_kernel_inside_delta4(self):
        rng = np.random.default_rng(11)
        _, web, box = catalog.random_family_web(rng, "second", 5)
        p = sample_regular_points(web, box, 1, seed=11)[0]
        basis2 = kernel_basis(make_system(web, "DELTA2"), p)
        from goursatkit.exterior import coefficient_matrix
        mat4 = coefficient_matrix(make_system(web, "DELTA4"), p)
        assert np.abs(mat4 @ basis2).max() < 1e-10

    def test_rank_kernel_sum(self):
        web = catalog.control_web(6)
        p = sample_regular_points(web, catalog.control_box(6), 1, seed=12)[0]
        for name in SYSTEM_NAMES:
            rank, kern = rank_at(make_system(web, name), p)
            assert rank + kern == 6


def table_system(mats: np.ndarray, sigma: tuple) -> tuple:
    """A user system whose field g has the coefficients ``mats[i, g]`` (and
    Jacobian 0) at the point i * e_1, with those points: one system per
    stack of (kf, n) field blocks."""
    n = mats.shape[2]
    fields = tuple(CoFormField(n, f"t{g}", lambda p, g=g: (mats[int(p[0]), g].copy(),
                                                             np.zeros((n, n))))
                   for g in range(mats.shape[1]))
    return PfaffianSystem("TABLE", n, fields, sigma), np.eye(n)[0] * np.arange(len(mats))[:, None]


def with_singular_values(rng, sv, cols: int) -> np.ndarray:
    """A random (len(sv), cols) matrix with the singular values ``sv``."""
    u = np.linalg.qr(rng.normal(size=(len(sv), len(sv))))[0]
    v = np.linalg.qr(rng.normal(size=(cols, len(sv))))[0]
    return (u * np.asarray(sv, dtype=float)) @ v.T


# leading singular values of the field block, each chosen to sit on one side
# of a threshold, 1e-5 relative away from it: the ranks they must give are
# known without an SVD
SV_CASES = [
    [3.0, 3e-8 * (1 + 1e-5)], [3.0, 3e-8 * (1 - 1e-5)],  # top from the field block
    # the unit rows set top = 1: the second value counts only against 1e-8
    [0.5, 1e-8 * (1 + 1e-5)], [0.5, 0.8e-8],
    [1e9, 1.0], [2e8, 3.0],  # top above 1e8: the unit rows count as zero
    [1e8 * (1 + 1e-5), 1.0], [1e8 * (1 - 1e-5), 1.0],  # top across 1e8
    [0.0, 0.0], [2.0, 0.0],  # a zero block, a rank-one block
]


class TestBlockRanks:
    """The ranks of ``frobenius_columns`` against :func:`rank_at`, which
    takes the SVD of the full generator matrix, dx_s rows included.

    Where every field is zero in the sigma slots, the full matrix is block
    diagonal, [A 0; 0 I], and ``frobenius_columns`` counts the singular
    values of A on the free slots beside |sigma| values 1.0, with the
    largest taken as at least 1.0.  These are the same singular values as
    the full matrix's, from a different LAPACK call, so the two ranks can
    differ only where a singular value lies within rounding of
    RANK_TOL times the largest; no case here sits that close.  Where a field
    is nonzero in a sigma slot, ``frobenius_columns`` takes the full matrix
    at that point too."""

    @staticmethod
    def corpus(rng, n: int, sigma: tuple, kf: int) -> tuple:
        """Field blocks (N, kf, n), zero in the sigma slots, and the rank each
        must give where it is known without an SVD (else -1)."""
        free = [s for s in range(n) if s + 1 not in sigma]
        blocks, want = [], []
        for sv in SV_CASES:
            sv = (sv + sv[-1:] * kf)[:kf]  # descending
            top = max(sv[0], 1.0 if sigma else 0.0)
            want.append(sum(v > RANK_TOL * top for v in sv)
                        + len(sigma) * (1.0 > RANK_TOL * top) if top > 0 else 0)
            blocks.append(with_singular_values(rng, sv, len(free)))
        dup = np.repeat(rng.uniform(-2, 2, (1, len(free))), kf, axis=0)
        zero_row = rng.uniform(-2, 2, (kf, len(free)))
        zero_row[-1] = 0.0
        for block in (rng.uniform(-2, 2, (kf, len(free))), dup, zero_row):
            blocks.append(block)
            want.append(-1)
        mats = np.zeros((len(blocks), kf, n))
        mats[:, :, free] = blocks
        return mats, want

    @pytest.mark.parametrize("n, sigma", [(6, (5, 6)), (6, (2, 5)), (7, (1, 4, 7)), (4, ())],
                             ids=["contiguous", "non-contiguous", "three", "no-sigma"])
    @pytest.mark.parametrize("kf", [1, 2, 3])
    def test_block_ranks_match_full_svd(self, n, sigma, kf):
        mats, want = self.corpus(np.random.default_rng(10 * n + kf), n, sigma, kf)
        system, points = table_system(mats, sigma)
        got = frobenius_columns(system, points).ranks.tolist()
        assert got == [rank_at(system, p)[0] for p in points]
        assert [g for g, w in zip(got, want) if w >= 0] == [w for w in want if w >= 0]

    @pytest.mark.parametrize("n, sigma", [(4, (3, 4)), (5, (1, 4)), (6, (1, 2, 3, 4, 5, 6))])
    def test_no_fields(self, n, sigma):
        system = PfaffianSystem("COORDS", n, (), sigma)
        points = np.random.default_rng(n).uniform(-1, 1, (3, n))
        assert frobenius_columns(system, points).ranks.tolist() == [len(sigma)] * 3
        assert [rank_at(system, p)[0] for p in points] == [len(sigma)] * 3

    @pytest.mark.parametrize("kf", [1, 2])
    def test_fields_in_sigma_slots_take_the_full_matrix(self, kf):
        # every other point has a field nonzero in a sigma slot; each point
        # gets the rank of the full matrix there, and the rank it gets alone
        n, sigma = 6, (2, 5)
        mats, _ = self.corpus(np.random.default_rng(kf), n, sigma, kf)
        mats[::2, :, 4] = 1e-3
        # a field equal to a dx_s row is dependent only through the sigma slots
        mats[2, 0] = np.eye(n)[1]
        # a field 1e9 in a sigma slot lifts the largest singular value, and the
        # threshold with it, which the field block alone would not see
        mats[1, 0, 1] = 1e9
        system, points = table_system(mats, sigma)
        got = frobenius_columns(system, points).ranks
        assert got.tolist() == [rank_at(system, p)[0] for p in points]
        assert got[1] < kf + len(sigma) and got[2] < kf + len(sigma)
        for p, rank in zip(points, got):
            assert frobenius_columns(system, p[None]).ranks[0] == rank

    @pytest.mark.parametrize("case", ["closed-n8", "family1-n5", "family2-n6",
                                      "first-kind-closed-n5", "family2-n6-64"])
    def test_named_ranks_match_rank_at(self, case):
        # the goldens' points, and a family2-n6 run's family at 64 points,
        # where DELTA2 and DELTA3 are degenerate by construction
        if case == "family2-n6-64":
            _, web, box = catalog.random_family_web(np.random.default_rng(0), "second", 6)
            b = sample_bundle(web, box, 64, seed=0)
        else:
            web = build_web(parse_config_text((GOLDEN / f"{case}.cfg").read_text()))
            golden = json.loads((GOLDEN / f"{case}.json").read_text())
            b = derivative_bundle(web, [r["point"] for r in golden["frobenius"][0]["points"]])
        for name in SYSTEM_NAMES:
            system = make_system(web, name)
            columns = frobenius_columns(system, b)
            assert columns.ranks.tolist() == [rank_at(system, p)[0] for p in b.points], name
            if case == "family2-n6-64" and name in ("DELTA2", "DELTA3"):
                assert (columns.codes == DEGENERATE).all(), name
