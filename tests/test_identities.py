from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goursatkit import catalog, identities
from goursatkit.classify import SCALE_FLOOR, second_kind_residuals, torsion_minors
from goursatkit.families import family_web
from goursatkit.identities import (M_COEFFS, TRIAL_CHUNK, ConditionValues,
                                   ImplicationResult, ResidualSet, WitnessResult,
                                   _TrialStream, condition_values,
                                   first_kind_derivative_residuals, implication_test,
                                   implication_tests,
                                   polynomial_sweep, sample_derivs,
                                   sample_second_kind_torsion,
                                   second_kind_polynomial_residuals, witness_search)
from goursatkit.web import Gauge, PfaffianDerivs, TorsionTensor, pfaffian_derivs, torsion


# --- scalar reference -------------------------------------------------------
# One trial at a time with Python floats: the trial algebra as it was written
# before it worked on arrays with a trial axis.  The batched code must give
# exactly (==) these results.

def ref_scale(monomials):
    return max([abs(m) for m in monomials] + [SCALE_FLOOR])


def ref_sample_torsion(rng, n=5, span=2.0, pivot_floor=1e-3):
    while True:
        vals = rng.uniform(-span, span, size=(n, n))
        vals = (vals + vals.T) / 2.0
        a13, a14, a15 = vals[0, 2], vals[0, 3], vals[0, 4]
        a23, a24 = vals[1, 2], vals[1, 3]
        if abs(a14 - a13) < pivot_floor:
            continue
        a25 = (a14 * a23 - a13 * a24 + a15 * a24 - a15 * a23) / (a14 - a13)
        if abs(a25) > 10 * span:
            continue
        vals[1, 4] = vals[4, 1] = a25
        return TorsionTensor.from_matrix(vals)


def ref_minors(t):
    a13, a14, a15 = (t.entry(1, q) for q in (3, 4, 5))
    a23, a24, a25 = (t.entry(2, q) for q in (3, 4, 5))
    return (a13 * a24 - a14 * a23, a14 * a25 - a15 * a24, a15 * a23 - a13 * a25)


def ref_polynomial_residuals(t):
    out = {}
    for p, q in ((1, 2), (2, 1)):
        for (a, b, c) in permutations((3, 4, 5)):
            pa, pb, pc = (t.entry(p, i) for i in (a, b, c))
            qa, qb, qc = (t.entry(q, i) for i in (a, b, c))
            lin = (pa * (qc - qb), pb * (qa - qc), pc * (qb - qa))
            quad = (pa * pa * (qb - qc), pb * pb * (qc - qa), pc * pc * (qa - qb),
                    pa * qa * (pc - pb), pb * qb * (pa - pc), pc * qc * (pb - pa))
            out[(p, q, a, b, c)] = ResidualSet(
                np.array([sum(lin), sum(quad)]),
                np.array([ref_scale(lin), ref_scale(quad)]))
    return out


def ref_m_residual(t, d, h, A, B, C):
    monos = []
    for (hi, lo, tgt) in M_COEFFS:
        coeff = t.entry(*hi) - t.entry(*lo)
        monos.append(coeff * d.entry(tgt[0], tgt[1], h))
    rhs = 0.0
    if h == 3:
        rhs = C * t.entry(3, 4) + A * t.entry(3, 5)
    elif h == 4:
        rhs = B * t.entry(3, 4) + A * t.entry(4, 5)
    elif h == 5:
        rhs = B * t.entry(3, 5) + C * t.entry(4, 5)
    return sum(monos) - rhs, ref_scale(monos + [rhs])


def ref_n_residual(t, d, h, row):
    a3, a4, a5 = (t.entry(row, q) for q in (3, 4, 5))
    monos = [(a5 - a4) * d.entry(row, 3, h),
             (a3 - a5) * d.entry(row, 4, h),
             (a4 - a3) * d.entry(row, 5, h)]
    rhs = 0.0
    if h == 3:
        rhs = a3 * ((a5 - a3) * t.entry(3, 4) + (a3 - a4) * t.entry(3, 5))
    return sum(monos) - rhs, ref_scale(monos + [rhs])


def ref_s_residual(t, d, h, A, B, C):
    monos = [(t.entry(2, 3) - t.entry(2, 5)) * (d.entry(1, 4, h) - d.entry(1, 3, h)),
             (t.entry(1, 5) - t.entry(1, 3)) * (d.entry(2, 4, h) - d.entry(2, 3, h))]
    rhs = {3: -C * t.entry(3, 4),
           4: B * t.entry(3, 4),
           5: C * (t.entry(3, 5) - t.entry(4, 5))}[h]
    return sum(monos) - rhs, ref_scale(monos + [rhs])


def ref_uv(t, d, k):
    cu = t.entry(2, 3) - t.entry(2, 4)
    cv = t.entry(1, 4) - t.entry(1, 3)
    u = cu * d.entry(1, 3, k) - cv * d.entry(2, 3, k)
    v = cu * d.entry(1, 4, k) - cv * d.entry(2, 4, k)
    scale = ref_scale([cu * d.entry(1, 3, k), cv * d.entry(2, 3, k),
                       cu * d.entry(1, 4, k), cv * d.entry(2, 4, k)])
    return u, v, scale


def ref_condition_values(t, d):
    A, B, C = ref_minors(t)
    n = t.n
    m_vals, m_scales = np.empty(n), np.empty(n)
    for h in range(1, n + 1):
        m_vals[h - 1], m_scales[h - 1] = ref_m_residual(t, d, h, A, B, C)
    n_vals, n_scales = np.empty(3), np.empty(3)
    r_vals, r_scales = np.empty(3), np.empty(3)
    for h in (1, 2, 3):
        n_vals[h - 1], n_scales[h - 1] = ref_n_residual(t, d, h, 1)
        r_vals[h - 1], r_scales[h - 1] = ref_n_residual(t, d, h, 2)
    s_vals, s_scales = np.empty(3), np.empty(3)
    for i, h in enumerate((3, 4, 5)):
        s_vals[i], s_scales[i] = ref_s_residual(t, d, h, A, B, C)
    u_vals, v_vals = np.empty(2), np.empty(2)
    u_scales, v_scales = np.empty(2), np.empty(2)
    for i, k in enumerate((4, 5)):
        u, v, scale = ref_uv(t, d, k)
        a34, a35 = t.entry(3, 4), t.entry(3, 5)
        u_rhs = 2 * A * (a34 if k == 4 else a35)
        v_rhs = -A * a34 if k == 4 else A * (a34 - a35)
        u_vals[i] = u - u_rhs
        v_vals[i] = (v - u) - v_rhs
        u_scales[i] = ref_scale([scale, u_rhs])
        v_scales[i] = ref_scale([scale, v_rhs])
    a13, a14, a15 = (t.entry(1, q) for q in (3, 4, 5))
    terms40 = [(a15 - a14) * (d.entry(1, 3, 1) - d.entry(1, 3, 2)),
               (a13 - a15) * (d.entry(1, 4, 1) - d.entry(1, 4, 2)),
               (a14 - a13) * (d.entry(1, 5, 1) - d.entry(1, 5, 2))]
    return ConditionValues(
        ResidualSet(m_vals, m_scales), ResidualSet(n_vals, n_scales),
        ResidualSet(r_vals, r_scales), ResidualSet(s_vals, s_scales),
        ResidualSet(u_vals, u_scales), ResidualSet(v_vals, v_scales),
        float(sum(terms40)), ref_scale(terms40))


def ref_impose_and_check(t, d_vals, h, imposed, checked, pivot_floor=1e-3):
    A, B, C = ref_minors(t)
    d = PfaffianDerivs.from_array(d_vals)

    def residual(name):
        if name == "m":
            return ref_m_residual(t, d, h, A, B, C)
        if name == "n":
            return ref_n_residual(t, d, h, 1)
        return ref_n_residual(t, d, h, 2)

    for name in sorted(imposed, key=lambda s: 0 if s in ("n", "r") else 1):
        if name == "n":
            pivot, slot = t.entry(1, 5) - t.entry(1, 4), (0, 2)
        elif name == "r":
            pivot, slot = t.entry(2, 5) - t.entry(2, 4), (1, 2)
        elif "n" not in imposed:
            pivot, slot = t.entry(2, 4) - t.entry(2, 5), (0, 2)
        else:
            pivot, slot = t.entry(1, 5) - t.entry(1, 4), (1, 2)
        if abs(pivot) < pivot_floor:
            return None
        value, _ = residual(name)
        arr = d.values.copy()
        arr[slot[0], slot[1], h - 1] -= value / pivot
        arr[slot[1], slot[0], h - 1] = arr[slot[0], slot[1], h - 1]
        d = PfaffianDerivs.from_array(arr)
        check_val, _ = residual(name)
        if abs(check_val) > 1e-9 * max(1.0, abs(value)):
            return None
    value, scale = residual(checked)
    return abs(value) / scale


def ref_implication_runs(seed, imposed, checked, levels=(1, 2, 3)):
    """The scalar loop's result after each accepted trial, for trials = 1, 2,
    ...; it draws lazily, so stopping after the result for N trials leaves
    the generator where a loop for N trials ends."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    rejected = 0
    done = 0
    while True:
        t = ref_sample_torsion(rng)
        d_vals = rng.uniform(-2.0, 2.0, size=(5, 5, 5))
        ok = True
        trial_worst = 0.0
        for h in levels:
            rel = ref_impose_and_check(t, d_vals, h, imposed, checked)
            if rel is None:
                ok = False
                break
            trial_worst = max(trial_worst, rel)
        if not ok:
            rejected += 1
            continue
        worst = max(worst, trial_worst)
        done += 1
        yield ImplicationResult(tuple(imposed), checked, done, rejected, worst)


def ref_implication_test(trials, seed, imposed, checked, levels=(1, 2, 3)):
    if not trials:
        return ImplicationResult(tuple(imposed), checked, 0, 0, 0.0)
    return next(islice(ref_implication_runs(seed, imposed, checked, levels), trials - 1, None))


def ref_implication_counts(seed, most):
    """Per pairing, ``ref_implication_test(n, seed, ...)`` for n = 0..most,
    from one scalar pass."""
    return [[ref_implication_test(0, seed, imposed, checked)]
            + list(islice(ref_implication_runs(seed, imposed, checked), most))
            for imposed, checked in PAIRINGS]


def ref_witness_search(trials, seed, threshold=1e-2):
    rng = np.random.default_rng(seed)
    for trial in range(1, trials + 1):
        t = ref_sample_torsion(rng)
        pivot = t.entry(2, 3) - t.entry(2, 5)
        if abs(pivot) < 1e-3:
            continue
        d = PfaffianDerivs.from_array(rng.uniform(-2.0, 2.0, size=(5, 5, 5)))
        A, B, C = ref_minors(t)
        arr = d.values.copy()
        for h in (3, 4, 5):
            value, _ = ref_s_residual(t, d, h, A, B, C)
            arr[0, 3, h - 1] -= value / pivot
            arr[3, 0, h - 1] = arr[0, 3, h - 1]
            d = PfaffianDerivs.from_array(arr)
        cv = ref_condition_values(t, d)
        s_rel = cv.s_cross.max_relative
        uv_rel = max(cv.u_col.max_relative, cv.v_col.max_relative)
        if s_rel <= 1e-10 and uv_rel > threshold:
            return WitnessResult(True, trial, s_rel, uv_rel)
    return WitnessResult(False, trials, float("nan"), float("nan"))


def ref_polynomial_sweep(trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        for rs in ref_polynomial_residuals(ref_sample_torsion(rng)).values():
            worst = max(worst, rs.max_relative)
    return worst


def same_witness(a, b):
    """Field-wise equality with NaN equal to NaN (a miss reports NaNs)."""
    return (a.found, a.trials_used) == (b.found, b.trials_used) and np.array_equal(
        [a.s_max_relative, a.uv_max_relative], [b.s_max_relative, b.uv_max_relative],
        equal_nan=True)


PAIRINGS = [(("m", "n"), "r"), (("n", "r"), "m"), (("m", "r"), "n")]
CHUNK_TRIALS = [1, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1]


def zero_inputs(n=5):
    t = TorsionTensor.from_matrix(np.zeros((n, n)))
    d = PfaffianDerivs.from_array(np.zeros((n, n, n)))
    return t, d


class TestMinorsAndFirstKindIdentity:
    def test_proportional_rows_zero_minors(self):
        vals = np.random.default_rng(0).uniform(-2, 2, (5, 5))
        vals[1, 2:5] = -1.7 * vals[0, 2:5]
        vals = (vals + vals.T) / 2
        vals[1, 2:5] = -1.7 * vals[0, 2:5]
        vals[2:5, 1] = vals[1, 2:5]
        A, B, C = torsion_minors(TorsionTensor.from_matrix(vals))
        assert max(abs(A), abs(B), abs(C)) < 1e-14

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_constrained_sum_vanishes(self, seed):
        t = sample_second_kind_torsion(np.random.default_rng(seed))
        A, B, C = torsion_minors(t)
        scale = max(abs(A), abs(B), abs(C), 1e-12)
        assert abs(A + B + C) <= 1e-12 * max(scale, 1.0)

    def test_cross_web_minor(self):
        A, _, _ = torsion_minors(torsion(catalog.cross_web(5), [1.0] * 5))
        assert A == pytest.approx(0.25)

    def test_zero_inputs(self):
        rs = first_kind_derivative_residuals(*zero_inputs())
        assert np.all(rs.values == 0.0)

    def test_first_kind_family_gauge_invariance(self):
        web = family_web(catalog.first_kind_demo_spec())
        rng = np.random.default_rng(1)
        for _ in range(3):
            p = rng.uniform(0.8, 1.2, 4)
            t = torsion(web, p)
            rs0 = first_kind_derivative_residuals(t, pfaffian_derivs(web, p))
            assert rs0.max_relative <= 1e-7
            g1 = Gauge.of(rng.uniform(-1, 1, 4))
            g2 = Gauge.of(rng.uniform(-1, 1, 4))
            r1 = first_kind_derivative_residuals(t, pfaffian_derivs(web, p, g1))
            r2 = first_kind_derivative_residuals(t, pfaffian_derivs(web, p, g2))
            assert np.abs(r1.values - r2.values).max() <= 1e-9

    def test_gauge_slope_on_non_first_kind_data(self):
        # residual difference across gauges equals -2 w_c (a13 a24 - a14 a23)
        rng = np.random.default_rng(2)
        t = TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
        d0 = sample_derivs(rng)
        w = Gauge.of(rng.uniform(-1, 1, 5))
        r0 = first_kind_derivative_residuals(t, d0)
        rw = first_kind_derivative_residuals(t, d0.regauged(t, w))
        A = t.entry(1, 3) * t.entry(2, 4) - t.entry(1, 4) * t.entry(2, 3)
        expected = -2 * A * np.asarray(w.w[:4])
        assert np.allclose(rw.values - r0.values, expected, atol=1e-12)


class TestPolynomialIdentities:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_hold_on_variety(self, seed):
        t = sample_second_kind_torsion(np.random.default_rng(seed))
        for rs in second_kind_polynomial_residuals(t).values():
            assert rs.max_relative <= 1e-10

    def test_violated_off_variety(self):
        rng = np.random.default_rng(3)
        t = TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
        worst = max(rs.max_relative
                    for rs in second_kind_polynomial_residuals(t).values())
        assert worst > 1e-3

    def test_equal_rows_reduce_to_zero(self):
        vals = np.random.default_rng(4).uniform(-2, 2, (5, 5))
        vals[1, 2:5] = vals[0, 2:5]
        vals = (vals + vals.T) / 2
        vals[1, 2:5] = vals[0, 2:5]
        vals[2:5, 1] = vals[1, 2:5]
        t = TorsionTensor.from_matrix(vals)
        res = second_kind_polynomial_residuals(t)
        # with equal rows the linear identity is the alternating sum of equal
        # products; it cancels regardless of the variety
        for (p, q, a, b, c), rs in res.items():
            assert abs(rs.values[0]) < 1e-13

    def test_all_selections_enumerated(self):
        t = sample_second_kind_torsion(np.random.default_rng(5))
        assert len(second_kind_polynomial_residuals(t)) == 12


class TestConditionValues:
    def test_zero_inputs_all_zero(self):
        cv = condition_values(*zero_inputs())
        for rs in (cv.m, cv.n_row1, cv.r_row2, cv.s_cross, cv.u_col, cv.v_col):
            assert np.all(rs.values == 0.0)
        assert cv.residual40 == 0.0

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_reads_only_derivative_rows_one_and_two(self, n):
        # the trial streams gather rows 1 and 2 of the derivatives alone, on
        # this fact: NaN in rows 3..n leaves every field bit-identical
        rng = np.random.default_rng(n)
        t = TorsionTensor.from_matrix(rng.uniform(-2, 2, (3, n, n)))
        d = PfaffianDerivs.from_array(rng.uniform(-2, 2, (3, n, n, n)))
        holed = d.values.copy()
        holed[:, 2:] = np.nan
        got, want = condition_values(t, PfaffianDerivs(n, holed)), condition_values(t, d)
        for name in ConditionValues.__slots__:
            x, y = getattr(got, name), getattr(want, name)
            for a, b in ([(x.values, y.values), (x.scales, y.scales)]
                         if isinstance(x, ResidualSet) else [(x, y)]):
                assert np.array_equal(bits(a), bits(b)), name

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_one_product_closure_identity(self, seed):
        # residual40 equals n_1 - n_2 term by term
        rng = np.random.default_rng(seed)
        t = TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
        d = sample_derivs(rng)
        cv = condition_values(t, d)
        gap = abs(cv.residual40 - (cv.n_row1.values[0] - cv.n_row1.values[1]))
        assert gap <= 1e-13 * max(cv.residual40_scale, 1.0)

    def test_single_row_families_gauge_invariant_identically(self):
        rng = np.random.default_rng(6)
        t = TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
        d0 = sample_derivs(rng)
        dw = d0.regauged(t, Gauge.of(rng.uniform(-2, 2, 5)))
        cv0, cvw = condition_values(t, d0), condition_values(t, dw)
        assert np.allclose(cv0.n_row1.values, cvw.n_row1.values, atol=1e-13)
        assert np.allclose(cv0.r_row2.values, cvw.r_row2.values, atol=1e-13)

    def test_cross_and_mixed_families_gauge_invariant_on_variety(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = sample_second_kind_torsion(rng)
            d0 = sample_derivs(rng)
            dw = d0.regauged(t, Gauge.of(rng.uniform(-2, 2, 5)))
            cv0, cvw = condition_values(t, d0), condition_values(t, dw)
            assert np.abs(cv0.s_cross.values - cvw.s_cross.values).max() <= 1e-10
            assert np.abs(cv0.m.values - cvw.m.values).max() <= 1e-10

    def test_mixed_family_gauge_slope_off_variety(self):
        # off the variety the mixed-closure slope is -2 det24 per component
        rng = np.random.default_rng(8)
        t = TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5)))
        det24 = second_kind_residuals(t).det24
        d0 = sample_derivs(rng)
        w = Gauge.of(rng.uniform(-1, 1, 5))
        cv0 = condition_values(t, d0)
        cvw = condition_values(t, d0.regauged(t, w))
        expected = -2.0 * det24 * np.asarray(w.w)
        assert np.allclose(cvw.m.values - cv0.m.values, expected, atol=1e-12)

    def test_column_families_gauge_dependent(self):
        rng = np.random.default_rng(9)
        t = sample_second_kind_torsion(rng)
        d0 = sample_derivs(rng)
        dw = d0.regauged(t, Gauge.of([0, 0, 0, 1.0, 0]))
        cv0, cvw = condition_values(t, d0), condition_values(t, dw)
        slope = -(t.entry(2, 3) - t.entry(2, 4)) * t.entry(1, 3) \
            + (t.entry(1, 4) - t.entry(1, 3)) * t.entry(2, 3)
        assert cvw.u_col.values[0] - cv0.u_col.values[0] == pytest.approx(slope, rel=1e-10)


class TestImplications:
    @pytest.mark.parametrize("imposed,checked", [
        (("m", "n"), "r"), (("n", "r"), "m"), (("m", "r"), "n")])
    def test_two_imply_third(self, imposed, checked):
        res = implication_test(300, 17, imposed, checked)
        assert res.max_relative <= 1e-8

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            implication_test(1, 0, ("m", "m"), "n")

    def test_witness_found(self):
        wr = witness_search(1000, 23)
        assert wr.found
        assert wr.s_max_relative <= 1e-10
        assert wr.uv_max_relative > 1e-2


class TestMatchesScalarReference:
    """The batched trial algebra against the one-trial scalar reference,
    compared with ==: draw order, rejections and reductions are unchanged."""

    # seed 194 rejects trial TRIAL_CHUNK; at seed 124 one rejection pushes the
    # last accepted trial into a second chunk, and for the m+r and n+r
    # pairings that trial sets the worst residual
    @pytest.mark.parametrize("seed", [124, 194])
    @pytest.mark.parametrize("imposed,checked", PAIRINGS)
    def test_implication_at_chunk_boundaries(self, imposed, checked, seed):
        for trials in CHUNK_TRIALS:
            assert (implication_test(trials, seed, imposed, checked)
                    == ref_implication_test(trials, seed, imposed, checked))

    @pytest.mark.parametrize("imposed,checked", PAIRINGS)
    def test_implication_2000_trials(self, imposed, checked):
        assert (implication_test(2000, 17, imposed, checked)
                == ref_implication_test(2000, 17, imposed, checked))

    def test_implication_with_rejections(self):
        ref = ref_implication_test(TRIAL_CHUNK + 1, 3, ("n", "r"), "m")
        assert ref.rejected > 0
        assert implication_test(TRIAL_CHUNK + 1, 3, ("n", "r"), "m") == ref

    # at seeds 0-5 the pairings reject different numbers of trials, so they
    # end at different trials of the one stream
    @pytest.mark.parametrize("seed", range(6))
    def test_implication_tests_read_one_stream(self, seed):
        counts = (0, 1, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1, 2 * TRIAL_CHUNK + 1, 2000)
        runs = ref_implication_counts(seed, max(counts))
        for trials in counts:
            assert implication_tests(trials, seed, PAIRINGS) == [run[trials] for run in runs]
        assert len({run[-1].rejected for run in runs}) > 1

    # at seed 312 a pairing's next accepted trial after its last one, still
    # inside the chunk that completes the slowest pairing, has a larger
    # residual; at seed 366 a rejection comes first
    @pytest.mark.parametrize("seed", [312, 366])
    def test_implication_tests_drop_trials_past_their_last(self, seed):
        trials = 300
        runs = ref_implication_counts(seed, trials + 1)
        want = [run[trials] for run in runs]
        assert implication_tests(trials, seed, PAIRINGS) == want
        last = max(r.trials + r.rejected for r in want)  # the slowest pairing's last trial
        assert any((run[-1].rejected, run[-1].max_relative) != (r.rejected, r.max_relative)
                   and run[-1].trials + run[-1].rejected <= last
                   for run, r in zip(runs, want))

    def test_invalid_pair_rejected_before_any_draw(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError):
            implication_tests(10, 0, [PAIRINGS[0], (("m", "n"), "n")])

    def test_stacked_polynomial_residuals(self):
        # one stacked evaluation of many tensors, non-finite entries included,
        # against the reference one tensor and one selection at a time
        rng = np.random.default_rng(14)
        stack = np.array([rng.uniform(-2, 2, (5, 5)) for _ in range(20)]
                         + [sample_second_kind_torsion(rng).values for _ in range(20)])
        stack[3, 0, 3] = stack[3, 3, 0] = np.inf
        stack[7, 1, 2] = stack[7, 2, 1] = np.nan
        t = TorsionTensor.from_matrix(stack)
        got = second_kind_polynomial_residuals(t)
        for i, values in enumerate(t.values):
            ref = ref_polynomial_residuals(TorsionTensor(5, values))
            assert list(got) == list(ref)
            for key, rs in ref.items():
                assert repr(got[key].values[i].tolist()) == repr(rs.values.tolist())
                assert repr(got[key].scales[i].tolist()) == repr(rs.scales.tolist())

    @pytest.mark.parametrize("trials,seed,threshold", [
        (1, 0, 1e-2), (2000, 23, 1e-2),
        (2000, 17, 3.6),   # found inside the first chunk
        (2000, 3, 3.6),    # found in the second chunk
        (TRIAL_CHUNK - 1, 0, 10.0), (TRIAL_CHUNK, 0, 10.0), (TRIAL_CHUNK + 1, 0, 10.0),
        (2000, 0, 10.0),   # never found; some trials skip on a small pivot
    ])
    def test_witness(self, trials, seed, threshold):
        assert same_witness(witness_search(trials, seed, threshold),
                            ref_witness_search(trials, seed, threshold))

    # at seed 145 the worst residual is set by trial TRIAL_CHUNK + 1, at 391
    # by trial TRIAL_CHUNK
    @pytest.mark.parametrize("seed", [0, 145, 391])
    def test_polynomial_sweep(self, seed):
        for trials in CHUNK_TRIALS + [2000]:
            assert polynomial_sweep(trials, seed) == ref_polynomial_sweep(trials, seed)

    def test_no_trials(self):
        assert polynomial_sweep(0, 1) == 0.0
        assert implication_test(0, 1, ("m", "n"), "r") == ImplicationResult(
            ("m", "n"), "r", 0, 0, 0.0)

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_condition_values_on_random_inputs(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            t = TorsionTensor.from_matrix(rng.uniform(-2, 2, (n, n)))
            d = PfaffianDerivs.from_array(rng.uniform(-2, 2, (n, n, n)),
                                          Gauge.of(rng.uniform(-1, 1, n)))
            cv, ref = condition_values(t, d), ref_condition_values(t, d)
            assert cv.to_dict() == ref.to_dict()
            assert cv.residual40_scale == ref.residual40_scale
            for name in ("m", "n_row1", "r_row2", "s_cross", "u_col", "v_col"):
                assert getattr(cv, name).scales.tolist() == getattr(ref, name).scales.tolist()

    def test_polynomial_residuals_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            for t in (TorsionTensor.from_matrix(rng.uniform(-2, 2, (5, 5))),
                      sample_second_kind_torsion(rng)):
                got, ref = second_kind_polynomial_residuals(t), ref_polynomial_residuals(t)
                assert list(got) == list(ref)
                for key, rs in ref.items():
                    assert got[key].values.tolist() == rs.values.tolist()
                    assert got[key].scales.tolist() == rs.scales.tolist()

    def test_non_finite_inputs_fold_like_python_max(self):
        # NaN and inf entries: the maxima keep the earlier value, as max() does
        rng = np.random.default_rng(13)
        vals = rng.uniform(-2, 2, (5, 5))
        vals[0, 3] = vals[3, 0] = np.inf
        derivs = rng.uniform(-2, 2, (5, 5, 5))
        derivs[1, 2, 3] = derivs[2, 1, 3] = np.nan
        t = TorsionTensor.from_matrix(vals)
        d = PfaffianDerivs.from_array(derivs)
        cv, ref = condition_values(t, d), ref_condition_values(t, d)
        assert repr(cv.to_dict()) == repr(ref.to_dict())
        for name in ("m", "n_row1", "r_row2", "s_cross", "u_col", "v_col"):
            assert repr(getattr(cv, name).scales.tolist()) == repr(
                getattr(ref, name).scales.tolist())
        got, want = second_kind_polynomial_residuals(t), ref_polynomial_residuals(t)
        assert repr({k: v.scales.tolist() for k, v in got.items()}) == repr(
            {k: v.scales.tolist() for k, v in want.items()})


# --- the read-ahead draw stream ---------------------------------------------

DEFAULT_RNG = np.random.default_rng


class BlockLog:
    """A generator that records its uniform draws by 25-double block:
    (first block, blocks, values) per call."""

    def __init__(self, seed):
        self._rng = DEFAULT_RNG(seed)
        self.draws = []
        self.blocks = 0

    def uniform(self, low, high, size):
        out = self._rng.uniform(low, high, size)
        self.draws.append((self.blocks, out.size // 25, out))
        self.blocks += out.size // 25
        return out


def logged(monkeypatch, fn, *args):
    """``fn(*args)`` and the BlockLog of the one generator it makes."""
    logs = []
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", lambda seed: logs.append(BlockLog(seed)) or logs[-1])
        result = fn(*args)
    (log,) = logs
    return result, log


def read_ends(log):
    """The last block of each read-ahead in a stream's log."""
    return {first + blocks - 1 for first, blocks, _ in log.draws}


def ref_accepts(block):
    """Whether ref_sample_torsion keeps the candidate drawn as ``block``."""
    class OneDraw:
        calls = 0

        def uniform(self, low, high, size):
            self.calls += 1
            if self.calls > 1:
                raise LookupError("candidate rejected")
            return block.copy()

    try:
        ref_sample_torsion(OneDraw())
    except LookupError:
        return False
    return True


def candidates_without_derivs(ref_log):
    """(block, accepted) of each torsion candidate in a scalar reference's log
    that is not followed by a derivative draw: rejected, or s-pivot skipped."""
    draws = ref_log.draws + [(None, None, None)]
    return [(first, ref_accepts(values))
            for (first, blocks, values), (_, following, _) in zip(draws, draws[1:])
            if blocks == 1 and following == 1]


class Replay:
    """A generator that serves fixed doubles in order, whatever the draw shapes."""

    def __init__(self, doubles):
        self._doubles = doubles
        self._at = 0
        self.calls = 0

    def uniform(self, low, high, size):
        self.calls += 1
        k = int(np.prod(size))
        out = self._doubles[self._at:self._at + k].reshape(size)
        self._at += k
        return out.copy()


def hostile_blocks(seed, blocks=12000):
    """Uniform 25-double blocks with bursts of up to 40 rejected candidates
    (a14 = a13: zero pivot) and scattered s-pivot skips (a15 = a13 gives
    a25 = a23 up to rounding)."""
    rng = DEFAULT_RNG(seed)
    v = rng.uniform(-2.0, 2.0, size=(blocks, 5, 5))
    for start in rng.integers(0, blocks - 40, size=blocks // 60):
        burst = slice(start, start + rng.integers(1, 41))
        v[burst, 0, 3] = v[burst, 3, 0] = v[burst, 0, 2]
        v[burst, 2, 0] = v[burst, 0, 2]
    for b in rng.integers(0, blocks, size=blocks // 40):
        v[b, 0, 4] = v[b, 4, 0] = v[b, 0, 2]
        v[b, 2, 0] = v[b, 0, 2]
    return v.ravel()


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def rows_off_diagonal(level):
    """Of a level stack (L, 2, 5), the entries off the (1, 1) and (2, 2)
    diagonal, which PfaffianDerivs.from_array sets to NaN and no closure reads."""
    return level[:, ~np.eye(2, 5, dtype=bool)]


def want_rows(d, slots):
    """:func:`rows_off_diagonal` of rows 1 and 2 of ``d`` at ``slots``."""
    return rows_off_diagonal(np.moveaxis(d.values[:2][..., np.asarray(slots) - 1], -1, 0))


class TestReadAheadStream:
    """The block stream against the scalar references where the chunk tests
    above cannot reach: refills, and the walk at the end of a read-ahead.
    Each case asserts that its seed still reaches the edge it is named for."""

    def test_refills_inside_chunks(self, monkeypatch):
        # seed 9: each of the chunks of 256 and 44 torsion draws is read once
        # for all its trials, and again for those its rejections left short
        got, log = logged(monkeypatch, polynomial_sweep, 300, 9)
        assert [blocks for _, blocks, _ in log.draws] == [256, 11, 44, 4]
        assert got == ref_polynomial_sweep(300, 9)

    @pytest.mark.parametrize("imposed,checked", PAIRINGS[1:])
    def test_rejected_candidate_ends_a_read_ahead(self, monkeypatch, imposed, checked):
        got, log = logged(monkeypatch, implication_test, 40, 2055, imposed, checked)
        ref, ref_log = logged(monkeypatch, ref_implication_test, 40, 2055, imposed, checked)
        assert got == ref
        assert any(b in read_ends(log) and not accepted
                   for b, accepted in candidates_without_derivs(ref_log))

    def test_rejected_candidate_ends_a_witness_read_ahead(self, monkeypatch):
        got, log = logged(monkeypatch, witness_search, 100, 763, 10.0)
        ref, ref_log = logged(monkeypatch, ref_witness_search, 100, 763, 10.0)
        assert same_witness(got, ref)
        assert (377, False) in candidates_without_derivs(ref_log)
        assert 377 in read_ends(log)

    @pytest.mark.parametrize("seed,block", [(8552, 377), (22475, 191)])
    def test_s_pivot_skip_ends_a_read_ahead(self, monkeypatch, seed, block):
        got, log = logged(monkeypatch, witness_search, 100, seed, 10.0)
        ref, ref_log = logged(monkeypatch, ref_witness_search, 100, seed, 10.0)
        assert same_witness(got, ref)
        assert (block, True) in candidates_without_derivs(ref_log)  # accepted, skipped
        assert block in read_ends(log)

    @pytest.mark.parametrize("derivs", ["always", "never", "s-pivot"])
    @pytest.mark.parametrize("source", ["uniform", "hostile"])
    def test_stacks_equal_the_public_samplers(self, derivs, source):
        # one stream against a one-trial loop of the public samplers on the
        # same doubles, bit for bit: the torsion, the drawn mask and the pair
        # at every slot, symmetrized by the level stack; the hostile doubles
        # hold long runs of rejected candidates, some longer than a whole read
        def generator():
            return DEFAULT_RNG(4) if source == "uniform" else Replay(hostile_blocks(4))

        source_rng = generator()
        stream = _TrialStream(source_rng, derivs, range(1, 6))
        rng = generator()
        sizes = (1, 2, 5, TRIAL_CHUNK, 17, TRIAL_CHUNK, 3, TRIAL_CHUNK - 1)
        reads = []
        for size in sizes:
            before = getattr(source_rng, "calls", 0)
            t, d, drawn = stream.draw(size)
            reads.append(getattr(source_rng, "calls", 0) - before)
            level = None if d is None else identities._level_stack(d)
            for i in range(size):
                want_t = sample_second_kind_torsion(rng)
                pivot = want_t.entry(2, 3) - want_t.entry(2, 5)
                draws = {"always": True, "never": False,
                         "s-pivot": not abs(pivot) < 1e-3}[derivs]
                assert drawn[i] == draws
                assert np.array_equal(bits(TorsionTensor.from_matrix(t[i]).values),
                                      bits(want_t.values))
                if draws:
                    assert np.array_equal(bits(rows_off_diagonal(level[:, i])),
                                          bits(want_rows(sample_derivs(rng), range(1, 6))))
                elif d is not None:
                    assert not (d[0][i].any() or d[1][i].any())
            assert (d is None) == (derivs == "never")
        if source == "hostile":  # a run of rejections outlasted a whole refill
            assert max(reads) >= 3

    @pytest.mark.parametrize("levels", [(1, 2, 3), (2,), (5, 2, 4), (1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("source", ["uniform", "hostile"])
    def test_level_gather_equals_the_full_gather(self, levels, source):
        # a stream gathering rows 1 and 2 at the level slots against the whole
        # (5, 5, 5) draws of sample_derivs on the same doubles, bit for bit,
        # through the level stack built from the pair
        def generator():
            return BlockLog(4) if source == "uniform" else Replay(hostile_blocks(4))

        lean_rng, every_rng, rng = generator(), generator(), generator()
        lean = _TrialStream(lean_rng, "always", levels)
        every = _TrialStream(every_rng, "always", range(1, 6))
        for size in (1, 2, 5, TRIAL_CHUNK, 17, TRIAL_CHUNK, 3, TRIAL_CHUNK - 1):
            t, pair, drawn = lean.draw(size)
            every.draw(size)
            assert drawn.all()
            assert [x.shape for x in pair] == [(size, 2, 5, len(levels)),
                                               (size, 5, 2, len(levels))]
            level = identities._level_stack(pair)
            for i in range(size):
                assert np.array_equal(bits(TorsionTensor.from_matrix(t[i]).values),
                                      bits(sample_second_kind_torsion(rng).values))
                assert np.array_equal(bits(rows_off_diagonal(level[:, i])),
                                      bits(want_rows(sample_derivs(rng), levels)))
        # the reads do not depend on what is gathered
        if source == "uniform":
            assert [(a, b) for a, b, _ in lean_rng.draws] == [(a, b) for a, b, _ in every_rng.draws]
        else:
            assert lean_rng.calls == every_rng.calls and lean_rng._at == every_rng._at


class TestClosureTables:
    """The implications build only the m, n and r closures; every other
    caller still builds all five."""

    @pytest.mark.parametrize("levels", [(1, 2, 3), (5, 2, 4), (2,), (1, 2, 3, 4, 5)])
    def test_implication_table_equals_the_full_table(self, levels):
        t, _, _ = _TrialStream(DEFAULT_RNG(12), "never").draw(TRIAL_CHUNK + 3)
        full = identities._closures(t, levels)
        lean = identities._closures(t, levels, cross=False)
        assert set(full) == {"m", "n", "r", "s", "uv"}
        assert set(lean) == {"m", "n", "r"}
        for name in lean:
            (coeffs, rhs), (want_coeffs, want_rhs) = lean[name], full[name]
            assert list(coeffs) == list(want_coeffs)
            assert all(np.array_equal(bits(coeffs[k]), bits(want_coeffs[k])) for k in coeffs)
            assert rhs.shape == want_rhs.shape == (len(levels), len(t))
            assert np.array_equal(bits(rhs), bits(want_rhs))

    def test_other_callers_get_all_closures(self, monkeypatch):
        tables, closures = [], identities._closures

        def spy(*args, **kwargs):
            table = closures(*args, **kwargs)
            tables.append(set(table))
            return table

        monkeypatch.setattr(identities, "_closures", spy)
        everything, mnr = {"m", "n", "r", "s", "uv"}, {"m", "n", "r"}
        rng = DEFAULT_RNG(5)
        condition_values(sample_second_kind_torsion(rng), sample_derivs(rng))
        assert tables == [everything]
        tables.clear()
        witness_search(100, 9, 10.0)  # no witness: chunks of 1, 2, 4, ... trials
        assert len(tables) > 1 and all(kinds == everything for kinds in tables)
        tables.clear()
        implication_tests(TRIAL_CHUNK + 1, 3)
        assert len(tables) > 1 and all(kinds == mnr for kinds in tables)


# --- zero pivots inside the trial kernel -------------------------------------

def zero_pivot_blocks(seed, blocks=4000):
    """Uniform 25-double blocks, a tenth of them with a15 = a14 exactly: as
    a torsion candidate such a block is accepted, and the pivot of its n
    solve, and of the m solve after it, is exactly 0."""
    rng = DEFAULT_RNG(seed)
    v = rng.uniform(-2.0, 2.0, size=(blocks, 5, 5))
    b = rng.integers(0, blocks, size=blocks // 10)
    v[b, 0, 4], v[b, 4, 0] = v[b, 0, 3], v[b, 3, 0]
    return v.ravel()


class TestZeroPivots:
    """A trial whose pivot is exactly 0 divides by it before the acceptance
    mask drops it, so inf and NaN run through every stacked level of its
    chunk; the results must still equal the scalar references, which never
    divide by a small pivot."""

    # LEVELS is a constant of the program; patching it checks that the
    # stacked solve holds at other slots and in another order as well
    @pytest.mark.parametrize("levels", [(1, 2, 3), (5, 2, 4)])
    def test_implication_tests(self, monkeypatch, levels):
        doubles = zero_pivot_blocks(6)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Replay(doubles))
        monkeypatch.setattr(identities, "LEVELS", levels)
        kernel, pivots = identities._implication_trials, []

        def spy(t, d, pairs):
            pivots.append(t[:, 0, 4] - t[:, 0, 3])  # the n pivot
            return kernel(t, d, pairs)

        monkeypatch.setattr(identities, "_implication_trials", spy)
        trials = TRIAL_CHUNK + 1
        got = implication_tests(trials, 0, PAIRINGS)
        assert (np.concatenate(pivots) == 0.0).any()
        assert got == [ref_implication_test(trials, 0, imposed, checked, levels)
                       for imposed, checked in PAIRINGS]

    def test_witness(self, monkeypatch):
        doubles = zero_pivot_blocks(6)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: Replay(doubles))
        for trials, threshold in ((300, 10.0), (300, 1e-2)):
            assert same_witness(witness_search(trials, 0, threshold),
                                ref_witness_search(trials, 0, threshold))

