import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondermodels.formulas import _gamma
from wondermodels.selftest import _misread_big_gamma, _misread_blocks
from wondermodels.series import (
    QPolynomial,
    TruncatedSeries,
    add,
    assert_degree_bounds,
    coeff,
    dump_json,
    eval_w,
    exp,
    integrate_t,
    invert_one_minus,
    mul,
    negate_t,
    q_analog,
    scale,
    subst_z_derivative,
    to_records,
    truncated,
)

T = TruncatedSeries


def geom_t(trunc):
    # 1/(1-t)
    return invert_one_minus(T(trunc, {(0, 1, 0, 0): 1}))


def test_construction_drops_zero_and_overflow():
    s = T(3, {(0, 1, 0, 0): Fraction(2), (0, 4, 0, 0): Fraction(5),
              (1, 2, 0, 0): Fraction(0)})
    assert s.terms == {(0, 1, 0, 0): Fraction(2)}
    with pytest.raises(ValueError):
        T(3, {(0, -1, 0, 0): Fraction(1)})


def test_add_requires_equal_trunc():
    with pytest.raises(ValueError):
        add(T.one(3), T.one(4))


def test_add_cancellation():
    a = T(5, {(0, 2, 0, 0): 3})
    b = T(5, {(0, 2, 0, 0): -3})
    assert add(a, b) == T.zero(5)


def test_mul_truncates():
    t = T(2, {(0, 1, 0, 0): 1})
    t2 = mul(t, t)
    assert t2 == T(2, {(0, 2, 0, 0): 1})
    assert mul(t2, t) == T.zero(2)


def test_mul_collects_cross_terms():
    # (1 + t)(1 - t) = 1 - t^2
    a = add(T.one(4), T(4, {(0, 1, 0, 0): 1}))
    b = add(T.one(4), T(4, {(0, 1, 0, 0): -1}))
    assert mul(a, b) == add(T.one(4), T(4, {(0, 2, 0, 0): -1}))


def test_exp_of_t():
    s = exp(T(4, {(0, 1, 0, 0): 1}))
    assert coeff(s, et=0) == 1
    assert coeff(s, et=3) == Fraction(1, 6)
    assert coeff(s, et=4) == Fraction(1, 24)


def test_exp_rejects_constant():
    with pytest.raises(ValueError):
        exp(T.one(3))
    # t-free z term would never terminate under t-truncation
    with pytest.raises(ValueError):
        exp(T(3, {(0, 0, 1, 0): 1}))


def test_invert_one_minus_geometric():
    g = geom_t(5)
    assert all(coeff(g, et=m) == 1 for m in range(6))


def test_q_analog():
    assert q_analog(0) == {}
    assert q_analog(1) == {0: 1}
    assert q_analog(3) == {0: 1, 1: 1, 2: 1}
    with pytest.raises(ValueError):
        q_analog(-1)


def test_subst_z_derivative_basic():
    # z t^3 -> 3 t^2,  z^2 t^2 -> 2,  z^2 t -> dropped
    s = T(5, {(0, 3, 1, 0): Fraction(1), (0, 2, 2, 0): Fraction(1),
              (0, 1, 2, 0): Fraction(1)})
    out = subst_z_derivative(s)
    assert out == T(5, {(0, 2, 0, 0): Fraction(3), (0, 0, 0, 0): Fraction(2)})


def test_subst_z_derivative_keeps_q_and_w():
    s = T(6, {(2, 4, 2, 1): Fraction(1, 2)})
    out = subst_z_derivative(s)
    # 4!/2! = 12, halved
    assert out == T(6, {(2, 2, 0, 1): 6})


def test_integrate_t():
    s = T(3, {(1, 0, 0, 0): Fraction(1), (0, 2, 0, 0): Fraction(3)})
    out = integrate_t(s)
    assert out == T(3, {(1, 1, 0, 0): Fraction(1), (0, 3, 0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        integrate_t(T(3, {(0, 1, 1, 0): 1}))


def test_coeff_guard():
    s = T.one(2)
    assert coeff(s, et=2) == 0
    with pytest.raises(ValueError):
        coeff(s, et=3)


def test_negate_t():
    s = add(T(3, {(0, 1, 0, 0): 1}), T(3, {(0, 2, 0, 0): 2}))
    out = negate_t(s)
    assert coeff(out, et=1) == -1
    assert coeff(out, et=2) == 2


def test_eval_w():
    s = add(T(3, {(0, 1, 0, 2): 4}), T(3, {(0, 1, 0, 0): 1}))
    out = eval_w(s, Fraction(-1, 2))
    assert out == T(3, {(0, 1, 0, 0): 2})


def test_eval_w_merges():
    s = add(T(3, {(0, 1, 0, 1): 1}), T(3, {(0, 1, 0, 0): 1}))
    assert eval_w(s, -1) == T.zero(3)


def test_truncated():
    s = add(T(5, {(0, 5, 0, 0): 1}), T.one(5))
    cut = truncated(s, 3)
    assert cut.trunc == 3 and cut == T.one(3)
    with pytest.raises(ValueError):
        truncated(cut, 4)


def test_degree_bound_check():
    assert_degree_bounds(T(4, {(0, 3, 2, 1): 1}))
    with pytest.raises(ArithmeticError):
        assert_degree_bounds(T(4, {(0, 1, 2, 0): 1}))


def test_serialization_order_and_content():
    s = T(4, {(1, 2, 0, 0): Fraction(-3, 7), (0, 1, 0, 0): Fraction(2),
              (0, 2, 1, 0): Fraction(1)})
    recs = to_records(s)
    assert recs == [
        {"q": 0, "t": 1, "z": 0, "w": 0, "num": 2, "den": 1},
        {"q": 1, "t": 2, "z": 0, "w": 0, "num": -3, "den": 7},
        {"q": 0, "t": 2, "z": 1, "w": 0, "num": 1, "den": 1},
    ]
    # byte-stable: same input, same string
    assert dump_json(s, "x") == dump_json(T(4, dict(s.terms)), "x")


def test_qpolynomial_arithmetic():
    p = QPolynomial({0: 1, 1: 1})
    assert p * p == QPolynomial({0: 1, 1: 2, 2: 1})
    assert p + QPolynomial({1: -1}) == QPolynomial({0: 1})
    assert QPolynomial({0: 1, 1: 5, 2: 1}).is_palindromic()
    assert not QPolynomial({0: 1, 1: 5}).is_palindromic()
    assert str(QPolynomial({0: 1, 1: 42, 2: 127})) == "1 + 42*q + 127*q^2"
    assert QPolynomial({}) == 0
    assert QPolynomial({0: 1}) == 1


def test_qpolynomial_refuses_non_integer_coefficients():
    # int() would truncate 1/2 to a stored zero and 2.7 to 2
    for bad in ({0: Fraction(1, 2), 2: 2.7}, {1: Fraction(-3, 4)}, {0: 2.7}):
        with pytest.raises(ValueError):
            QPolynomial(bad)
    p = QPolynomial({0: Fraction(4, 2), 1: 3.0, 2: 0, 3: Fraction(0), 5: 10 ** 30})
    assert p.coeffs == {0: 2, 1: 3, 5: 10 ** 30}
    assert all(type(c) is int for c in p.coeffs.values())
    zero = QPolynomial({0: 0, 2: Fraction(0, 5)})
    assert zero == QPolynomial() and zero.coeffs == {} and str(zero) == "0"


# small random series over a fixed exponent box, coefficients in a tame range
@st.composite
def small_series(draw, trunc=4, allow_zw=True):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        et = draw(st.integers(1, trunc))
        eq = draw(st.integers(0, 2))
        ez = draw(st.integers(0, et)) if allow_zw else 0
        ew = draw(st.integers(0, et)) if allow_zw else 0
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 4))
        terms[(eq, et, ez, ew)] = Fraction(num, den)
    return TruncatedSeries(trunc, terms)


@given(small_series())
@settings(max_examples=150, deadline=None)
def test_exp_of_negation_inverts(s):
    assert mul(exp(s), exp(scale(s, -1))) == TruncatedSeries.one(s.trunc)


@given(small_series())
@settings(max_examples=150, deadline=None)
def test_invert_one_minus_is_inverse(s):
    one_minus = add(TruncatedSeries.one(s.trunc), scale(s, -1))
    assert mul(invert_one_minus(s), one_minus) == TruncatedSeries.one(s.trunc)


@given(small_series(allow_zw=False), small_series(allow_zw=False))
@settings(max_examples=100, deadline=None)
def test_mul_commutes_and_distributes(a, b):
    assert mul(a, b) == mul(b, a)
    c = TruncatedSeries(a.trunc, {(1, 1, 0, 0): Fraction(1, 3)})
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))


# Reference kernel: the Fraction arithmetic the integer kernel replaced,
# on plain {(eq, et, ez, ew): Fraction} dicts.  Products are Cauchy
# products, exp and 1/(1-s) are sums of powers.

ONE = (0, 0, 0, 0)


def ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def ref_mul(trunc, a, b):
    out = {}
    for (q1, t1, z1, w1), c1 in a.items():
        for (q2, t2, z2, w2), c2 in b.items():
            if t1 + t2 <= trunc:
                key = (q1 + q2, t1 + t2, z1 + z2, w1 + w2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def ref_exp(trunc, s):
    result = power = {ONE: Fraction(1)}
    for k in range(1, trunc + 1):
        power = {key: c / k for key, c in ref_mul(trunc, power, s).items()}
        result = ref_add(result, power)
    return result


def ref_invert_one_minus(trunc, s):
    result = power = {ONE: Fraction(1)}
    for _ in range(trunc):
        power = ref_mul(trunc, power, s)
        result = ref_add(result, power)
    return result


def ref_subst_z_derivative(s):
    out = {}
    for (eq, et, ez, ew), c in s.items():
        if ez <= et:
            key = (eq, et - ez, 0, ew)
            out[key] = out.get(key, 0) + c * math.perm(et, ez)
    return {k: c for k, c in out.items() if c}


def ref_integrate_t(trunc, s):
    return {(eq, et + 1, 0, ew): c / (et + 1)
            for (eq, et, ez, ew), c in s.items() if et < trunc}


def ref_eval_w(s, v):
    out = {}
    for (eq, et, ez, ew), c in s.items():
        out[eq, et, ez, 0] = out.get((eq, et, ez, 0), 0) + c * Fraction(v) ** ew
    return {k: c for k, c in out.items() if c}


@st.composite
def series_tuple(draw, count):
    """count random series sharing one truncation order in 1..6."""
    trunc = draw(st.integers(1, 6))
    return [draw(small_series(trunc)) for _ in range(count)]


@given(series_tuple(2))
@settings(max_examples=150, deadline=None)
def test_mul_matches_reference(ab):
    a, b = ab
    assert dict(mul(a, b).terms) == ref_mul(a.trunc, a.terms, b.terms)


@given(series_tuple(1))
@settings(max_examples=150, deadline=None)
def test_exp_matches_reference(s1):
    [s] = s1
    assert dict(exp(s).terms) == ref_exp(s.trunc, s.terms)


@given(series_tuple(1))
@settings(max_examples=150, deadline=None)
def test_invert_one_minus_matches_reference(s1):
    [s] = s1
    assert dict(invert_one_minus(s).terms) == ref_invert_one_minus(s.trunc, s.terms)


@given(series_tuple(1), st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=100, deadline=None)
def test_shifts_and_eval_w_match_reference(s1, v):
    [s] = s1
    assert dict(subst_z_derivative(s).terms) == ref_subst_z_derivative(s.terms)
    flat = subst_z_derivative(s)
    assert dict(integrate_t(flat).terms) == ref_integrate_t(s.trunc, flat.terms)
    assert dict(eval_w(s, v).terms) == ref_eval_w(s.terms, v)


@st.composite
def run_series(draw, trunc):
    """A series whose slices hold several long q-runs: consecutive q
    exponents up to 8 at one (z, w), sharing one coefficient, which may be
    negative and have a denominator up to 4."""
    terms = {}
    for et in draw(st.sets(st.integers(1, trunc), min_size=1, max_size=2)):
        for _ in range(draw(st.integers(1, 3))):
            ez, ew = draw(st.integers(0, et)), draw(st.integers(0, et))
            start = draw(st.integers(0, 6))
            stop = draw(st.integers(start + 2, 9))
            num = draw(st.integers(-4, 4).filter(bool))
            c = Fraction(num, draw(st.integers(1, 4)))
            for eq in range(start, stop):
                terms[eq, et, ez, ew] = c
    return TruncatedSeries(trunc, terms)


@st.composite
def runs_and_small(draw):
    """A run series and a small random series sharing a truncation order."""
    trunc = draw(st.integers(1, 4))
    return draw(run_series(trunc)), draw(small_series(trunc))


@given(runs_and_small(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_mul_matches_reference_on_runs(ab, swap):
    runs, small = ab
    a, b = (small, runs) if swap else (runs, small)
    assert dict(mul(a, b).terms) == ref_mul(a.trunc, a.terms, b.terms)
    assert dict(mul(runs, runs).terms) == ref_mul(runs.trunc, runs.terms, runs.terms)


@st.composite
def two_run_series(draw):
    """Two independent run series sharing a truncation order, so both
    operands of a product hold runs, of different shapes."""
    trunc = draw(st.integers(1, 4))
    return draw(run_series(trunc)), draw(run_series(trunc))


@given(two_run_series())
@settings(max_examples=100, deadline=None)
def test_mul_matches_reference_with_runs_on_both_sides(ab):
    # mul splits its left operand alone; both orders must agree with the
    # reference
    a, b = ab
    want = ref_mul(a.trunc, a.terms, b.terms)
    assert dict(mul(a, b).terms) == want
    assert dict(mul(b, a).terms) == want


def test_mul_without_runs_ties_the_side_count():
    # with no run on either side, updates times the other's term count is
    # the same both ways; the product must not depend on which side is split
    a = T(3, {(0, 1, 0, 0): Fraction(2), (2, 1, 1, 0): Fraction(-1, 3)})
    b = T(3, {(1, 0, 0, 0): Fraction(5), (0, 1, 0, 1): Fraction(1, 2),
              (3, 2, 1, 1): Fraction(-4), (1, 2, 0, 0): Fraction(7)})
    want = ref_mul(3, a.terms, b.terms)
    assert dict(mul(a, b).terms) == dict(mul(b, a).terms) == want


@given(st.integers(1, 3).flatmap(run_series))
@settings(max_examples=60, deadline=None)
def test_exp_matches_reference_on_runs(s):
    assert dict(exp(s).terms) == ref_exp(s.trunc, s.terms)


@given(st.integers(1, 3).flatmap(run_series))
@settings(max_examples=60, deadline=None)
def test_invert_one_minus_matches_reference_on_runs(s):
    assert dict(invert_one_minus(s).terms) == ref_invert_one_minus(s.trunc, s.terms)


@pytest.mark.parametrize("trunc", [0, 1, 2, 5])
def test_exp_and_inverse_of_zero_are_one(trunc):
    assert exp(T.zero(trunc)) == T.one(trunc)
    assert invert_one_minus(T.zero(trunc)) == T.one(trunc)


def test_products_at_truncation_zero_and_one():
    c = T(0, {(2, 0, 1, 0): Fraction(-2, 3)})
    assert mul(c, T(0, {(1, 0, 0, 0): 3})) == T(0, {(3, 0, 1, 0): -2})
    assert exp(T.zero(0)) == invert_one_minus(T.zero(0)) == T.one(0)
    s = add(T(1, {(3, 1, 0, 0): Fraction(1, 2)}), T(1, {(0, 1, 0, 1): 2}))
    assert dict(exp(s).terms) == ref_exp(1, s.terms)
    assert dict(invert_one_minus(s).terms) == ref_invert_one_minus(1, s.terms)
    assert dict(mul(s, s).terms) == {}


def test_run_ending_at_the_top_of_the_box():
    # a run reaching the operand's top q, z and w degree, times the other
    # operand's top term, ends on the last index of the product's box
    run = T(3, {(eq, 1, 1, 1): Fraction(5) for eq in range(1, 5)})
    top = T(3, {(3, 1, 1, 1): Fraction(-7, 2)})
    for a, b in ((run, top), (top, run), (run, add(top, run))):
        assert dict(mul(a, b).terms) == ref_mul(3, a.terms, b.terms)
    # exp and 1/(1-s) of a single q-run at t: the degree bound trunc * 3
    # is met at t^trunc, so the last run lands on the top of the box
    s = T(4, {(eq, 1, 0, 0): Fraction(-1, 3) for eq in range(4)})
    assert dict(exp(s).terms) == ref_exp(4, s.terms)
    assert dict(invert_one_minus(s).terms) == ref_invert_one_minus(4, s.terms)


@given(series_tuple(2))
@settings(max_examples=100, deadline=None)
def test_exp_of_sum_is_product_of_exps(ab):
    a, b = ab
    assert exp(add(a, b)) == mul(exp(a), exp(b))


@given(series_tuple(3))
@settings(max_examples=100, deadline=None)
def test_mul_associates(abc):
    a, b, c = abc
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(series_tuple(1))
@settings(max_examples=100, deadline=None)
def test_fraction_round_trip_is_canonical(s1):
    [s] = s1
    assert T(s.trunc, dict(s.terms)) == s
    assert s.den > 0
    assert len(s.terms) == sum(map(len, s.slices))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("trunc", range(1, 7))
def test_big_gamma_literal_reading_matches_reference(r, trunc):
    # the misread exponent (tr/i!)^i is not integral after scaling by i!,
    # so this is the formula path through den != 1
    w = max(trunc, -(-3 * (trunc - 1) // 2))
    pre = {(e + 1, i - 1, 0, 0): Fraction(1, math.factorial(i - 1))
           for i in range(2, w + 1) for e in range(i - 1)}
    blocks = {(e + 1, i, 1, 0): Fraction(r ** (i - 1), math.factorial(i) ** i)
              for i in range(3, w + 1) for e in range(i - 2)}
    gamma = ref_mul(w, pre, ref_exp(w, blocks))
    want = {k: c for k, c in ref_integrate_t(w, ref_subst_z_derivative(gamma)).items()
            if k[1] <= trunc}
    assert dict(_misread_big_gamma(r, trunc).terms) == want
    if w >= 4:  # the first block times the prefactor lands at t^4
        assert _gamma(_misread_blocks(r, w)).den != 1


def test_invariants_hold_under_python_O():
    code = """
from wondermodels.series import TruncatedSeries as T, assert_degree_bounds
from wondermodels.formulas import poincare_from_phi
assert not __debug__
for bad in (lambda: assert_degree_bounds(T(4, {(0, 1, 2, 0): 1})),
            lambda: poincare_from_phi(T(4, {(0, 3, 1, 0): 1}), 3),
            lambda: poincare_from_phi(T(4, {(0, 3, 0, 1): 1}), 3)):
    try:
        bad()
    except ArithmeticError:
        print("raised")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3


def above_grade_dropped(s, bound):
    """s without its terms of grade t - z above bound."""
    return T.from_slices(s.trunc, [{m: v for m, v in sl.items() if et - m[1] <= bound}
                                   for et, sl in enumerate(s.slices)], s.den)


@st.composite
def bounded_operands(draw):
    """Two series with z <= t on every term, one of them holding runs, and
    a grade bound from 0 to past their truncation."""
    trunc = draw(st.integers(1, 5))
    runs = draw(run_series(trunc))
    plain = add(draw(small_series(trunc)), T(trunc, {(1, 0, 0, 0): draw(st.integers(-3, 3))}))
    a, b = (runs, plain) if draw(st.booleans()) else (plain, runs)
    return a, b, draw(st.integers(0, trunc + 2))


@given(bounded_operands())
@settings(max_examples=150, deadline=None)
def test_bounded_kernel_is_the_plain_one_without_the_grades_above(abk):
    a, b, bound = abk
    assert mul(a, b, bound=bound) == above_grade_dropped(mul(a, b), bound)
    assert mul(a, a, bound=bound) == above_grade_dropped(mul(a, a), bound)
    for s in (a, b):
        s = T.from_slices(s.trunc, [{}] + s.slices[1:], s.den)  # no t-free term
        assert exp(s, bound=bound) == above_grade_dropped(exp(s), bound)
        assert (invert_one_minus(s, bound=bound)
                == above_grade_dropped(invert_one_minus(s), bound))


def below_start_dropped(s, start):
    """s with its slices below t^start emptied."""
    return T.from_slices(s.trunc, [{} if et < start else sl
                                   for et, sl in enumerate(s.slices)], s.den)


@given(bounded_operands(), st.integers(0, 7))
@settings(max_examples=150, deadline=None)
def test_a_windowed_product_is_the_plain_one_from_its_start_on(abk, start):
    # with and without a grade bound: every slice from start on is the
    # plain product's, and every slice below it is empty
    a, b, bound = abk
    for grades in (None, bound):
        for x, y in ((a, b), (b, a), (a, a)):
            windowed = mul(x, y, bound=grades, start=start)
            assert not any(windowed.slices[:start])
            assert windowed == below_start_dropped(mul(x, y, bound=grades), start)


@given(series_tuple(2), st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_a_window_needs_no_grade_rule(ab, start):
    # without a bound no term needs z <= t, and the start alone windows
    a, b = ab
    windowed = mul(a, b, start=start)
    assert not any(windowed.slices[:start])
    assert windowed == below_start_dropped(mul(a, b), start)


@given(series_tuple(2), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_a_bound_of_trunc_or_more_changes_nothing(ab, extra):
    a, b = ab
    bound = a.trunc + extra
    assert mul(a, b, bound=bound) == mul(a, b)
    assert exp(a, bound=bound) == exp(a)
    assert invert_one_minus(a, bound=bound) == invert_one_minus(a)


def test_a_run_stops_at_a_z_boundary_of_the_index():
    # q^0..q^2 at z = 0 and at z = 1 share one coefficient and, with q the
    # inner digit of a box three wide, sit at six consecutive indices; the
    # bound keeps z = 1 alone, so a run across the boundary would keep both
    s = T.from_slices(3, [{}, {}, {}, {(eq, ez, 0): 1 for eq in range(3) for ez in (0, 1)}])
    kept = T.from_slices(3, [{}, {}, {}, {(eq, 1, 0): 1 for eq in range(3)}])
    assert mul(s, T.one(3), bound=2) == kept
    assert exp(s, bound=2) == add(T.one(3), kept)


def test_a_bound_below_trunc_needs_z_at_most_t():
    # a term of negative grade times one above the bound lands below it,
    # so dropping the latter would be wrong; without a bound z > t is fine
    low = T(4, {(0, 1, 2, 0): 1})
    high = T(4, {(0, 3, 0, 0): 1})
    assert mul(low, high) == T(4, {(0, 4, 2, 0): 1})
    for bad in (lambda: mul(low, high, bound=2), lambda: exp(low, bound=1),
                lambda: invert_one_minus(low, bound=3)):
        with pytest.raises(ValueError, match="z <= t"):
            bad()
