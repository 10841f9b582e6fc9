"""Tests for the generating-series formulas."""

import math
from fractions import Fraction

import pytest

from wondermodels import formulas, series
from wondermodels.cli import SERIES_REGISTRY
from wondermodels.formulas import (
    D3_DEGENERATE_NOTE,
    _blocks,
    _gamma,
    _x_source,
    big_gamma,
    cal_k,
    euler_from_bd,
    euler_from_x,
    euler_series_bd,
    f_cy,
    f_typeA,
    fvector_from_fcy,
    fvector_typeA,
    gamma_series,
    k_series,
    kirkman_cayley,
    phi_full_monomial,
    phi_rr,
    phi_slice,
    poincare_from_phi,
    poincare_from_psi,
    psi_series,
    tilde_big_gamma,
    tilde_gamma,
    x_typeA,
)
from wondermodels.series import (
    TruncatedSeries,
    add,
    coeff,
    eval_w,
    exp,
    integrate_t,
    invert_one_minus,
    mul,
    negate_t,
    scale,
    subst_z_derivative,
    truncated,
)
from wondermodels.selftest import (
    _misread_big_gamma,
    _misread_blocks,
    misread_phi_full_monomial,
)


def zslice(s, ez, et):
    """q-coefficients of the z^ez t^et slice, scaled by et!."""
    return {eq: c * math.factorial(et)
            for (eq, et2, ez2, ew), c in s.terms.items()
            if (et2, ez2, ew) == (et, ez, 0)}


# ---------------------------------------------------------------------------
# the symmetric group series


def test_psi_starts_exp_t():
    s = psi_series(4)
    assert coeff(s, et=0) == 1
    assert coeff(s, et=1) == 1
    assert coeff(s, et=2) == Fraction(1, 2)
    # first z term arrives at t^3 from the i = 3 factor
    assert coeff(s, eq=1, et=3, ez=1) == Fraction(1, 6)


def test_psi_counts_single_block():
    # 6! times the z t^6 coefficient: nested sets made of one block on
    # 6 points, graded by q-degree of the corresponding monomials
    assert zslice(psi_series(6), 1, 6) == {1: 42, 2: 22, 3: 7, 4: 1}


def test_psi_counts_two_blocks():
    assert zslice(psi_series(7), 2, 7) == {2: 105, 3: 35}


@pytest.mark.parametrize("n,pairs", [
    (2, [(0, 1)]),
    (3, [(0, 1), (1, 1)]),
    (4, [(0, 1), (1, 5), (2, 1)]),
    (5, [(0, 1), (1, 16), (2, 16), (3, 1)]),
    (6, [(0, 1), (1, 42), (2, 127), (3, 42), (4, 1)]),
    (7, [(0, 1), (1, 99), (2, 715), (3, 715), (4, 99), (5, 1)]),
])
def test_poincare_from_psi(n, pairs):
    assert poincare_from_psi(n).as_pairs() == pairs


def test_poincare_from_psi_domain():
    with pytest.raises(ValueError):
        poincare_from_psi(1)


def test_k_series_extends_psi():
    assert k_series(1, 6).terms == psi_series(6).terms
    # i = 3 factor carries r^(i-1)/i! = 4/6
    assert coeff(k_series(2, 4), eq=1, et=3, ez=1) == Fraction(2, 3)


# ---------------------------------------------------------------------------
# gamma, Gamma, calK and the Poincare series


def test_gamma_lowest_terms():
    g = gamma_series(2, 4)
    assert coeff(g, et=0) == 0
    assert coeff(g, eq=1, et=1) == 1
    assert coeff(g, eq=1, et=2) == Fraction(1, 2)
    assert coeff(g, eq=2, et=2) == Fraction(1, 2)


def test_big_gamma_lowest_terms():
    bg = big_gamma(2, 4)
    assert coeff(bg, et=0) == 0
    assert coeff(bg, et=1) == 0
    assert coeff(bg, eq=1, et=2) == Fraction(1, 2)


def test_cal_k_starts_one_plus_t():
    ck = cal_k(2, 5)
    assert coeff(ck, et=0) == 1
    assert coeff(ck, et=1) == 1


def test_phi_full_monomial_known_polynomials():
    phi2 = phi_full_monomial(2, 4)
    assert poincare_from_phi(phi2, 2).as_pairs() == [(0, 1), (1, 1)]
    assert poincare_from_phi(phi2, 3).as_pairs() == [(0, 1), (1, 8), (2, 1)]
    assert poincare_from_phi(phi2, 4).as_pairs() == \
        [(0, 1), (1, 35), (2, 35), (3, 1)]
    phi3 = phi_full_monomial(3, 3)
    assert poincare_from_phi(phi3, 3).as_pairs() == [(0, 1), (1, 13), (2, 1)]
    phi4 = phi_full_monomial(4, 3)
    assert poincare_from_phi(phi4, 3).as_pairs() == [(0, 1), (1, 20), (2, 1)]


def test_phi_rr_known_polynomials():
    phi = phi_rr(2, 4)
    assert poincare_from_phi(phi, 3).as_pairs() == [(0, 1), (1, 5), (2, 1)]
    assert poincare_from_phi(phi, 4).as_pairs() == \
        [(0, 1), (1, 29), (2, 29), (3, 1)]


def test_phi_rr_equals_full_for_r_at_least_3():
    assert phi_rr(3, 5).terms == phi_full_monomial(3, 5).terms
    assert phi_rr(4, 4).terms == phi_full_monomial(4, 4).terms


def test_phi_domain():
    with pytest.raises(ValueError):
        phi_full_monomial(1, 4)
    with pytest.raises(ValueError):
        phi_rr(1, 4)


def test_literal_reading_agrees_through_n3():
    for r in (2, 3):
        a = phi_full_monomial(r, 3)
        b = misread_phi_full_monomial(r, 3)
        for n in (2, 3):
            assert poincare_from_phi(a, n) == poincare_from_phi(b, n)


def test_literal_reading_breaks_at_n4():
    bad = misread_phi_full_monomial(2, 4)
    with pytest.raises(ArithmeticError):
        poincare_from_phi(bad, 4)


def test_poincare_from_phi_needs_depth():
    with pytest.raises(ValueError):
        poincare_from_phi(phi_full_monomial(2, 3), 4)


# ---------------------------------------------------------------------------
# type A faces and Euler characteristics


def test_f_typeA_no_constant_term():
    s = f_typeA(5)
    assert coeff(s, et=0) == 0
    assert coeff(s, et=2, ez=1) == 1


def test_kirkman_cayley_values():
    assert [kirkman_cayley(4, s) for s in (1, 2, 3)] == [1, 5, 5]
    assert [kirkman_cayley(5, s) for s in (1, 2, 3, 4)] == [1, 9, 21, 14]
    assert [kirkman_cayley(6, s) for s in range(1, 6)] == [1, 14, 56, 84, 42]
    with pytest.raises(ValueError):
        kirkman_cayley(4, 4)
    with pytest.raises(ValueError):
        kirkman_cayley(1, 1)


def test_f_typeA_matches_kirkman_cayley():
    s = f_typeA(12)
    for n in range(2, 8):
        for k in range(1, n):
            got = coeff(s, et=n + k - 1, ez=k) \
                * math.factorial(n + k - 1) / math.factorial(n)
            assert got == kirkman_cayley(n, k), (n, k)


def test_x_typeA_vanishing_and_values():
    # closed odd-dimensional manifolds: zero Euler characteristic
    assert [euler_from_x(n) for n in range(2, 9)] == [1, 0, -3, 0, 45, 0, -1575]
    with pytest.raises(ValueError):
        euler_from_x(1)


def test_x_typeA_skips_integration():
    s = x_typeA(3)
    # t^1 coefficient is the n = 2 model: a single point
    assert coeff(s, et=1) == 1


# ---------------------------------------------------------------------------
# type B/D faces and Euler characteristics


def test_tilde_gamma_lowest_terms():
    tg = tilde_gamma(3)
    assert coeff(tg, et=0) == 2
    assert coeff(tg, et=1) == 8
    assert coeff(tg, et=2, ez=1, ew=1) == 4


def oracle_tilde_gamma(trunc, bound=None):
    """tilde_gamma as three products: 2/(1-2t)^2 from two inverses of
    1 - 2t, times exp(sum_{j>=2} w z (2t)^j / 2), every call bounded."""
    inv = invert_one_minus(TruncatedSeries(trunc, {(0, 1, 0, 0): 2}), bound=bound)
    pre = scale(mul(inv, inv, bound=bound), 2)
    arg = TruncatedSeries.from_slices(
        trunc, [{}, {}] + [{(0, 1, 1): 2 ** (j - 1) * math.factorial(j)}
                           for j in range(2, trunc + 1)])
    return mul(pre, exp(arg, bound=bound), bound=bound)


def test_tilde_gamma_is_one_exp_of_the_three_product_form():
    # 2/(1-2t)^2 = 2 exp(sum 2 (2t)^j / j) folds the prefactor into the
    # exp; every term of the result has w = z
    for trunc in range(17):
        for bound in (None, *range(trunc + 1)):
            tg = tilde_gamma(trunc, bound)
            assert tg == oracle_tilde_gamma(trunc, bound), (trunc, bound)
            assert all(ew == ez for sl in tg.slices for _, ez, ew in sl), (trunc, bound)


def test_literal_blocks_equal_their_fraction_terms():
    # selftest's misread (tr/i!)^i over one shared den, against the
    # Fraction coefficients r^(i-1) / (i!)^i of q^(e+1) t^i z, and the
    # structural (rt)^i/i! in integer slices, against r^(i-1) / i!
    for r in range(1, 5):
        for trunc in range(9):
            for build, power in ((_misread_blocks, lambda i: i), (_blocks, lambda i: 1)):
                want = TruncatedSeries(trunc, {
                    (e + 1, i, 1, 0): Fraction(r ** (i - 1), math.factorial(i) ** power(i))
                    for i in range(3, trunc + 1) for e in range(i - 2)})
                assert build(r, trunc) == want, (build, r, trunc)


def test_tilde_big_gamma_lowest_terms():
    # the z -> d/dt substitution consumes z; w survives
    tbg = tilde_big_gamma(3)
    assert all(ez == 0 for (_, _, ez, _) in tbg.terms)
    assert coeff(tbg, et=1) == 2
    assert coeff(tbg, et=2) == 4
    assert coeff(tbg, et=2, ew=1) == 4


def test_f_cy_B_expansion():
    s = f_cy("B", 4)
    # 1 + 2wt + (2w^2+w)4t^2 + (5w^3+5w^2+w)8t^3 + (14w^4+21w^3+9w^2+w)16t^4
    expected = {
        (1, 1): 2, (2, 1): 4, (2, 2): 8, (3, 1): 8, (3, 2): 40, (3, 3): 40,
        (4, 1): 16, (4, 2): 144, (4, 3): 336, (4, 4): 224,
    }
    assert coeff(s, et=0) == 1
    for (et, ew), v in expected.items():
        assert coeff(s, et=et, ew=ew) == v, (et, ew)
    # nothing else below t^5
    assert sum(1 for (_, et, _, _) in s.terms if et <= 4) == len(expected) + 1


def test_f_cy_D_expansion():
    s = f_cy("D", 4)
    # t^3 slice 4(5w^3+5w^2+w), t^4 slice 8(16w^4+24w^3+10w^2+w)
    expected = {
        (3, 1): 4, (3, 2): 20, (3, 3): 20,
        (4, 1): 8, (4, 2): 80, (4, 3): 192, (4, 4): 128,
    }
    for (et, ew), v in expected.items():
        assert coeff(s, et=et, ew=ew) == v, (et, ew)


def test_f_cy_domain():
    with pytest.raises(ValueError):
        f_cy("E", 4)


@pytest.mark.parametrize("n,expected", [
    (1, [1]),
    (2, [1, 2]),
    (3, [1, 5, 5]),
    (4, [1, 9, 21, 14]),
    (5, [1, 14, 56, 84, 42]),
])
def test_fvector_B(n, expected):
    # entry s-1 counts the codimension-(s-1) faces; entry 0 is always 1
    assert fvector_from_fcy("B", n) == expected


@pytest.mark.parametrize("n,expected", [
    (3, [1, 5, 5]),
    (4, [1, 10, 24, 16]),
    (5, [1, 16, 67, 102, 51]),
])
def test_fvector_D(n, expected):
    assert fvector_from_fcy("D", n) == expected


def test_type_B_fvector_is_the_associahedron_of_one_more_point():
    # the B_n polytope is the graph associahedron of the n-node path, which
    # is the type A associahedron for n + 1 points: two distinct series
    for n in range(1, 31):
        assert fvector_from_fcy("B", n) == fvector_typeA(n + 1), n


def test_fvector_domain_and_note():
    with pytest.raises(ValueError):
        fvector_from_fcy("B", 0)
    with pytest.raises(ValueError):
        fvector_from_fcy("D", 2)
    assert "n = 3" in D3_DEGENERATE_NOTE


def test_euler_bd_values():
    assert [euler_from_bd("B", n) for n in range(1, 6)] == [1, 0, -6, 0, 240]
    assert [euler_from_bd("D", n) for n in (3, 4, 5)] == [-3, 0, 180]
    with pytest.raises(ValueError):
        euler_from_bd("B", 0)
    with pytest.raises(ValueError):
        euler_from_bd("D", 2)


def test_euler_series_is_w_free():
    s = euler_series_bd("B", 4)
    assert all(ew == 0 for (_, _, _, ew) in s.terms)
    assert isinstance(s, TruncatedSeries)


# ---------------------------------------------------------------------------
# the series as first written, oracles for the windowed and w-first forms


def oracle_f_cy(variant, trunc):
    """f_cy built whole in (t, w) from Fraction terms."""
    T = TruncatedSeries
    wtg = mul(T(trunc, {(0, 0, 0, 1): 1}), tilde_big_gamma(trunc))
    inv = invert_one_minus(wtg)
    if variant == "B":
        return inv
    num = add(mul(add(T.one(trunc), T(trunc, {(0, 1, 0, 0): -1})), wtg),
              T(trunc, {(0, 1, 0, 1): Fraction(-2), (0, 2, 0, 1): Fraction(-2),
                        (0, 2, 0, 2): Fraction(-2)}))
    return mul(num, inv)


def oracle_euler_series_bd(variant, trunc):
    """The B/D Euler series as f_cy whole, then t -> -t and w -> -1/2."""
    return eval_w(negate_t(f_cy(variant, trunc)), Fraction(-1, 2))


def oracle_phi_rr2(trunc):
    """phi_rr at r = 2 as (1 - q t^2/2) times the whole full monomial series."""
    twist = add(TruncatedSeries.one(trunc),
                TruncatedSeries(trunc, {(1, 2, 0, 0): Fraction(-1, 2)}))
    return mul(twist, phi_full_monomial(2, trunc))


BD_CASES = [("B", n) for n in range(1, 13)] + [("D", n) for n in range(3, 13)]


@pytest.mark.parametrize("variant, n", BD_CASES)
def test_euler_series_with_w_first_is_the_old_composition(variant, n):
    # equal series are equal on every slice, the canonical form being unique
    assert euler_series_bd(variant, n) == oracle_euler_series_bd(variant, n)
    assert f_cy(variant, n) == oracle_f_cy(variant, n)


def test_phi_rr_twists_before_the_last_product():
    for trunc in range(13):
        assert phi_rr(2, trunc) == oracle_phi_rr2(trunc), trunc


def _from_start(s, start):
    return TruncatedSeries.from_slices(
        s.trunc, [{} if et < start else sl for et, sl in enumerate(s.slices)], s.den)


# (name, builder, whether the start windows it): type B ends in 1/(1 - s),
# which needs every slice, so its series is whole whatever the start
WINDOWED = ([(f"phiFull r={r}", lambda trunc, start=0, r=r: phi_full_monomial(r, trunc, start=start),
              True) for r in (2, 3)]
            + [(f"phiRR r={r}", lambda trunc, start=0, r=r: phi_rr(r, trunc, start=start), True)
               for r in (2, 3)]
            + [(f"{f.__name__} {v}", lambda trunc, start=0, f=f, v=v: f(v, trunc, start=start),
                v == "D") for f in (f_cy, euler_series_bd) for v in "BD"])


@pytest.mark.parametrize("trunc", range(9))
def test_windowed_builders_are_the_plain_ones_from_their_start_on(trunc):
    for name, build, windows in WINDOWED:
        whole = build(trunc)
        for start in range(trunc + 2):
            want = _from_start(whole, start) if windows else whole
            assert build(trunc, start=start) == want, (name, start)


def _split_cost(x, y):
    """Updates of splitting x in the dense box of the product of x and y,
    one per single term and two per run, and x's term count."""
    (qx, wx), (qy, wy) = series._top_qw(x.slices), series._top_qw(y.slices)
    Q = qx + qy + 1
    QW = Q * (wx + wy + 1)
    X, _ = series._indexed(x.slices, Q, QW)
    return sum(len(p) + 2 * len(r) for _, _, p, r in series._split(X, QW)), sum(map(len, X))


def test_every_product_splits_its_cheaper_factor(monkeypatch):
    # series.mul splits its left factor alone, so the formula layer must put
    # on the left the factor whose updates times the other's term count is
    # the smaller (a tie either way)
    products, where = [], []

    def recording(a, b, **window):
        (ua, na), (ub, nb) = _split_cost(a, b), _split_cost(b, a)
        products.append((where[-1], ua * nb, ub * na))
        return mul(a, b, **window)

    monkeypatch.setattr(formulas, "mul", recording)
    for r in (2, 3):
        for name, build in SERIES_REGISTRY.items():
            where.append(f"{name} r={r}")
            build(r, 12)
    for n in range(14, 25):
        for r in (2, 3):
            for phi in (phi_full_monomial, phi_rr):
                where.append(f"phi_slice {phi.__name__} r={r} n={n}")
                phi_slice(phi, r, n)
        where.append(f"fvector_typeA n={n}")
        fvector_typeA(n)
        for v in "BD":
            where.append(f"{v} n={n}")
            fvector_from_fcy(v, n)
            euler_from_bd(v, n)
    assert len(products) > 100
    assert [p for p in products if p[1] > p[2]] == []


# ---------------------------------------------------------------------------
# the one z -> d/dt step and its source truncation


def _pipeline(source, trunc, integrate):
    out = subst_z_derivative(source)
    return truncated(integrate_t(out) if integrate else out, trunc)


@pytest.mark.parametrize("trunc", range(1, 11))
def test_substituted_series_match_a_generous_source(trunc):
    # the sources built at 3 * trunc lie far above the truncation rule
    w = 3 * trunc
    for r in range(1, 5):
        assert big_gamma(r, trunc) == _pipeline(gamma_series(r, w), trunc, True)
        # the misread blocks' denominators make sources past t^20 cost
        # seconds each, so their source stops at 2 * trunc, still above the rule
        assert _misread_big_gamma(r, trunc) == \
            _pipeline(_gamma(_misread_blocks(r, 2 * trunc)), trunc, True)
        assert cal_k(r, trunc) == \
            add(TruncatedSeries.one(trunc), _pipeline(k_series(r, w), trunc, True))
    assert tilde_big_gamma(trunc) == _pipeline(tilde_gamma(w), trunc, True)
    # the source of X is F with t -> -t and z -> z/2
    x_source = TruncatedSeries(w, {(eq, et, ez, ew): c * (-1) ** et / 2 ** ez
                                   for (eq, et, ez, ew), c in f_typeA(w).terms.items()})
    assert x_typeA(trunc) == _pipeline(x_source, trunc, False)


def test_poincare_from_psi_sums_every_z_slice():
    # sum over s of (n+s-1)! [t^(n+s-1) z^s] psi, read term by term over
    # every s < n, with no substitution
    psi = psi_series(58)
    for n in range(2, 31):
        want = {}
        for s in range(n):
            for eq in range(n):
                c = coeff(psi, eq=eq, et=n + s - 1, ez=s) * math.factorial(n + s - 1)
                want[eq] = want.get(eq, 0) + c
        assert poincare_from_psi(n).coeffs == {eq: c for eq, c in want.items() if c}, n


SOURCES = ([("psi", psi_series), ("X source", _x_source), ("tildeGamma source", tilde_gamma),
            ("F", f_typeA)]
           + [(f"K r={r}", lambda trunc, bound=None, r=r: k_series(r, trunc, bound=bound))
              for r in range(1, 5)]
           + [(f"gamma r={r}", lambda trunc, bound=None, r=r: gamma_series(r, trunc, bound=bound))
              for r in range(1, 5)]
           + [(f"misread gamma r={r}",
               lambda trunc, bound=None, r=r: _gamma(_misread_blocks(r, trunc), bound=bound))
              for r in range(1, 5)])


@pytest.mark.parametrize("trunc", range(1, 15))
def test_bounded_sources_drop_exactly_the_grades_above(trunc):
    # each source of z -> d/dt built with grade bound d is the whole source
    # without its terms of grade t - z above d
    for name, build in SOURCES:
        whole = build(trunc)
        for d in range(trunc + 1):
            want = TruncatedSeries.from_slices(
                trunc, [{m: v for m, v in sl.items() if et - m[1] <= d}
                        for et, sl in enumerate(whole.slices)], whole.den)
            assert build(trunc, bound=d) == want, (name, d)
