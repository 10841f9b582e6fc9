"""Closed generating series for Poincare polynomials and face counts.

Everything here is an exponential generating series in t (degree n enters
as t^n/n!), with q recording cohomological degree, z marking nested-set
size before the derivative substitution, and w marking face dimension in
the type B/D series.  The basic objects:

  psi_series      weak-support basis monomials for the symmetric group
  k_series        same for G(r,1,n), r-fold cover of the t-line
  gamma_series    blocks containing the distinguished point of a chain
  big_gamma       gamma after z -> d/dt and one t-integration
  cal_k           1 + integrated-derivative of k_series
  phi_*           full Poincare series 1/(1-Gamma) * calK (+ r=2 twist)
  f_typeA / x_typeA     plane-tree faces and the Euler series for type A
  tilde_gamma / f_cy    type B/D analogues over the doubled line

Every z -> d/dt goes through one step, _substituted (then a t-integration
for Gamma, calK and tildeGamma), and one rule truncates its source.  A z^s
term rides with at least ratio * s powers of t (3 in psi, K and gamma; 2 in
tilde_gamma and the source of X), so t^m z^s lands at t-degree m - s >=
m (ratio - 1) / ratio: target degree d (trunc, or trunc - 1 before the
integration) needs only source degrees m <= d + d // (ratio - 1).

The step also hands d to the source as a grade bound.  After z -> d/dt a
term's t-degree is its grade t - z, so only grades up to d are read.  The
source's exp, 1/(1-s) and products drop every term of grade above d.  This
is exact: no term has z > t (assert_degree_bounds), and grades add under a
product and each recurrence step, so a dropped term only ever feeds terms
above d.

That grade bound is one half of a window: the t-slices n..top and the
grades up to d that a reader of a series reads.  Each readout states its
window in its one builder call (_substituted its source's: slices 0..w,
grades up to d), and every builder and kernel call below only passes it
on.  The other half, the slice start n, goes to the last product of a
series read at t^n alone:
1/(1-Gamma) * calK in phi (the r = 2 twist multiplies 1/(1-Gamma) first)
and num * 1/(1 - w tildeGamma) in f_cy D.  A product's slice n depends only
on the operands' slices up to n, so it is formed alone; a recurrence needs
every slice below the one read, so exp and 1/(1-s) take no start.
fvector_typeA reads f_typeA at grade n - 1 alone, through the same rule as
a source.  The B/D Euler series substitutes t -> -t and w -> -1/2 in the
pieces of f_cy's formula before inverting, as a ring homomorphism allows,
so 1/(1-s) runs on a series in t alone.  The named series of series-dump
and selftest are built without a window, every slice and grade up to trunc.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import (
    QPolynomial,
    TruncatedSeries,
    add,
    assert_degree_bounds,
    coeff,
    eval_w,
    exp,
    integrate_t,
    invert_one_minus,
    mul,
    negate_t,
    q_analog,
    scale,
    subst_z_derivative,
    truncated,
)

T = TruncatedSeries


def _blocks(r: int, trunc: int) -> TruncatedSeries:
    """sum_{i>=3} (z/r) q [i-2]_q (rt)^i / i!, the exponent of the block product.

    Its t^i numerator is r^(i-1).
    """
    if r < 1:
        raise ValueError(f"the block series needs r >= 1, got r = {r}")
    return T.from_slices(trunc, [{}, {}, {}] + [
        {(e + 1, 1, 0): r ** (i - 1) for e in q_analog(i - 2)} for i in range(3, trunc + 1)])


def psi_series(trunc: int, bound: int | None = None) -> TruncatedSeries:
    """e^t * prod_{i>=3} exp(z q [i-2]_q t^i / i!), which is k_series(1, trunc).

    The t^(n+s-1) z^s coefficient times (n+s-1)! is the q-count of basis
    monomials over nested sets of s blocks on n points.  With a bound,
    only the terms of grade t - z up to it, here and in every source of
    z -> d/dt below.
    """
    return k_series(1, trunc, bound=bound)


def k_series(r: int, trunc: int, bound: int | None = None) -> TruncatedSeries:
    """e^t * prod_{i>=3} exp((z/r) q [i-2]_q (rt)^i / i!), as one exp."""
    arg = T.from_slices(trunc, [{}, {(0, 0, 0): 1}] + _blocks(r, trunc).slices[2:])
    return assert_degree_bounds(exp(arg, bound=bound))


def _gamma(blocks: TruncatedSeries, bound: int | None = None) -> TruncatedSeries:
    """sum_{i>=2} q[i-1]_q t^(i-1)/(i-1)! times exp(blocks), the gamma series
    of an exponent: _blocks here, selftest's misread blocks there."""
    trunc = blocks.trunc
    pre = T.from_slices(trunc, [{}] + [{(e + 1, 0, 0): 1 for e in q_analog(m)}
                                       for m in range(1, trunc + 1)])
    return assert_degree_bounds(mul(pre, exp(blocks, bound=bound), bound=bound))


def gamma_series(r: int, trunc: int, bound: int | None = None) -> TruncatedSeries:
    """Blocks through the marked point: prefactor sum_{i>=2} q[i-1]_q t^(i-1)/(i-1)!
    times the same infinite product as k_series."""
    return _gamma(_blocks(r, trunc), bound=bound)


def _substituted(build, trunc: int, ratio: int, integrate: bool) -> TruncatedSeries:
    """build(w, bound=d) with z replaced by d/dt, integrated in t if asked,
    to t^trunc; w and the grade bound d follow the module docstring, for
    a source whose z^s terms ride with at least ratio * s powers of t."""
    d = trunc - 1 if integrate else trunc
    out = subst_z_derivative(build(max(trunc, d + d // (ratio - 1)), bound=d))
    if integrate:
        out = integrate_t(out)
    return truncated(out, trunc)


def big_gamma(r: int, trunc: int) -> TruncatedSeries:
    """Gamma = integral of gamma with z replaced by d/dt."""
    return _substituted(lambda w, bound: gamma_series(r, w, bound=bound), trunc, 3, True)


def cal_k(r: int, trunc: int) -> TruncatedSeries:
    """1 + integral of k_series with z replaced by d/dt; starts 1 + t."""
    return add(T.one(trunc),
               _substituted(lambda w, bound: k_series(r, w, bound=bound), trunc, 3, True))


def phi_full_monomial(r: int, trunc: int, *, start: int = 0) -> TruncatedSeries:
    """Poincare series of the models Y_{G(r,p,n)}, p < r: 1/(1-Gamma) * calK,
    its slices below start left empty."""
    if r < 2:
        raise ValueError("full monomial series needs r >= 2")
    return mul(invert_one_minus(big_gamma(r, trunc)), cal_k(r, trunc), start=start)


def phi_rr(r: int, trunc: int, *, start: int = 0) -> TruncatedSeries:
    """Poincare series of the models Y_{G(r,r,n)}, its slices below start
    left empty.

    For r >= 3 this coincides with the full monomial series; for r = 2 the
    zero sets of size two leave the building set and the series picks up
    the factor (1 - q t^2/2).  That factor multiplies 1/(1-Gamma) before
    calK does, so the last product is the windowed one.
    """
    if r < 2:
        raise ValueError("rr series needs r >= 2")
    if r >= 3:
        return phi_full_monomial(r, trunc, start=start)
    twist = T.from_slices(trunc, [{(0, 0, 0): 1}, {}, {(1, 0, 0): -1}])
    return mul(mul(twist, invert_one_minus(big_gamma(r, trunc))), cal_k(r, trunc),
               start=start)


def _exact(num: int, den: int, problem: str) -> int:
    """num / den, which must be an integer; ArithmeticError(problem) if not."""
    count, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(problem)
    return count


def poincare_from_psi(n: int) -> QPolynomial:
    """Poincare polynomial of the model for the symmetric group S_n.

    The sum over s of (n+s-1)! times the z^s t^(n+s-1) coefficient of psi,
    which is (n-1)! times the t^(n-1) coefficient of psi with z replaced
    by d/dt.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return poincare_from_phi(_substituted(psi_series, n - 1, 3, False), n - 1)


def phi_slice(phi, r: int, n: int) -> TruncatedSeries:
    """phi(r, n), phi being phi_full_monomial or phi_rr, as poincare_from_phi
    reads it at t^n: its last product forms slice n alone."""
    return phi(r, n, start=n)


def poincare_from_phi(phi: TruncatedSeries, n: int) -> QPolynomial:
    """n! times the t^n coefficient of a Poincare series, as a q-polynomial."""
    if not 0 <= n <= phi.trunc:
        raise ValueError(f"series truncated at {phi.trunc}, need t^{n}")
    out: dict[int, int] = {}
    for (eq, ez, ew), num in phi.slices[n].items():
        if ez or ew:
            raise ArithmeticError("Poincare series must be z- and w-free, "
                                  f"found q^{eq} t^{n} z^{ez} w^{ew}")
        out[eq] = _exact(num, phi.den, f"non-integer count at q^{eq} t^{n}")
    return QPolynomial(out)


def _exp_z_minus_one(trunc: int, num, bound: int | None = None) -> TruncatedSeries:
    """exp(z * sum_{i>=2} num(i) t^i/i!) - 1."""
    arg = T.from_slices(trunc, [{}, {}] + [{(0, 1, 0): num(i)}
                                           for i in range(2, trunc + 1)])
    return add(exp(arg, bound=bound), scale(T.one(trunc), -1))


def f_typeA(trunc: int, bound: int | None = None) -> TruncatedSeries:
    """exp(z t^2/(1-t)) - 1: faces of type A nestohedra via plane trees.

    (n+s-1)! times the z^s t^(n+s-1) coefficient counts plane rooted forests
    with s internal vertices on n labeled leaves.  With a bound, only the
    terms of grade t - z up to it.
    """
    return _exp_z_minus_one(trunc, math.factorial, bound=bound)


def kirkman_cayley(n: int, s: int) -> int:
    """Faces of codimension s-1 of the (n-2)-dimensional associahedron:
    (1/s) C(n-2, s-1) C(n+s-1, s-1)."""
    if n < 2 or not 1 <= s <= n - 1:
        raise ValueError(f"kirkman_cayley needs n >= 2 and 1 <= s <= n-1, got ({n},{s})")
    return _exact(math.comb(n - 2, s - 1) * math.comb(n + s - 1, s - 1), s,
                  f"kirkman_cayley({n},{s}) is not integral")


def fvector_typeA(n: int) -> list[int]:
    """f-vector [codim 0 .. codim n-2 faces] of the (n-2)-dimensional
    associahedron, read off f_typeA: its z^k t^(n+k-1) terms, k < n, all
    of grade n - 1 and at t-degree 2n - 2 at most."""
    if n < 2:
        raise ValueError("need n >= 2")
    s = f_typeA(2 * n - 2, bound=n - 1)
    den = s.den * math.factorial(n)
    return [_exact(s.slices[n + k - 1].get((0, k, 0), 0), den,
                   f"non-integer face count at z^{k}")
            for k in range(1, n)]


def _x_source(trunc: int, bound: int | None = None) -> TruncatedSeries:
    """exp((z/2) t^2/(1+t)) - 1, the series x_typeA substitutes."""
    return _exp_z_minus_one(trunc, lambda i: (-1) ** i * math.factorial(i) // 2,
                            bound=bound)


def x_typeA(trunc: int) -> TruncatedSeries:
    """Euler series of the real type A models: exp((z/2) t^2/(1+t)) - 1, that
    is f_typeA with t -> -t and z -> z/2, then z replaced by d/dt (no
    integration step here).

    (n-1)! times the t^(n-1) coefficient is the Euler characteristic of the
    n-point model; it vanishes for odd n >= 3, these being odd-dimensional
    closed manifolds.
    """
    return _substituted(_x_source, trunc, 2, False)


def euler_from_x(n: int) -> int:
    """Euler characteristic of the real type A model on n points."""
    if n < 2:
        raise ValueError("need n >= 2")
    val = coeff(x_typeA(n - 1), et=n - 1) * math.factorial(n - 1)
    return _exact(val.numerator, val.denominator,
                  f"non-integer Euler characteristic at n={n}")


def tilde_gamma(trunc: int, bound: int | None = None) -> TruncatedSeries:
    """2/(1-2t)^2 * prod_{j>=2} exp(w z (2t)^j / 2), the type B block series.

    2/(1-2t)^2 is 2 exp(sum_{j>=1} 2 (2t)^j / j), so the series is one
    exp, 2 exp(arg): the t^j numerator of arg is 2^(j+1) (j-1)! plus,
    from j = 2 on, 2^(j-1) j! w z.  Every term has w = z, so arg and its
    exp are built in z alone and w is set to z on the result.
    """
    arg = T.from_slices(trunc, [{}, {(0, 0, 0): 4}] + [
        {(0, 0, 0): 2 ** (j + 1) * math.factorial(j - 1),
         (0, 1, 0): 2 ** (j - 1) * math.factorial(j)} for j in range(2, trunc + 1)])
    s = exp(arg, bound=bound)
    return assert_degree_bounds(T.from_slices(
        trunc, [{(eq, ez, ez): 2 * v for (eq, ez, _), v in sl.items()} for sl in s.slices],
        s.den))


def tilde_big_gamma(trunc: int) -> TruncatedSeries:
    """Integral of tilde_gamma with z replaced by d/dt."""
    return _substituted(tilde_gamma, trunc, 2, True)


def _bd_series(variant: str, trunc: int, at, start: int) -> TruncatedSeries:
    """at applied to the B/D face series of f_cy, at being a ring
    homomorphism that keeps t-degrees: each piece is mapped before it is
    inverted or multiplied, and slices below start of the D series are
    left empty.

    B: 1/(1 - w Gamma~).
    D: ((1-t) w Gamma~ - 2tw - 2t^2 w - 2t^2 w^2) / (1 - w Gamma~).
    """
    if variant not in ("B", "D"):
        raise ValueError(f"variant must be 'B' or 'D', got {variant!r}")
    wtg = at(mul(T.from_slices(trunc, [{(0, 0, 1): 1}]), tilde_big_gamma(trunc)))
    inv = invert_one_minus(wtg)
    if variant == "B":
        return inv
    # numerators over k!: 1 - t, and -2tw, -2t^2 w - 2t^2 w^2
    one_minus_t = at(T.from_slices(trunc, [{(0, 0, 0): 1}, {(0, 0, 0): -1}]))
    rest = at(T.from_slices(trunc, [{}, {(0, 0, 1): -2}, {(0, 0, 1): -4, (0, 0, 2): -4}]))
    return mul(add(mul(one_minus_t, wtg), rest), inv, start=start)


def f_cy(variant: str, trunc: int, *, start: int = 0) -> TruncatedSeries:
    """Face series of the compact real B/D models: t^n w^s coefficient times
    n! counts faces of codimension s - 1 across all chambers.  The formula
    is _bd_series's; slices below start of the D series are left empty."""
    return _bd_series(variant, trunc, lambda s: s, start)


def _check_bd_n(variant: str, n: int) -> None:
    """The smallest n each B/D readout answers for (f_cy itself takes any trunc)."""
    if variant == "B" and n < 1:
        raise ValueError("type B needs n >= 1")
    if variant == "D" and n < 3:
        raise ValueError("type D needs n >= 3")


def fvector_from_fcy(variant: str, n: int) -> list[int]:
    """f-vector [codim 0 .. codim n-1 faces] of one nestohedron chamber,
    read off the w^1 .. w^n terms of f_cy at t^n.

    Chamber counts divide out: 2^n n! for B, 2^(n-1) n! for D.  D with n = 3 is
    the degenerate reducible case; the series still returns the type A
    values [1, 5, 5] there (see D3_DEGENERATE_NOTE).
    """
    _check_bd_n(variant, n)
    s_cy = f_cy(variant, n, start=n)
    # coefficient / 2^n (B) or / 2^(n-1) (D); the numerator is over den * n!
    den = s_cy.den * (2 ** n if variant == "B" else 2 ** (n - 1)) * math.factorial(n)
    return [_exact(s_cy.slices[n].get((0, 0, s), 0), den,
                   f"non-integer face count at w^{s} t^{n}")
            for s in range(1, n + 1)]


D3_DEGENERATE_NOTE = ("D with n = 3 is reducible; the reported values are "
                      "those of the type A model on 4 points")


def euler_series_bd(variant: str, trunc: int, *, start: int = 0) -> TruncatedSeries:
    """Euler characteristics of the real B/D models: t -> -t, w -> -1/2 in
    f_cy; n! times the t^n coefficient is the Euler characteristic.

    The substitution is a ring homomorphism, so it is made on the pieces
    of f_cy's formula before inverting: 1/(1 - s) is then taken of a
    series in t alone.  Slices below start of the D series are left empty.
    """
    return _bd_series(variant, trunc, lambda s: eval_w(negate_t(s), Fraction(-1, 2)),
                      start)


def euler_from_bd(variant: str, n: int) -> int:
    """Euler characteristic of the compact real B/D model on n points."""
    _check_bd_n(variant, n)
    s = euler_series_bd(variant, n, start=n)
    val = coeff(s, et=n) * math.factorial(n)
    return _exact(val.numerator, val.denominator,
                  f"non-integer Euler characteristic at n={n}")
