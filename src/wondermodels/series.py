"""Exact truncated power series in q, t, z, w over the rationals.

Series here are exponential in t: degree n rides on t^n/n!.  A series
stores one dict per t-degree, `slices[et]`, mapping (eq, ez, ew) to an
integer numerator, plus one positive integer `den` shared by the whole
series, so that the coefficient of q^eq t^et z^ez w^ew is

    num / (den * et!).

Every series the formula layer builds is integral in this scaling
(den = 1), so the kernel multiplies ints and never builds a Fraction;
only substituting a rational for w, or selftest's deliberately misread
formula, brings in den > 1.  The form is canonical: no stored numerator
is zero, and den shares no factor with all of them.  `terms` gives a
read-only Fraction view keyed by (eq, et, ez, ew), built on access.

A product is the binomial convolution C_n = sum_k binom(n,k) A_k B_(n-k)
of the slices, and exp and 1/(1-s) are the O(trunc^2) coefficient
recurrences of Knuth, TAOCP vol. 2, 4.7.  The z -> d/dt substitution and
t-integration only move numerators between slices.

Inside one product or recurrence the slices are keyed by a dense index.
The call picks a box, top degrees Q-1 in q and W-1 in w that no output
term exceeds: the two operands' top degrees added for a product, and
max_k trunc * deg(S_k) / k for a recurrence, whose A_n is a sum of
products S_k1...S_kj with k1 + ... + kj = n.  q^eq z^ez w^ew gets index
eq + Q*ew + Q*W*ez, so in the box the product of two terms sits at the sum
of their indices with no carry, and an output slice accumulates in a list
that is decoded once into the dict form.  A run, three or more consecutive
indices with one coefficient (a q-run such as the q [i-2]_q of the block
series), is multiplied by a term in two steps: its coefficient enters a
difference array at the shifted start and leaves at the shifted stop, and
one running sum per output slice turns that array into numerators.  A
slice of r runs and p other terms times a slice of m terms so takes
(2r + p) * m updates, however long the runs.

A product and a recurrence share one convolution loop, which splits its
left factor, a product's first operand or the S of a recurrence, into
single terms and runs, and takes the right factor's terms as they are.
So the formula layer puts the factor that holds runs, or else the
smaller one, on the left.

Truncation is by t: `slices` has trunc + 1 entries, and terms of any
q/z/w degree are kept.  That bounds the whole computation because in every
series this package builds, z and w only ever enter in the company of at
least as many powers of t.

A product or recurrence may also take a grade bound.  A term's grade is
t - z, its t-degree once z -> d/dt has run, and terms of grade above the
bound are never formed in the result.  This is exact when no operand term
has z > t, which a bounded call checks: grades add under a product, and so
under each step of the recurrences, so with no negative grade a term above
the bound can only lead to terms above it.  The one convolution loop does
the dropping: output slice n keeps only z >= n - bound, so a term at z
meets only the partners at z >= n - bound - z, and an operand term above
the bound meets none.  z is the outermost digit of the dense index, so a
partner slice in index order is in z order and those partners are a
tail of it, found by bisection.  Without a bound, or with one of at
least trunc, the tail is the whole slice.

A product may also take a start, the lowest slice its reader reads.
C_n needs only the operands' slices up to n, so the loop over output
slices begins at the start and the slices below it stay empty; the
others are those of the plain product.  A recurrence needs every slice
below the one it forms, so it takes no start.

All arithmetic is exact; nothing here ever touches a float.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from collections.abc import Mapping
from fractions import Fraction

# exponent order inside a key: (eq, et, ez, ew)
Key = tuple[int, int, int, int]
# one t-slice: (eq, ez, ew) -> integer numerator
Slice = dict[tuple[int, int, int], int]


class TruncatedSeries:
    """Monomials num/(den * et!) * q^eq t^et z^ez w^ew, exact through t^trunc.

    Instances are treated as immutable: operations return new series and
    never mutate `slices` after construction, so slices may be shared.
    """

    __slots__ = ("trunc", "slices", "den")

    def __init__(self, trunc: int, terms: dict[Key, Fraction] | None = None):
        """Series from a dict of Fraction (or int) coefficients."""
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        scaled: dict[Key, Fraction] = {}
        for key, c in (terms or {}).items():
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            c = Fraction(c)
            if key[1] <= trunc and c:
                scaled[key] = c * math.factorial(key[1])
        den = math.lcm(*(c.denominator for c in scaled.values()))
        self.trunc = trunc
        self.slices: list[Slice] = [{} for _ in range(trunc + 1)]
        self.den = den
        for (eq, et, ez, ew), c in scaled.items():
            self.slices[et][eq, ez, ew] = c.numerator * (den // c.denominator)

    @classmethod
    def from_slices(cls, trunc: int, slices: list[Slice], den: int = 1) -> "TruncatedSeries":
        """Series with numerators slices[et] over den * et!.

        Slices past trunc are dropped and missing ones are empty.  Zero
        numerators are dropped and den is reduced; the given dicts are
        never mutated.
        """
        slices = [sl if all(sl.values()) else {k: v for k, v in sl.items() if v}
                  for sl in slices[:trunc + 1]]
        slices += [{} for _ in range(trunc + 1 - len(slices))]
        if den != 1:
            # a zero series gets g = den, hence den = 1
            g = math.gcd(den, *(v for sl in slices for v in sl.values()))
            if g != 1:
                den //= g
                slices = [{k: v // g for k, v in sl.items()} for sl in slices]
        s = cls.__new__(cls)
        s.trunc, s.slices, s.den = trunc, slices, den
        return s

    @classmethod
    def zero(cls, trunc: int) -> "TruncatedSeries":
        return cls.from_slices(trunc, [])

    @classmethod
    def one(cls, trunc: int) -> "TruncatedSeries":
        return cls.from_slices(trunc, [{(0, 0, 0): 1}])

    @property
    def terms(self) -> "Terms":
        """Read-only Fraction view of the coefficients, keyed (eq, et, ez, ew)."""
        return Terms(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.trunc, self.den, self.slices) == (other.trunc, other.den, other.slices)

    def __repr__(self):
        return f"TruncatedSeries(trunc={self.trunc}, {sum(map(len, self.slices))} terms)"


class Terms(Mapping):
    """Read-only view {(eq, et, ez, ew): Fraction} of a series.

    Each lookup builds its Fraction afresh; nothing is cached, and len()
    and iteration over keys build none.
    """

    __slots__ = ("_s",)

    def __init__(self, s: TruncatedSeries):
        self._s = s

    def __len__(self) -> int:
        return sum(map(len, self._s.slices))

    def __iter__(self):
        for et, sl in enumerate(self._s.slices):
            for eq, ez, ew in sl:
                yield eq, et, ez, ew

    def __getitem__(self, key: Key) -> Fraction:
        eq, et, ez, ew = key
        s = self._s
        if not 0 <= et <= s.trunc or (eq, ez, ew) not in s.slices[et]:
            raise KeyError(key)
        return Fraction(s.slices[et][eq, ez, ew], s.den * math.factorial(et))


def _same_trunc(a: TruncatedSeries, b: TruncatedSeries) -> int:
    if a.trunc != b.trunc:
        raise ValueError(f"truncation mismatch: {a.trunc} != {b.trunc}")
    return a.trunc


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Sum of two series with identical truncation order."""
    trunc = _same_trunc(a, b)
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    slices = []
    for sa, sb in zip(a.slices, b.slices):
        out = {k: v * fa for k, v in sa.items()}
        for k, v in sb.items():
            out[k] = out.get(k, 0) + v * fb
        slices.append(out)
    return TruncatedSeries.from_slices(trunc, slices, den)


def scale(s: TruncatedSeries, c) -> TruncatedSeries:
    c = Fraction(c)
    slices = [{k: v * c.numerator for k, v in sl.items()} for sl in s.slices]
    return TruncatedSeries.from_slices(s.trunc, slices, s.den * c.denominator)


_second = operator.itemgetter(1)


def _top_qw(slices) -> tuple[int, int]:
    """Top q and w degree over the given slices; (0, 0) if all are empty."""
    monomials = list(itertools.chain.from_iterable(slices))
    if not monomials:
        return 0, 0
    qs, _, ws = zip(*monomials)
    return max(qs), max(ws)


def _check_grades(slices: list[Slice]) -> None:
    """ValueError if a term has z > t, that is negative grade t - z: its
    product with a term above a grade bound could land at or below it."""
    for et, sl in enumerate(slices):
        if any(ez > et for _, ez, _ in sl):
            raise ValueError(f"a grade bound needs z <= t on every term, broken at t^{et}")


def _indexed(slices: list[Slice], Q: int, QW: int):
    """A factor of _convolve, its slices keyed by the dense index of the
    module docstring (z, its outermost digit, needs no bound in the box):
    each slice as its (i, c) pairs by ascending i, so by ascending z; and
    for each n the top index among the first n + 1 of them (-1 while all
    are empty)."""
    Y, tops, top = [], [], -1
    for sl in slices:
        y = sorted([(eq + Q * ew + QW * ez, c) for (eq, ez, ew), c in sl.items()])
        Y.append(y)
        if y and y[-1][0] > top:
            top = y[-1][0]
        tops.append(top)
    return Y, tops


def _split(indexed, QW: int):
    """The left factor of _convolve, from _indexed's slices: for each
    nonempty slice k in ascending order and each z in it, ascending, a
    group (k, z, single terms [(i, c)], runs [(start, stop, c)]).

    A run is three or more consecutive indices start..stop-1 at one z
    that share one coefficient (two cost as many updates as two single
    terms), such as the q exponents of q [j]_q at one z and w.
    """
    split = []
    for k, y in enumerate(indexed):
        z, p = -1, 0
        while p < len(y):
            i, c = y[p]
            j = p + 1
            while j < len(y) and y[j] == (i + j - p, c) and y[j][0] % QW:
                j += 1
            if i // QW != z:
                z, points, runs = i // QW, [], []
                split.append((k, z, points, runs))
            if j - p > 2:
                runs.append((i, i + j - p, c))
            else:
                points += y[p:j]
            p = j
    return split


def _decoded(pairs, Q: int, QW: int) -> Slice:
    """The slice of the (i, c) pairs, i a dense index, c nonzero."""
    return {(i % Q, i // QW, i % QW // Q): c for i, c in pairs}


def _convolve(X, Y, n: int, weight, top: int, lo: int, QW: int):
    """Numerators at dense indices 0..top of sum_k weight(n, k) X_k Y_(n-k),
    over the pairs of terms whose product has z >= lo.

    X is split into groups by _split, and each Y_m is a list of (i, c) by
    ascending i as _indexed gives it: a term of X at z meets the partners
    at z >= lo - z, the tail of the list from index (lo - z) * QW on.  A
    run times a term is a run again, shifted by the term's index: its
    coefficient goes into a difference array at the shifted start and out
    at the shifted stop, and the array is made when the first run is met.
    The box keeps every stop within its top + 2 entries.
    """
    acc, diff = [0] * (top + 1), None
    for k, z, points, runs in X:
        if k > n:
            break
        y = Y[n - k]
        if z < lo:
            y = y[bisect.bisect_left(y, ((lo - z) * QW,)):]
        if not y:
            continue
        c = weight(n, k)
        for i1, c1 in points:
            c1 *= c
            for i2, c2 in y:
                acc[i1 + i2] += c1 * c2
        if runs and diff is None:
            diff = [0] * (top + 2)
        for start, stop, c1 in runs:
            c1 *= c
            for i2, c2 in y:
                v = c1 * c2
                diff[start + i2] += v
                diff[stop + i2] -= v
    return acc if diff is None else map(operator.add, acc, itertools.accumulate(diff))


def mul(a: TruncatedSeries, b: TruncatedSeries, *,
        bound: int | None = None, start: int = 0) -> TruncatedSeries:
    """Product, truncated in t: C_n = sum_k binom(n, k) A_k B_(n-k).

    a is split into single terms and runs and b's terms are taken as they
    are, so the factor that holds runs, or else the smaller one, goes
    first.  With a bound below trunc, the product's terms of grade above
    it are never formed: the product is the plain one without them.
    With a start, no slice C_n with n < start is formed: those slices are
    empty, and every other one is the plain product's.
    """
    trunc = _same_trunc(a, b)
    bound = trunc if bound is None else min(bound, trunc)
    if bound < trunc:
        _check_grades(a.slices)
        _check_grades(b.slices)
    (qa, wa), (qb, wb) = _top_qw(a.slices), _top_qw(b.slices)
    Q = qa + qb + 1
    QW = Q * (wa + wb + 1)
    (A, ta), (B, tb) = _indexed(a.slices, Q, QW), _indexed(b.slices, Q, QW)
    X = _split(A, QW)
    slices = [{} for _ in range(min(start, trunc + 1))]
    # C_n has no index above the top indices of A_0..A_n and B_0..B_n added
    for n in range(len(slices), trunc + 1):
        slices.append(_decoded(filter(_second, enumerate(
            _convolve(X, B, n, math.comb, ta[n] + tb[n], n - bound, QW))), Q, QW))
    return TruncatedSeries.from_slices(trunc, slices, a.den * b.den)


def _require_positive_t_valuation(s: TruncatedSeries, op: str) -> None:
    # The recurrences below need S_0 = 0: the powers of a t-free term
    # (constant included) never leave the t-truncation.
    for eq, ez, ew in s.slices[0]:
        raise ValueError(f"{op} needs every term to carry positive t-degree, "
                         f"found q^{eq} z^{ez} w^{ew} term")


def _recurrence(s: TruncatedSeries, weight, bound: int | None) -> TruncatedSeries:
    """A with A_0 = 1 and A_n = sum_{k=1..n} weight(n, k) S_k A_(n-k).

    With S_k = s_k / D, degree n of A carries D^n: its numerators obey
    a_n = sum weight(n, k) (s_k D^(k-1)) a_(n-k), and are brought to the
    common denominator D^trunc at the end.  S is the split factor, and
    each A_n stays indexed until the end.  With a bound below trunc, no
    term of A_n of grade above it is formed, as in mul; a term of S has
    grade >= 0, so none of them could have led back below.
    """
    trunc, D = s.trunc, s.den
    S = s.slices
    bound = trunc if bound is None else min(bound, trunc)
    if bound < trunc:
        _check_grades(S)
    if D != 1:
        S = [{k: v * D ** (m - 1) for k, v in sl.items()} if m else sl
             for m, sl in enumerate(S)]
    support = [k for k, sl in enumerate(S) if sl]
    # A_n is a sum of products S_k1...S_kj with k1 + ... + kj = n <= trunc,
    # so its degree is at most n * deg(S_k) / k for some k (the largest
    # key of a slice has its top q, keys comparing q first)
    Q = 1 + max([trunc * max(S[k])[0] // k for k in support], default=0)
    W = 1 + max([trunc * max(m[2] for m in S[k]) // k for k in support], default=0)
    QW = Q * W
    X, tx = _indexed(S, Q, QW)
    X = _split(X, QW)
    A = [[(0, 1)]]  # each A_n as its (i, c) pairs by ascending i
    ta = 0  # top index of A_0..A_(n-1)
    for n in range(1, trunc + 1):
        a_n = list(filter(_second, enumerate(
            _convolve(X, A, n, weight, tx[n] + ta, n - bound, QW))))
        if a_n and a_n[-1][0] > ta:
            ta = a_n[-1][0]
        A.append(a_n)
    slices = [_decoded(a_n, Q, QW) for a_n in A]
    if D != 1:
        slices = [{k: v * D ** (trunc - n) for k, v in sl.items()}
                  for n, sl in enumerate(slices)]
    return TruncatedSeries.from_slices(trunc, slices, D ** trunc)


def exp(s: TruncatedSeries, *, bound: int | None = None) -> TruncatedSeries:
    """exp(s) for s with zero constant term; a bound as in mul.

    From A' = S' A: A_n = sum_{k>=1} binom(n-1, k-1) S_k A_(n-k).
    """
    _require_positive_t_valuation(s, "exp")
    return _recurrence(s, lambda n, k: math.comb(n - 1, k - 1), bound)


def invert_one_minus(s: TruncatedSeries, *, bound: int | None = None) -> TruncatedSeries:
    """1 / (1 - s) for s with zero constant term; a bound as in mul.

    From A = 1 + S A: A_n = sum_{k>=1} binom(n, k) S_k A_(n-k).
    """
    _require_positive_t_valuation(s, "invert_one_minus")
    return _recurrence(s, math.comb, bound)


def q_analog(j: int) -> dict[int, int]:
    """[j]_q = 1 + q + ... + q^(j-1) as {exponent: 1}; [0]_q = 0."""
    if j < 0:
        raise ValueError("q-analog of a negative integer")
    return {e: 1 for e in range(j)}


def subst_z_derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Replace each power of z by the matching t-derivative.

    Per term: c q^a z^k t^m w^b  ->  c q^a w^b * m!/(m-k)! * t^(m-k),
    dropped entirely when k > m.  On numerators over den * m! this keeps
    the numerator and moves it from slice m to slice m-k.
    """
    slices: list[Slice] = [{} for _ in s.slices]
    for m, sl in enumerate(s.slices):
        for (eq, ez, ew), v in sl.items():
            if ez <= m:
                out = slices[m - ez]
                out[eq, 0, ew] = out.get((eq, 0, ew), 0) + v
    return TruncatedSeries.from_slices(s.trunc, slices, s.den)


def integrate_t(s: TruncatedSeries) -> TruncatedSeries:
    """Term-wise t-integral with zero constant; input must be z-free.

    The integral of num t^m/m! is num t^(m+1)/(m+1)!: slices shift by one.
    """
    if any(ez for sl in s.slices for _, ez, _ in sl):
        raise ValueError("integrate_t on a series still containing z")
    return TruncatedSeries.from_slices(s.trunc, [{}] + s.slices, s.den)


def coeff(s: TruncatedSeries, eq: int = 0, et: int = 0, ez: int = 0,
          ew: int = 0) -> Fraction:
    """Coefficient of q^eq t^et z^ez w^ew; t-degree must be within trunc."""
    if et > s.trunc:
        raise ValueError(f"t-degree {et} beyond truncation {s.trunc}")
    if et < 0:
        return Fraction(0)
    return Fraction(s.slices[et].get((eq, ez, ew), 0), s.den * math.factorial(et))


def negate_t(s: TruncatedSeries) -> TruncatedSeries:
    """t -> -t."""
    slices = [{k: -v for k, v in sl.items()} if et % 2 else sl
              for et, sl in enumerate(s.slices)]
    return TruncatedSeries.from_slices(s.trunc, slices, s.den)


def eval_w(s: TruncatedSeries, v) -> TruncatedSeries:
    """Substitute a rational value a/b for w: over den * b^W, W the top w-degree."""
    v = Fraction(v)
    a, b = v.numerator, v.denominator
    top = max((ew for sl in s.slices for _, _, ew in sl), default=0)
    slices = []
    for sl in s.slices:
        out: Slice = {}
        for (eq, ez, ew), c in sl.items():
            out[eq, ez, 0] = out.get((eq, ez, 0), 0) + c * a ** ew * b ** (top - ew)
        slices.append(out)
    return TruncatedSeries.from_slices(s.trunc, slices, s.den * b ** top)


def truncated(s: TruncatedSeries, trunc: int) -> TruncatedSeries:
    """The same series re-truncated to a lower (or equal) order."""
    if trunc > s.trunc:
        raise ValueError(f"cannot extend truncation {s.trunc} to {trunc}")
    return TruncatedSeries.from_slices(trunc, s.slices, s.den)


def assert_degree_bounds(s: TruncatedSeries) -> TruncatedSeries:
    """Check ez <= et and ew <= et on every stored term.

    Holds for every series the formula layer produces; enforced there as a
    cheap structural sanity check (it is what makes t-truncation sound).
    Raises ArithmeticError, so the check also runs under python -O.
    """
    for et, sl in enumerate(s.slices):
        for eq, ez, ew in sl:
            if ez > et or ew > et:
                raise ArithmeticError(
                    f"term q^{eq} t^{et} z^{ez} w^{ew} breaks the z/w <= t bound")
    return s


def to_records(s: TruncatedSeries) -> list[dict]:
    """JSON-ready term list, sorted by (t, z, w, q) exponents."""
    return [{"q": eq, "t": et, "z": ez, "w": ew, "num": c.numerator, "den": c.denominator}
            for et, sl in enumerate(s.slices) for den in [s.den * math.factorial(et)]
            for eq, ez, ew in sorted(sl, key=lambda m: (m[1], m[2], m[0]))
            for c in [Fraction(sl[eq, ez, ew], den)]]


def dump_json(s: TruncatedSeries, name: str = "") -> str:
    doc = {"name": name, "trunc": s.trunc, "terms": to_records(s)}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


class QPolynomial:
    """Polynomial in q with integer coefficients, e.g. a Poincare polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {}
        for e, c in (coeffs or {}).items():
            if type(e) is not int or e < 0:  # a bool, 2.0 or 2.5 is no exponent
                raise ValueError(f"q-exponent {e!r} is not an int >= 0")
            if c != int(c):
                raise ValueError(f"non-integer coefficient {c!r} at q^{e}")
            if c:
                clean[e] = int(c)
        self.coeffs = clean

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return QPolynomial(coeffs)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        coeffs: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + c1 * c2
        return QPolynomial(coeffs)

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __getitem__(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def as_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    def is_palindromic(self) -> bool:
        d = self.degree()
        return all(self[e] == self[d - e] for e in range(d + 1))

    def __repr__(self):
        return f"QPolynomial({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.as_pairs():
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}q" if e == 1 else f"{head}q^{e}")
        return " + ".join(parts)
