"""Acceptance checks: every headline identity the package computes, each
confirmed against an independent route, with wall-clock budgets.

Each check returns (ok, detail); run_checks wraps them with timing and
produces one CheckResult per check.  The CLI selftest verb and the
acceptance test suite both run exactly this list.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, NamedTuple

from .cohomology import (
    decode_partition,
    encode_partition,
    enumerate_admissible,
    poincare_bruteforce,
)
from .formulas import (
    _gamma,
    _substituted,
    cal_k,
    euler_from_x,
    euler_series_bd,
    f_cy,
    fvector_from_fcy,
    fvector_typeA,
    kirkman_cayley,
    phi_full_monomial,
    phi_rr,
    poincare_from_phi,
    poincare_from_psi,
    x_typeA,
)
from .lattice import GroupId, building_set, is_nested, is_nested_def
from .polytopes import count_plane_trees, dynkin_graph, euler_cw, fvector_tubings
from .series import QPolynomial, TruncatedSeries, coeff, invert_one_minus, mul, q_analog


class CheckResult(NamedTuple):
    name: str
    ok: bool
    seconds: float
    budget: float | None
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        timing = f"{self.seconds:.2f}s"
        if self.budget is not None:
            timing += f", budget {self.budget:g}s"
        return f"{status} {self.name}: {self.detail} [{timing}]"


def check_psi_n6() -> tuple[bool, str]:
    got = poincare_from_psi(6)
    want = QPolynomial({0: 1, 1: 42, 2: 127, 3: 42, 4: 1})
    return got == want, f"poincare_from_psi(6) = {got}"


def check_psi_vs_enumeration() -> tuple[bool, str]:
    for n in range(2, 7):
        got = poincare_from_psi(n)
        want = poincare_bruteforce(GroupId(1, 1, n))
        if got != want:
            return False, f"n = {n}: series {got} vs enumeration {want}"
    return True, "series equals enumeration for G(1,1,n), n = 2..6"


def _misread_blocks(r: int, trunc: int) -> TruncatedSeries:
    """formulas._blocks with (rt)^i/i! misread as (tr/i!)^i: the t^i numerator
    r^(i-1) / (i!)^(i-1) goes over den, the lcm of the (i!)^(i-1)."""
    over = {i: math.factorial(i) ** (i - 1) for i in range(3, trunc + 1)}
    den = math.lcm(*over.values())
    return TruncatedSeries.from_slices(trunc, [{}, {}, {}] + [
        {(e + 1, 1, 0): r ** (i - 1) * (den // o) for e in q_analog(i - 2)}
        for i, o in over.items()], den)


def _misread_big_gamma(r: int, trunc: int) -> TruncatedSeries:
    return _substituted(lambda w, bound: _gamma(_misread_blocks(r, w), bound=bound),
                        trunc, 3, True)


def misread_phi_full_monomial(r: int, trunc: int) -> TruncatedSeries:
    """phi_full_monomial with its block exponent misread as (tr/i!)^i, a
    transcription that agrees below t^4 and fails the enumeration at n = 4,
    in the full-monomial check and demos/transcription_trap.py."""
    return mul(invert_one_minus(_misread_big_gamma(r, trunc)), cal_k(r, trunc))


FULL_MONOMIAL_INSTANCES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 3))


def check_full_monomial_vs_enumeration() -> tuple[bool, str]:
    phis = {r: phi_full_monomial(r, max(n for rr, n in FULL_MONOMIAL_INSTANCES
                                        if rr == r))
            for r in {r for r, _ in FULL_MONOMIAL_INSTANCES}}
    brute = {}
    for r, n in FULL_MONOMIAL_INSTANCES:
        got = poincare_from_phi(phis[r], n)
        brute[r, n] = poincare_bruteforce(GroupId(r, 1, n))
        if got != brute[r, n]:
            return False, f"(r,n) = ({r},{n}): series {got} vs enumeration {brute[r, n]}"
    # the same series with the inner exponent misread as (tr/i!)^i must
    # break somewhere: it only deviates from t^4 on, so n = 4 catches it
    broken = 0
    for r, n in FULL_MONOMIAL_INSTANCES:
        try:
            got = poincare_from_phi(misread_phi_full_monomial(r, n), n)
        except ArithmeticError:
            broken += 1
            continue
        if got != brute[r, n]:
            broken += 1
    if not broken:
        return False, "misread exponent variant failed to break anywhere"
    return True, (f"series equals enumeration on {len(FULL_MONOMIAL_INSTANCES)} "
                  f"instances; misread variant breaks {broken}")


def check_rr_vs_enumeration() -> tuple[bool, str]:
    if phi_rr(3, 5) != phi_full_monomial(3, 5):
        return False, "phi_rr(3) differs from phi_full_monomial(3) through t^5"
    phi2 = phi_rr(2, 4)
    for n in (3, 4):
        got = poincare_from_phi(phi2, n)
        want = poincare_bruteforce(GroupId(2, 2, n))
        if got != want:
            return False, f"n = {n}: series {got} vs enumeration {want}"
    # reducible coincidence: the 2-point reflection case on 3 coordinates
    # is the 4-point symmetric case
    got = poincare_from_phi(phi2, 3)
    want = poincare_bruteforce(GroupId(1, 1, 4))
    if got != want or got != QPolynomial({0: 1, 1: 5, 2: 1}):
        return False, f"G(2,2,3) gave {got}, expected 1 + 5*q + q^2 = G(1,1,4)"
    return True, "phi_rr matches phi_full (r = 3) and enumeration (r = 2, n = 3, 4)"


def check_kirkman_cayley() -> tuple[bool, str]:
    pairs = 0
    for n in range(2, 9):
        fv = fvector_typeA(n)
        for k in range(1, n):
            got = fv[k - 1]
            if got != kirkman_cayley(n, k):
                return False, f"(n,s) = ({n},{k}): {got} vs {kirkman_cayley(n, k)}"
            pairs += 1
    return True, f"series coefficients match the closed formula on {pairs} pairs"


def check_bd_face_series() -> tuple[bool, str]:
    sb = f_cy("B", 4)
    expect_b = {
        (0, 0): 1, (1, 1): 2, (2, 1): 4, (2, 2): 8,
        (3, 1): 8, (3, 2): 40, (3, 3): 40,
        (4, 1): 16, (4, 2): 144, (4, 3): 336, (4, 4): 224,
    }
    for (et, ew), v in expect_b.items():
        if coeff(sb, et=et, ew=ew) != v:
            return False, f"B coefficient t^{et} w^{ew}: {coeff(sb, et=et, ew=ew)} vs {v}"
    if sum(map(len, sb.slices[:5])) != len(expect_b):
        return False, "B series has stray terms below t^5"
    sd = f_cy("D", 4)
    expect_d = {
        (3, 1): 4, (3, 2): 20, (3, 3): 20,
        (4, 1): 8, (4, 2): 80, (4, 3): 192, (4, 4): 128,
    }
    for (et, ew), v in expect_d.items():
        if coeff(sd, et=et, ew=ew) != v:
            return False, f"D coefficient t^{et} w^{ew}: {coeff(sd, et=et, ew=ew)} vs {v}"
    return True, "B series through t^4 and D slices at t^3, t^4 are exact"


def check_fvectors_vs_tubings() -> tuple[bool, str]:
    d4 = fvector_from_fcy("D", 4)
    if d4 != [1, 10, 24, 16]:
        return False, f"D, n = 4 gave {d4}"
    checked = []
    for variant, n in [("D", 4), ("D", 5)] + [("B", n) for n in range(1, 6)]:
        got = fvector_from_fcy(variant, n)
        want = fvector_tubings(dynkin_graph(variant, n))
        if got != want:
            return False, f"{variant}, n = {n}: series {got} vs tubings {want}"
        checked.append(f"{variant}{n}")
    return True, "series f-vectors equal tubing counts for " + ", ".join(checked)


def check_plane_trees() -> tuple[bool, str]:
    pairs = 0
    for n in range(2, 7):
        fv = fvector_typeA(n)
        for k in range(1, n):
            got = fv[k - 1] * math.factorial(n)
            if got != count_plane_trees(n, k):
                return False, f"(n,s) = ({n},{k}): {got} vs {count_plane_trees(n, k)}"
            pairs += 1
    return True, f"series matches forest enumeration on {pairs} pairs"


def check_euler() -> tuple[bool, str]:
    x = x_typeA(6)
    for n in (3, 5, 7):
        if coeff(x, et=n - 1) != 0:
            return False, f"x series does not vanish at t^{n - 1}"
    for variant, ns in (("B", (2, 4)), ("D", (4,))):
        s = euler_series_bd(variant, 4)
        for n in ns:
            if coeff(s, et=n) != 0:
                return False, f"{variant} Euler series does not vanish at t^{n}"
    got, want = euler_from_x(4), euler_cw("A", 4)
    if got != want:
        return False, f"A, n = 4: series {got} vs cell count {want}"
    return True, f"odd-dimensional values vanish; A4 value {got} matches cell count"


def _nested_groups():
    for r in (1, 2, 3):
        for p in {1, r}:
            for n in (2, 3, 4):
                yield GroupId(r, p, n)


def check_nested_equivalence() -> tuple[bool, str]:
    """is_nested agrees with is_nested_def on every subset of the building
    set for all groups with r <= 3, n <= 4.

    Exhaustive by factoring: first compare the two on all pairs.  Call a
    pair good when it is comparable or joins outside the building set,
    which for two distinct elements is exactly is_nested_def's verdict on
    the pair, so the pair loop reads it from there.  Any subset containing
    a bad pair is rejected by both predicates via that very pair (it is a
    2-antichain joining into the building set), so comparing on all
    good-pair cliques covers every remaining subset.  The cliques of size
    2 are the good pairs, compared in the pair loop already; they are
    counted but not compared again.
    """
    subsets = 0
    for g in _nested_groups():
        elems = building_set(g)
        m = len(elems)
        adj = [0] * m
        for i, j in itertools.combinations(range(m), 2):
            a, b = elems[i], elems[j]
            good = is_nested_def((a, b), g)
            if is_nested((a, b), g) != good:
                return False, f"pair mismatch in {g}: {a}, {b}"
            if good:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        stack = [(0, 0, ())]
        while stack:
            start, mask, members = stack.pop()
            if len(members) != 2 and is_nested(members, g) != is_nested_def(members, g):
                return False, f"subset mismatch in {g}: {members}"
            subsets += 1
            for i in range(start, m):
                if not mask & ~adj[i]:
                    stack.append((i + 1, mask | 1 << i, members + (elems[i],)))
    return True, f"predicates agree on {subsets} good-pair subsets plus all pairs"


def check_partition_roundtrip() -> tuple[bool, str]:
    functions = 0
    for r in (1, 2, 3):
        for p in {1, r}:
            for n in range(2, 6):
                g = GroupId(r, p, n)
                for f in enumerate_admissible(g, weak_only=True):
                    if decode_partition(encode_partition(f), g) != f:
                        return False, f"round trip broke in {g} at {f.to_obj()}"
                    functions += 1
    return True, f"decode(encode(f)) = f for all {functions} all-weak functions"


CHECKS: tuple[tuple[str, float | None, Callable[[], tuple[bool, str]]], ...] = (
    ("psi-n6", 1.0, check_psi_n6),
    ("psi-vs-enumeration", 30.0, check_psi_vs_enumeration),
    ("full-monomial-vs-enumeration", 300.0, check_full_monomial_vs_enumeration),
    ("rr-vs-enumeration", None, check_rr_vs_enumeration),
    ("kirkman-cayley", None, check_kirkman_cayley),
    ("bd-face-series", None, check_bd_face_series),
    ("fvectors-vs-tubings", 60.0, check_fvectors_vs_tubings),
    ("plane-trees", None, check_plane_trees),
    ("euler", None, check_euler),
    ("nested-equivalence", 120.0, check_nested_equivalence),
    ("partition-roundtrip", None, check_partition_roundtrip),
)


def run_checks(names=None) -> list[CheckResult]:
    known = {name for name, _, _ in CHECKS}
    if names:
        missing = set(names) - known
        if missing:
            raise ValueError(f"unknown checks: {sorted(missing)}")
    out = []
    for name, budget, fn in CHECKS:
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        if ok and budget is not None and seconds >= budget:
            ok, detail = False, detail + " (over budget)"
        out.append(CheckResult(name, ok, seconds, budget, detail))
    return out
