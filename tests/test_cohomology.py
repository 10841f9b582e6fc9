"""Tests for admissible-function enumeration and the partition bijection."""

import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from wondermodels.cli import _poincare_series
from wondermodels.cohomology import (
    AdmissibleFunction,
    MalformedPartition,
    Part,
    WeightedPartition,
    _admissible_supports,
    decode_partition,
    encode_partition,
    enumerate_admissible,
    poincare_bruteforce,
)
from wondermodels.lattice import (
    BuildingElement,
    GroupId,
    GuardExceeded,
    _NestedUniverse,
    _nested_universe,
    bits,
    building_set,
    contains,
)
from test_lattice import UNIVERSE_GROUPS, oracle_d_value, oracle_nested_masks, spy_joins


def weak(coords, weights, r):
    return BuildingElement.weak(coords, weights, r)


def strong(coords, r):
    return BuildingElement.strong(coords, r)


# ---------------------------------------------------------------------------
# admissible functions


def test_admissible_function_valid():
    g = GroupId(2, 1, 3)
    a = weak((1, 2, 3), (0, 0, 0), 2)
    f = AdmissibleFunction.from_dict(g, {a: 1})
    assert [a for a, _ in f.assignment] == [a]
    assert sum(e for _, e in f.assignment) == 1
    assert dict(f.assignment) == {a: 1}


def test_admissible_function_zero():
    f = AdmissibleFunction(GroupId(2, 1, 3), ())
    assert f.assignment == ()


def test_admissible_function_rejects_repeats():
    g = GroupId(2, 1, 3)
    a = weak((1, 2, 3), (0, 0, 0), 2)
    with pytest.raises(ValueError):
        AdmissibleFunction(g, ((a, 1), (a, 1)))


def test_admissible_function_rejects_non_nested():
    g = GroupId(1, 1, 4)
    a = weak((1, 2, 3), (0, 0, 0), 1)
    b = weak((2, 3, 4), (0, 0, 0), 1)
    with pytest.raises(ValueError):
        AdmissibleFunction.from_dict(g, {a: 1, b: 1})


def test_admissible_function_rejects_bad_exponent():
    g = GroupId(1, 1, 4)
    a = weak((1, 2, 3, 4), (0, 0, 0, 0), 1)
    # d = 3 here, so exponents 1 and 2 work but 3 does not
    AdmissibleFunction.from_dict(g, {a: 2})
    with pytest.raises(ValueError):
        AdmissibleFunction.from_dict(g, {a: 3})
    # a nested chain shrinks d of the outer element
    b = weak((1, 2, 3), (0, 0, 0), 1)
    with pytest.raises(ValueError):
        AdmissibleFunction.from_dict(g, {a: 2, b: 1})


def test_admissible_function_exponent_zero_not_stored():
    g = GroupId(1, 1, 3)
    a = weak((1, 2, 3), (0, 0, 0), 1)
    with pytest.raises(ValueError):
        AdmissibleFunction.from_dict(g, {a: 0})


@pytest.mark.parametrize("exponent", [1.9, Fraction(3, 2), 2.0, "2", True])
def test_admissible_function_refuses_non_integer_exponents(exponent):
    g = GroupId(1, 1, 4)
    a = weak((1, 2, 3, 4), (0, 0, 0, 0), 1)
    with pytest.raises(ValueError, match="is not an integer"):
        AdmissibleFunction.from_dict(g, {a: exponent})


@pytest.mark.parametrize("rpn", [(r, p, n) for r in (1, 2, 3) for p in sorted({1, r})
                                 for n in (2, 3, 4, 5)],
                         ids="G({0[0]},{0[1]},{0[2]})".format)
def test_d_value_of_the_maximal_members_inside_is_that_of_all(rpn):
    # AdmissibleFunction reads each d-value off the maximal members inside
    # each member; every member inside lies in one of them, so the join is
    # the same
    g = GroupId(*rpn)
    for f in enumerate_admissible(g):
        support = [a for a, _ in f.assignment]
        for a in support:
            inside = [x for x in support if x != a and contains(a, x)]
            tops = [x for x in inside
                    if not any(y != x and contains(y, x) for y in inside)]
            assert oracle_d_value(tops, a, g) == oracle_d_value(inside, a, g), \
                (rpn, f.to_obj(), a)


def test_admissible_function_error_messages():
    g = GroupId(1, 1, 4)
    a = weak((1, 2, 3, 4), (0, 0, 0, 0), 1)
    with pytest.raises(ValueError, match=r"^support is not nested$"):
        AdmissibleFunction.from_dict(g, {weak((1, 2, 3), (0, 0, 0), 1): 1,
                                         weak((2, 3, 4), (0, 0, 0), 1): 1})
    with pytest.raises(ValueError, match=r"^exponent 3 for \{1, 2, 3, 4\} outside 1\.\.2$"):
        AdmissibleFunction.from_dict(g, {a: 3})
    with pytest.raises(ValueError, match=r"^exponent 0 for \{1, 2, 3, 4\} outside 1\.\.2$"):
        AdmissibleFunction.from_dict(g, {a: 0})
    foreign = weak((1, 2), (0, 1), 2)
    with pytest.raises(ValueError,
                       match=r"^\{1, 2\^1\} is not in the building set of G\(1,1,4\)$"):
        AdmissibleFunction.from_dict(g, {a: 1, foreign: 1})


@pytest.mark.parametrize("rpn", UNIVERSE_GROUPS, ids="G({0[0]},{0[1]},{0[2]})".format)
def test_validation_reads_containment_from_the_universe(rpn):
    # AdmissibleFunction takes each member's strictly-inside set from the
    # universe that decided its support is nested
    g = GroupId(*rpn)
    for f in enumerate_admissible(g):
        support = tuple(a for a, _ in f.assignment)
        uni = _nested_universe(support, g)
        assert uni.elems == support
        for a, below in zip(uni.elems, uni.below):
            got = {uni.elems[j] for j in bits(below)}
            assert got == {c for c in uni.elems if c != a and contains(a, c)}, (rpn, f)


# ---------------------------------------------------------------------------
# brute-force Poincare polynomials


@pytest.mark.parametrize("r,p,n,expected", [
    (1, 1, 2, {0: 1}),
    (1, 1, 3, {0: 1, 1: 1}),
    (1, 1, 4, {0: 1, 1: 5, 2: 1}),
    (1, 1, 5, {0: 1, 1: 16, 2: 16, 3: 1}),
    (2, 1, 2, {0: 1, 1: 1}),
    (2, 1, 3, {0: 1, 1: 8, 2: 1}),
    (2, 2, 3, {0: 1, 1: 5, 2: 1}),
    (2, 1, 4, {0: 1, 1: 35, 2: 35, 3: 1}),
    (2, 2, 4, {0: 1, 1: 29, 2: 29, 3: 1}),
    (3, 1, 3, {0: 1, 1: 13, 2: 1}),
    (3, 3, 3, {0: 1, 1: 13, 2: 1}),
    (4, 1, 3, {0: 1, 1: 20, 2: 1}),
])
def test_poincare_bruteforce_values(r, p, n, expected):
    assert dict(poincare_bruteforce(GroupId(r, p, n)).as_pairs()) == expected


def test_poincare_bruteforce_invariants():
    for args in [(1, 1, 5), (2, 1, 4), (2, 2, 4), (3, 1, 3), (5, 1, 2)]:
        g = GroupId(*args)
        pq = poincare_bruteforce(g)
        assert pq[0] == 1
        assert pq.degree() <= g.n - 1
        assert all(c > 0 for _, c in pq.as_pairs())
        # compact smooth models have palindromic Betti numbers
        assert pq.is_palindromic()


@pytest.mark.parametrize("rpn", [(1, 1, 8), (3, 1, 5), (3, 3, 5), (2, 2, 6), (4, 1, 4),
                                 (5, 5, 4)], ids="G({0[0]},{0[1]},{0[2]})".format)
def test_poincare_bruteforce_matches_the_series(rpn):
    # the two routes near the reach of enumeration in each family
    g = GroupId(*rpn)
    assert poincare_bruteforce(g) == _poincare_series(g)


def test_poincare_bruteforce_guard():
    with pytest.raises(GuardExceeded):  # |B| = 10343
        poincare_bruteforce(GroupId(2, 1, 9))


def test_guard_refuses_before_building_the_set():
    # G(1,1,30) has about 2^30 building elements; the set is counted from
    # its sizes, so the refusal builds none of them
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "wondermodels", "poincare", "--method", "bruteforce",
         "--n", "30"], capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3 and proc.stdout == ""
    assert "guard violation" in proc.stderr
    assert elapsed < 1.0, elapsed


def test_enumeration_matches_poincare_count():
    for args in [(1, 1, 4), (2, 1, 3), (2, 2, 4)]:
        g = GroupId(*args)
        fs = list(enumerate_admissible(g))
        assert fs[0].assignment == ()
        assert len(fs) == len(set(fs)) == sum(
            c for _, c in poincare_bruteforce(g).as_pairs())
        # grading check: functions by total degree reproduce the coefficients
        for k, c in poincare_bruteforce(g).as_pairs():
            assert sum(1 for f in fs if sum(e for _, e in f.assignment) == k) == c


@pytest.mark.parametrize("r,p,n,count", [
    (1, 1, 5, 34),
    (2, 1, 3, 5),
    (2, 1, 4, 33),
    (2, 2, 4, 33),
    (3, 1, 3, 10),
])
def test_enumerate_weak_only_counts(r, p, n, count):
    g = GroupId(r, p, n)
    fs = list(enumerate_admissible(g, weak_only=True))
    assert len(fs) == count
    assert all(not a.is_strong for f in fs for a, _ in f.assignment)


def test_weak_only_is_a_restriction():
    g = GroupId(2, 2, 4)
    allf = set(enumerate_admissible(g))
    weakf = set(enumerate_admissible(g, weak_only=True))
    assert weakf < allf
    assert weakf == {f for f in allf
                     if all(not a.is_strong for a, _ in f.assignment)}


@pytest.mark.parametrize("r,p,n,count", [
    (1, 1, 3, 8),
    (1, 1, 4, 52),
    (2, 1, 3, 94),
    (2, 2, 3, 52),
    (2, 2, 4, 838),
    (3, 1, 3, 152),
    (3, 3, 3, 116),
])
def test_count_nested_sets(r, p, n, count):
    g = GroupId(r, p, n)
    assert sum(1 for _ in oracle_nested_masks(_NestedUniverse(g, building_set(g)))) == count


VETO_GROUPS = sorted({(r, p, n) for r in (1, 2, 3) for p in (1, r)
                      for n in (2, 3, 4)} | {(2, 2, 5)})


@pytest.mark.parametrize("weak_only", [False, True])
@pytest.mark.parametrize("rpn", VETO_GROUPS, ids="G({0[0]},{0[1]},{0[2]})".format)
def test_admissible_supports_are_the_nested_sets_with_d_at_least_2(rpn, weak_only):
    # Poincare polynomials cannot see an unsound veto (a support with a
    # member at d <= 1 contributes the empty product), so compare the
    # supports themselves with every nested set of the full building set
    # whose members all have d >= 2 by lattice.d_value
    g = GroupId(*rpn)
    want = {}
    full = _NestedUniverse(g, building_set(g))
    for mask in oracle_nested_masks(full):
        members = [e for i, e in enumerate(full.elems) if mask >> i & 1]
        if weak_only and any(e.is_strong for e in members):
            continue
        ds = {a: oracle_d_value([c for c in members if c != a and contains(a, c)], a, g)
              for a in members}
        if all(d >= 2 for d in ds.values()):
            want[frozenset(members)] = ds
    got = {}
    for uni, _, ds, _ in _admissible_supports(g, weak_only):
        support = frozenset(uni.elems[i] for i, _ in ds)
        assert support not in got
        got[support] = {uni.elems[i]: d for i, d in ds}
    assert got == want


@pytest.mark.parametrize("rpn", [(1, 1, 7), (2, 1, 6)], ids="G({0[0]},{0[1]},{0[2]})".format)
def test_validation_bounds_exponents_at_the_d_value_of_a_direct_sum(rpn):
    # a member with two or more maximal members inside: its exponent may
    # reach d - 1, by the join of everything inside, and not d.  These are
    # the smallest groups with such a member in an admissible support: two
    # members of dimension >= 2 inside one of d >= 2 need dimension 6
    g = GroupId(*rpn)
    cases = 0
    for uni, _, ds, _ in _admissible_supports(g):
        support = [uni.elems[i] for i, _ in ds]
        for a in support:
            inside = [c for c in support if c != a and contains(a, c)]
            tops = [c for c in inside if not any(x != c and contains(x, c) for x in inside)]
            if len(tops) < 2:
                continue
            d = oracle_d_value(inside, a, g)
            mapping = dict.fromkeys(support, 1)
            mapping[a] = d
            with pytest.raises(ValueError, match=re.escape(f"exponent {d} for {a} "
                                                           f"outside 1..{d - 1}")):
                AdmissibleFunction.from_dict(g, mapping)
            mapping[a] = d - 1
            f = AdmissibleFunction.from_dict(g, mapping)
            assert dict(f.assignment) == mapping
            cases += 1
    assert cases, rpn


# ---------------------------------------------------------------------------
# weighted partitions


def test_part_text():
    p = Part((2, 8, 11, 14), (0, 0, 0, 2), 2)
    assert p.text() == "{2, 8, 11, 14^2}^2"


def test_partition_sorts_parts():
    p1 = Part((4, 5, 12), (0, 3, 2), 1)
    p2 = Part((1, 2, 3), (0, 0, 0), 1)
    wp = WeightedPartition(6, (p1, p2))
    assert wp.parts == (p2, p1)


def test_encode_zero_function():
    f = AdmissibleFunction(GroupId(3, 1, 4), ())
    wp = encode_partition(f)
    assert wp == WeightedPartition(0, ())
    assert wp.text() == "{}"
    assert decode_partition(wp, GroupId(3, 1, 4)) == f


def test_encode_rejects_strong_support():
    g = GroupId(2, 1, 4)
    f = AdmissibleFunction.from_dict(g, {strong((1, 2, 3), 2): 1})
    with pytest.raises(ValueError):
        encode_partition(f)


def test_encode_single_block():
    g = GroupId(1, 1, 3)
    f = AdmissibleFunction.from_dict(g, {weak((1, 2, 3), (0, 0, 0), 1): 1})
    wp = encode_partition(f)
    assert wp == WeightedPartition(3, (Part((1, 2, 3), (0, 0, 0), 1),))
    assert decode_partition(wp, g) == f


def test_encode_isolated_leaf():
    # {1,2,3} inside G(1,1,4) leaves 4 isolated: artificial top {4,5}^0
    g = GroupId(1, 1, 4)
    f = AdmissibleFunction.from_dict(g, {weak((1, 2, 3), (0, 0, 0), 1): 1})
    wp = encode_partition(f)
    assert wp == WeightedPartition(5, (
        Part((1, 2, 3), (0, 0, 0), 1),
        Part((4, 5), (0, 0), 0),
    ))
    assert decode_partition(wp, g) == f


def test_worked_example_g4_1_13():
    """A chain of two weighted forests over 13 points with exponents
    1, 2, 1, 3; the encoding labels internal vertices 14..17 level by
    level (ties to the smaller least leaf) and hangs the two roots under
    an artificial top."""
    g = GroupId(4, 1, 13)
    a = weak((4, 5, 12), {4: 0, 5: 3, 12: 2}, 4)
    b = weak((2, 4, 5, 8, 11, 12), {2: 0, 4: 2, 5: 1, 8: 0, 11: 0, 12: 0}, 4)
    c = weak((7, 9, 10), {7: 0, 9: 3, 10: 2}, 4)
    d = weak((1, 3, 6, 7, 9, 10, 13),
             {1: 0, 3: 0, 6: 0, 7: 0, 9: 3, 10: 2, 13: 0}, 4)
    f = AdmissibleFunction.from_dict(g, {a: 1, b: 2, c: 1, d: 3})
    wp = encode_partition(f)
    assert wp.ground_size == 17
    assert wp.parts == (
        Part((1, 3, 6, 13, 15), (0, 0, 0, 0, 0), 3),
        Part((2, 8, 11, 14), (0, 0, 0, 2), 2),
        Part((4, 5, 12), (0, 3, 2), 1),
        Part((7, 9, 10), (0, 3, 2), 1),
        Part((16, 17), (0, 0), 0),
    )
    assert wp.text() == ("{1, 3, 6, 13, 15}^3 {2, 8, 11, 14^2}^2 "
                         "{4, 5^3, 12^2}^1 {7, 9^3, 10^2}^1 {16, 17}^0")
    assert decode_partition(wp, g) == f


def test_roundtrip_exhaustive_small():
    for args in [(1, 1, 4), (2, 1, 4), (2, 2, 4), (3, 1, 3)]:
        g = GroupId(*args)
        seen = set()
        for f in enumerate_admissible(g, weak_only=True):
            wp = encode_partition(f)
            assert wp not in seen, "encoding must be injective"
            seen.add(wp)
            assert decode_partition(wp, g) == f


def encode_by_elements(f):
    """Reference encoder over dicts keyed by member: each member's parent is
    the smallest other member containing it, found by contains over every
    pair, and each leaf's owner the smallest member holding it."""
    n = f.group.n
    elems = [a for a, _ in f.assignment]
    expo = dict(f.assignment)

    def parent_of(e):
        ups = [c for c in elems if c != e and contains(c, e)]
        return min(ups, key=lambda c: len(c.support)) if ups else None

    parent = {e: parent_of(e) for e in elems}
    kids = {e: [c for c in elems if parent[c] is e] for e in elems}
    leaf_owner = {}
    for i in range(1, n + 1):
        holders = [e for e in elems if i in e.support]
        if holders:
            leaf_owner[i] = min(holders, key=lambda c: len(c.support))

    level = {}

    def level_of(e):
        if e not in level:
            level[e] = 1 + max((level_of(c) for c in kids[e]), default=0)
        return level[e]

    ordered = sorted(elems, key=lambda e: (level_of(e), e.support[0]))
    label = {e: n + 1 + i for i, e in enumerate(ordered)}
    roots = [e for e in elems if parent[e] is None]
    isolated = [i for i in range(1, n + 1) if i not in leaf_owner]
    parts = []
    for e in elems:
        members = {i: e.weight_of(i) for i in e.support if leaf_owner[i] is e}
        for c in kids[e]:
            members[label[c]] = e.weight_of(c.support[0])
        ms = tuple(sorted(members))
        parts.append(Part(ms, tuple(members[m] for m in ms), expo[e]))
    if len(roots) != 1 or isolated:
        tops = sorted([label[e] for e in roots] + isolated)
        parts.append(Part(tuple(tops), (0,) * len(tops), 0))
    return WeightedPartition(n + len(parts) - 1, tuple(parts))


def test_encode_matches_the_reference_encoder():
    # every all-weak function of the selftest's round trip
    functions = 0
    for r in (1, 2, 3):
        for p in {1, r}:
            for n in range(2, 6):
                for f in enumerate_admissible(GroupId(r, p, n), weak_only=True):
                    if f.assignment:
                        assert encode_partition(f) == encode_by_elements(f), f.to_obj()
                    functions += 1
    assert functions == 3812


def test_admissible_function_joins_no_bottom(monkeypatch):
    # every function, not the all-weak ones alone: validation joins only
    # while its universe decides the support is nested
    g = GroupId(3, 1, 4)
    fs = list(enumerate_admissible(g))
    with_bottom = spy_joins(monkeypatch)
    assert [AdmissibleFunction(g, f.assignment) for f in fs] == fs
    assert len(fs) == 150 and not with_bottom, with_bottom


def test_ground_size_counts_parts():
    g = GroupId(2, 1, 4)
    for f in enumerate_admissible(g, weak_only=True):
        wp = encode_partition(f)
        if wp.parts:
            assert wp.ground_size == g.n + len(wp.parts) - 1


# ---------------------------------------------------------------------------
# malformed partitions


def dec(parts, ground, g=GroupId(1, 1, 5)):
    return decode_partition(WeightedPartition(ground, parts), g)


def test_malformed_empty_with_ground():
    with pytest.raises(MalformedPartition):
        dec((), 3)


def test_malformed_wrong_point_count():
    part = Part((1, 2, 3), (0, 0, 0), 1)
    with pytest.raises(MalformedPartition, match="group has"):
        dec((part,), 3, GroupId(1, 1, 4))


@pytest.mark.parametrize("weights,rpn", [((0,), (1, 1, 3)), ((0, 1), (2, 1, 3))])
def test_malformed_weights_not_aligned_with_members(weights, rpn):
    # a part with fewer weights than members would drop members when
    # decoded, or fail on a member it never saw
    with pytest.raises(MalformedPartition, match="^3 members but"):
        dec((Part((1, 2, 3), weights, 1),), 3, GroupId(*rpn))


def test_malformed_not_a_partition():
    with pytest.raises(MalformedPartition, match="partition"):
        dec((Part((1, 2, 4), (0, 0, 0), 1),), 4, GroupId(1, 1, 4))
    with pytest.raises(MalformedPartition, match="partition"):
        dec((Part((1, 2, 3), (0, 0, 0), 1), Part((3, 4, 5), (0, 0, 0), 1)),
            5, GroupId(1, 1, 4))


def test_malformed_two_zero_parts():
    with pytest.raises(MalformedPartition, match="exponent-0"):
        dec((Part((1, 2, 6), (0, 0, 0), 0), Part((3, 4, 5), (0, 0, 0), 0)), 6)


def test_malformed_zero_part_without_top_label():
    with pytest.raises(MalformedPartition, match="exponent-0"):
        dec((Part((4, 5, 6), (0, 0, 0), 1), Part((1, 2, 3), (0, 0, 0), 0)), 6)


def test_malformed_weighted_zero_part():
    with pytest.raises(MalformedPartition, match="unweighted"):
        dec((Part((3, 4, 5), (0, 0, 0), 1), Part((1, 2, 6), (0, 1, 0), 0)),
            6, GroupId(2, 1, 5))


def test_malformed_exponent_out_of_range():
    with pytest.raises(MalformedPartition, match="out of range"):
        dec((Part((1, 2, 3, 4), (0, 0, 0, 0), 3),), 4, GroupId(1, 1, 4))
    with pytest.raises(MalformedPartition, match="out of range"):
        dec((Part((1, 2, 3), (0, 0, 0), 2),), 3, GroupId(1, 1, 3))


@pytest.mark.parametrize("part,ground", [
    (Part((1, 2.0, 3), (0, 0, 0), 1), 3),  # passes the cover check, as 2.0 == 2
    (Part((True, 2, 3), (0, 0, 0), 1), 3),  # and so does True == 1
    (Part((1, 2, 3), (0, 1.5, 0), 1), 3),
    (Part((1, 2, 3), (0, "1", 0), 1), 3),
    (Part((1, 2, 3), (0, 1, 0), 1.0), 3),
    (Part((1, 2, 3), (0, 1, 0), 1), 3.0),
], ids=["member", "bool-member", "float-weight", "str-weight", "exponent", "ground-size"])
def test_malformed_non_integer_entries(part, ground):
    with pytest.raises(MalformedPartition, match="is not an integer"):
        dec((part,), ground, GroupId(2, 1, 3))


def test_malformed_non_integer_member_beside_int_members():
    # the parts sort by their members before decode_partition reads them;
    # a str member beside int members must not make that sort fail
    parts = (Part((1, 2, 3), (0, 0, 0), 1), Part(("4",), (0,), 0))
    wp = WeightedPartition(4, parts)
    assert wp.parts == parts
    assert WeightedPartition(4, parts[::-1]) == wp
    with pytest.raises(MalformedPartition, match="is not an integer"):
        decode_partition(wp, GroupId(1, 1, 3))


def test_malformed_bool_member_sorts_after_the_int_members():
    # as True == 1, the key of (True, 2) would sort it before (1, 3, 4)
    parts = (Part((1, 3, 4), (0, 0, 0), 1), Part((True, 2), (0, 0), 0))
    wp = WeightedPartition(4, parts[::-1])
    assert wp.parts == parts
    with pytest.raises(MalformedPartition, match="True is not an integer"):
        decode_partition(wp, GroupId(1, 1, 3))


def test_malformed_weight_out_of_range():
    with pytest.raises(MalformedPartition, match="weight outside"):
        dec((Part((1, 2, 3), (0, 5, 0), 1),), 3, GroupId(2, 1, 3))


def test_malformed_unnormalized_weights():
    with pytest.raises(MalformedPartition, match="not normalized"):
        dec((Part((1, 2, 3), (1, 0, 0), 1),), 3, GroupId(2, 1, 3))


def test_malformed_inadmissible_exponent_after_resolution():
    # both parts pass the local size check, but resolving the chain gives
    # the outer block d = 5 - 2 = 3, so exponent 3 is out of range
    with pytest.raises(MalformedPartition):
        dec((Part((1, 2, 3), (0, 0, 0), 1), Part((4, 5, 6), (0, 0, 0), 3)),
            6, GroupId(1, 1, 5))


def test_malformed_non_canonical_zero_function():
    # the zero function encodes as the empty partition, never as a single
    # exponent-0 part
    with pytest.raises(MalformedPartition, match="canonical"):
        dec((Part((1, 2, 3), (0, 0, 0), 0),), 3, GroupId(1, 1, 3))


def test_encode_cover_check_holds_under_python_O():
    # a forged function listing one block twice yields overlapping parts
    code = """
from wondermodels.cohomology import AdmissibleFunction, encode_partition
from wondermodels.lattice import BuildingElement, GroupId
assert not __debug__
a = BuildingElement.weak((1, 2, 3), (0, 0, 0), 1)
f = object.__new__(AdmissibleFunction)
object.__setattr__(f, "group", GroupId(1, 1, 3))
object.__setattr__(f, "assignment", ((a, 1), (a, 1)))
try:
    encode_partition(f)
except ArithmeticError:
    print("raised")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"]
