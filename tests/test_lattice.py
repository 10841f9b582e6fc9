import copy
import functools
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wondermodels import lattice
from wondermodels.cohomology import _admissible_supports, poincare_bruteforce
from wondermodels.selftest import _nested_groups
from wondermodels.lattice import (
    BuildingElement,
    GroupId,
    GuardExceeded,
    LatticeElement,
    Variant,
    _NestedUniverse,
    _normalize_block,
    bits,
    building_set,
    comparable,
    contains,
    d_value,
    element_in_building,
    in_building,
    is_nested,
    is_nested_def,
    join,
)

W = BuildingElement.weak
S = BuildingElement.strong


def oracle_nested_masks(uni):
    """Every nested subset of the universe as a bitmask, in lexicographic
    index order, by the incremental walk: a clique walk of uni.ok that
    applies the G(2,2,n) global rule as each element joins.  A nested set
    holds at most one twin pair, and each of its strong members contains
    that pair's support.  The oracle for walks over building sets that
    hold twins, which nested_masks refuses."""
    strong = sum(1 << j for j, e in enumerate(uni.elems) if e.is_strong)
    covers = [0] * len(uni.elems)  # bit j: strong elems[j] contains elems[i]
    for j in bits(strong):
        for i in bits(uni.below[j]):
            covers[i] |= 1 << j

    def dfs(cand, mask, pair):  # pair: a member of the set's twin pair, or -1
        yield mask
        for i in bits(cand):
            cand ^= 1 << i
            twin = uni.partner[i]
            if twin >= 0 and mask >> twin & 1:
                if pair >= 0 or mask & strong & ~covers[i]:
                    continue
                new_pair = i
            elif pair >= 0 and strong >> i & 1 and not covers[pair] >> i & 1:
                continue
            else:
                new_pair = pair
            yield from dfs(cand & uni.ok[i], mask | 1 << i, new_pair)

    yield from dfs((1 << len(uni.elems)) - 1, 0, -1)


def view_dim(v):
    """The dimension of a lattice view: a zero set on t coordinates has
    rank t, a block on t coordinates rank t-1."""
    return len(v.zeros) + sum(len(s) - 1 for s, _ in v.blocks)


def oracle_d_value(h, b, g):
    """dim b minus the dimension of the join of h, members of the building
    set of g strictly inside b, by folding join over their lattice views."""
    assert element_in_building(b, g) and all(
        element_in_building(x, g) and x != b and contains(b, x) for x in h), (h, b)
    views = [x.as_lattice() for x in h]
    return b.dimension() - (view_dim(functools.reduce(join, views)) if views else 0)


def oracle_building_elements(g):
    """The irreducible subspaces for g, unsorted, size by size: the zero
    sets from min_zero_set points on, then the blocks on every support."""
    n, r = g.n, g.r
    for size in range(g.min_zero_set, n + 1):
        for coords in itertools.combinations(range(1, n + 1), size):
            yield BuildingElement.strong(coords, r)
    for size in range(2, n + 1):
        for coords in itertools.combinations(range(1, n + 1), size):
            for tail in itertools.product(range(r), repeat=size - 1):
                yield BuildingElement("weak", coords, (0,) + tail, r)


def nested_sets(g):
    """Every nested subset of the building set of g, as an element tuple."""
    uni = _NestedUniverse(g, building_set(g))
    for mask in oracle_nested_masks(uni):
        yield tuple(e for i, e in enumerate(uni.elems) if mask >> i & 1)


def test_group_id_validation_and_variant():
    assert GroupId(1, 1, 3).variant is Variant.TYPE_A
    assert GroupId(2, 1, 3).variant is Variant.FULL_MONOMIAL
    assert GroupId(4, 2, 3).variant is Variant.FULL_MONOMIAL
    assert GroupId(2, 2, 3).variant is Variant.RR
    with pytest.raises(ValueError):
        GroupId(4, 3, 3)  # p must divide r
    with pytest.raises(ValueError):
        GroupId(2, 1, 1)  # n >= 2


@pytest.mark.parametrize("rpn", [(2, 1, 3.5), (2.0, 1, 3), (2, 1.0, 3), (2, 1, 3.0),
                                 (True, 1, 3), ("2", 1, 3), (2, 1, None)])
def test_group_id_refuses_parameters_that_are_not_ints(rpn):
    # 2.0 or True would equal the int group, hash and all, and share its
    # cached building set; 3.5 would fail only inside building_set
    with pytest.raises(ValueError, match=r"bad group parameters"):
        GroupId(*rpn)
    with pytest.raises(ValueError, match=r"bad group parameters"):
        GroupId(**dict(zip("rpn", rpn)))


def test_building_element_normalization():
    e = W((2, 1), {1: 1, 2: 0}, 3)
    assert e.support == (1, 2)
    assert e.weights == (0, 2)  # shifted so the smallest coordinate is 0
    assert e.dimension() == 1
    assert S((3, 1), 2).dimension() == 2
    assert str(W((3, 1), (0, 1), 3)) == str(W((3, 1), {3: 0, 1: 1}, 3)) == "{1, 3^2}"
    with pytest.raises(ValueError):
        W((1,), (0,), 2)


@pytest.mark.parametrize("coords", list(itertools.permutations((1, 3, 5))))
def test_weak_weights_follow_the_coordinates_as_given(coords):
    # a weight sequence pairs with coords in the order given, as a dict does
    by_coord = {1: 0, 3: 2, 5: 1}
    seq = W(coords, [by_coord[i] for i in coords], 4)
    assert seq == W(coords, by_coord, 4) == W((1, 3, 5), (0, 2, 1), 4)


def test_weak_refuses_a_repeated_coordinate():
    with pytest.raises(ValueError, match="repeated coordinate"):
        W((1, 2, 1), (0, 1, 0), 3)
    with pytest.raises(ValueError, match="repeated coordinate"):
        W((2, 1, 2), {1: 0, 2: 1}, 3)


def test_weak_refuses_a_weight_dict_without_a_support_coordinate():
    with pytest.raises(ValueError, match="^no weight for coordinate 3$"):
        W((1, 2, 3), {1: 0, 2: 1}, 3)


def test_weak_refuses_a_weight_for_a_coordinate_outside_the_support():
    with pytest.raises(ValueError, match="^weight for coordinate 7 outside the support$"):
        W((1, 2), {1: 0, 2: 1, 7: 3}, 3)


@pytest.mark.parametrize("weights", [{1: 0, 2: 1.5}, (0, 1.5), {1: 0.0, 2: 1}, (0, "1"),
                                     (0, True), {1: 0, 2: True}],  # True == 1
                         ids=repr)
def test_weak_refuses_a_weight_that_is_not_an_integer(weights):
    with pytest.raises(ValueError, match="is not an integer$"):
        W((1, 2), weights, 3)


@pytest.mark.parametrize("coords", [(True,), (True, 2), (1.0, 2)], ids=repr)
def test_strong_refuses_a_coordinate_that_is_not_an_int(coords):
    # True would print as {0,True} and stand for the coordinate 1
    with pytest.raises(ValueError, match="^strong element needs a nonempty set of int"):
        S(coords, 2)


@pytest.mark.parametrize("coords", [(True, 2), (1.0, 2), (1, "2")], ids=repr)
def test_weak_refuses_a_coordinate_that_is_not_an_int(coords):
    with pytest.raises(ValueError, match="^weak element needs >= 2 int coordinates"):
        W(coords, (0, 1), 2)


@pytest.mark.parametrize("x", [True, 1.0], ids=repr)
def test_a_coordinate_that_is_not_an_int_is_not_canonical(x):
    # the element equals its int spelling, hash and all, but is no member:
    # True would pass for the coordinate 1, and 1.0 has no bit in the mask
    g = GroupId(2, 1, 2)
    e = BuildingElement("weak", (x, 2), (0, 1), 2)
    assert e == W((1, 2), (0, 1), 2) and hash(e) == hash(W((1, 2), (0, 1), 2))
    assert not e.is_canonical
    assert not element_in_building(e, g)
    with pytest.raises(ValueError, match="is not in the building set"):
        is_nested((e,), g)
    assert is_nested((W((1, 2), (0, 1), 2),), g)


def test_text_forms():
    assert S((1, 3), 2).text() == "{0,1,3}"
    assert W((1, 2, 4), (0, 1, 3), 4).text() == "{1, 2^1, 4^3}"
    assert W((1, 2), (0, 0), 1).text() == "{1, 2}"


# counts follow from the construction: 2^n - 1 zero sets (full monomial)
# and sum_t C(n,t) r^(t-1) blocks
@pytest.mark.parametrize("rpn,size", [
    ((1, 1, 3), 4), ((1, 1, 4), 11), ((1, 1, 6), 57),
    ((2, 1, 2), 5), ((2, 1, 3), 17), ((2, 1, 4), 51),
    ((3, 1, 3), 25), ((3, 1, 4), 96), ((4, 1, 3), 35),
    ((2, 2, 3), 11), ((2, 2, 4), 41), ((3, 3, 3), 22), ((3, 3, 4), 92),
    ((7, 1, 5), 4707),  # the guard admits up to 5000
])
def test_building_set_sizes(rpn, size):
    assert len(building_set(GroupId(*rpn))) == size


def test_building_set_is_sorted_and_deterministic():
    bs = building_set(GroupId(2, 2, 3))
    assert list(bs) == sorted(bs)
    assert all(e.is_strong for e in bs[:1])  # only {0,1,2,3} survives r=2 size>=3
    assert bs[0].support == (1, 2, 3)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_building_set_is_the_oracle_or_refused(r):
    # generated from the membership rule, size by size; a set beyond the
    # guard is refused, whatever its group
    for p in [p for p in range(1, r + 1) if r % p == 0]:
        for n in range(2, 7):
            g = GroupId(r, p, n)
            want = tuple(sorted(oracle_building_elements(g)))
            if len(want) > lattice.BUILDING_SET_GUARD:
                with pytest.raises(GuardExceeded):
                    building_set(g)
            else:
                assert building_set(g) == want, g


@pytest.mark.parametrize("rpn,size", [((1, 1, 13), 8178), ((2, 1, 9), 10343)],
                         ids=["G(1,1,13)", "G(2,1,9)"])
def test_building_set_refuses_beyond_the_guard_before_building(rpn, size, monkeypatch):
    # the set is counted from its sizes, so no element is built to refuse it
    g = GroupId(*rpn)
    assert sum(1 for _ in oracle_building_elements(g)) == size
    built = []
    post_init = BuildingElement.__post_init__
    monkeypatch.setattr(BuildingElement, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    with pytest.raises(GuardExceeded, match=r"more than 5000 elements"):
        building_set(g)
    assert built == []


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("same_p", [False, True], ids=["p=1", "p=r"])
def test_two_blocks_on_one_support_nested_by_the_definition(r, same_p):
    # the twins rule of the universe build, held against the definition on
    # every pair of distinct blocks on one 2- or 3-point support
    g = GroupId(r, r if same_p else 1, 4)
    by_support = {}
    for e in building_set(g):
        if not e.is_strong and len(e.support) <= 3:
            by_support.setdefault(e.support, []).append(e)
    pairs = 0
    for blocks in by_support.values():
        for a, b in itertools.combinations(blocks, 2):
            assert is_nested({a, b}, g) == is_nested_def({a, b}, g), (a, b)
            pairs += 1
    assert pairs == 6 * r * (r - 1) // 2 + 4 * r * r * (r * r - 1) // 2


def test_type_a_has_no_strong_elements():
    assert all(not e.is_strong for e in building_set(GroupId(1, 1, 4)))


def test_contains_rules():
    r = 3
    big = W((1, 2, 3), (0, 1, 2), r)
    assert contains(big, W((2, 3), (0, 1), r))     # 1-2 = -1 = 2 shift consistent
    assert not contains(big, W((2, 3), (0, 2), r))
    assert contains(S((1, 2, 3), r), big)
    assert contains(S((1, 2, 3), r), S((1, 3), r))
    assert not contains(big, S((1, 2), r))          # zero sets never sit in a block
    assert comparable(big, big)


def contains_by_sets(outer, inner):
    """Reference containment: supports as sets, weights by position lookup."""
    if outer.is_strong:
        return set(inner.support) <= set(outer.support)
    if inner.is_strong:
        return False
    if not set(inner.support) <= set(outer.support):
        return False
    r = outer.r
    shift = (outer.weight_of(inner.support[0]) - inner.weights[0]) % r
    return all((outer.weight_of(i) - inner.weight_of(i)) % r == shift
               for i in inner.support)


def element_in_building_by_sets(e, g):
    """Reference membership: coordinates as sets, on a freshly built view."""
    view = (LatticeElement(e.r, e.support, ()) if e.is_strong
            else LatticeElement(e.r, (), ((e.support, e.weights),)))
    return (e.r == g.r and set(e.support) <= set(range(1, g.n + 1))
            and all(0 <= a < g.r for a in e.weights)
            and in_building(view, g))


SMALL_GROUPS = [GroupId(r, p, n) for r in (1, 2, 3, 4) for p in range(1, r + 1)
                if r % p == 0 for n in (2, 3, 4)]


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=str)
def test_predicates_match_the_set_based_reference(g):
    elems = building_set(g)
    for a, b in itertools.product(elems, repeat=2):
        assert contains(a, b) == contains_by_sets(a, b), (a, b)
    r, n = g.r, g.n
    outside = [W((1, 2), (0, 0), r + 1), S((1,), r + 1), W((1, n + 1), (0, 0), r),
               S((n + 1,), r), S((1, n + 1), r), BuildingElement("strong", (0, 1), (), r),
               BuildingElement("weak", (1, 2), (0, r), r)]
    if g.min_zero_set > 1:
        outside.append(S(range(1, min(g.min_zero_set, n + 1)), r))
    for e in elems + tuple(outside):
        assert element_in_building(e, g) == element_in_building_by_sets(e, g), e
    assert all(element_in_building(e, g) for e in elems)
    assert not any(element_in_building(e, g) for e in outside)


ORACLE_GROUPS = [GroupId(r, p, n) for r in (1, 2, 3) for p in sorted({1, r})
                 for n in (2, 3, 4, 5)]


def one_component_elements(r, n):
    """Every canonical zero set and block of r on coordinates 1..n: the
    building set's candidates, members or not."""
    for size in range(1, n + 1):
        for coords in itertools.combinations(range(1, n + 1), size):
            yield S(coords, r)
            if size >= 2:
                for tail in itertools.product(range(r), repeat=size - 1):
                    yield W(coords, (0,) + tail, r)


@pytest.mark.parametrize("g", ORACLE_GROUPS, ids=str)
def test_element_in_building_is_in_building_of_the_view(g):
    # element_in_building reads the element's facts; in_building reads a
    # lattice view; both state the one-component rule through one helper
    members = set(building_set(g))
    for e in building_set(g):
        assert element_in_building(e, g) and in_building(e.as_lattice(), g), e
    for e in one_component_elements(g.r, g.n):
        assert element_in_building(e, g) == in_building(e.as_lattice(), g) \
            == (e in members), e
    r, n = g.r, g.n
    unnormalised = BuildingElement("weak", (1, 2), (1, 1), r)
    forged = [W((1, 2), (0, 1 % r), r + 1), S((1, 2), r + 1),  # wrong r
              W((1, n + 1), (0, 0), r), S((n + 1,), r),         # a coordinate above n
              unnormalised]
    if g.variant is Variant.RR and r == 2:
        forged.append(S((1, 2), r))                             # a size-2 zero set
    for e in forged:
        assert not element_in_building(e, g), e
    # the view of the unnormalised block is one component all the same
    assert in_building(unnormalised.as_lattice(), g)


def test_lattice_element_refuses_overlaps():
    with pytest.raises(ValueError):
        LatticeElement(2, (), (((1, 2), (0, 0)), ((2, 3), (0, 1))))
    with pytest.raises(ValueError):
        LatticeElement(2, (2,), (((1, 2), (0, 1)),))
    with pytest.raises(ValueError):
        LatticeElement(3, (5,), (((1, 2), (0, 1)), ((4, 5), (0, 0))))
    # one component, or disjoint ones, stand
    assert LatticeElement(2, (), (((1, 2), (0, 1)),)).component_count() == 1
    assert LatticeElement(2, (1, 2), ()).component_count() == 1
    assert LatticeElement(2, (3,), (((1, 2), (0, 1)),)).component_count() == 2


@pytest.mark.parametrize("rpn", [(1, 1, 4), (2, 1, 3), (2, 2, 4), (3, 3, 3)],
                         ids="G({0[0]},{0[1]},{0[2]})".format)
def test_stored_mask_and_view_leave_identity_alone(rpn):
    g = GroupId(*rpn)
    bs = building_set(g)
    for e in bs:
        fresh = BuildingElement(e.kind, e.support, e.weights, e.r)
        assert e.mask == sum(1 << x for x in e.support) and e.is_canonical
        assert e.as_lattice() is e.as_lattice()
        assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
        assert not e < fresh and not fresh < e and e <= fresh
        # the facts live in slots, with no instance dict, and copies rebuild them
        assert not hasattr(e, "__dict__")
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin == e and twin.r == e.r and twin.mask == e.mask
            assert twin.is_canonical and twin.as_lattice() == e.as_lattice()
    assert list(BuildingElement.FIELDS) == ["kind", "support", "weights", "r"]
    # read views and masks on the cached set, sort a fresh one beside it
    assert bs == tuple(sorted(oracle_building_elements(g)))
    assert list(bs) == sorted(bs, key=lambda e: (e.kind, e.support, e.weights))


def test_join_merges_consistent_blocks():
    r = 3
    a = W((1, 2), (0, 2), r).as_lattice()
    b = W((2, 3), (0, 1), r).as_lattice()
    j = join(a, b)
    assert j.zeros == () and j.blocks == (((1, 2, 3), (0, 2, 0)),)
    assert view_dim(j) == 2


def test_join_absorbs_inconsistency_into_zeros():
    r = 2
    a = W((1, 2), (0, 0), r).as_lattice()
    b = W((1, 2), (0, 1), r).as_lattice()
    j = join(a, b)
    assert j.zeros == (1, 2) and j.blocks == ()


def test_join_absorbs_blocks_touching_zeros():
    r = 2
    a = LatticeElement(r, (2,), ())
    b = W((1, 2), (0, 1), r).as_lattice()
    j = join(a, b)
    assert j.zeros == (1, 2)
    # and cascades: a third block overlapping the new zeros is zeroed too
    c = W((2, 3), (0, 0), r).as_lattice()
    assert join(j, c).zeros == (1, 2, 3)


def spy_joins(monkeypatch):
    """Wrap lattice.join; the list returned collects the operand pairs of
    every call that has the bottom on either side."""
    with_bottom = []
    real = lattice.join

    def spy(a, b):
        if not a.component_count() or not b.component_count():
            with_bottom.append((a, b))
        return real(a, b)

    monkeypatch.setattr(lattice, "join", spy)
    return with_bottom


def test_is_nested_def_joins_no_bottom(monkeypatch):
    # every good-pair clique: outside G(2,2,n) the pair table marks a pair
    # good exactly when it is comparable or joins outside the building set
    g = GroupId(2, 1, 3)
    uni = _NestedUniverse(g, building_set(g))
    with_bottom = spy_joins(monkeypatch)
    cliques = nested = 0
    stack = [((1 << len(uni.elems)) - 1, 0)]
    while stack:
        cand, mask = stack.pop()
        nested += is_nested_def([uni.elems[i] for i in bits(mask)], g)
        cliques += 1
        for i in bits(cand):
            cand ^= 1 << i
            stack.append((cand & uni.ok[i], mask | 1 << i))
    assert (cliques, nested) == (94, 94) and not with_bottom, with_bottom


def test_good_pairs_of_nested_equivalence_are_the_join_rule():
    # check_nested_equivalence reads its good-pair adjacency from each
    # pair's is_nested_def verdict; a pair is good when it is comparable
    # or joins outside the building set
    for g in _nested_groups():
        for a, b in itertools.combinations(building_set(g), 2):
            good = comparable(a, b) or \
                not in_building(join(a.as_lattice(), b.as_lattice()), g)
            assert is_nested_def((a, b), g) == good, (g, a, b)


def test_in_building_by_variant():
    z2 = LatticeElement(2, (1, 2), ())
    z3 = LatticeElement(2, (1, 2, 3), ())
    blk = W((1, 2), (0, 1), 2).as_lattice()
    two = LatticeElement(2, (3,), ((((1, 2)), (0, 1)),))
    assert not in_building(z2, GroupId(2, 2, 4))
    assert in_building(z3, GroupId(2, 2, 4))
    assert in_building(z2, GroupId(2, 1, 4))
    assert in_building(blk, GroupId(2, 2, 4))
    assert not in_building(two, GroupId(2, 1, 4))
    z2r3 = LatticeElement(3, (1, 2), ())
    assert in_building(z2r3, GroupId(3, 3, 4))


def test_is_nested_rejects_foreign_elements():
    with pytest.raises(ValueError):
        is_nested({W((1, 2), (0, 1), 2)}, GroupId(1, 1, 3))


MALFORMED = [
    BuildingElement("weak", (1, 2), (1, 0), 3),     # W((1, 2), (0, 2), 3) unnormalised
    BuildingElement("weak", (1, 2, 3), (0, 1), 3),  # fewer weights than points
    BuildingElement("weak", (2, 1), (0, 1), 3),     # unsorted support
    BuildingElement("weak", (1, 2), (0, 1.5), 3),   # a weight that is no int
    BuildingElement("weak", (1, 2), (0, 1.0), 3),   # W((1, 2), (0, 1), 3) spelt in floats
    BuildingElement("strong", (1, 2), (0, 0), 3),   # a zero set with weights
    BuildingElement("strong", (2, 1), (), 3),       # unsorted support
    BuildingElement("strong", (1, 1, 2), (), 3),    # repeated coordinate
]


@pytest.mark.parametrize("bad", MALFORMED, ids=repr)
def test_predicates_refuse_elements_out_of_canonical_form(bad):
    # a second spelling of a subspace would make one subspace two members:
    # is_nested and is_nested_def once disagreed on the first pair below
    g = GroupId(3, 1, 3)
    assert not element_in_building(bad, g)
    for s in ([bad], [bad, W((1, 2), (0, 2), 3)]):
        with pytest.raises(ValueError):
            is_nested(s, g)
        with pytest.raises(ValueError):
            is_nested_def(s, g)


def test_is_nested_type_a_basics():
    g = GroupId(1, 1, 4)
    a, b = W((1, 2), (0, 0), 1), W((2, 3), (0, 0), 1)
    c = W((1, 2, 3), (0, 0, 0), 1)
    d = W((3, 4), (0, 0), 1)
    # overlapping blocks whose union is again a block: dimensions add up but
    # the join stays in the building set, so not nested
    assert not is_nested({a, b}, g)
    assert is_nested({a, c}, g)
    assert is_nested({a, d}, g)
    assert is_nested_def({a, d}, g) and not is_nested_def({a, b}, g)


def test_is_nested_strong_chain():
    g = GroupId(2, 1, 3)
    assert not is_nested({S((1,), 2), S((2,), 2)}, g)
    assert is_nested({S((1,), 2), S((1, 2), 2)}, g)


def test_rr2_antiparallel_global_rule():
    g = GroupId(2, 2, 4)
    p12 = {W((1, 2), (0, 0), 2), W((1, 2), (0, 1), 2)}
    p34 = {W((3, 4), (0, 0), 2), W((3, 4), (0, 1), 2)}
    assert is_nested(p12, g) and is_nested_def(p12, g)
    assert not is_nested(p12 | p34, g) and not is_nested_def(p12 | p34, g)
    assert is_nested(p12 | {S((1, 2, 3), 2)}, g)
    assert not is_nested(p12 | {S((2, 3, 4), 2)}, g)
    # disjoint strong + antiparallel pair: only the global rule catches it,
    # every pair is fine (needs n = 5)
    g5 = GroupId(2, 2, 5)
    trio = {W((1, 2), (0, 0), 2), W((1, 2), (0, 1), 2), S((3, 4, 5), 2)}
    for x, y in itertools.combinations(trio, 2):
        assert is_nested({x, y}, g5)
    assert not is_nested(trio, g5)
    assert not is_nested_def(trio, g5)


@pytest.mark.parametrize("rpn", [(2, 1, 4), (3, 3, 4)])
def test_twin_blocks_are_not_nested_where_their_zero_set_is_in_the_set(rpn):
    # the G(2,2,n) twins are nested only because their join, the 2-point
    # zero set {1,2}, lies outside the building set; here it lies inside
    g = GroupId(*rpn)
    twins = {W((1, 2), (0, 0), g.r), W((1, 2), (0, 1), g.r)}
    assert not is_nested(twins, g)
    assert not is_nested_def(twins, g)


@pytest.mark.parametrize("rpn", [(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 2, 2), (2, 2, 3)])
def test_is_nested_agrees_with_definition_exhaustively(rpn):
    # tiny groups: literally every subset of the building set
    g = GroupId(*rpn)
    bs = building_set(g)
    for k in range(len(bs) + 1):
        for sub in itertools.combinations(bs, k):
            assert is_nested(set(sub), g) == is_nested_def(set(sub), g), sub


@pytest.mark.parametrize("rpn,count", [
    ((1, 1, 2), 2), ((1, 1, 3), 8), ((2, 2, 2), 4), ((2, 1, 2), 10),
])
def test_nested_set_counts(rpn, count):
    assert sum(1 for _ in nested_sets(GroupId(*rpn))) == count


def test_enumerate_nested_sets_order_and_content():
    g = GroupId(1, 1, 3)
    out = list(nested_sets(g))
    assert len(out[0]) == 0  # empty set first
    assert out == sorted(out)  # lexicographic over the sorted building set
    seen = set(out)
    assert len(seen) == len(out)  # each exactly once
    for ns in out:
        assert is_nested(set(ns), g)


def test_nested_masks_refuses_a_universe_with_twins():
    # the clique walk does not apply the G(2,2,n) global rule, so it walks
    # no universe the rule could cut
    g = GroupId(2, 2, 3)
    twins = (W((1, 2), (0, 0), 2), W((1, 2), (0, 1), 2))
    for elems in (building_set(g), twins):
        with pytest.raises(ValueError, match="twins"):
            _NestedUniverse(g, elems).nested_masks()
    # one block of the pair is no twin; the walk goes ahead
    assert list(_NestedUniverse(g, twins[:1]).nested_masks()) == [0, 1]


def test_is_nested_on_every_clique_is_the_incremental_walk():
    # the global rule, stated once for the whole set, cuts the cliques of
    # the pair table that the incremental walk of the oracle never reaches
    g = GroupId(2, 2, 5)
    uni = _NestedUniverse(g, building_set(g))
    walked = set(oracle_nested_masks(uni))
    cliques = nested = 0
    stack = [((1 << len(uni.elems)) - 1, 0)]
    while stack:
        cand, mask = stack.pop()
        members = [uni.elems[i] for i in bits(mask)]
        assert is_nested(members, g) == (mask in walked), members
        cliques += 1
        nested += mask in walked
        for i in bits(cand):
            cand ^= 1 << i
            stack.append((cand & uni.ok[i], mask | 1 << i))
    assert (cliques, nested, len(walked)) == (17544, 16964, 16964)


@pytest.mark.parametrize("rpn", [(1, 1, 5), (2, 1, 4), (3, 1, 3), (3, 3, 4)],
                         ids="G({0[0]},{0[1]},{0[2]})".format)
def test_nested_masks_is_the_oracle_without_twins(rpn):
    # outside G(2,2,n) the global rule is void, and the clique walk is the
    # whole nested-set walk
    g = GroupId(*rpn)
    uni = _NestedUniverse(g, building_set(g))
    assert list(uni.nested_masks()) == list(oracle_nested_masks(uni))


def test_enumerate_nested_sets_guard():
    # the building-set guard of the nested-set walk, reached through its caller
    with pytest.raises(GuardExceeded):  # |B| = 5581
        poincare_bruteforce(GroupId(3, 1, 7))


def universe_d_value(h, b, g):
    """lattice.d_value of b in a universe over h and then b, with tops the
    maximal members of h, held against the join of h by the oracle."""
    h = tuple(h)
    uni = _NestedUniverse(g, h + (b,))
    under = 0  # the members of h inside another member of h
    for j in range(len(h)):
        under |= uni.below[j]
    d = d_value(uni, len(h), ((1 << len(h)) - 1) & ~under)
    assert d == oracle_d_value(h, b, g), (h, b)
    return d


def test_d_value():
    g = GroupId(1, 1, 4)
    t = W((1, 2, 3), (0, 0, 0), 1)
    q = W((1, 2, 3, 4), (0, 0, 0, 0), 1)
    assert universe_d_value((), t, g) == 2
    assert universe_d_value((), q, g) == 3
    assert universe_d_value((t,), q, g) == 1
    assert universe_d_value((W((1, 2), (0, 0), 1),), q, g) == 2
    assert universe_d_value((W((1, 2), (0, 0), 1), W((3, 4), (0, 0), 1)), q, g) == 1
    # a member inside a maximal one takes nothing more away
    assert universe_d_value((W((1, 2), (0, 0), 1), t), q, g) == 1


def test_d_value_with_strong_elements():
    g = GroupId(2, 1, 3)
    big = S((1, 2, 3), 2)
    assert universe_d_value((), big, g) == 3
    assert universe_d_value((S((1,), 2),), big, g) == 2
    assert universe_d_value((W((1, 2), (0, 1), 2),), big, g) == 2
    # zero set {1} joined with the block {2,3} spans rank 2
    assert universe_d_value((S((1,), 2), W((2, 3), (0, 0), 2)), big, g) == 1


def test_nested_antichain_joins_are_dimension_additive():
    # spot-check across a few groups: incomparable pairs inside nested sets
    # span direct sums
    for rpn in [(1, 1, 4), (2, 1, 3), (2, 2, 4)]:
        g = GroupId(*rpn)
        for ns in nested_sets(g):
            for a, b in itertools.combinations(ns, 2):
                if not comparable(a, b):
                    j = join(a.as_lattice(), b.as_lattice())
                    assert view_dim(j) == a.dimension() + b.dimension()


D_VALUE_GROUPS = sorted({(r, p, n) for r in (1, 2, 3) for p in (1, r)
                         for n in (2, 3, 4)} | {(4, 2, 3), (4, 4, 3), (2, 2, 5)})


@pytest.mark.parametrize("rpn", D_VALUE_GROUPS, ids="G({0[0]},{0[1]},{0[2]})".format)
def test_d_values_from_maximal_members_match_the_join(rpn):
    # d_value sums the dimensions of the maximal members inside each
    # element; the oracle joins all of them in the lattice
    g = GroupId(*rpn)
    uni = _NestedUniverse(g, building_set(g))
    for mask in oracle_nested_masks(uni):
        for i in bits(mask):
            inside = mask & uni.below[i]
            inner = 0
            for j in bits(inside):
                inner |= uni.below[j]
            tops = inside & ~inner
            want = oracle_d_value([uni.elems[j] for j in bits(inside)], uni.elems[i], g)
            assert d_value(uni, i, tops) == want, \
                (rpn, [uni.elems[j] for j in bits(mask)], uni.elems[i])


def join_by_restart(a, b):
    """Reference join: merge or zero one pair of blocks at a time and start
    over after every change."""
    r = a.r
    zeros = set(a.zeros) | set(b.zeros)
    blocks = [dict(zip(s, w)) for s, w in a.blocks + b.blocks]
    changed = True
    while changed:
        changed = False
        for i, blk in enumerate(blocks):
            if zeros & blk.keys():
                zeros |= blk.keys()
                del blocks[i]
                changed = True
                break
        if changed:
            continue
        for i, j in itertools.combinations(range(len(blocks)), 2):
            bi, bj = blocks[i], blocks[j]
            shared = bi.keys() & bj.keys()
            if not shared:
                continue
            shifts = {(bi[x] - bj[x]) % r for x in shared}
            if len(shifts) == 1:
                shift = shifts.pop()
                merged = dict(bi)
                for x, wx in bj.items():
                    merged[x] = (wx + shift) % r
                blocks[j] = merged
                del blocks[i]
            else:
                zeros |= bi.keys() | bj.keys()
                del blocks[j]
                del blocks[i]
            changed = True
            break
    norm = tuple(sorted(_normalize_block(blk, r) for blk in blocks))
    return LatticeElement(r, tuple(sorted(zeros)), norm)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_join_matches_reference_on_building_element_pairs(r):
    # also the two facts the universe build screens with: a join lives on
    # the union of the supports, and strict containment raises dimension
    elems = sorted({e for p in range(1, r + 1) if r % p == 0 for n in (2, 3, 4)
                    for e in building_set(GroupId(r, p, n))})
    for a, b in itertools.product(elems, repeat=2):
        joined = join(a.as_lattice(), b.as_lattice())
        assert joined == join_by_restart(a.as_lattice(), b.as_lattice()), (a, b)
        assert view_dim(joined) <= len(set(a.support) | set(b.support)), (a, b)
        if a != b and contains(a, b):
            assert b.dimension() < a.dimension(), (a, b)


@st.composite
def element_chains(draw):
    """r <= 5 and 3 to 7 building elements on at most 6 coordinates."""
    r = draw(st.integers(1, 5))
    elems = []
    for _ in range(draw(st.integers(3, 7))):
        support = sorted(draw(st.sets(st.integers(1, 6), min_size=1 if r > 1 else 2)))
        if len(support) == 1 or (r > 1 and draw(st.booleans())):
            elems.append(S(support, r))
        else:
            tail = draw(st.lists(st.integers(0, r - 1), min_size=len(support) - 1,
                                 max_size=len(support) - 1))
            elems.append(W(support, [0, *tail], r))
    return elems, draw(st.integers(1, len(elems) - 1))


@settings(max_examples=300, deadline=None)
@given(element_chains())
# {0,1} with blocks {2,3}, {4,5} joined to {1,2^1}, {3,4^1}, {5,6}
@example(([S((1,), 3), W((2, 3), (0, 1), 3), W((4, 5), (0, 2), 3),
           W((1, 2), (0, 1), 3), W((3, 4), (0, 1), 3), W((5, 6), (0, 0), 3)], 3))
def test_join_chains_match_reference(chain):
    # fold each side of the split with both joins, then join the two
    # composites: a zero set and several blocks on each side
    elems, split = chain
    r = elems[0].r
    sides = []
    for part in (elems[:split], elems[split:]):
        acc = ref = part[0].as_lattice()
        for e in part[1:]:
            acc, ref = join(acc, e.as_lattice()), join_by_restart(ref, e.as_lattice())
            assert acc == ref, (part, e)
        sides.append(acc)
    left, right = sides
    assert join(left, right) == join_by_restart(left, right) == join(right, left)
    assert join(left, right) == functools.reduce(join, [e.as_lattice() for e in elems])


def universe_by_pairs(g, elems):
    """Reference pair table: contains both ways on every pair, then join of
    fresh lattice views, asked for membership and for a direct sum; the
    G(2,2,n) twins straight from the supports."""
    nb = len(elems)
    ok, below = [0] * nb, [0] * nb
    for i, j in itertools.combinations(range(nb), 2):
        a, b = elems[i], elems[j]
        if contains(a, b):
            below[i] |= 1 << j
        elif contains(b, a):
            below[j] |= 1 << i
        else:
            joined = join(a.as_lattice(), b.as_lattice())
            if in_building(joined, g) or \
                    view_dim(joined) != a.dimension() + b.dimension():
                continue
        ok[i] |= 1 << j
        ok[j] |= 1 << i
    partner = [-1] * nb
    if g.variant is Variant.RR and g.r == 2:
        for i, j in itertools.permutations(range(nb), 2):
            a, b = elems[i], elems[j]
            # the two blocks on one 2-point support are twins
            if not a.is_strong and not b.is_strong and a.support == b.support \
                    and len(a.support) == 2:
                partner[i] = j
    return ok, below, partner


# on the full building set with n >= 4, the universe build joins only
# 9-11% of the incomparable pairs in type A and 0.3-9% for r >= 2
# (G(5,5,4) the fewest): the pairs on disjoint supports and the G(2,2,n)
# twins; supports decide every other pair
UNIVERSE_GROUPS = sorted({(r, p, n) for r in (1, 2, 3) for p in {1, r}
                          for n in (2, 3, 4, 5)} | {(2, 2, 6), (1, 1, 7)}
                         | {(4, 2, 4), (4, 4, 4), (5, 1, 4), (5, 5, 4)})


@pytest.mark.parametrize("rpn", UNIVERSE_GROUPS, ids="G({0[0]},{0[1]},{0[2]})".format)
def test_universe_matches_pairwise_reference(rpn, monkeypatch):
    # the full building set, and the inside-first d >= 2 list of the
    # brute-force Poincare route; the build asks join exactly the
    # incomparable pairs on disjoint supports and the twin pairs, and no
    # other, so a traced run counts the same join calls as before the
    # supports decided every other pair
    g = GroupId(*rpn)
    asked = []
    monkeypatch.setattr(lattice, "join", lambda a, b: asked.append(1) or join(a, b))
    builds = [lambda: _NestedUniverse(g, building_set(g)),
              lambda: next(_admissible_supports(g))[0]]
    for build in builds:
        asked.clear()
        uni = build()
        ok, below, partner = universe_by_pairs(g, uni.elems)
        assert (uni.ok, uni.below, uni.partner) == (ok, below, partner), \
            (rpn, len(uni.elems))
        disjoint = sum(1 for i, j in itertools.combinations(range(len(uni.elems)), 2)
                       if not (below[i] >> j & 1 or below[j] >> i & 1)
                       and not uni.elems[i].mask & uni.elems[j].mask)
        twins = sum(1 for i, j in enumerate(partner) if i < j)
        assert len(asked) == disjoint + twins, rpn


ARBITRARY_TUPLE_GROUPS = [(r, p, n) for r in (1, 2, 3, 4) for p in range(1, r + 1)
                          if r % p == 0 for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("rpn", ARBITRARY_TUPLE_GROUPS,
                         ids="G({0[0]},{0[1]},{0[2]})".format)
def test_universe_matches_pairwise_reference_on_arbitrary_tuples(rpn):
    # is_nested and AdmissibleFunction build the universe over a few
    # members in any order, not over a set closed downward: seeded random
    # tuples, strong and weak members mixed, some members with part of
    # what lies inside them, and two blocks on one 2-point support (the
    # twins of G(2,2,n)), in any order
    g = GroupId(*rpn)
    bs = building_set(g)
    rng = random.Random(f"universe {rpn}")
    pairs = [(a, b) for a, b in itertools.combinations(bs, 2)
             if not a.is_strong and not b.is_strong
             and a.support == b.support and len(a.support) == 2]
    for _ in range(40):
        elems = set(rng.sample(bs, rng.randint(1, min(len(bs), 12))))
        outer = rng.choice(bs)
        inner = [e for e in bs if e != outer and contains(outer, e)]
        elems |= {outer, *rng.sample(inner, min(len(inner), rng.randint(0, 6)))}
        if pairs:
            elems |= set(rng.choice(pairs))
        elems = list(elems)
        rng.shuffle(elems)
        uni = _NestedUniverse(g, tuple(elems))
        assert (uni.ok, uni.below, uni.partner) == universe_by_pairs(g, uni.elems), \
            (rpn, elems)


@pytest.mark.parametrize("rpn", UNIVERSE_GROUPS, ids="G({0[0]},{0[1]},{0[2]})".format)
def test_admissible_d_lists_are_the_d_values_of_each_support(rpn):
    # the veto computes each member's d-value once, when it joins, from
    # the maximal members the walk carries, and the d-list reads it back;
    # it must be the member's d-value in the whole support, by the join
    g = GroupId(*rpn)
    for uni, mask, ds, _ in _admissible_supports(g):
        want = [(i, oracle_d_value([uni.elems[j] for j in bits(mask & uni.below[i])],
                                   uni.elems[i], g)) for i in bits(mask)]
        assert ds == want, (rpn, mask)


@pytest.mark.parametrize("rpn", UNIVERSE_GROUPS, ids="G({0[0]},{0[1]},{0[2]})".format)
def test_admissible_d_keys_are_the_multisets_of_the_d_lists(rpn):
    # poincare_bruteforce counts the supports by the d-key alone
    g = GroupId(*rpn)
    for _, mask, ds, key in _admissible_supports(g):
        assert key == sum((g.n + 1) ** d for _, d in ds), (rpn, mask)
