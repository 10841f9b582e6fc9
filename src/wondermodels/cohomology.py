"""Cohomology bases of wonderful models by direct enumeration.

The integer cohomology of the minimal wonderful model for G(r,p,n) has a
monomial basis indexed by pairs (nested set S, exponent function f) with
1 <= f(A) <= d(A) - 1 for every A in S, where d(A) is the dimension of A
minus the dimension of the join of the members of S strictly inside A.
Summing q^(total exponent) over all such pairs gives the Poincare
polynomial; this module computes it by brute force, independently of the
generating-series route in wondermodels.formulas.

The all-weak basis elements are also in bijection with weighted set
partitions (encode_partition / decode_partition below): the Hasse forest
of the nested set, vertices labeled by a level-then-minimum rule, turns
into one partition part per internal vertex.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .lattice import (
    BuildingElement,
    GroupId,
    GuardExceeded,
    Record,
    _NestedUniverse,
    _nested_universe,
    bits,
    building_set,
    contains,
    d_value,
)
from .series import QPolynomial


class MalformedPartition(ValueError):
    """A weighted partition that does not decode to an admissible function."""


class AdmissibleFunction(Record):
    """Exponent function on a nested set: the index of one basis monomial.

    assignment maps each support element A to an exponent with
    1 <= f(A) <= d(A) - 1; elements outside the support carry 0 implicitly.
    It is kept sorted by element, in the order of the universe that
    decides the support is nested, which sorts the members once.  Each
    d-value is read off that universe by lattice.d_value, the rule the
    enumeration's walk uses, from the maximal members inside A: the
    members inside A that lie inside no other member inside A.
    """

    __slots__ = FIELDS = ("group", "assignment")

    def __init__(self, group: GroupId, assignment: tuple[tuple[BuildingElement, int], ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "assignment", assignment)
        self.__post_init__()

    def __post_init__(self):
        exponents = dict(self.assignment)
        if len(exponents) != len(self.assignment):
            raise ValueError("repeated element in assignment")
        for a, e in self.assignment:
            if not isinstance(e, int):
                raise ValueError(f"exponent {e!r} for {a} is not an integer")
        uni = _nested_universe(exponents, self.group)
        if uni is None:
            raise ValueError("support is not nested")
        below = uni.below
        object.__setattr__(self, "assignment",
                           tuple((a, int(exponents[a])) for a in uni.elems))
        for i, (a, e) in enumerate(self.assignment):
            under = 0  # the members below some member inside a
            for j in bits(below[i]):
                under |= below[j]
            d = d_value(uni, i, below[i] & ~under)
            if not 1 <= e <= d - 1:
                raise ValueError(f"exponent {e} for {a} outside 1..{d - 1}")

    @classmethod
    def from_dict(cls, group: GroupId, mapping) -> "AdmissibleFunction":
        return cls(group, tuple(mapping.items()))

    def to_obj(self) -> list[dict]:
        return [{"support": list(a.support),
                 "weights": list(a.weights),
                 "strong": a.is_strong,
                 "exponent": e} for a, e in self.assignment]


# the most nested sets the enumeration walks for one group: G(2,1,8)
# (1,376,046 sets) still answers, in about 7 s on a 2-core host, and
# G(1,1,11) is refused after about as long (README, "Guards and
# conventions"); no flag changes it
NESTED_SET_GUARD = 1_500_000


def _admissible_supports(g: GroupId, weak_only: bool = False):
    """Yield (universe, mask, d-list) for every nested set all of whose
    members admit a positive exponent (d >= 2 throughout); the d-list
    pairs each member's index with its d-value.

    Rank-1 elements always have d = 1, so no such set contains them;
    the universe leaves them out up front, which shrinks the search a lot.
    It lists the rest inside first (by dimension, stable over the
    building set's order), so no member joins a set after a member that
    contains it: each member's d-value is final as soon as it joins.
    Two members that hold a common member are comparable (their sum is
    not direct), so the maximal members inside a newcomer i are the
    maximal members of the set it joins that lie inside it: tops &
    below[i], with tops as nested_masks hands it to the veto, which is
    what lattice.d_value reads.  So the veto reads the d-value off the
    universe once, when the member joins, and keeps it at the member's
    place in the set, which the d-list reads back: nested_masks yields
    each set right after the veto passed its newest member, and a place
    is only rewritten on another branch, after every set through this
    one.

    Two guards bound the work.  A group whose building set is larger
    than lattice.BUILDING_SET_GUARD is refused by building_set, counted
    from the set's sizes before any element is built.  A walk that
    reaches more than NESTED_SET_GUARD sets is refused with GuardExceeded
    once it has yielded that many.
    """
    uni = _NestedUniverse(g, tuple(sorted(
        (e for e in building_set(g)
         if e.dimension() >= 2 and not (weak_only and e.is_strong)),
        key=BuildingElement.dimension)))
    path = [(0, 0)] * len(uni.elems)  # (index, d-value) of each member, by place

    def veto(i: int, newmask: int, tops: int) -> bool:
        # every earlier member passed this test and its d-value is final;
        # a newcomer at d <= 1 stays there in every extension
        d = d_value(uni, i, tops)
        path[newmask.bit_count() - 1] = (i, d)
        return d <= 1

    walk = uni.nested_masks(veto)
    for mask in itertools.islice(walk, NESTED_SET_GUARD):
        yield uni, mask, path[:mask.bit_count()]
    if next(walk, None) is not None:
        raise GuardExceeded(f"the enumeration of {g} walks more than "
                            f"{NESTED_SET_GUARD} nested sets")


def poincare_bruteforce(g: GroupId) -> QPolynomial:
    """Poincare polynomial by summing q^|f| over all admissible functions.

    Each support contributes the product over its members of
    q + q^2 + ... + q^(d-1), which depends only on its d-values; supports
    are counted by their sorted d-tuple and each tuple's product is
    taken once.
    """
    tuples = Counter(tuple(sorted(d for _, d in ds))
                     for _, _, ds in _admissible_supports(g))
    total = QPolynomial()
    for ds, count in tuples.items():
        poly = QPolynomial({0: count})
        for d in ds:
            poly = poly * QPolynomial({k: 1 for k in range(1, d)})
        total = total + poly
    return total


def enumerate_admissible(g: GroupId, weak_only: bool = False):
    """Yield every admissible function, the zero function first.

    weak_only restricts supports to weighted blocks (the domain of the
    partition bijection); d-values of all-weak sets do not involve strong
    elements, so the restriction is sound.
    """
    for uni, _, ds in _admissible_supports(g, weak_only):
        elems = [uni.elems[i] for i, _ in ds]
        ranges = [range(1, d) for _, d in ds]
        for choice in itertools.product(*ranges):
            yield AdmissibleFunction(g, tuple(zip(elems, choice)))


# ---------------------------------------------------------------------------
# weighted partition bijection for all-weak supports


class Part(Record):
    __slots__ = FIELDS = ("members", "weights", "exponent")

    def __init__(self, members: tuple[int, ...], weights: tuple[int, ...], exponent: int):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", weights)  # aligned with members
        object.__setattr__(self, "exponent", exponent)
        self.__post_init__()

    def __post_init__(self):
        if len(self.members) != len(self.weights):
            raise MalformedPartition(f"{len(self.members)} members but "
                                     f"{len(self.weights)} weights")

    def text(self) -> str:
        items = [str(m) if a == 0 else f"{m}^{a}"
                 for m, a in zip(self.members, self.weights)]
        return "{" + ", ".join(items) + "}^" + str(self.exponent)


def _members_key(part: Part) -> tuple:
    """Sort key of a part: its members when they are all ints.  A part with
    any other member sorts after those, by the repr of its members, so that
    sorting never compares an int with another type and decode_partition
    is left to refuse the part."""
    ms = part.members
    return (0, ms) if all([isinstance(m, int) for m in ms]) else (1, repr(ms))


class WeightedPartition(Record):
    """Partition of {1..ground_size} into weighted parts with exponents.

    At most one part has exponent 0 (it then has >= 2 members, among them
    the top label); every other part has >= 3 members and an exponent
    between 1 and size - 2.
    """

    __slots__ = FIELDS = ("ground_size", "parts")

    def __init__(self, ground_size: int, parts: tuple[Part, ...]):
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "parts", parts)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts, key=_members_key)))

    def text(self) -> str:
        return " ".join(p.text() for p in self.parts) if self.parts else "{}"


def encode_partition(f: AdmissibleFunction) -> WeightedPartition:
    """Map an all-weak admissible function to its weighted partition.

    Internal vertices of the Hasse forest of the support (plus an
    artificial top when the forest is disconnected) get labels above n,
    level by level, ties broken by smallest leaf; each vertex becomes a
    part holding its children, weighted by the twist between parent and
    child, and carrying the vertex's exponent.  The zero function maps to
    the empty partition of the empty set.

    Members are kept by position in the assignment.  Sorted once by
    support size, each member's parent is the first member after it in
    that order that contains it (the members holding one member form a
    chain), and each leaf's owner is the first member in that order
    holding it.  A member's children all come before it in that order,
    so one pass gives every level.  A part takes the leaves whose owner
    equals its member, so a forged assignment listing one block twice
    gives overlapping parts, which the cover check refuses.
    """
    if any(a.is_strong for a, _ in f.assignment):
        raise ValueError("the partition bijection covers all-weak supports only")
    if not f.assignment:
        return WeightedPartition(0, ())
    n = f.group.n
    elems = [a for a, _ in f.assignment]
    k = len(elems)
    order = sorted(range(k), key=lambda i: len(elems[i].support))
    parent = [-1] * k
    kids: list[list[int]] = [[] for _ in range(k)]
    level = [1] * k
    owner = [-1] * (n + 1)  # by leaf: the position of the smallest member holding it
    for at, i in enumerate(order):
        e = elems[i]
        for x in e.support:
            if owner[x] < 0:
                owner[x] = i
        for j in order[at + 1:]:
            if contains(elems[j], e):
                parent[i] = j
                kids[j].append(i)
                level[j] = max(level[j], level[i] + 1)
                break

    label = [0] * k
    for lbl, i in enumerate(sorted(range(k), key=lambda i: (level[i], elems[i].support[0])),
                            start=n + 1):
        label[i] = lbl

    roots = [i for i in range(k) if parent[i] < 0]
    isolated = [x for x in range(1, n + 1) if owner[x] < 0]
    connected = len(roots) == 1 and not isolated

    parts = []
    for i, (e, expo) in enumerate(f.assignment):
        members = {x: w for x, w in zip(e.support, e.weights) if elems[owner[x]] == e}
        for c in kids[i]:
            # child weights are normalized with 0 on their smallest leaf,
            # so the twist is just the parent weight sitting there
            members[label[c]] = e.weight_of(elems[c].support[0])
        ms = tuple(sorted(members))
        parts.append(Part(ms, tuple(members[m] for m in ms), expo))
    if not connected:
        tops = sorted([label[i] for i in roots] + isolated)
        parts.append(Part(tuple(tops), (0,) * len(tops), 0))

    ground = n + len(parts) - 1
    covered = sorted(m for p in parts for m in p.members)
    if covered != list(range(1, ground + 1)):
        raise ArithmeticError(f"parts {covered} do not partition 1..{ground}")
    return WeightedPartition(ground, tuple(parts))


def decode_partition(p: WeightedPartition, g: GroupId) -> AdmissibleFunction:
    """Inverse of encode_partition; raises MalformedPartition when p is not
    in the image for the group g, and first of all when the ground size,
    a member, a weight or an exponent is not an int."""
    entries = [p.ground_size]
    for part in p.parts:
        entries += (*part.members, *part.weights, part.exponent)
    for v in entries:
        if not isinstance(v, int):
            raise MalformedPartition(f"ground size, member, weight or exponent "
                                     f"{v!r} is not an integer")
    if not p.parts:
        if p.ground_size:
            raise MalformedPartition("no parts but a nonempty ground set")
        return AdmissibleFunction(g, ())
    m, k = p.ground_size, len(p.parts)
    n, r = g.n, g.r
    if m - k + 1 != n:
        raise MalformedPartition(f"ground size {m} with {k} parts encodes "
                                 f"{m - k + 1} points, group has {n}")
    covered = sorted(mm for part in p.parts for mm in part.members)
    if covered != list(range(1, m + 1)):
        raise MalformedPartition("parts do not partition the ground set")
    zero_parts = [part for part in p.parts if part.exponent == 0]
    if len(zero_parts) > 1:
        raise MalformedPartition("more than one exponent-0 part")
    for part in p.parts:
        if any(not 0 <= a < r for a in part.weights):
            raise MalformedPartition("weight outside 0..r-1")
        if part.exponent == 0:
            if len(part.members) < 2 or m not in part.members:
                raise MalformedPartition("bad exponent-0 part")
            if any(part.weights):
                raise MalformedPartition("exponent-0 part must be unweighted")
        elif not (len(part.members) >= 3
                  and 1 <= part.exponent <= len(part.members) - 2):
            raise MalformedPartition("part size or exponent out of range")

    # greedy relabeling: repeatedly give the next label to the ready part
    # (all members resolved) of smallest (level, least leaf); this replays
    # exactly the order encode_partition used.  Parts are kept by position
    # in p.parts.
    parts = p.parts
    part_of_label: dict[int, int] = {}
    level, least = [0] * k, [0] * k
    unassigned = list(range(k))
    for lbl in range(n + 1, n + k + 1):
        best = None
        for i in unassigned:
            members = parts[i].members
            if not all(mm <= n or mm in part_of_label for mm in members):
                continue
            lv = 1 + max((level[part_of_label[mm]] for mm in members if mm > n),
                         default=0)
            lf = min(mm if mm <= n else least[part_of_label[mm]] for mm in members)
            if best is None or (lv, lf) < best[:2]:
                best = (lv, lf, i)
        if best is None:
            raise MalformedPartition("parts reference labels circularly")
        lv, lf, i = best
        level[i], least[i] = lv, lf
        part_of_label[lbl] = i
        unassigned.remove(i)

    if zero_parts and parts[part_of_label[n + k]] is not zero_parts[0]:
        raise MalformedPartition("exponent-0 part is not the top vertex")

    support: dict[int, dict[int, int]] = {}

    def resolve(i: int) -> dict[int, int]:
        if i not in support:
            out: dict[int, int] = {}
            for mm, a in zip(parts[i].members, parts[i].weights):
                if mm <= n:
                    out[mm] = a % r
                else:
                    for x, w in resolve(part_of_label[mm]).items():
                        out[x] = (w + a) % r
            support[i] = out
        return support[i]

    # each block is built as it stands: its weights are reduced mod r, and
    # validating the function refuses a block out of canonical form
    mapping = {}
    for i, part in enumerate(parts):
        if part.exponent:
            wmap = resolve(i)
            coords = tuple(sorted(wmap))
            if wmap[coords[0]] != 0:
                raise MalformedPartition("weights not normalized at the least leaf")
            block = BuildingElement("weak", coords, tuple([wmap[x] for x in coords]), r)
            mapping[block] = part.exponent
    try:
        f = AdmissibleFunction.from_dict(g, mapping)
    except ValueError as err:
        raise MalformedPartition(str(err)) from None
    if encode_partition(f) != p:
        raise MalformedPartition("partition is not in canonical form")
    return f
