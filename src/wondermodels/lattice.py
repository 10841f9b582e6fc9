"""Dowling-style intersection lattices for the groups G(r,p,n).

Elements of the braid-like arrangement lattice for G(r,p,n) are coded as a
zero set (coordinates forced to 0) plus disjoint weighted blocks: a block
with support {i1 < i2 < ...} and weights (0, a2, ...) is the subspace
x_{i1} = zeta^{a2} x_{i2} = ..., zeta a primitive r-th root of unity.
Weights live mod r and are normalized so the smallest support element
carries weight 0.

Three group families share this machinery, distinguished by which
one-component subspaces belong to the building set of the minimal
wonderful model:

  type A       G(1,1,n)   weighted blocks only (all weights 0)
  full         G(r,p,n), p < r, r >= 2   every zero set, every block
  rr           G(r,r,n)   blocks plus zero sets of size >= 2 (>= 3 if r = 2)
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator


class GuardExceeded(Exception):
    """Enumeration refused because the building set exceeds the size guard."""


class Variant(enum.Enum):
    TYPE_A = "A"
    FULL_MONOMIAL = "full"
    RR = "rr"


class Record:
    """Base of the package's immutable value classes: GroupId,
    BuildingElement and LatticeElement here, AdmissibleFunction, Part and
    WeightedPartition in cohomology, Graph in polytopes.

    A subclass names its fields in FIELDS, in the order of its
    constructor, and those that identity reads in COMPARED (all of
    FIELDS unless it says otherwise; two or more either way).  Its
    __init__ sets each field with object.__setattr__ and then calls its
    __post_init__, which checks them.  The base gives it:
      - equality with an instance of the same class only, on COMPARED;
      - the hash of the tuple of the COMPARED values;
      - the repr ClassName(field=value, ...) over FIELDS;
      - AttributeError on setting or deleting any attribute;
      - copies and pickles rebuilt through the constructor, so they are
        checked again and derive their facts afresh.
    A subclass that declares no __slots__ keeps a __dict__, which its
    cached properties need.
    """

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = property(operator.attrgetter(*getattr(cls, "COMPARED", cls.FIELDS)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.FIELDS])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.FIELDS])


class GroupId(Record):
    FIELDS = ("r", "p", "n")

    def __init__(self, r: int, p: int, n: int):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        self.__post_init__()

    def __post_init__(self):
        # an int only: 2.0 would equal 2 and share its cached building set
        if (any([type(v) is not int for v in (self.r, self.p, self.n)])
                or self.r < 1 or self.p < 1 or self.n < 2):
            raise ValueError(f"bad group parameters G({self.r},{self.p},{self.n})")
        if self.r % self.p:
            raise ValueError(f"p = {self.p} does not divide r = {self.r}")

    @functools.cached_property
    def variant(self) -> Variant:
        if self.r == 1:
            return Variant.TYPE_A
        if self.p == self.r:
            return Variant.RR
        return Variant.FULL_MONOMIAL

    @functools.cached_property
    def min_zero_set(self) -> int:
        """Size of the smallest zero set in the building set (n + 1 for
        type A, which has none)."""
        v = self.variant
        if v is Variant.TYPE_A:
            return self.n + 1
        if v is Variant.FULL_MONOMIAL:
            return 1
        return 3 if self.r == 2 else 2

    def __str__(self):
        return f"G({self.r},{self.p},{self.n})"


@functools.total_ordering
class BuildingElement(Record):
    """One irreducible subspace: a zero set ('strong') or a weighted block ('weak').

    support is a sorted tuple of coordinates; weights align with support,
    are reduced mod r and normalized so weights[0] == 0.  Strong elements
    carry empty weights.

    Two facts are decided from the fields once, at construction, and kept
    in slots: mask, the support as a bitmask (bit x for coordinate x), and
    is_canonical, whether the fields have that canonical form: the support
    strictly increasing; a strong element without weights; a weak one with
    one weight per support point, weights[0] == 0 and every weight an int
    in 0..r-1.  Any other spelling of a subspace, such as unnormalised
    weights, would make one subspace two elements.  The hash of the fields
    that equality compares is taken once too.  The lattice view is built on
    the first as_lattice() and kept.  None of them is a field, so equality,
    hash, order, repr and FIELDS are those of the four fields alone; r is
    left out of equality, hash and order.
    """

    FIELDS = ("kind", "support", "weights", "r")
    # "strong" < "weak" alphabetically, giving strongs first in sort
    COMPARED = ("kind", "support", "weights")
    __slots__ = FIELDS + ("mask", "is_canonical", "_hash", "_view")

    def __init__(self, kind: str, support: tuple[int, ...], weights: tuple[int, ...], r: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "r", r)
        self.__post_init__()

    def __post_init__(self):
        s, w = self.support, self.weights
        if self.kind == "strong":
            canonical = not w
        else:
            r = self.r
            canonical = (self.kind == "weak" and len(w) == len(s) and w[:1] == (0,)
                         and all([isinstance(a, int) and 0 <= a < r for a in w]))
        mask = 0
        for x in s:
            if mask >> x:  # x is not above every coordinate before it
                canonical = False
            mask |= 1 << x
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "is_canonical", canonical)
        object.__setattr__(self, "_hash", hash(self._key))
        object.__setattr__(self, "_view", None)

    def __hash__(self):  # the hash of the fields that equality compares
        return self._hash

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    @classmethod
    def strong(cls, coords, r: int) -> "BuildingElement":
        support = tuple(sorted(set(coords)))
        if not support or support[0] < 1:
            raise ValueError("strong element needs a nonempty set of coordinates >= 1")
        return cls("strong", support, (), r)

    @classmethod
    def weak(cls, coords, weights, r: int) -> "BuildingElement":
        """weights: a dict by coordinate, or a sequence in the order of coords."""
        coords = tuple(coords)
        support = tuple(sorted(set(coords)))
        if len(support) != len(coords):
            raise ValueError("repeated coordinate in a weak element")
        if len(support) < 2 or support[0] < 1:
            raise ValueError("weak element needs >= 2 coordinates >= 1")
        if not isinstance(weights, dict):
            weights = dict(zip(coords, weights, strict=True))
        missing = [i for i in support if i not in weights]
        if missing:
            raise ValueError(f"no weight for coordinate {missing[0]}")
        extra = sorted(set(weights) - set(support))
        if extra:
            raise ValueError(f"weight for coordinate {extra[0]} outside the support")
        for i in support:
            if not isinstance(weights[i], int):
                raise ValueError(f"weight {weights[i]!r} for coordinate {i} is not an integer")
        return cls("weak", *_normalize_block(weights, r), r)

    @property
    def is_strong(self) -> bool:
        return self.kind == "strong"

    def weight_of(self, i: int) -> int:
        return self.weights[self.support.index(i)]

    def dimension(self) -> int:
        # codimension-in-quotient convention: a zero set on t coordinates has
        # rank t, a block on t coordinates rank t-1
        return len(self.support) if self.kind == "strong" else len(self.support) - 1

    def as_lattice(self) -> "LatticeElement":
        view = self._view
        if view is None:
            view = (LatticeElement(self.r, self.support, ()) if self.is_strong
                    else LatticeElement(self.r, (), ((self.support, self.weights),)))
            object.__setattr__(self, "_view", view)
        return view

    def text(self) -> str:
        if self.is_strong:
            return "{" + ",".join(str(i) for i in (0,) + self.support) + "}"
        items = [str(i) if a == 0 else f"{i}^{a}"
                 for i, a in zip(self.support, self.weights)]
        return "{" + ", ".join(items) + "}"

    def __str__(self):
        return self.text()


# the order of BuildingElement's compared fields, as a sort key
_ORDER = operator.attrgetter(*BuildingElement.COMPARED)


Block = tuple[tuple[int, ...], tuple[int, ...]]  # (support, weights)


class LatticeElement(Record):
    """General lattice element: zero set plus pairwise disjoint weighted blocks."""

    __slots__ = FIELDS = ("r", "zeros", "blocks")

    def __init__(self, r: int, zeros: tuple[int, ...], blocks: tuple[Block, ...]):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "blocks", blocks)
        self.__post_init__()

    def __post_init__(self):
        if not self.blocks or (len(self.blocks) == 1 and not self.zeros):
            return  # one component or none: nothing to overlap
        seen = set(self.zeros)
        for support, _ in self.blocks:
            if seen & set(support):
                raise ValueError("blocks must be disjoint from each other and the zero set")
            seen |= set(support)

    def component_count(self) -> int:
        return (1 if self.zeros else 0) + len(self.blocks)


def _normalize_block(wmap: dict[int, int], r: int) -> Block:
    support = tuple(sorted(wmap))
    shift = wmap[support[0]]
    return support, tuple([(wmap[i] - shift) % r for i in support])


def join(a: LatticeElement, b: LatticeElement) -> LatticeElement:
    """Lattice join: union the constraints, absorbing inconsistencies into zeros.

    Overlapping blocks merge when their weights agree up to one global mod-r
    shift on the overlap; otherwise x_i = zeta^u x_j = zeta^v x_j forces the
    whole merged component to zero.  Blocks touching the zero set are zeroed.

    One pass: each block in turn merges into the components it overlaps,
    one shift check per overlap, and the merged keys go to zero on a
    conflict.  The components left are pairwise disjoint, so zeroing the
    ones that touch the zero set at the end cannot reach another.
    """
    if a.r != b.r:
        raise ValueError("lattice elements from different r")
    r = a.r
    zeros = set(a.zeros) | set(b.zeros)
    comps: list[dict[int, int]] = []
    for support, weights in a.blocks + b.blocks:
        merged = dict(zip(support, weights))  # None once it went to zero
        rest = []
        for comp in comps:
            # comps are disjoint, so comp meets merged only on this block
            shared = [x for x in support if x in comp]
            if not shared:
                rest.append(comp)
                continue
            if merged is not None:
                shift = (merged[shared[0]] - comp[shared[0]]) % r
                if all((merged[x] - comp[x]) % r == shift for x in shared):
                    for x, w in comp.items():
                        merged[x] = (w + shift) % r
                    continue
                zeros.update(merged)
                merged = None
            zeros.update(comp)
        if merged is not None:
            rest.append(merged)
        comps = rest
    blocks = []
    for comp in comps:
        if zeros.isdisjoint(comp):
            blocks.append(_normalize_block(comp, r))
        else:
            zeros.update(comp)
    return LatticeElement(r, tuple(sorted(zeros)), tuple(sorted(blocks)))


def _one_component_in_building(strong: bool, size: int, g: GroupId) -> bool:
    """The membership rule of the building set for one component on size
    coordinates: a block needs two of them, a zero set min_zero_set."""
    return size >= (g.min_zero_set if strong else 2)


def in_building(e: LatticeElement, g: GroupId) -> bool:
    """Whether a lattice element is itself a member of the building set."""
    if e.component_count() != 1:
        return False
    if e.blocks:
        return _one_component_in_building(False, len(e.blocks[0][0]), g)
    return _one_component_in_building(True, len(e.zeros), g)


# largest building set the enumeration route walks; no flag changes it
BUILDING_SET_GUARD = 5000


@functools.lru_cache(maxsize=None)
def building_set(g: GroupId) -> tuple[BuildingElement, ...]:
    """All irreducible subspaces for g, sorted (strongs first, then by support).

    The membership rule says, for each support size, whether its zero
    sets and its blocks are members: one zero set and r^(size-1) blocks
    on each support.  The set's size is counted from those answers first,
    and a set larger than BUILDING_SET_GUARD is refused with
    GuardExceeded before any element is built.
    """
    n, r = g.n, g.r
    sizes, count = [], 0  # (size, zero sets admitted, blocks admitted)
    for size in range(1, n + 1):
        zero = _one_component_in_building(True, size, g)
        block = _one_component_in_building(False, size, g)
        count += math.comb(n, size) * (zero + block * r ** (size - 1))
        if count > BUILDING_SET_GUARD:
            raise GuardExceeded(
                f"building set of {g} has more than {BUILDING_SET_GUARD} elements")
        sizes.append((size, zero, block))
    elems = []
    for size, zero, block in sizes:
        for coords in itertools.combinations(range(1, n + 1), size):
            if zero:
                elems.append(BuildingElement("strong", coords, (), r))
            if block:
                elems += [BuildingElement("weak", coords, (0,) + tail, r)
                          for tail in itertools.product(range(r), repeat=size - 1)]
    return tuple(sorted(elems, key=_ORDER))


def _restricted(block: BuildingElement, mask: int, r: int) -> tuple[int, ...]:
    """The weights of block on the coordinates in mask, a subset of its
    support, renormalised: the weights of the one block on mask inside it."""
    s, w = block.support, block.weights
    if mask == block.mask:
        return w
    if r == 1:  # every weight is 0
        return (0,) * mask.bit_count()
    low = w[s.index((mask & -mask).bit_length() - 1)]
    return tuple([(v - low) % r for x, v in zip(s, w) if mask >> x & 1])


def contains(outer: BuildingElement, inner: BuildingElement) -> bool:
    """Subspace containment inner <= outer (equality counts).

    The supports are compared as bitmasks; a block holds the one block on
    each part of its support whose weights are its own restricted there
    and renormalised, so a block inner is compared in canonical form.
    """
    mi = inner.mask
    if mi & ~outer.mask:
        return False
    if outer.kind == "strong":
        return True
    return inner.kind != "strong" and _restricted(outer, mi, outer.r) == inner.weights


def comparable(a: BuildingElement, b: BuildingElement) -> bool:
    return contains(a, b) or contains(b, a)


def element_in_building(e: BuildingElement, g: GroupId) -> bool:
    """Structural membership test, independent of the building set's size;
    only an element in canonical form (is_canonical) is a member.  It reads
    the facts the element decided at construction, with no lattice view."""
    return (e.is_canonical and e.r == g.r and not e.mask & ~((2 << g.n) - 2)
            and _one_component_in_building(e.kind == "strong", len(e.support), g))


def _check_membership(s, g: GroupId) -> tuple[BuildingElement, ...]:
    elems = tuple(sorted(set(s), key=_ORDER))
    for e in elems:
        if not element_in_building(e, g):
            raise ValueError(f"{e} is not in the building set of {g}")
    return elems


def is_nested_def(s, g: GroupId) -> bool:
    """Nestedness straight from the definition: no antichain of two or more
    elements may join into a building set member.  Exponential; oracle use.

    Each antichain starts from the lattice view of its first member, and
    the join of the antichain so far with each newcomer is taken only from
    the second member on, so every join has two real operands."""
    elems = _check_membership(s, g)

    def extend(start: int, chain: list[BuildingElement], acc: LatticeElement | None) -> bool:
        for i in range(start, len(elems)):
            e = elems[i]
            if any(comparable(e, f) for f in chain):
                continue
            if chain:
                j = join(acc, e.as_lattice())
                if in_building(j, g):
                    return False
            else:
                j = e.as_lattice()
            chain.append(e)
            if not extend(i + 1, chain, j):
                return False
            chain.pop()
        return True

    return extend(0, [], None)


def bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _NestedUniverse:
    """The pairwise nested-set rule over a tuple of building elements, in
    the order the caller gives them; element i is bit i of every mask.

    Pairs must be comparable or span a direct sum whose join leaves the
    building set.  Pairwise bitmasks, built once, drive both the clique
    walk of nested_masks and is_nested.  For G(2,2,n) one global rule
    comes on top; its one home is _nested_universe, and partner holds the
    twins it reads.

    The build meets the elements in order and groups them by support
    bitmask.  Each element is decided against every group met before it,
    a group at a time, from the two supports alone:
      - one support inside the other: a zero set holds everything on a
        support inside its own, and a block holds exactly one block on
        each smaller support, the one whose weights are its own restricted
        there and renormalised (found by one lookup, or compared when the
        larger block came first); no block holds a zero set.  On one
        support the zero set holds every block, and two blocks are
        incomparable;
      - incomparable pairs whose supports meet are not nested: their join
        is one component on the union of the supports.  A block there is
        in the building set, and a zero set (r >= 2 only) is too, by the
        membership rule of _one_component_in_building, on any union but
        one support of two blocks.  The one exception is twins: two
        blocks on one support whose zero set the rule leaves out (the
        2-point supports of G(2,2,n)).  Their join is that zero set, so
        the pair is nested; twins are left to the join;
      - disjoint supports: the join of the two elements' lattice views,
        which each element builds once and keeps, decides.
    So join is asked exactly the pairs on disjoint supports and the twin
    pairs, each of which joins to a direct sum, so only membership is
    asked of the join; the tables are bit for bit those of asking
    contains and join of every pair.
    """

    def __init__(self, g: GroupId, elems: tuple[BuildingElement, ...]):
        self.elems = elems
        nb, r = len(elems), g.r
        self.ok = ok = [0] * nb          # bit j: the pair {i,j} is nested
        self.below = below = [0] * nb    # bit j: elems[j] strictly inside elems[i]
        self.partner = partner = [-1] * nb  # the G(2,2,n) twin of elems[i]
        on: dict[int, int] = {}          # support bitmask: bits of the elements so far
        blocks: dict[tuple, int] = {}    # (support bitmask, weights): that block
        weak = 0                         # bits of the blocks so far
        for i, a in enumerate(elems):
            s, w = a.mask, a.weights
            inside = holding = 0  # earlier elements inside a, and holding a
            for t, there in on.items():
                if t & ~s:
                    if not s & ~t:  # s strictly inside t: a zero set there holds a
                        for j in bits(there):
                            c = elems[j]
                            if not c.weights or w and _restricted(c, s, r) == w:
                                holding |= 1 << j
                    elif not t & s:
                        for j in bits(there):
                            self._join_decides(g, i, j)
                elif not w:  # a is a zero set, and t lies in its support
                    inside |= there
                elif t != s:  # a is a block, and t lies strictly in its support
                    if there & weak:
                        j = blocks.get((t, _restricted(a, t, r)))
                        if j is not None:
                            inside |= 1 << j
                elif there & ~weak:  # a is a block, after the zero set on its support
                    holding |= there & ~weak
                elif not _one_component_in_building(True, len(a.support), g):  # twins
                    j = there.bit_length() - 1
                    partner[i], partner[j] = j, i
                    self._join_decides(g, i, j)
            bit = 1 << i
            near = inside | holding
            if near:
                below[i] = inside
                ok[i] |= near
                while near:
                    low = near & -near
                    near ^= low
                    j = low.bit_length() - 1
                    ok[j] |= bit
                    if holding & low:
                        below[j] |= bit
            on[s] = on.get(s, 0) | bit
            if w:
                blocks[s, w] = i
                weak |= bit

    @functools.cached_property
    def dims(self) -> list[int]:
        """The dimension of each element, which d_value reads; the
        predicates never read it, so it is built on first use."""
        return [e.dimension() for e in self.elems]

    def _join_decides(self, g: GroupId, i: int, j: int) -> None:
        """Set the pair {i,j} nested when the join of the two leaves the
        building set."""
        if not in_building(join(self.elems[i].as_lattice(), self.elems[j].as_lattice()), g):
            self.ok[i] |= 1 << j
            self.ok[j] |= 1 << i

    def nested_masks(self, veto=None):
        """All cliques of the pair table as bitmasks, in lexicographic
        index order: the nested subsets of a universe without twins.
        A universe that holds a G(2,2,n) twin pair is refused with
        ValueError, since the global rule of _nested_universe would cut
        some of its cliques.

        Each set is extended only by the candidates it carries: the
        elements after its last member that pair well with every member,
        so cand & ok[i] is the candidate set after adding element i.
        Each set also carries the union of below over its members, so
        its maximal members are the members outside that union.

        veto(i, newmask, tops), when given, may return True to cut the
        whole subtree rooted at extending the current set by element i;
        tops holds the maximal members of the current set, before i
        joins.  A cut is sound whenever the caller's reason to skip
        newmask persists under adding further elements.  A veto that
        returns False is followed at once by the yield of newmask, before
        any other veto call, so the veto may leave per-member data for
        the consumer to read.
        """
        if any(j >= 0 for j in self.partner):
            raise ValueError("the universe holds G(2,2,n) twins, whose "
                             "global rule the clique walk does not apply")
        ok, below = self.ok, self.below

        def dfs(cand: int, mask: int, inner: int):
            yield mask
            tops = mask & ~inner
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                if veto is not None and veto(i, mask | low, tops):
                    continue
                yield from dfs(cand & ok[i], mask | low, inner | below[i])

        return dfs((1 << len(self.elems)) - 1, 0, 0)


def d_value(uni: _NestedUniverse, i: int, tops: int) -> int:
    """The d-value of element i of uni in a nested set: dims[i] minus the
    dimensions of tops & below[i], which must be the maximal members of
    the set strictly inside element i.

    d is dim A minus the dimension of the join of the members inside A.
    Every member inside A lies inside a maximal one, and the maximal ones
    span a direct sum (De Concini-Procesi), so that join has their summed
    dimension.  With no member inside, d is dim A.
    """
    dims = uni.dims
    d, inside = dims[i], tops & uni.below[i]
    while inside:
        low = inside & -inside
        inside ^= low
        d -= dims[low.bit_length() - 1]
    return d


def _nested_universe(s, g: GroupId) -> _NestedUniverse | None:
    """The universe over the sorted members of s when s is nested, else
    None.

    Every pair must be nested.  For G(2,2,n) the one global rule comes on
    top, and this is its home: a nested set holds at most one twin pair,
    and each of its strong members contains that pair's support.  Any
    antichain through two twin pairs, or through one pair and a zero set
    that misses its support, joins into a single zero set of size >= 3,
    which is back in the building set although every pair looks fine.
    """
    uni = _NestedUniverse(g, _check_membership(s, g))
    nb = len(uni.elems)
    # no row of ok holds its own bit, so all pairs are nested exactly when
    # the rows hold nb - 1 bits each
    if sum(map(int.bit_count, uni.ok)) != nb * (nb - 1):
        return None
    if max(uni.partner, default=-1) < 0:  # no twins
        return uni
    twins = [i for i, j in enumerate(uni.partner) if j >= 0]
    if len(twins) > 2:
        return None
    if twins and any(e.is_strong and not uni.below[j] >> twins[0] & 1
                     for j, e in enumerate(uni.elems)):
        return None
    return uni


def is_nested(s, g: GroupId) -> bool:
    """Nestedness of a set of building elements, by the universe's rule."""
    return _nested_universe(s, g) is not None

