"""Face combinatorics of graph associahedra and the CW Euler counts.

The real points of the model compactifications are tiled by copies of
nestohedra: associahedra in type A, graph associahedra of Dynkin graphs in
types B and D.  Faces of a graph associahedron are tubings: collections of
tubes (connected, nonempty, proper node subsets) that are pairwise nested
or disjoint and non-adjacent.  A tubing of k tubes is a face of
codimension k; the empty tubing is the polytope itself.

Tubings are counted, not visited.  A tubing is a family of pairwise
disjoint, non-adjacent maximal tubes with a tubing inside each, so the
count recurses on node sets: the lowest free node lies in no maximal
tube, or in one tube through it.  The families are memoised on the set
of free nodes and the tubings inside a tube on the tube.  Tubes are
grown from their lowest node through higher neighbours.  Each memoised
f-vector is packed into one int, an entry per digit wide enough that no
count ever carries into the next, so merging two f-vectors is one
addition, shifting one by a codimension one shift and combining two
disjoint parts one product.
Plane forests are counted as set partitions whose parts all have at
least two items, by a recursion on the part of the lowest item memoised
on the number of items and parts left.  Neither count uses a generating
series: both are independent of wondermodels.formulas and serve as its
oracle.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .lattice import GuardExceeded, Record

TUBE_NODE_GUARD = 12


class Graph(Record):
    FIELDS = ("nodes", "edges")

    def __post_init__(self):
        nodes = set(self.nodes)
        for e in self.edges:
            if type(e) is not frozenset or len(e) != 2 or not e <= nodes:
                raise ValueError(f"bad edge {e!r}")

    @classmethod
    def from_edges(cls, nodes, edges) -> "Graph":
        return cls(tuple(sorted(nodes)), frozenset(frozenset(e) for e in edges))

    @functools.cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        """Each node's neighbours, read off the edges once per graph."""
        adj: dict[int, set[int]] = {x: set() for x in self.nodes}
        for x, y in self.edges:
            adj[x].add(y)
            adj[y].add(x)
        return {x: frozenset(ys) for x, ys in adj.items()}

    def neighbors(self, i: int) -> frozenset[int]:
        """The nodes adjacent to i; empty for a node outside the graph."""
        return self._adjacency.get(i, frozenset())


def dynkin_graph(family: str, n: int) -> Graph:
    """Dynkin diagrams as plain graphs.

    A_n (n >= 2) gives the path on n-1 nodes (the associahedron graph for
    n points; A_2 is one node, as is B_1); B_n (n >= 1) the path on n
    nodes; D_n (n >= 3) the path on n-2 nodes with two extra nodes forked
    off its last vertex.  At n = 3 that is the path 2-1-3, the diagram
    D_3 = A_3: the same graph as dynkin_graph("A", 4), since type A counts
    points, not nodes.  It is the one reducible coincidence of the three.
    """
    if family == "A":
        if n < 2:
            raise ValueError("type A needs n >= 2")
        m = n - 1
        return Graph.from_edges(range(1, m + 1), [(i, i + 1) for i in range(1, m)])
    if family == "B":
        if n < 1:
            raise ValueError("type B needs n >= 1")
        return Graph.from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    if family == "D":
        if n < 3:
            raise ValueError("type D needs n >= 3")
        edges = [(i, i + 1) for i in range(1, n - 2)]
        edges += [(n - 2, n - 1), (n - 2, n)]
        return Graph.from_edges(range(1, n + 1), edges)
    raise ValueError(f"family must be 'A', 'B' or 'D', got {family!r}")


def _bitmasks(graph: Graph) -> tuple[dict[int, int], dict[int, int]]:
    """The i-th node as the bit 1 << i, and each node's neighbours as a
    mask of those bits, keyed by the node's bit."""
    bit = {x: 1 << i for i, x in enumerate(graph.nodes)}
    return bit, {bit[x]: sum(bit[y] for y in graph.neighbors(x)) for x in graph.nodes}


def enumerate_tubes(graph: Graph) -> list[frozenset]:
    """All tubes (connected nonempty proper node subsets), sorted by size,
    then by their sorted nodes.

    Each connected set is grown from its lowest node v, one higher
    neighbour at a time.  grow takes the nodes that may still join (ext)
    and those ruled out in this branch (banned): it either takes the
    lowest node u of ext, with u's new neighbours, or bans u for the rest
    of the branch, so every connected set is reached once.
    """
    nodes = graph.nodes
    if len(nodes) > TUBE_NODE_GUARD:
        raise GuardExceeded(
            f"graph has {len(nodes)} nodes (guard {TUBE_NODE_GUARD})")
    bit, adjacent = _bitmasks(graph)
    everything = (1 << len(nodes)) - 1
    found = []

    def grow(sub: int, ext: int, banned: int) -> None:
        found.append(sub)
        while ext:
            u = ext & -ext
            ext ^= u
            grow(sub | u, ext | adjacent[u] & ~(sub | banned), banned | u)
            banned |= u

    for i in range(len(nodes)):
        below = (2 << i) - 1  # v and every lower node
        grow(1 << i, adjacent[1 << i] & ~below, below)
    tubes = [frozenset(x for x in nodes if sub & bit[x])
             for sub in found if sub != everything]
    return sorted(tubes, key=lambda s: (len(s), sorted(s)))


def fvector_tubings(graph: Graph) -> list[int]:
    """Face counts by codimension: entry k is the number of tubings with
    exactly k tubes; entry 0 is always 1 (the whole polytope).

    The maximal tubes of a tubing are pairwise disjoint and non-adjacent,
    and the other tubes form a tubing inside each of them.  Over node
    bitmasks, with through[v] the tubes whose lowest node is v and
    closure[t] the tube t with its neighbours:
      - G(R) counts the families of disjoint, non-adjacent tubes inside the
        node set R, each tube t weighted x F(t).  The lowest node v of R
        lies in no tube of the family, or in one tube t of through[v]
        inside R, whose closure no other tube of the family meets:
            G(R) = G(R - v) + sum x F(t) G(R - closure[t]),   G(empty) = 1;
      - F(S) is the same sum over R = S with t = S left out: the tubings
        inside the tube S.  The answer is F(all nodes).
    families memoises G on R and tubings F on S.

    Each f-vector is packed into one int, entry k in the k-th digit of W
    bits, so a branch merges by one +, moves up one codimension by one <<
    and combines with a disjoint part by one *.  The packing is exact:
    every entry, every partial sum of one and every coefficient of a
    product counts sets of k pairwise compatible tubes out of the nt
    tubes, at most C(nt, k) of them.  Such a set has at most n tubes, one
    per node of the n-node graph: each tube holds a node that no smaller
    tube of the set holds, since its maximal smaller tubes are disjoint
    and non-adjacent and so cannot cover the connected tube, and a node
    held that way by two tubes would lie in both, so one would hold the
    other.  So W, the bit length of the largest C(nt, k) for k <= n, is
    wide enough that no digit carries into the next.
    """
    tubes = enumerate_tubes(graph)
    width = max(math.comb(len(tubes), k) for k in range(len(graph.nodes) + 1)).bit_length()
    bit, adjacent = _bitmasks(graph)
    through: list[list[tuple[int, int]]] = [[] for _ in graph.nodes]
    for tube in tubes:
        t = closure = 0
        for x in tube:
            t |= bit[x]
            closure |= bit[x] | adjacent[bit[x]]
        through[(t & -t).bit_length() - 1].append((t, closure))
    family_memo: dict[int, int] = {0: 1}
    tubing_memo: dict[int, int] = {}

    def count(free: int, skip: int) -> int:
        """G(free), with the tube skip left out (0 leaves none out)."""
        low = free & -free
        got = families(free ^ low)
        for t, closure in through[low.bit_length() - 1]:
            if t & ~free == 0 and t != skip:
                got += tubings(t) * families(free & ~closure) << width
        return got

    def families(free: int) -> int:
        got = family_memo.get(free)
        if got is None:
            got = family_memo[free] = count(free, 0)
        return got

    def tubings(tube: int) -> int:
        got = tubing_memo.get(tube)
        if got is None:
            got = tubing_memo[tube] = count(tube, tube)
        return got

    packed, digit = tubings((1 << len(graph.nodes)) - 1), (1 << width) - 1
    fvec = []
    while packed:  # every codimension up to the top has a tubing
        fvec.append(packed & digit)
        packed >>= width
    top = len(fvec) - 1
    if top != len(graph.nodes) - 1 and len(graph.nodes) != 1:
        raise ArithmeticError(f"tubings reach codimension {top} on "
                              f"{len(graph.nodes)} nodes: {fvec}")
    if len(graph.nodes) >= 2:
        # boundary complex of a simple polytope of dimension top: its Euler
        # characteristic is that of a (top-1)-sphere
        chi = sum((-1) ** d * fvec[top - d] for d in range(top))
        if chi != 1 + (-1) ** (top - 1):
            raise ArithmeticError(f"Euler relation broken: {fvec}")
    return fvec


def h_vector(fvec: list[int]) -> list[int]:
    """h-vector of a simple d-polytope from its face counts by codimension
    (fvec[0] = 1 the polytope, fvec[d] the vertices): sum_k h_k t^k =
    sum_i f_i (t - 1)^i, where f_i = fvec[d - i] counts the i-faces.
    Dehn-Sommerville says it is palindromic."""
    d = len(fvec) - 1
    return [sum((-1) ** (i - k) * math.comb(i, k) * fvec[d - i] for i in range(k, d + 1))
            for k in range(d + 1)]


def gamma_vector(h: list[int]) -> list[int]:
    """gamma-vector of a palindromic h-vector of degree d:
    sum_k h_k t^k = sum_i gamma_i t^i (1 + t)^(d - 2i), i <= d/2."""
    d = len(h) - 1
    gamma: list[int] = []
    for i in range(d // 2 + 1):
        gamma.append(h[i] - sum(g * math.comb(d - 2 * j, i - j) for j, g in enumerate(gamma)))
    return gamma


def count_plane_trees(n: int, s: int) -> int:
    """Plane rooted forests with s internal vertices on n labeled leaves:
    the set partitions of m = n+s-1 items into s parts of size >= 2, each
    part ordered internally.

    count(items, k) sums, over the size of the lowest item's part, the
    C(items-1, size-1) ways to pick its mates, its size! orders and
    count(items-size, k-1) for the items left; it depends only on items
    and k, so it is memoised on them.  Agrees with (m!/s!) C(m-s-1, s-1)
    and with n! * kirkman_cayley(n, s); kept free of both to stay an
    independent check.
    """
    if n < 2 or not 1 <= s <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= s <= n-1, got ({n},{s})")
    memo: dict[tuple[int, int], int] = {}

    def count(items: int, k: int) -> int:
        if k == 0:
            return 1 if items == 0 else 0
        got = memo.get((items, k))
        if got is None:
            # the lowest item's part leaves at least two items per other part
            got = sum(math.comb(items - 1, size - 1) * math.factorial(size)
                      * count(items - size, k - 1)
                      for size in range(2, items - 2 * (k - 1) + 1))
            memo[items, k] = got
        return got

    return count(n + s - 1, s)


EULER_CW_RANGE = {"A": (2, 7), "B": (1, TUBE_NODE_GUARD), "D": (3, TUBE_NODE_GUARD)}


def euler_cw(family: str, n: int) -> int:
    """Euler characteristic of the compact real model from its CW structure:
    chambers times one nestohedron, faces alternating by dimension.

    The j-th family of cells has dimension dim-(j-1) and each cell of it is
    shared by 2^j chamber copies.  Chamber counts are n! (A), 2^n n! (B),
    2^(n-1) n! (D); type A face numbers come from the plane-forest count,
    B and D from Dynkin graph tubings.
    """
    if family not in EULER_CW_RANGE:
        raise ValueError(f"family must be one of {sorted(EULER_CW_RANGE)}")
    lo, hi = EULER_CW_RANGE[family]
    if not lo <= n <= hi:
        raise ValueError(f"euler_cw {family} covers {lo} <= n <= {hi}, got {n}")
    if family == "A":
        # plane forests on labeled leaves already count (chamber, face) pairs
        dim = n - 2
        cells = {j: count_plane_trees(n, j) for j in range(1, n)}
    else:
        dim = n - 1
        chambers = 2 ** n * math.factorial(n) if family == "B" \
            else 2 ** (n - 1) * math.factorial(n)
        fvec = fvector_tubings(dynkin_graph(family, n))
        cells = {j: chambers * fvec[j - 1] for j in range(1, len(fvec) + 1)}
    chi = Fraction(0)
    for j, c in cells.items():
        chi += Fraction((-1) ** (dim - (j - 1)) * c, 2 ** j)
    if chi.denominator != 1:
        raise ArithmeticError(f"non-integer Euler characteristic: {chi}")
    return chi.numerator
