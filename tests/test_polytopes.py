"""Tests for the tubing / plane-forest oracle."""

import itertools
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondermodels.formulas import euler_from_bd, euler_from_x, fvector_from_fcy, fvector_typeA
from wondermodels.lattice import GuardExceeded
from wondermodels.polytopes import (
    EULER_CW_RANGE,
    TUBE_NODE_GUARD,
    Graph,
    count_plane_trees,
    dynkin_graph,
    enumerate_tubes,
    euler_cw,
    fvector_tubings,
    gamma_vector,
    h_vector,
)


def path(m):
    return Graph.from_edges(range(1, m + 1), [(i, i + 1) for i in range(1, m)])


def is_connected_subset(graph, sub):
    """Reference: a walk from one node of sub, through neighbours inside
    sub, reaches all of sub."""
    todo, seen = [next(iter(sub))], set()
    while todo:
        x = todo.pop()
        if x in seen:
            continue
        seen.add(x)
        todo.extend(graph.neighbors(x) & sub - seen)
    return seen == set(sub)


def tubes_by_subset_filter(graph):
    """Reference tube list: every nonempty proper node subset, kept when
    it is connected, in the order of enumerate_tubes."""
    nodes = graph.nodes
    out = [frozenset(sub) for size in range(1, len(nodes))
           for sub in itertools.combinations(nodes, size)
           if is_connected_subset(graph, frozenset(sub))]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def compatible(graph, a, b):
    """Reference: two tubes are nested, or disjoint and non-adjacent."""
    if a <= b or b <= a:
        return True
    if a & b:
        return False
    # disjoint tubes must not be adjacent (their union must stay disconnected)
    return not any(graph.neighbors(x) & b for x in a)


def compatibility(graph):
    """The reference tubes and, for each, the bitmask of the tubes
    compatible with it."""
    tubes = tubes_by_subset_filter(graph)
    ok = [0] * len(tubes)
    for i, j in itertools.combinations(range(len(tubes)), 2):
        if compatible(graph, tubes[i], tubes[j]):
            ok[i] |= 1 << j
            ok[j] |= 1 << i
    return tubes, ok


def fvector_by_cliques(graph):
    """Reference f-vector: tubings as the cliques of the tube
    compatibility graph, counted by size with a memo on the candidate
    set of tubes, each count a list by clique size."""
    tubes, ok = compatibility(graph)
    memo = {}

    def count(cand):
        if cand not in memo:
            got = [1]
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                sub = count(rest & ok[low.bit_length() - 1])
                got += [0] * (len(sub) + 1 - len(got))
                for k, c in enumerate(sub):
                    got[k + 1] += c
            memo[cand] = got
        return memo[cand]

    return count((1 << len(tubes)) - 1)


def fvector_by_walk(graph):
    """Reference f-vector: visit every tubing once, one call per face,
    with no memo."""
    tubes, ok = compatibility(graph)
    nt = len(tubes)
    counts = {0: 1}

    def dfs(start, mask, size):
        for i in range(start, nt):
            if mask & ~ok[i]:
                continue
            counts[size + 1] = counts.get(size + 1, 0) + 1
            dfs(i + 1, mask | 1 << i, size + 1)

    dfs(0, 0, 0)
    return [counts.get(k, 0) for k in range(max(counts) + 1)]


def complete_graph(m):
    return Graph.from_edges(range(1, m + 1), itertools.combinations(range(1, m + 1), 2))


def all_partitions_into(items, k):
    """Reference: every set partition of items into k nonempty parts,
    singleton parts included."""
    if k == 1:
        yield [items]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions_into(rest, k - 1):
        yield [[first]] + sub
    for sub in all_partitions_into(rest, k):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]


def partitions_into(items, k):
    """Reference: set partitions of items into exactly k parts, each of
    size >= 2, built one at a time (no singleton part is ever built)."""
    if k == 1:
        if len(items) >= 2:
            yield [items]
        return
    first, rest = items[0], items[1:]
    # the part of first takes a nonempty subset of the rest and leaves at
    # least two items for each of the other k - 1 parts
    for size in range(1, len(rest) - 2 * (k - 1) + 1):
        for mates in itertools.combinations(rest, size):
            taken = set(mates)
            left = [x for x in rest if x not in taken]
            for sub in partitions_into(left, k - 1):
                yield [[first, *mates], *sub]


def canonical(partition):
    return frozenset(frozenset(p) for p in partition)


@st.composite
def connected_graphs(draw):
    m = draw(st.integers(1, 7))
    label = [0, *draw(st.permutations(range(1, m + 1)))]
    # a random spanning tree keeps the graph connected; extra edges on top
    edges = {(draw(st.integers(1, i - 1)), i) for i in range(2, m + 1)}
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(range(1, m + 1),
                            [(label[a], label[b]) for a, b in edges])


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges([1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges([1, 2, 3], [(1, 2, 3)])


def test_neighbors_and_connectivity():
    g = dynkin_graph("D", 5)
    assert g.neighbors(3) == {2, 4, 5}
    assert is_connected_subset(g, frozenset({4, 3, 5}))
    assert not is_connected_subset(g, frozenset({4, 5}))


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_neighbors_match_a_scan_of_the_edges(g):
    for x in g.nodes:
        assert g.neighbors(x) == {y for e in g.edges if x in e for y in e - {x}}
    assert g.neighbors(0) == g.neighbors(len(g.nodes) + 1) == set()


def test_dynkin_shapes():
    a = dynkin_graph("A", 5)
    assert a.nodes == (1, 2, 3, 4)
    assert len(a.edges) == 3
    b = dynkin_graph("B", 4)
    assert b.nodes == (1, 2, 3, 4)
    assert frozenset({3, 4}) in b.edges
    d = dynkin_graph("D", 4)
    assert d.neighbors(2) == {1, 3, 4}
    with pytest.raises(ValueError):
        dynkin_graph("A", 1)
    with pytest.raises(ValueError):
        dynkin_graph("D", 2)
    with pytest.raises(ValueError):
        dynkin_graph("E", 6)


def test_small_members_follow_the_general_rule():
    # A_2 is one node, like B_1; D_3 forks two nodes off a one-node path,
    # the path 2-1-3, which is the diagram A_3 = D_3 of the 4-point type A
    assert dynkin_graph("A", 2) == dynkin_graph("B", 1)
    assert fvector_tubings(dynkin_graph("A", 2)) == [1]
    d3 = dynkin_graph("D", 3)
    assert d3.neighbors(1) == {2, 3}
    assert len(d3.edges) == 2
    assert fvector_tubings(d3) == fvector_tubings(dynkin_graph("A", 4)) == [1, 5, 5]
    assert euler_cw("D", 3) == euler_cw("A", 4) == -3


def test_tubes_of_path3():
    # path 1-2-3: all connected proper subsets
    tubes = enumerate_tubes(path(3))
    assert tubes == [
        frozenset({1}), frozenset({2}), frozenset({3}),
        frozenset({1, 2}), frozenset({2, 3}),
    ]


def test_tube_guard():
    with pytest.raises(GuardExceeded):
        enumerate_tubes(path(13))


def test_h_and_gamma_vectors_of_small_polytopes():
    # point, pentagon, square, triangle (not flag: gamma_1 < 0), 3-cube
    assert h_vector([1]) == gamma_vector([1]) == [1]
    assert h_vector([1, 5, 5]) == [1, 3, 1] and gamma_vector([1, 3, 1]) == [1, 1]
    assert h_vector([1, 4, 4]) == [1, 2, 1] and gamma_vector([1, 2, 1]) == [1, 0]
    assert h_vector([1, 3, 3]) == [1, 1, 1] and gamma_vector([1, 1, 1]) == [1, -1]
    assert h_vector([1, 6, 12, 8]) == [1, 3, 3, 1] and gamma_vector([1, 3, 3, 1]) == [1, 0]


def test_type_A_h_vectors_are_narayana_numbers():
    for n in range(3, 16):
        m = n - 1
        narayana = [math.comb(m, k) * math.comb(m, k - 1) // m for k in range(1, m + 1)]
        assert h_vector(fvector_typeA(n)) == narayana, n


def test_fvector_singleton():
    assert fvector_tubings(path(1)) == [1]


def test_fvector_square():
    # path on 2 nodes: 2 singleton tubes, compatible pairs none (adjacent)
    assert fvector_tubings(path(2)) == [1, 2]


def test_fvector_pentagon():
    # the 2-dimensional associahedron
    assert fvector_tubings(path(3)) == [1, 5, 5]


def test_fvector_associahedron_3d():
    assert fvector_tubings(path(4)) == [1, 9, 21, 14]


@pytest.mark.parametrize("n,expected", [
    (4, [1, 10, 24, 16]),
    (5, [1, 16, 67, 102, 51]),
])
def test_fvector_typeD(n, expected):
    assert fvector_tubings(dynkin_graph("D", n)) == expected


def test_fvector_typeB_matches_path():
    for n in range(1, 6):
        assert fvector_tubings(dynkin_graph("B", n)) == fvector_tubings(path(n))


# every Dynkin graph up to the guard; the walk makes one call per face, about
# 1.5 us each, so it stops at 10 nodes (D12 has 18.3 million faces)
DYNKIN_TO_GUARD = [*(("A", n) for n in range(2, TUBE_NODE_GUARD + 2)),
                   *(("B", n) for n in range(1, TUBE_NODE_GUARD + 1)),
                   *(("D", n) for n in range(3, TUBE_NODE_GUARD + 1))]


@pytest.mark.parametrize("family,n", [(f, n) for f, n in DYNKIN_TO_GUARD
                                      if len(dynkin_graph(f, n).nodes) <= 10])
def test_fvector_matches_per_face_walk_on_dynkin_graphs(family, n):
    g = dynkin_graph(family, n)
    assert fvector_tubings(g) == fvector_by_walk(g)


REFERENCE_GRAPHS = {**{f"{f}{n}": dynkin_graph(f, n) for f, n in DYNKIN_TO_GUARD},
                    **{f"K{m}": complete_graph(m) for m in range(1, 8)}}


@pytest.mark.parametrize("graph", REFERENCE_GRAPHS.values(), ids=REFERENCE_GRAPHS.keys())
def test_tubes_and_fvector_match_the_subset_filter_and_clique_count(graph):
    assert enumerate_tubes(graph) == tubes_by_subset_filter(graph)
    assert fvector_tubings(graph) == fvector_by_cliques(graph)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_fvector_matches_per_face_walk_on_connected_graphs(g):
    assert enumerate_tubes(g) == tubes_by_subset_filter(g)
    assert fvector_tubings(g) == fvector_by_walk(g) == fvector_by_cliques(g)


def test_grown_tubes_match_the_subset_filter_on_a_disconnected_graph():
    # a path, an edge and an isolated node: each component is a tube, and
    # no tube joins two of them
    g = Graph.from_edges(range(1, 7), [(1, 2), (2, 3), (4, 5)])
    tubes = enumerate_tubes(g)
    assert tubes == tubes_by_subset_filter(g)
    assert {frozenset({1, 2, 3}), frozenset({4, 5}), frozenset({6})} <= set(tubes)
    assert len(tubes) == 6 + 2 + 1 + 1


@pytest.mark.parametrize("family,n", [("D", 12), ("B", 12), ("A", 13)])
def test_largest_admitted_graphs_match_the_series(family, n):
    g = dynkin_graph(family, n)
    assert len(g.nodes) == TUBE_NODE_GUARD
    series = fvector_typeA(n) if family == "A" else fvector_from_fcy(family, n)
    assert fvector_tubings(g) == series


def stirling2(m, k):
    """Set partitions of m items into k nonempty parts."""
    if m == k:
        return 1
    if k == 0 or k > m:
        return 0
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_complete_graph_gives_the_permutohedron(m):
    # K_m has the most tubes per node (every proper subset is a tube), so
    # its packed count needs the widest digits; its graph associahedron is
    # the permutohedron, whose codimension-k faces are the ordered set
    # partitions into k + 1 blocks
    g = complete_graph(m)
    assert fvector_tubings(g) == [math.factorial(k + 1) * stirling2(m, k + 1)
                                  for k in range(m)]


def test_disjoint_adjacent_tubes_incompatible():
    # {1} and {2} on a path are disjoint but adjacent: no tubing holds both
    g = path(2)
    tubes = enumerate_tubes(g)
    assert len(tubes) == 2
    # the f-vector already shows it: 2 vertices, no edge between them would
    # mean a 1-dimensional face count of 2, but entry 1 is the vertex count
    assert fvector_tubings(g) == [1, 2]


def test_count_plane_trees_small():
    assert count_plane_trees(2, 1) == 2
    assert count_plane_trees(3, 1) == 6
    assert count_plane_trees(3, 2) == 12
    assert count_plane_trees(4, 1) == 24
    # n=4, s=3 forces three pairs: 15 pairings, each ordered in 2^3 ways
    assert count_plane_trees(4, 3) == 15 * 8


def test_partitions_without_singletons_match_filtered_oracle():
    for m in range(1, 10):
        items = list(range(1, m + 1))
        for k in range(1, m + 1):
            got = [canonical(p) for p in partitions_into(items, k)]
            want = {canonical(p) for p in all_partitions_into(items, k)
                    if all(len(part) >= 2 for part in p)}
            assert len(got) == len(set(got)), (m, k)
            assert set(got) == want, (m, k)


def test_count_plane_trees_matches_partition_walk():
    # every partition of m = n+s-1 items into s parts of size >= 2,
    # each part ordered internally
    for n in range(2, 9):
        for s in range(1, n):
            walked = sum(math.prod(math.factorial(len(part)) for part in parts)
                         for parts in partitions_into(list(range(1, n + s)), s))
            assert count_plane_trees(n, s) == walked, (n, s)


def test_count_plane_trees_closed_form():
    # m!/s! C(m-s-1, s-1) with m = n+s-1
    for n in range(2, 8):
        for s in range(1, n):
            m = n + s - 1
            closed = math.factorial(m) // math.factorial(s) \
                * math.comb(m - s - 1, s - 1)
            assert count_plane_trees(n, s) == closed, (n, s)


def test_count_plane_trees_domain():
    with pytest.raises(ValueError):
        count_plane_trees(1, 1)
    with pytest.raises(ValueError):
        count_plane_trees(4, 4)
    with pytest.raises(ValueError):
        count_plane_trees(4, 0)


@pytest.mark.parametrize("family,n,expected", [
    ("A", 2, 1),
    ("A", 3, 0),
    ("A", 4, -3),
    ("A", 5, 0),
    ("A", 6, 45),
    ("A", 7, 0),
    ("B", 1, 1),
    ("B", 2, 0),
    ("B", 3, -6),
    ("B", 4, 0),
    ("B", 5, 240),
    ("D", 4, 0),
    ("D", 5, 180),
])
def test_euler_cw_values(family, n, expected):
    assert euler_cw(family, n) == expected


def test_euler_cw_range():
    for fam, (lo, hi) in EULER_CW_RANGE.items():
        with pytest.raises(ValueError):
            euler_cw(fam, lo - 1)
        with pytest.raises(ValueError):
            euler_cw(fam, hi + 1)
    with pytest.raises(ValueError):
        euler_cw("E", 6)


@pytest.mark.parametrize("family,n", [(fam, n) for fam, (lo, hi) in EULER_CW_RANGE.items()
                                      for n in range(lo, hi + 1)])
def test_euler_cw_matches_the_series_over_its_range(family, n):
    series = euler_from_x(n) if family == "A" else euler_from_bd(family, n)
    assert euler_cw(family, n) == series


def test_euler_cw_reaches_the_tubing_guard():
    assert EULER_CW_RANGE["B"][1] == EULER_CW_RANGE["D"][1] == TUBE_NODE_GUARD


def test_fvector_invariants_hold_under_python_O():
    # drop the tube {2} of the 3-node path: the f-vector (1, 4, 3) breaks
    # the Euler relation; give no tubes at all: the top codimension falls
    # short
    code = """
import wondermodels.polytopes as P
assert not __debug__
g = P.dynkin_graph("B", 3)
tubes = P.enumerate_tubes(g)
for kept in ([t for t in tubes if t != frozenset({2})], []):
    P.enumerate_tubes = lambda graph: kept
    try:
        P.fvector_tubings(g)
    except ArithmeticError as err:
        print(str(err).split()[0])
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Euler", "tubings"]
