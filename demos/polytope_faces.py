"""Face counts and Euler characteristics of the real model tilings.

The real points of the compact models are tiled by chamber copies of
nestohedra: associahedra in type A, Dynkin graph associahedra in types B
and D.  Face counts arrive from two unrelated directions, a generating
series and a direct enumeration of tubings, and the gluing data then
turns them into Euler characteristics.

Run:  python3 demos/polytope_faces.py
"""

import math

from wondermodels.formulas import (
    euler_from_bd,
    euler_from_x,
    fvector_from_fcy,
    fvector_typeA,
    kirkman_cayley,
)
from wondermodels.polytopes import (
    count_plane_trees,
    dynkin_graph,
    enumerate_tubes,
    euler_cw,
    fvector_tubings,
)


def main():
    print("The pentagon, three ways.  Tubes of the path on 3 nodes:")
    path3 = dynkin_graph("A", 4)
    print("   ", ", ".join(str(set(t)) for t in enumerate_tubes(path3)))
    print(f"    tubing counts      {fvector_tubings(path3)}")
    print(f"    series route       {fvector_typeA(4)}")
    print(f"    closed formula     {[kirkman_cayley(4, s) for s in (1, 2, 3)]}")

    print()
    print("Associahedra further out (faces by codimension):")
    for n in range(5, 8):
        fv = fvector_typeA(n)
        assert fv == fvector_tubings(dynkin_graph("A", n))
        assert fv == [kirkman_cayley(n, s) for s in range(1, n)]
        print(f"    {n} points, dim {n - 2}:  {fv}")
    print("With labeled leaves the same counts come from plane rooted")
    print("forests, n! per face:")
    n = 5
    row = [count_plane_trees(n, s) for s in range(1, n)]
    print(f"    n = {n}:  {row}  =  {math.factorial(n)} * {fvector_typeA(n)}")

    print()
    print("Type B and D chambers (series vs tubings):")
    for family, ns in (("B", range(1, 6)), ("D", range(3, 6))):
        for n in ns:
            fv = fvector_from_fcy(family, n)
            assert fv == fvector_tubings(dynkin_graph(family, n))
            print(f"    {family} n={n}:  {fv}")
    print("    (D n=3 is reducible: its graph 2-1-3 is the path of the 4-point")
    print("    type A model, so its chamber is the pentagon again)")
    assert fvector_from_fcy("D", 3) == fvector_typeA(4)

    print()
    print("Euler characteristics.  Series route vs counting cells of the")
    print("CW structure (each codimension-j cell is shared by 2^j chambers):")
    for n in range(2, 8):
        chi = euler_from_x(n)
        assert chi == euler_cw("A", n)
        note = "  (odd-dimensional closed manifold)" if n % 2 and chi == 0 else ""
        print(f"    A n={n}:  {chi}{note}")
    print(f"    A n=8:  {euler_from_x(8)}  (series only)")
    for family, ns in (("B", range(1, 6)), ("D", range(3, 6))):
        for n in ns:
            chi = euler_from_bd(family, n)
            assert chi == euler_cw(family, n)
            print(f"    {family} n={n}:  {chi}")
    print(f"    (D n=3 equals the type A count {euler_cw('A', 4)} on 4 points)")


if __name__ == "__main__":
    main()
