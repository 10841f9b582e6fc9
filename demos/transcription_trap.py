"""Two readings of one exponent, told apart by the second route.

The block series for G(r,1,n) carries factors exp(r^(i-1) q [i-2]_q t^i / i!).
A plausible misreading of the denominator, (i!)^i instead of i!, changes
nothing below t^4: the misread factors start at the t^3 z term of the block
series, which first reaches the Poincare readout at n = 4.  So both
readings reproduce all the n <= 3 polynomials, and a low-order spot check
cannot tell them apart.  At n = 4 the enumeration route settles it: the
structural reading matches, the misreading does not even yield integer
coefficients.

Run:  python3 demos/transcription_trap.py
"""

from wondermodels.cohomology import poincare_bruteforce
from wondermodels.formulas import phi_full_monomial, poincare_from_phi
from wondermodels.lattice import GroupId
from wondermodels.selftest import misread_phi_full_monomial


def main():
    r = 2
    for n in (2, 3):
        enum = poincare_bruteforce(GroupId(r, 1, n))
        plain = poincare_from_phi(phi_full_monomial(r, n), n)
        misread = poincare_from_phi(misread_phi_full_monomial(r, n), n)
        print(f"G(2,1,{n}): enumeration gives {enum}")
        print(f"          both readings agree with it: "
              f"{plain == enum and misread == enum}")

    n = 4
    enum = poincare_bruteforce(GroupId(r, 1, n))
    plain = poincare_from_phi(phi_full_monomial(r, n), n)
    print(f"G(2,1,{n}): enumeration gives {enum}")
    print(f"          structural reading gives {plain}, match: {plain == enum}")
    try:
        poincare_from_phi(misread_phi_full_monomial(r, n), n)
        print("          misreading produced a polynomial, should not happen")
    except ArithmeticError as err:
        print(f"          misreading breaks down: {err}")

    print()
    print("Moral: pinning a formula against an independent computation has")
    print("to happen past the range where every candidate reading agrees.")


if __name__ == "__main__":
    main()
