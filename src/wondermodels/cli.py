"""Command-line frontend.

Verbs:
  poincare     Poincare polynomial of one model, by series, enumeration or both
  fvector      f-vector of one nestohedron family member, by series, tubings or both
  euler        Euler characteristic of one compact real model, with cross-check
  series-dump  one named generating series as canonical JSON
  selftest     run every acceptance check, one line each

Exit codes: 0 success/match, 1 stdout closed before the output was written
(say by `| head`), 2 a mismatch between the two routes, or a series answer
that breaks its verb's invariant when the routes agreed or the series ran
alone, 3 guard violation, 4 bad arguments.  All output is deterministic:
terms, rows and keys are sorted, so identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cohomology import poincare_bruteforce
from .formulas import (
    D3_DEGENERATE_NOTE,
    big_gamma,
    cal_k,
    euler_from_bd,
    euler_from_x,
    f_cy,
    f_typeA,
    fvector_from_fcy,
    fvector_typeA,
    gamma_series,
    k_series,
    kirkman_cayley,
    phi_full_monomial,
    phi_rr,
    phi_slice,
    poincare_from_phi,
    poincare_from_psi,
    psi_series,
    tilde_big_gamma,
    x_typeA,
)
from .lattice import GroupId, GuardExceeded, Variant
from .polytopes import (
    EULER_CW_RANGE,
    dynkin_graph,
    euler_cw,
    fvector_tubings,
    gamma_vector,
    h_vector,
)
from .series import QPolynomial, dump_json

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_MISMATCH = 2
EXIT_GUARD = 3
EXIT_BADARGS = 4

DUMP_TRUNC_GUARD = 12

# The largest n the series route answers, per verb and per family whose
# cost differs (B and D share one cap, sized on the costlier), and the
# largest r of poincare by series, whose coefficients grow with r; at its
# caps each verb answers by series within about 10 s on a 2-core host
# (README, "Guards and conventions").  Beyond a cap a verb refuses with
# exit 3 before any series is built, and so does --method both when the
# enumeration guard refuses, as it does far below these caps.
SERIES_N_GUARD = {
    ("poincare", "r=1"): 150,
    ("poincare", "r>=2"): 80,
    ("fvector", "A"): 170,
    ("fvector", "B, D"): 100,
    ("euler", "A"): 250,
    ("euler", "B, D"): 200,
}
SERIES_R_GUARD = 1024

# r-independent series take and ignore r so the dispatch below stays
# uniform; run_series_dump refuses r < 1 for every name
SERIES_REGISTRY = {
    "psi": lambda r, trunc: psi_series(trunc),
    "K": k_series,
    "gamma": gamma_series,
    "Gamma": big_gamma,
    "calK": cal_k,
    "phiFull": phi_full_monomial,
    "phiRR": phi_rr,
    "F": lambda r, trunc: f_typeA(trunc),
    "X": lambda r, trunc: x_typeA(trunc),
    "tildeGamma": lambda r, trunc: tilde_big_gamma(trunc),
    "FcyB": lambda r, trunc: f_cy("B", trunc),
    "FcyD": lambda r, trunc: f_cy("D", trunc),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BADARGS, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it was."""
    parser = _Parser(prog="wondermodels", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    p = sub.add_parser("poincare", help="Poincare polynomial of Y_G(r,p,n)")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("series", "bruteforce", "both"),
                   default="both")
    _format_flag(p)

    f = sub.add_parser("fvector", help="f-vector of one nestohedron")
    f.add_argument("--type", dest="family", choices=("A", "B", "D"), required=True)
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--method", choices=("series", "tubings", "both"),
                   default="both")
    _format_flag(f)

    e = sub.add_parser("euler", help="Euler characteristic of one compact real model")
    e.add_argument("--type", dest="family", choices=("A", "B", "D"), required=True)
    e.add_argument("--n", type=int, required=True)
    _format_flag(e)

    d = sub.add_parser("series-dump", help="one generating series as canonical JSON")
    d.add_argument("name", choices=sorted(SERIES_REGISTRY))
    d.add_argument("--r", type=int, default=2,
                   help="group parameter for the series that need one")
    d.add_argument("--trunc", type=int, required=True,
                   help=f"series depth, at most {DUMP_TRUNC_GUARD}")

    s = sub.add_parser("selftest", help="run every acceptance check")
    s.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, separators=(",", ":"), sort_keys=True))


def _emit(fmt: str, doc: dict, text: list[str], csv: list[tuple]) -> int:
    """Print one answer in the format fmt and return the exit code.

    doc is the json form; its keys with value None are left out, and its
    "note" ends the text form.  text holds the other lines of the text
    form, csv the header and the data rows.
    """
    doc = {k: v for k, v in doc.items() if v is not None}
    if fmt == "json":
        _emit_json(doc)
    elif fmt == "csv":
        for row in csv:
            print(",".join(str(x) for x in row))
    else:
        if "note" in doc:
            text = text + [f"note: {doc['note']}"]
        print("\n".join(text))
    return EXIT_MISMATCH if doc.get("verdict") == "mismatch" else EXIT_OK


def _check_series_n(verb: str, family: str, n: int) -> None:
    cap = SERIES_N_GUARD[verb, family]
    if n > cap:
        raise GuardExceeded(f"{verb} by series answers n <= {cap} for {family}, got n = {n}")


def _run_routes(method: str, cap, other, series, invariant) -> tuple:
    """Run a verb's routes and return (answer, other route's answer, verdict).

    The series route runs when method is "series" or "both", the other
    route (enumeration or cell count) when it is not "series".  In that
    order: cap() refuses with GuardExceeded before any work, other() runs
    and its own guard refuses before any work, then series() builds the
    series answer.  The answer is the series one when it ran, else the
    other's; the verdict compares the two when both ran, else it is None.
    invariant(series answer) raises ArithmeticError (exit 2) unless the
    verdict is "mismatch", which is already exit 2.
    """
    by_series = method in ("series", "both")
    if by_series:
        cap()
    theirs = None if method == "series" else other()
    if not by_series:
        return theirs, theirs, None
    ours = series()
    verdict = None if method == "series" else "match" if ours == theirs else "mismatch"
    if verdict != "mismatch":
        invariant(ours)
    return ours, theirs, verdict


def _poincare_cap(g: GroupId) -> None:
    _check_series_n("poincare", "r=1" if g.r == 1 else "r>=2", g.n)
    if g.r > SERIES_R_GUARD:
        raise GuardExceeded(f"poincare by series answers r <= {SERIES_R_GUARD}, "
                            f"got r = {g.r}")


def _poincare_series(g: GroupId) -> QPolynomial:
    if g.variant is Variant.TYPE_A:
        return poincare_from_psi(g.n)
    phi = phi_rr if g.variant is Variant.RR else phi_full_monomial
    return poincare_from_phi(phi_slice(phi, g.r, g.n), g.n)


def _check_poincare(g: GroupId, poly: QPolynomial) -> None:
    """Poincare duality: poly is palindromic of degree the complex dimension
    of the model; and hard Lefschetz (the model is smooth projective): it is
    unimodal."""
    dim = g.n - 2 if g.variant is Variant.TYPE_A else g.n - 1
    if (g.r, g.p, g.n) == (2, 2, 2):
        # the one reducible group (S_2 x S_2): its model is a point
        dim = 0
    if poly.degree() != dim or not poly.is_palindromic():
        raise ArithmeticError(f"series Poincare polynomial {poly} of {g} is not "
                              f"palindromic of degree {dim}")
    # palindromic, so unimodal exactly when nondecreasing up to the middle
    rising = [poly[e] for e in range(dim // 2 + 1)]
    if rising != sorted(rising):
        raise ArithmeticError(f"series Poincare polynomial {poly} of {g} is not unimodal")


def run_poincare(args) -> int:
    g = GroupId(args.r, args.p, args.n)
    poly, _, verdict = _run_routes(
        args.method, lambda: _poincare_cap(g), lambda: poincare_bruteforce(g),
        lambda: _poincare_series(g), lambda poly: _check_poincare(g, poly))
    note = None
    if 1 < g.p < g.r:
        note = f"Y_{{G({g.r},{g.p},{g.n})}} = Y_{{G({g.r},1,{g.n})}}"
    text = [f"{g} [{args.method}]: {poly}"]
    if verdict:
        text.append(f"verdict: {verdict}")
    return _emit(args.format,
                 {"group": {"r": g.r, "p": g.p, "n": g.n}, "method": args.method,
                  "poincare": [list(kv) for kv in poly.as_pairs()],
                  "verdict": verdict, "note": note},
                 text, [("degree", "coefficient"), *poly.as_pairs()])


def _fvector_series(family: str, n: int) -> list[int]:
    if family == "A":
        return fvector_typeA(n)
    return fvector_from_fcy(family, n)


def _check_face_numbers(family: str, n: int, fvec: list[int]) -> None:
    """Every nestohedron is a simple polytope, and those of Dynkin graphs
    (chordal, being trees) have gamma >= 0 (Postnikov-Reiner-Williams):
    the h-vector of fvec must be palindromic (Dehn-Sommerville) with a
    nonnegative gamma-vector.  A_n, B_n and the reducible D_3 are the
    associahedra of n, n + 1 and 4 points, whose f-vectors are the
    Kirkman-Cayley numbers.  The facets of D_n are the tubes of its
    Dynkin graph: the intervals of the (n-2)-node path, each fork node
    alone or with an interval ending at node n - 2, and both fork nodes
    with a nonempty such interval, less the whole graph, so
    (n^2 + 3n - 8) / 2 of them."""
    h = h_vector(fvec)
    if h != h[::-1] or min(gamma_vector(h)) < 0:
        raise ArithmeticError(f"series f-vector {fvec} of {family} n={n} has h-vector {h}: "
                              "not palindromic with nonnegative gamma-vector")
    points = {"A": n, "B": n + 1, "D": 4 if n == 3 else None}[family]
    if points and fvec != [kirkman_cayley(points, s) for s in range(1, points)]:
        raise ArithmeticError(f"series f-vector {fvec} of {family} n={n} is not the "
                              f"Kirkman-Cayley f-vector of the {points}-point associahedron")
    tubes = (n * n + 3 * n - 8) // 2
    if family == "D" and fvec[1:2] != [tubes]:
        raise ArithmeticError(f"series f-vector {fvec} of D n={n} does not have the "
                              f"{tubes} tubes of the D_{n} Dynkin graph as its facets")


def run_fvector(args) -> int:
    family, n = args.family, args.n
    fvec, _, verdict = _run_routes(
        args.method, lambda: _check_series_n("fvector", "A" if family == "A" else "B, D", n),
        lambda: fvector_tubings(dynkin_graph(family, n)),
        lambda: _fvector_series(family, n), lambda fvec: _check_face_numbers(family, n, fvec))
    note = D3_DEGENERATE_NOTE if family == "D" and n == 3 else None
    text = [f"{family} n={n} [{args.method}]: {fvec}"]
    if verdict:
        text.append(f"verdict: {verdict}")
    return _emit(args.format,
                 {"type": family, "n": n, "fvector": fvec, "method": args.method,
                  "verdict": verdict, "note": note},
                 text, [("codimension", "count"), *enumerate(fvec)])


def _check_euler(family: str, n: int, chi: int) -> None:
    """A closed manifold of odd dimension has Euler characteristic 0; the
    real model has dimension n - 2 in type A, n - 1 in types B and D."""
    dim = n - 2 if family == "A" else n - 1
    if dim % 2 and chi != 0:
        raise ArithmeticError(f"series Euler characteristic {chi} of {family} n={n} "
                              f"is not 0 in odd dimension {dim}")


def run_euler(args) -> int:
    family, n = args.family, args.n
    lo, hi = EULER_CW_RANGE[family]
    value, oracle, verdict = _run_routes(
        "both" if lo <= n <= hi else "series",
        lambda: _check_series_n("euler", "A" if family == "A" else "B, D", n),
        lambda: euler_cw(family, n),
        lambda: euler_from_x(n) if family == "A" else euler_from_bd(family, n),
        lambda chi: _check_euler(family, n, chi))
    note = D3_DEGENERATE_NOTE if family == "D" and n == 3 else None
    text = f"{family} n={n}: euler characteristic {value}"
    if verdict:
        text += f" ({verdict} vs cell count {oracle})"
    return _emit(args.format,
                 {"type": family, "n": n, "euler": value,
                  "verdict": verdict, "oracle": oracle, "note": note},
                 [text], [("type", "n", "euler", "verdict"),
                          (family, n, value, verdict or "")])


def run_series_dump(args) -> int:
    if args.r < 1:
        raise ValueError(f"--r must be at least 1, got {args.r}")
    if args.trunc < 1:
        raise ValueError(f"--trunc must be at least 1, got {args.trunc}")
    if args.trunc > DUMP_TRUNC_GUARD:
        raise GuardExceeded(f"--trunc must be at most {DUMP_TRUNC_GUARD}, got {args.trunc}")
    series = SERIES_REGISTRY[args.name](args.r, args.trunc)
    print(dump_json(series, args.name))
    return EXIT_OK


def run_selftest(args) -> int:
    from .selftest import run_checks
    results = run_checks()
    if args.format == "json":
        _emit_json({"checks": [{"name": r.name, "ok": r.ok,
                                "seconds": round(r.seconds, 3),
                                "detail": r.detail} for r in results],
                    "ok": all(r.ok for r in results)})
    else:
        for r in results:
            print(r.line())
        n_bad = sum(1 for r in results if not r.ok)
        print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return EXIT_OK if all(r.ok for r in results) else EXIT_MISMATCH


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"poincare": run_poincare, "fvector": run_fvector,
               "euler": run_euler, "series-dump": run_series_dump,
               "selftest": run_selftest}[args.verb]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; stdout now points at devnull so that the
        # interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except GuardExceeded as err:
        print(f"guard violation: {err}", file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as err:
        # a non-integer count is an internal inconsistency, not a usage error
        print(f"inconsistency: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BADARGS


if __name__ == "__main__":
    sys.exit(main())
