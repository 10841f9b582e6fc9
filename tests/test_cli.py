"""CLI contract tests: exit codes, output schemas, byte stability."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import wondermodels.cli as cli
import wondermodels.cohomology as cohomology
from wondermodels.polytopes import dynkin_graph, fvector_tubings, gamma_vector, h_vector
from wondermodels.series import QPolynomial


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_poincare_both_json_exact_bytes(capsys):
    code, out = run_cli(capsys, "poincare", "--r", "1", "--p", "1", "--n", "6")
    assert code == 0
    assert out == ('{"group":{"n":6,"p":1,"r":1},"method":"both",'
                   '"poincare":[[0,1],[1,42],[2,127],[3,42],[4,1]],'
                   '"verdict":"match"}\n')


def test_poincare_series_csv(capsys):
    code, out = run_cli(capsys, "poincare", "--r", "2", "--p", "1", "--n", "3",
                        "--method", "series", "--format", "csv")
    assert code == 0
    assert out == "degree,coefficient\n0,1\n1,8\n2,1\n"


def test_poincare_rr_text(capsys):
    code, out = run_cli(capsys, "poincare", "--r", "2", "--p", "2", "--n", "3",
                        "--format", "text")
    assert code == 0
    assert out == "G(2,2,3) [both]: 1 + 5*q + q^2\nverdict: match\n"


def test_poincare_normalizes_intermediate_p(capsys):
    code, out = run_cli(capsys, "poincare", "--r", "4", "--p", "2", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == {"r": 4, "p": 2, "n": 3}
    assert doc["verdict"] == "match"
    assert doc["note"] == "Y_{G(4,2,3)} = Y_{G(4,1,3)}"
    assert doc["poincare"] == [[0, 1], [1, 20], [2, 1]]


def test_poincare_bruteforce_only_has_no_verdict(capsys):
    code, out = run_cli(capsys, "poincare", "--r", "2", "--p", "2", "--n", "4",
                        "--method", "bruteforce")
    assert code == 0
    doc = json.loads(out)
    assert "verdict" not in doc
    assert doc["poincare"] == [[0, 1], [1, 29], [2, 29], [3, 1]]


def test_poincare_guard_violation(capsys):
    # |B| = 10343, beyond the building-set guard of 5000
    code, _ = run_cli(capsys, "poincare", "--r", "2", "--p", "1", "--n", "9",
                      "--method", "bruteforce")
    assert code == 3


def test_poincare_has_no_guard_option(capsys):
    # the building-set guard is a constant; no flag changes it
    with pytest.raises(SystemExit) as exc:
        cli.main(["poincare", "--r", "2", "--p", "1", "--n", "3",
                  "--method", "bruteforce", "--seed-guard", "50"])
    captured = capsys.readouterr()
    assert exc.value.code == 4 and captured.out == ""
    assert "unrecognized arguments: --seed-guard 50" in captured.err


# one query per cap, and B and D each under their shared one
SERIES_GUARD_QUERIES = [
    (("poincare", "r=1"), ["poincare", "--method", "series"]),
    (("poincare", "r>=2"), ["poincare", "--r", "3", "--p", "3", "--method", "both"]),
    (("fvector", "A"), ["fvector", "--type", "A", "--method", "series"]),
    (("fvector", "B, D"), ["fvector", "--type", "B", "--method", "both"]),
    (("fvector", "B, D"), ["fvector", "--type", "D", "--method", "series"]),
    (("euler", "A"), ["euler", "--type", "A"]),
    (("euler", "B, D"), ["euler", "--type", "B"]),
    (("euler", "B, D"), ["euler", "--type", "D"]),
]
# the largest n of each family that a frozen byte gate asks for, and the
# largest r of a frozen poincare query
FROZEN_SERIES_N = {("poincare", "r=1"): 70, ("poincare", "r>=2"): 40,
                   ("fvector", "A"): 100, ("fvector", "B, D"): 60,
                   ("euler", "A"): 60, ("euler", "B, D"): 60}
FROZEN_POINCARE_R = 5


def test_every_series_family_has_a_cap_above_its_frozen_queries():
    assert sorted(cli.SERIES_N_GUARD) == sorted({key for key, _ in SERIES_GUARD_QUERIES}) \
        == sorted(FROZEN_SERIES_N)
    for key, n in FROZEN_SERIES_N.items():
        assert cli.SERIES_N_GUARD[key] > n, key
    assert cli.SERIES_R_GUARD > FROZEN_POINCARE_R


def no_series_built(monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("a series was built")
    for name in ("mul", "exp", "invert_one_minus"):
        monkeypatch.setattr(f"wondermodels.series.{name}", no_series)
        monkeypatch.setattr(f"wondermodels.formulas.{name}", no_series)


@pytest.mark.parametrize("key, argv", SERIES_GUARD_QUERIES,
                         ids=[" ".join(argv[:3]) for _, argv in SERIES_GUARD_QUERIES])
def test_series_verbs_refuse_n_above_their_cap(capsys, key, argv, monkeypatch):
    # the refusal comes before any series is built
    no_series_built(monkeypatch)
    n = str(cli.SERIES_N_GUARD[key] + 1)
    code = cli.main(argv + ["--n", n])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"answers n <= {cli.SERIES_N_GUARD[key]} for {key[1]}" in captured.err


@pytest.mark.parametrize("r", [cli.SERIES_R_GUARD + 1, 10 ** 1000], ids=["cap+1", "10**1000"])
@pytest.mark.parametrize("method", ["series", "both"])
def test_poincare_by_series_refuses_r_above_its_cap(capsys, r, method, monkeypatch):
    # the coefficients grow with r, so n alone does not bound the cost
    no_series_built(monkeypatch)
    code = cli.main(["poincare", "--r", str(r), "--p", "1", "--n", "3", "--method", method])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"answers r <= {cli.SERIES_R_GUARD}, got r = {r}" in captured.err


def test_poincare_by_series_answers_at_the_r_cap(capsys):
    code, out = run_cli(capsys, "poincare", "--r", str(cli.SERIES_R_GUARD), "--p", "1",
                        "--n", "3", "--method", "series")
    assert code == 0 and out


# within the series caps but beyond the enumeration guards
ENUMERATION_GUARD_QUERIES = [
    ["poincare", "--n", "150"],
    ["poincare", "--r", "2", "--p", "1", "--n", "80"],
    ["fvector", "--type", "B", "--n", "100"],
    ["fvector", "--type", "D", "--n", "100"],
]


@pytest.mark.parametrize("argv", ENUMERATION_GUARD_QUERIES, ids=" ".join)
def test_both_methods_refuse_at_the_enumeration_guard_before_any_series(
        capsys, argv, monkeypatch):
    # --method both, the default, decides the enumeration guard first
    def no_series_answer(*args, **kwargs):
        pytest.fail("a series answer was built before the enumeration guard")
    for name in ("poincare_from_psi", "phi_slice", "fvector_from_fcy", "fvector_typeA"):
        monkeypatch.setattr(cli, name, no_series_answer)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "guard violation" in captured.err and "by series" not in captured.err


def test_the_enumeration_walk_refuses_past_its_cap(capsys, monkeypatch):
    # the walk over G(1,1,6) reaches 148 nested sets
    monkeypatch.setattr(cohomology, "NESTED_SET_GUARD", 100)
    code = cli.main(["poincare", "--method", "bruteforce", "--n", "6"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("guard violation: ") and "100 nested sets" in err, err


def test_series_guard_refuses_in_a_fresh_process():
    # each query would run for hours by series; the refusal exits at once.
    # The in-process tests above show that no series is built, so the time
    # bound is generous: it holds interpreter start on a loaded host.
    for argv in (["poincare", "--n", "100000", "--method", "series"],
                 ["poincare", "--r", "1000000", "--n", "80", "--method", "series"],
                 ["fvector", "--type", "D", "--n", "100000", "--method", "series"],
                 ["euler", "--type", "B", "--n", "100000"]):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "wondermodels", *argv],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 3 and proc.stdout == "", argv
        assert "guard violation" in proc.stderr
        assert elapsed < 10.0, (argv, elapsed)


def test_poincare_bad_group(capsys):
    code, _ = run_cli(capsys, "poincare", "--r", "3", "--p", "2", "--n", "3")
    assert code == 4


def test_poincare_missing_n_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["poincare", "--r", "2", "--p", "1"])
    assert exc.value.code == 4


def test_fvector_d4_json(capsys):
    code, out = run_cli(capsys, "fvector", "--type", "D", "--n", "4")
    assert code == 0
    assert out == ('{"fvector":[1,10,24,16],"method":"both","n":4,'
                   '"type":"D","verdict":"match"}\n')


def test_fvector_b3_both(capsys):
    code, out = run_cli(capsys, "fvector", "--type", "B", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["fvector"] == [1, 5, 5]
    assert doc["verdict"] == "match"


def test_fvector_a_series(capsys):
    code, out = run_cli(capsys, "fvector", "--type", "A", "--n", "4",
                        "--method", "series")
    assert code == 0
    assert json.loads(out)["fvector"] == [1, 5, 5]
    code, out = run_cli(capsys, "fvector", "--type", "A", "--n", "2",
                        "--method", "series")
    assert code == 0
    assert json.loads(out)["fvector"] == [1]


def test_fvector_a2_tubings_match_the_series(capsys):
    # A_2 is the one-node path, a point: one face, like B_1
    code, out = run_cli(capsys, "fvector", "--type", "A", "--n", "2",
                        "--method", "tubings")
    assert code == 0
    assert json.loads(out)["fvector"] == [1]
    code, out = run_cli(capsys, "fvector", "--type", "A", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["fvector"] == [1]
    assert doc["verdict"] == "match"


def test_fvector_d3_reducible(capsys):
    code, out = run_cli(capsys, "fvector", "--type", "D", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["fvector"] == [1, 5, 5]
    assert doc["verdict"] == "match"
    assert "reducible" in doc["note"]


def test_fvector_csv(capsys):
    code, out = run_cli(capsys, "fvector", "--type", "B", "--n", "2",
                        "--format", "csv")
    assert code == 0
    assert out == "codimension,count\n0,1\n1,2\n"


def test_fvector_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fvector_from_fcy", lambda variant, n: [1, 2, 3])
    code, out = run_cli(capsys, "fvector", "--type", "B", "--n", "3")
    assert code == 2
    assert json.loads(out)["verdict"] == "mismatch"


@pytest.mark.parametrize("family, ns", [("A", range(2, 31)), ("B", range(1, 31)),
                                         ("D", [3, *range(4, 31)])])
def test_series_fvectors_keep_dehn_sommerville_and_gamma(family, ns):
    for n in ns:
        fvec = cli._fvector_series(family, n)
        h = h_vector(fvec)
        assert h == h[::-1], (family, n)
        assert min(gamma_vector(h)) >= 0, (family, n)
        cli._check_face_numbers(family, n, fvec)


def test_series_fvector_face_numbers_hold_under_python_O():
    # a series f-vector whose h-vector is not palindromic, or whose
    # gamma-vector goes negative (the triangle), is an inconsistency (exit 2)
    # even when asserts are stripped
    code = """
import wondermodels.cli as cli
assert not __debug__
for route, argv in (("fvector_typeA", ["--type", "A", "--n", "4"]),
                    ("fvector_from_fcy", ["--type", "B", "--n", "3"]),
                    ("fvector_from_fcy", ["--type", "D", "--n", "3"])):
    for fvec in ([1, 2, 3], [1, 3, 3]):
        setattr(cli, route, lambda *args, fvec=fvec: fvec)
        print(cli.main(["fvector", "--method", "series", *argv]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"] * 6
    assert proc.stderr.count("not palindromic with nonnegative gamma-vector") == 6


def test_series_fvectors_of_associahedra_are_kirkman_cayley_under_python_O():
    # [1, 4, 4] is a square: its h-vector is palindromic with gamma >= 0, but
    # A4, B3 and D3 are the pentagon, the 4-point associahedron
    code = """
import wondermodels.cli as cli
assert not __debug__
for route, argv in (("fvector_typeA", ["--type", "A", "--n", "4"]),
                    ("fvector_from_fcy", ["--type", "B", "--n", "3"]),
                    ("fvector_from_fcy", ["--type", "D", "--n", "3"])):
    setattr(cli, route, lambda *args: [1, 4, 4])
    print(cli.main(["fvector", "--method", "series", *argv]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"] * 3
    assert proc.stderr.count("inconsistency: ") == 3
    assert proc.stderr.count("is not the Kirkman-Cayley f-vector of the 4-point") == 3


def test_series_fvectors_of_type_D_have_the_tubes_as_facets_under_python_O():
    # [1, 9, 21, 14], the 5-point associahedron, passes the h- and
    # gamma-vector check (h = [1, 6, 6, 1], gamma = [1, 3]), but D4 has 10 tubes
    code = """
import wondermodels.cli as cli
assert not __debug__
cli.fvector_from_fcy = lambda *args: [1, 9, 21, 14]
print(cli.main(["fvector", "--method", "series", "--type", "D", "--n", "4"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]
    assert "does not have the 10 tubes of the D_4 Dynkin graph" in proc.stderr


@pytest.mark.parametrize("n", range(3, 13))
def test_the_face_number_check_passes_the_tubing_f_vectors_of_type_D(n):
    # the check's count of D_n tubes against the tubings route's facets
    cli._check_face_numbers("D", n, fvector_tubings(dynkin_graph("D", n)))


def test_internal_inconsistency_exits_2(capsys, monkeypatch):
    def boom(variant, n):
        raise ArithmeticError("non-integer face count")
    monkeypatch.setattr(cli, "fvector_from_fcy", boom)
    code, _ = run_cli(capsys, "fvector", "--type", "B", "--n", "3")
    assert code == 2


def test_poincare_reports_a_disagreement_between_routes_as_a_mismatch(capsys, monkeypatch):
    # 1 + 2q breaks duality, but a mismatch is the verdict that is reported,
    # as fvector reports it: the series invariant is not applied
    monkeypatch.setattr(cli, "poincare_from_psi", lambda n: QPolynomial({0: 1, 1: 2}))
    code, out = run_cli(capsys, "poincare", "--n", "4")
    assert code == 2
    assert out == ('{"group":{"n":4,"p":1,"r":1},"method":"both",'
                   '"poincare":[[0,1],[1,2]],"verdict":"mismatch"}\n')


def test_routes_that_agree_on_an_answer_that_breaks_the_invariant_exit_2(capsys, monkeypatch):
    poly = QPolynomial({0: 1, 1: 2})
    monkeypatch.setattr(cli, "poincare_from_psi", lambda n: poly)
    monkeypatch.setattr(cli, "poincare_bruteforce", lambda g: poly)
    code = cli.main(["poincare", "--n", "4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("inconsistency: ") and "is not palindromic" in err, err


def test_series_poincare_duality_holds_under_python_O():
    # a series answer that is not palindromic, or palindromic of the wrong
    # degree, is an inconsistency (exit 2) even when asserts are stripped
    code = """
import sys
import wondermodels.cli as cli
from wondermodels.series import QPolynomial
assert not __debug__
for route, argv in (("poincare_from_psi", ["--n", "3"]),
                    ("poincare_from_phi", ["--r", "2", "--n", "3"]),
                    ("poincare_from_phi", ["--r", "2", "--p", "2", "--n", "3"])):
    for poly in (QPolynomial({0: 1, 1: 2}), QPolynomial({0: 1, 3: 1})):
        setattr(cli, route, lambda *args, poly=poly: poly)
        print(cli.main(["poincare", "--method", "series", *argv]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"] * 6
    assert proc.stderr.count("is not palindromic of degree") == 6


@pytest.mark.parametrize("coeffs", [{0: 1, 1: 3, 2: 1, 3: 3, 4: 1}, {0: 2, 2: 1, 4: 2}],
                         ids=["dip", "zero-gaps"])
def test_series_poincare_hard_lefschetz(capsys, monkeypatch, coeffs):
    # a palindromic answer of the right degree whose coefficients dip before
    # the middle (zero coefficients included) breaks hard Lefschetz: exit 2
    poly = QPolynomial(coeffs)
    for route, argv in (("poincare_from_psi", ["--n", "6"]),
                        ("poincare_from_phi", ["--r", "2", "--n", "5"]),
                        ("poincare_from_phi", ["--r", "2", "--p", "2", "--n", "5"])):
        monkeypatch.setattr(cli, route, lambda *args: poly)
        code = cli.main(["poincare", "--method", "series", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err.startswith("inconsistency: ") and "is not unimodal" in err, err


def test_series_poincare_of_reducible_g222_is_a_point(capsys):
    code, out = run_cli(capsys, "poincare", "--r", "2", "--p", "2", "--n", "2")
    assert code == 0
    assert json.loads(out)["poincare"] == [[0, 1]]


def test_euler_a3(capsys):
    code, out = run_cli(capsys, "euler", "--type", "A", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"type": "A", "n": 3, "euler": 0,
                   "verdict": "match", "oracle": 0}


def test_euler_without_oracle(capsys):
    # the cell-count route stops at the tubing guard, n = 12 for type B;
    # value only, no verdict
    code, out = run_cli(capsys, "euler", "--type", "B", "--n", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"type": "B", "n": 13, "euler": 821966745600}


def test_euler_d3_uses_reducibility(capsys):
    code, out = run_cli(capsys, "euler", "--type", "D", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["euler"] == -3
    assert doc["oracle"] == -3
    assert doc["verdict"] == "match"
    assert "reducible" in doc["note"]


def test_series_euler_is_0_in_odd_dimension_under_python_O():
    # dimension n - 2 in type A and n - 1 in B and D: A9, B14 and D14 are
    # beyond the cell count, so the series answers alone and is checked
    code = """
import wondermodels.cli as cli
assert not __debug__
for route, argv in (("euler_from_x", ["--type", "A", "--n", "9"]),
                    ("euler_from_bd", ["--type", "B", "--n", "14"]),
                    ("euler_from_bd", ["--type", "D", "--n", "14"])):
    setattr(cli, route, lambda *args: 1)
    print(cli.main(["euler", *argv]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"] * 3
    assert proc.stderr.count("inconsistency: ") == 3
    assert proc.stderr.count("is not 0 in odd dimension") == 3


def test_euler_in_even_dimension_is_not_held_to_0(capsys, monkeypatch):
    monkeypatch.setattr(cli, "euler_from_x", lambda n: 1)
    code, out = run_cli(capsys, "euler", "--type", "A", "--n", "10")
    assert code == 0
    assert json.loads(out) == {"type": "A", "n": 10, "euler": 1}


def test_euler_text(capsys):
    code, out = run_cli(capsys, "euler", "--type", "B", "--n", "3",
                        "--format", "text")
    assert code == 0
    assert out == "B n=3: euler characteristic -6 (match vs cell count -6)\n"


def test_series_dump_psi(capsys):
    code, out = run_cli(capsys, "series-dump", "psi", "--trunc", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "psi"
    assert doc["trunc"] == 7
    slice_z1t6 = {rec["q"]: Fraction(rec["num"], rec["den"])
                  for rec in doc["terms"] if rec["t"] == 6 and rec["z"] == 1}
    assert slice_z1t6 == {1: Fraction(42, 720), 2: Fraction(22, 720),
                          3: Fraction(7, 720), 4: Fraction(1, 720)}


def test_series_dump_needs_r_for_phi(capsys):
    code, out = run_cli(capsys, "series-dump", "phiFull", "--r", "3",
                        "--trunc", "4")
    assert code == 0
    assert json.loads(out)["name"] == "phiFull"
    # r defaults to 2 for the series that need one
    code, out = run_cli(capsys, "series-dump", "phiRR", "--trunc", "4")
    assert code == 0


@pytest.mark.parametrize("name", sorted(cli.SERIES_REGISTRY))
def test_series_dump_rejects_r_below_1(capsys, name):
    for r in ("0", "-2"):
        code, out = run_cli(capsys, "series-dump", name, "--r", r, "--trunc", "4")
        assert code == 4 and out == "", (name, r)


def test_series_dump_trunc_guard(capsys):
    code, _ = run_cli(capsys, "series-dump", "psi", "--trunc", "13")
    assert code == 3


@pytest.mark.parametrize("trunc", ["0", "-2"])
def test_series_dump_trunc_below_one_is_a_bad_argument(capsys, trunc):
    code, out = run_cli(capsys, "series-dump", "psi", "--trunc", trunc)
    assert code == 4 and out == ""


def test_series_dump_unknown_name_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series-dump", "nope", "--trunc", "4"])
    assert exc.value.code == 4


def test_series_dump_all_names(capsys):
    for name in cli.SERIES_REGISTRY:
        code, out = run_cli(capsys, "series-dump", name, "--trunc", "3")
        assert code == 0, name
        assert json.loads(out)["name"] == name


def test_byte_stability(capsys):
    _, first = run_cli(capsys, "poincare", "--r", "2", "--p", "1", "--n", "4")
    _, second = run_cli(capsys, "poincare", "--r", "2", "--p", "1", "--n", "4")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["fvector", "--type", "B", "--n", "3", "--seed-guard", "5"],
    ["euler", "--type", "B", "--n", "3", "--seed-guard", "5"],
    ["selftest", "--format", "csv"],
    ["poincare", "--n", "4", "--trunc", "9"],
    ["poincare", "--r", "2", "--n", "4", "--trunc", "2"],
])
def test_options_that_do_not_apply_exit_4(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 4


def test_selftest_json(capsys):
    code, out = run_cli(capsys, "selftest", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["checks"]) == 11
    assert all(c["ok"] for c in doc["checks"])


ONE_PROCESS_CALLS = [
    ["poincare", "--n", "5", "--bogus"],
    ["poincare", "--r", "2", "--n", "3", "--format", "text"],
    ["fvector", "--type", "D", "--n", "4", "--format", "csv"],
    ["euler", "--type", "B", "--n", "3"],
    ["series-dump", "K", "--trunc", "3"],
    ["series-dump", "nope", "--trunc", "3"],
    ["poincare", "--n", "4", "--method", "bruteforce"],
]


def test_one_parser_serves_every_call_alike(capsys):
    # the parser is built once per process; a bad-args call and the verbs
    # after it must print what a fresh process prints for each of them
    assert cli.build_parser() is cli.build_parser()
    for argv in ONE_PROCESS_CALLS:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "wondermodels", *argv],
                               capture_output=True, text=True, timeout=120)
        assert (code, got.out, got.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wondermodels", "poincare", "--r", "1",
         "--p", "1", "--n", "4", "--method", "series"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["poincare"] == [[0, 1], [1, 5], [2, 1]]


def test_closed_stdout_exits_quietly():
    # the read end is closed before the child starts, so its first write
    # to stdout fails with a broken pipe
    for argv in (["series-dump", "psi", "--trunc", "3"],
                 ["series-dump", "phiFull", "--r", "3", "--trunc", "12"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "wondermodels", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == "", proc.stderr  # no traceback, no ignored error
        assert proc.returncode == cli.EXIT_CLOSED_STDOUT == 1, argv


def test_start_up_imports_no_dataclasses_or_inspect():
    # every CLI call pays for the import; dataclasses alone pulls in
    # inspect, ast, dis and tokenize, a third of the package's start-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; bare = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "from wondermodels import cli; cli.build_parser(); "
            "print(*sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "wondermodels.cohomology" in added and "wondermodels.polytopes" in added
    assert {"dataclasses", "inspect"} & set(added) == set()
