import argparse
import contextlib
import io
import re
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymrep.cli import MAX_G, main
from prymrep.cyclotomic import MAX_D, MAX_DIGITS
from prymrep.predicates import GroupTag
from prymrep.ringlinalg import parse_matrix
from prymrep.wordlang import MAX_POWER, evaluate, parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_scalar(capsys):
    code, out, _ = run(capsys, "eval", "--d", "5", "--g", "2", "--word", "T")
    assert code == 0
    assert out == "z, 0 ; 0, z\n"


def test_eval_g1(capsys):
    code, out, _ = run(capsys, "eval", "--d", "5", "--g", "2", "--word", "G1(1)")
    assert code == 0
    assert out == "1, 1 ; 0, 1\n"


def test_eval_inverse_word(capsys):
    code, out, _ = run(capsys, "eval", "--d", "4", "--g", "3",
                       "--word", "TH(2)^-1")
    assert code == 0
    m = parse_matrix(out.strip(), 4)
    assert m == evaluate(parse("TH(2)"), 4, 3).mat.inverse()


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--d", "5", "--g", "2", "--word", "Q(1)")
    assert code == 2
    assert "unknown generator" in err


def test_eval_range_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--d", "5", "--g", "2", "--word", "Ti(2; 1)")
    assert code == 2
    assert "out of range" in err


def test_eval_static_index_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "--d", "5", "--g", "3", "--word", "TH(-1)")
    assert code == 2 and out == ""
    assert err.startswith("parse error: TH requires a positive index")
    assert err.count("\n") == 1


def test_check_member(capsys):
    code, out, _ = run(capsys, "check", "--d", "5", "--g", "2",
                       "--matrix", "1, 0 ; 0, 1", "--group", "Lambda")
    assert code == 0
    assert "member of Lambda" in out


def test_check_nonmember_reason(capsys):
    code, out, _ = run(capsys, "check", "--d", "5", "--g", "2",
                       "--matrix", "1, 0 ; 1, 1", "--group", "Lambda")
    assert code == 1
    assert "lower-left" in out


def test_check_remark_matrix(capsys):
    mat = "-1+2*z+2*z^4, 0 ; 0, 3+2*z+2*z^4"
    code, out, _ = run(capsys, "check", "--d", "5", "--g", "2",
                       "--matrix", mat, "--group", "UrUSharp")
    assert code == 0
    code, out, _ = run(capsys, "check", "--d", "5", "--g", "2",
                       "--matrix", mat, "--group", "Lambda")
    assert code == 1
    assert "det(D)" in out


def test_check_dimension_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "check", "--d", "5", "--g", "3",
                       "--matrix", "1, 0 ; 0, 1", "--group", "U")
    assert code == 2
    assert "expected" in err



def test_matrix_entries_are_reduced_as_they_are_read(capsys):
    # each z^100000 entry is a dense polynomial of 100001 ints until it is
    # reduced; kept for all 100 entries, the 1 KB argument peaked near 80 MB
    text = " ; ".join(", ".join(["z^100000"] * 10) for _ in range(10))
    tracemalloc.start()
    try:
        code = main(["check", "--d", "3", "--g", "2", "--group", "U", "--matrix", text])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (
        2, "error: matrix is 10x10, expected 2x2 for genus 2\n")
    assert peak < 16 * 2**20

def test_decompose_delta_round_trip(capsys):
    b_text = "2, z ; z^4, 1+z+z^4"
    code, out, _ = run(capsys, "decompose-delta", "--d", "5", "--g", "3",
                       "--B", b_text)
    assert code == 0
    word = parse(out.strip())
    b = parse_matrix(b_text, 5)
    m = evaluate(word, 5, 3)
    assert m.upper_right() == b


def test_decompose_delta_rejects_bad_block(capsys):
    code, _, err = run(capsys, "decompose-delta", "--d", "5", "--g", "3",
                       "--B", "0, 1 ; 0, 0")
    assert code == 2
    assert "self-adjoint" in err


def test_reduce_lambda(capsys):
    code, out, _ = run(capsys, "reduce-lambda", "--d", "5", "--g", "2",
                       "--matrix", "z, 3*z ; 0, z", "--word", "T")
    assert code == 0
    word = parse(out.strip())
    assert evaluate(word, 5, 2).to_text() == "z, 3*z ; 0, z"


def test_fox(capsys):
    code, out, _ = run(capsys, "fox", "--d", "3", "--g", "2",
                       "--map", "x1 -> x2 x1 x2^-1 ; x2 -> x2",
                       "--inverse", "x1 -> x2^-1 x1 x2 ; x2 -> x2")
    assert code == 0
    assert out == "z\n"


def test_fox_nonmember_exit_1(capsys):
    code, out, _ = run(capsys, "fox", "--d", "3", "--g", "2",
                       "--map", "x1 -> x1 x2 ; x2 -> x2",
                       "--inverse", "x1 -> x1 x2^-1 ; x2 -> x2")
    assert code == 1
    assert "exponent" in out


def test_fox_compound_left_side_exit_2(capsys):
    code, out, err = run(capsys, "fox", "--d", "3", "--g", "2",
                         "--map", "x1 x2 -> x1", "--inverse", "x1 -> x1")
    assert code == 2 and out == ""
    assert err == "error: left side of rule must be a single generator: 'x1 x2'\n"


def test_fox_generator_mapped_twice_exit_2(capsys):
    # refused by name, before the certificate could blame the inverse
    code, out, err = run(capsys, "fox", "--d", "3", "--g", "2",
                         "--map", "x1 -> x1 ; x1 -> x2", "--inverse", "x1 -> x1")
    assert code == 2 and out == ""
    assert err == "error: generator x1 is mapped twice\n"


def test_fox_is_linear_in_the_image_length(capsys):
    # a 24,001-letter image written out letter by letter: the Fox route walks
    # it once, where a walk that copies every prefix is quadratic
    image = " ".join(["x1 x2"] * 12000) + " x1"
    start = perf_counter()
    code, out, err = run(capsys, "fox", "--d", "3", "--g", "2",
                         "--map", f"x1 -> {image} ; x2 -> x1 x2",
                         "--inverse", "x1 -> x2^-12000 x1 ; x2 -> x1^-1 x2^12001")
    assert perf_counter() - start < 1.0
    # sum of zeta^e over e = 0..12000, the x2-exponents before each x1
    assert code == 0 and out == "1\n" and err == ""


@pytest.mark.parametrize("rules", [
    ("x1 -> x1^300000000", "x1 -> x1"),           # power past the parse budget
    ("x1 -> x1^100000", "x1 -> x1^-100000"),      # certificate walk of 10^10 letters
    ("x1 -> x1^5000000 ; x2 -> x2^5000001", "x1 -> x1"),  # rules that store 10^7 + 1
])
def test_fox_over_budget_exit_2(capsys, rules):
    start = perf_counter()
    code, out, err = run(capsys, "fox", "--d", "3", "--g", "2",
                         "--map", rules[0], "--inverse", rules[1])
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # an exponent past cyclotomic.MAX_EXPONENT, in a word and in a matrix
    ("eval", "--d", "5", "--g", "2", "--word", "Ti(1; z^200000000)"),
    ("check", "--d", "5", "--g", "2", "--matrix", "z^200000000, 0 ; 0, 1",
     "--group", "U"),
    # a modulus past cyclotomic.MAX_D
    ("eval", "--d", "200003", "--g", "2", "--word", "T"),
])
def test_ring_over_budget_exit_2(capsys, argv):
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(("error: ", "parse error: ")) and "budget" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_fox_routes_disagree_exit_2(capsys, monkeypatch):
    import prymrep.foxcover as fc
    from prymrep.ringlinalg import RingMatrix

    monkeypatch.setattr(fc, "eta_fox", lambda phi, d, g: RingMatrix.identity(d, g - 1))
    code, out, err = run(capsys, "fox", "--d", "3", "--g", "2",
                         "--map", "x1 -> x2 x1 x2^-1 ; x2 -> x2",
                         "--inverse", "x1 -> x2^-1 x1 x2 ; x2 -> x2")
    assert code == 2 and out == ""
    assert err == "error: chain-level and Fox-calculus routes disagree\n"


def test_selftest_small(capsys):
    code, out, _ = run(capsys, "selftest", "--max-d", "3", "--max-g", "2",
                       "--seed", "1")
    assert code == 0
    assert "all suites passed" in out
    assert out.count("PASS") >= 9


def test_selftest_injected_failure(capsys, monkeypatch):
    # a wrong T_{i,j}(1 - zeta^3) at d = 4 makes the identity sweep fail
    import prymrep.sweeps as sweeps
    from prymrep.cyclotomic import CycInt, one, zeta_pow
    from prymrep.generators import GenSpec
    real = sweeps.matrix_of

    def wrong_at_d4_k3(spec, d, g):
        if (d == 4 and spec.name == "Tij"
                and CycInt.from_poly(d, spec.scalar) == one(d) - zeta_pow(d, 3)):
            spec = GenSpec("Tij", spec.indices, (1,))
        return real(spec, d, g)

    monkeypatch.setattr(sweeps, "matrix_of", wrong_at_d4_k3)
    code, out, _ = run(capsys, "selftest", "--max-d", "4", "--max-g", "3")
    assert code == 1
    # 12 cases in d = 2, 3, none in (4, 2), the third in (4, 3) fails
    assert ("FAIL identity-sweep: 15 checks "
            "[mismatch at d=4 g=3 i=1 j=2 k=3]\n") in out
    assert "PASS commutator-sweep" in out
    assert out.endswith("selftest: FAILURES above\n")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--d", "5"])  # missing --g and --word
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "--d", "5", "--g", "2", "--matrix", "1, 0 ; 0, 1",
              "--group", "NoSuchGroup"])
    assert exc.value.code == 2


def test_d_and_g_bounds(capsys):
    code, _, err = run(capsys, "eval", "--d", "1", "--g", "2", "--word", "T")
    assert code == 2 and ">= 2" in err
    code, _, err = run(capsys, "eval", "--d", "5", "--g", "1", "--word", "T")
    assert code == 2 and ">= 2" in err


# Valid arguments of each command that takes --d and --g, and the same
# with another argument malformed.
_DG_COMMANDS = [
    (("eval", "--word", "T"), ("eval", "--word", "Q(1)")),
    (("check", "--matrix", "1, 0 ; 0, 1", "--group", "U"),
     ("check", "--matrix", "1, 0 ; 0", "--group", "U")),
    (("decompose-delta", "--B", "2"), ("decompose-delta", "--B", "z^")),
    (("reduce-lambda", "--matrix", "1, 1 ; 0, 1", "--word", "G1(1)"),
     ("reduce-lambda", "--matrix", "1, 1 ; 0, 1", "--word", "Q(1)")),
    (("fox", "--map", "x1 -> x1", "--inverse", "x1 -> x1"),
     ("fox", "--map", "x1 - x2", "--inverse", "x1 -> x1")),
]


@pytest.mark.parametrize("dg, message", [
    (("--d", "1", "--g", "2"), "error: d must be >= 2\n"),
    (("--d", "5", "--g", "1"), "error: g must be >= 2\n"),
    (("--d", "5", "--g", "201"), "error: genus g = 201 is over the budget MAX_G = 200\n"),
])
def test_d_and_g_are_checked_first(capsys, dg, message):
    # every command that takes --d and --g checks them before reading any
    # other argument
    for argvs in _DG_COMMANDS:
        for argv in argvs:
            assert run(capsys, argv[0], *dg, *argv[1:]) == (2, "", message)


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--max-d", "3", "--max-g", "3",
                         "--seed", "7")
    code2, out2, _ = run(capsys, "selftest", "--max-d", "3", "--max-g", "3",
                         "--seed", "7")
    assert (code1, out1) == (code2, out2)


def test_parser_is_built_once(monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    counts = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", "--d", "5", "--g", "2", "--word", "T"]) == 0
        counts.append(len(built))
        built.clear()
    # the parser and its six subcommands, unless an earlier call built them
    assert counts[0] in (0, 7) and counts[1] == 0


def test_usage_errors_repeat_exactly(capsys):
    for argv in (["eval", "--d", "5"],
                 ["check", "--d", "5", "--g", "2", "--matrix", "1, 0 ; 0, 1",
                  "--group", "NoSuchGroup"]):
        errs = []
        for _ in range(10):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0].startswith(f"usage: prymrep {argv[0]} ")
        assert errs[9] == errs[0]


_BIG = "9" * (MAX_DIGITS + 1000)
_URSP = "UrSp(2,1,0,0 ; 1,1,0,0 ; 0,0,1,-1 ; 0,0,-1,2)"
_UNIPOTENT = "UrSp(1,0,2,1 ; 0,1,1,-3 ; 0,0,1,0 ; 0,0,0,1)"
_NINES = "9" * 300
_NINES_1 = str(int(_NINES) - 1)


def _ursp_grid(n):
    return "UrSp(" + ";".join([",".join(["z^100000"] * n)] * n) + ")"


# each input past a budget, and the budget its message names
OVER_BUDGET = [
    (("eval", "--d", "3", "--g", "100000", "--word", "T"), "MAX_G"),
    (("selftest", "--max-d", "100000", "--max-g", "3"), "MAX_D"),
    (("selftest", "--max-d", "3", "--max-g", "100000"), "MAX_G"),
    (("eval", "--d", "3", "--g", "2", "--word", f"Ti(1; {_BIG})"), "MAX_DIGITS"),
    (("eval", "--d", "3", "--g", "2", "--word", f"G1(1)^{_BIG}"), "MAX_DIGITS"),
    (("check", "--d", "3", "--g", "2", "--matrix", f"{_BIG}, 0 ; 0, 1", "--group", "U"),
     "MAX_DIGITS"),
    (("fox", "--d", "3", "--g", "2", "--map", f"x1 -> x1^{_BIG}", "--inverse", "x1 -> x1"),
     "MAX_DIGITS"),
    (("eval", "--d", "3", "--g", "3", "--word", f"{_URSP}^100000000"), "MAX_POWER"),
    # every input is inside its budget, but the result has 8360-digit entries
    (("eval", "--d", "3", "--g", "3", "--word", f"{_URSP}^10000 * {_URSP}^10000"),
     "MAX_PRINT_DIGITS"),
    # the exponent is inside MAX_POWER, but the entries of the powers grow by
    # 300 digits per unit of it
    (("eval", "--d", "3", "--g", "3", "--word",
      f"UrSp({_NINES},{_NINES_1},0,0 ; 1,1,0,0 ; 0,0,1,-1 ; 0,0,-{_NINES_1},{_NINES})^10000"),
     "MAX_PRINT_DIGITS"),
    # literals of 100,001 dense coefficients each, in a grid of the wrong
    # shape (20x20 for genus 21) and of the right one (40x40)
    (("eval", "--d", "3", "--g", "21", "--word", _ursp_grid(20)), "MAX_DENSE"),
    (("eval", "--d", "3", "--g", "21", "--word", _ursp_grid(40)), "MAX_DENSE"),
    # each cell is inside MAX_D and MAX_G, but the runs would take about ten
    # minutes and well over a minute
    (("selftest", "--max-d", "3", "--max-g", "30"), "MAX_SELFTEST_WORK"),
    (("selftest", "--max-d", "1000", "--max-g", "3"), "MAX_SELFTEST_WORK"),
]


# literals that a backtracking match with two places for one run of
# whitespace rejects in time exponential in the terms or quadratic in the
# spaces; fixed examples of test_main_never_crashes, sized to fail it in
# seconds rather than hang
_SIGNS = "1 z+" * 24
_SPACES = " " * 20000 + "x"
SLOW_TO_REJECT = [
    ("eval", "--d", "3", "--g", "2", "--word", f"Ti(1; {_SIGNS})"),
    ("eval", "--d", "3", "--g", "2", "--word", f"Ti(1; {_SPACES})"),
    ("check", "--d", "3", "--g", "2", "--matrix", f"{_SIGNS}, 0 ; 0, 1", "--group", "U"),
    ("decompose-delta", "--d", "3", "--g", "2", "--B", f"{_SPACES}, 0 ; 0, 1"),
]


@pytest.mark.parametrize("argv,budget", OVER_BUDGET,
                         ids=[f"{a[0]}-{b}-{n}" for n, (a, b) in enumerate(OVER_BUDGET)])
def test_over_budget_exit_2(capsys, argv, budget):
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith(("error: ", "parse error: ")) and f"budget {budget} = " in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_inside_the_budgets_answers_at_once(capsys):
    start = perf_counter()
    code, out, err = run(capsys, "eval", "--d", "3", "--g", str(MAX_G), "--word", "T")
    assert perf_counter() - start < 1.0
    assert code == 0 and err == "" and out.count(";") == 2 * (MAX_G - 1) - 1
    start = perf_counter()
    code, out, err = run(capsys, "eval", "--d", "3", "--g", "3",
                         "--word", f"G1(1)^{10**20} * {_URSP}^-{MAX_POWER}")
    assert perf_counter() - start < 1.0
    assert code == 0 and err == "" and out.count(";") == 3
    # entries of 4180 digits, under MAX_PRINT_DIGITS, still print
    start = perf_counter()
    code, out, err = run(capsys, "eval", "--d", "3", "--g", "3", "--word", f"{_URSP}^10000")
    assert perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert max(map(len, re.findall(r"\d+", out))) == 4180


def test_disjoint_support_takes_any_exponent(capsys):
    # AH(1) has N = 0 and a unipotent UrSp N = [[0, S], [0, 0]]: column
    # operations, which MAX_POWER does not bound
    start = perf_counter()
    code, out, err = run(capsys, "eval", "--d", "3", "--g", "3",
                         "--word", f"AH(1)^{10**20} * {_UNIPOTENT}^{10**20}")
    assert perf_counter() - start < 1.0
    e = 10**20
    assert code == 0 and err == ""
    assert out == f"1, 0, {2 * e}, {e} ; 0, 1, {e}, {-3 * e} ; 0, 0, 1, 0 ; 0, 0, 0, 1\n"


def _pieces(*fragments, size=6):
    return st.lists(st.sampled_from(fragments), max_size=size).map("".join)


_WORDS = _pieces("T", "G1(1)", "Ti(1; 2 + z + z^2)", "Tij(1,-2; 3*z^7)", "TH(2)",
                 "THPrime(1,-2)", "AHPrime(2,1)", "Zeta(1)", "GammaIJK(1,2,3)", _URSP,
                 "AH(1)", "Zeta(3)", _UNIPOTENT,
                 "Foo", "(", ")", " * ", "^", "^-1", "^7", f"^{10**20}", f"^{MAX_POWER + 1}",
                 "; ", ",", "1", "-3", "z^", _BIG)
_MATRICES = _pieces("1", "0", "z", "-z^4", "2*z", "z^200000", ", ", " ; ", "x", _BIG)
_MAPS = _pieces("x1", "x2", "x3", " -> ", " ; ", "^-1", "^2", f"^{10**8}", " ", "x0", "y",
                _BIG, size=8)


@st.composite
def _argvs(draw):
    """argv for every subcommand, with arguments drawn in and out of range,
    in and out of the grammars, and past each budget."""
    kind = draw(st.sampled_from(("eval", "check", "decompose-delta", "reduce-lambda",
                                 "fox", "selftest", "raw")))
    if kind == "raw":
        return draw(st.lists(st.sampled_from(("eval", "fox", "selftest", "--d", "--g", "3",
                                              "--word", "T", "-h", "--bogus", "x")),
                             max_size=8))
    if kind == "selftest":
        return ["selftest", "--max-d", str(draw(st.sampled_from((1, 2, 3, MAX_D + 1)))),
                "--max-g", str(draw(st.sampled_from((1, 2, MAX_G + 1))))]
    argv = [kind, "--d", str(draw(st.sampled_from((-1, 1, 2, 3, 5, 12, MAX_D + 1)))),
            "--g", str(draw(st.sampled_from((0, 1, 2, 3, 4, MAX_G + 1))))]
    if kind in ("eval", "reduce-lambda"):
        argv.append("--word=" + draw(_WORDS))
    if kind in ("check", "reduce-lambda"):
        argv.append("--matrix=" + draw(_MATRICES))
    if kind == "check":
        argv += ["--group", draw(st.sampled_from([t.value for t in GroupTag]))]
    if kind == "decompose-delta":
        argv.append("--B=" + draw(_MATRICES))
    if kind == "fox":
        argv += ["--map=" + draw(_MAPS), "--inverse=" + draw(_MAPS)]
    return argv


def _fuzz_examples(test):
    for argv in (*(argv for argv, _ in OVER_BUDGET), *SLOW_TO_REJECT):
        test = example(list(argv))(test)
    return test


@given(_argvs())
@_fuzz_examples
@settings(max_examples=300, deadline=None)
def test_main_never_crashes(argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            usage = False
        except SystemExit as exc:  # argparse: a usage error, or --help
            code, usage = exc.code, True
    assert perf_counter() - start < 2.0, argv[:3]
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if usage:
        assert err.startswith("usage: ") if code else not err
    elif code == 2:
        assert out.getvalue() == "" and err.count("\n") == 1
        assert err.startswith(("error: ", "parse error: "))
    else:
        assert err == ""
