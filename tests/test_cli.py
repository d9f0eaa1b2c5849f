from time import perf_counter

import pytest

from prymrep.cli import main
from prymrep.ringlinalg import parse_matrix
from prymrep.wordlang import evaluate, parse


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


@pytest.mark.parametrize("rules", [
    ("x1 -> x1^300000000", "x1 -> x1"),           # power past the parse budget
    ("x1 -> x1^100000", "x1 -> x1^-100000"),      # certificate walk of 10^10 letters
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
    from prymrep.cyclotomic import one, zeta_pow
    real = sweeps.elem_Tij

    def wrong_at_d4_k3(g, d, i, j, r):
        if d == 4 and r == one(d) - zeta_pow(d, 3):
            r = one(d)
        return real(g, d, i, j, r)

    monkeypatch.setattr(sweeps, "elem_Tij", wrong_at_d4_k3)
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


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--max-d", "3", "--max-g", "3",
                         "--seed", "7")
    code2, out2, _ = run(capsys, "selftest", "--max-d", "3", "--max-g", "3",
                         "--seed", "7")
    assert (code1, out1) == (code2, out2)
