"""The sweep runner: pinned self-test output and seeded inputs, and forced
failures that must name their cell and count the failing case."""

import hashlib
from time import perf_counter

import pytest

import prymrep.sweeps as sweeps
from prymrep.cli import main
from prymrep.cyclotomic import CycInt, one, zeta_pow
from prymrep.foxcover import MAX_LETTERS
from prymrep.generators import GenSpec
from prymrep.predicates import GroupTag, Verdict
from prymrep.ringlinalg import BlockMat, RingMatrix
from prymrep.wordlang import parse

# SHA-256 of the stdout of `prymrep selftest` with these options, taken
# before the sweeps shared one runner; the text must not change.
GOLDEN = [
    ((), "c1ca571b6512e0bbea6263e302eeb632756eb3a627d8d916a344a157bac25a1d"),
    (("--max-d", "4", "--max-g", "4", "--seed", "3"),
     "7c3560d9e4f8e7fece7466601acda476c242272b98615adf38dbb253ff7157f0"),
]


@pytest.mark.parametrize("options,digest", GOLDEN)
def test_selftest_output_is_pinned(capsys, options, digest):
    code = main(["selftest", *options])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_selftest_prints_each_suite_as_it_finishes(capsys, monkeypatch):
    # a raise in the sixth suite keeps the five PASS lines printed before it
    def broken(*args, **kwargs):
        raise ValueError("broken oracle")

    monkeypatch.setattr(sweeps, "oracle_sweep", broken)
    code = main(["selftest", "--max-d", "3", "--max-g", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and err == "error: broken oracle\n"
    lines = out.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines)


def test_selftest_draws_fit_the_certificate_budget(capsys):
    # at seed 0 a random_member draw at d = 15, g = 2 used to grow a
    # 40566660-letter certificate walk, and selftest stopped with exit 2
    start = perf_counter()
    code = main(["selftest", "--max-d", "15", "--max-g", "3"])
    out, err = capsys.readouterr()
    assert perf_counter() - start < 10.0
    assert code == 0 and err == "" and out.endswith("selftest: all suites passed\n")


def test_oracle_pairs_fit_the_certificate_budget():
    # `selftest --max-d 8 --max-g 3 --seed 2` used to exit 2: at d = 8, g = 2
    # the oracle sweep drew a pair whose walks fit MAX_LETTERS but whose
    # composite's certificate would walk 11695136 letters; the composite
    # carries the pass of its two factors, so it is never walked
    start = perf_counter()
    rep = sweeps.oracle_sweep(range(2, 9), range(2, 4), per_cell=6, pairs_per_cell=2, seed=2)
    assert perf_counter() - start < 10.0
    assert (rep.ok, rep.checked) == (True, 112)


def test_oracle_pairs_are_checked_as_drawn(monkeypatch):
    # no pair is drawn again: the over-budget composite of seed 2 reaches
    # eta_chain with the pass its factors carry
    over = []
    real = sweeps.eta_chain

    def logged(phi, d, g):
        if phi._certificate_walk() > MAX_LETTERS:
            over.append(vars(phi).get("_certificate_failure"))
        return real(phi, d, g)

    monkeypatch.setattr(sweeps, "eta_chain", logged)
    rep = sweeps.oracle_sweep(range(2, 9), range(2, 4), per_cell=6, pairs_per_cell=2, seed=2)
    assert (rep.ok, rep.checked) == (True, 112)
    assert over and all(failure == 0 for failure in over)


# (sweep, a function it calls on every case, arguments, keyword arguments,
# checks, calls, SHA-256 of the calls' arguments), taken before the sweeps
# shared one runner: the lazy case generators must hand every case the same
# seeded inputs, in the same order.
INPUTS = [
    ("soundness_sweep", "matrix_of", (range(2, 7), range(2, 5)), {"seed": 3},
     1415, 1415, "8f0aaaee443b60d4b0b1f621a9740949ed56f6bf9be72efdb0102d39dc5f6f01"),
    ("delta_roundtrip_sweep", "decompose_delta", ((2, 3, 5, 12), (2, 3, 4)),
     {"count": 7, "seed": 3},
     84, 84, "d9c137753a36b5d419a1b8bc633d4d6389dc793d26a35e75fc0d4b30fbede46a"),
    ("lambda_roundtrip_sweep", "reduce_lambda", ((2, 3, 5, 7), (2, 3, 4)),
     {"per_cell": 4, "seed": 3},
     48, 48, "ff447195410c67b6596331539a59ed075b530e91541a03cd6c2a0811d100ac06"),
    ("oracle_sweep", "eta_chain", (range(2, 6), range(2, 5)),
     {"per_cell": 3, "pairs_per_cell": 2, "seed": 3},
     60, 108, "4ab92a4d9e12069dcb949b4d4db0e060b03ea6d047fb784366b9da0298c2ee6b"),
    ("real_basis_sweep", "solve_real_basis", (range(2, 10),), {"count": 30, "seed": 3},
     240, 240, "8c9f03192d9ff15950ec7a33c724b83c366991064eb81291aa03df872044aed5"),
    ("genus2_sweep", "evaluate", (range(2, 8),),
     {"count": 40, "theta_pairs": 20, "seed": 3},
     60, 80, "e3ed7563e3526941822ac66361286abe6448704a600d5102d3b5744ef58a8ff4"),
    ("genus2_sweep", "evaluate", ((2, 4),), {"count": 10, "theta_pairs": 20, "seed": 1},
     10, 10, "0b37b246201c0b125e333d5732696562666ed6d9363fdd8e39d731f71b7e0b2b"),
]


@pytest.mark.parametrize("name,spy,args,kwargs,checks,calls,digest", INPUTS)
def test_seeded_inputs_are_pinned(monkeypatch, name, spy, args, kwargs, checks,
                                  calls, digest):
    log = []
    real = getattr(sweeps, spy)

    def logged(*a):
        log.append(repr(a))
        return real(*a)

    monkeypatch.setattr(sweeps, spy, logged)
    rep = getattr(sweeps, name)(*args, **kwargs)
    assert (rep.ok, rep.checked, len(log)) == (True, checks, calls)
    assert hashlib.sha256("\n".join(log).encode()).hexdigest() == digest


def test_run_counts_up_to_the_first_problem():
    def cases():
        yield "case a", None
        yield "case b", "broken"
        raise AssertionError("drawn past the first problem")

    def run(name, cases):  # the sweep `name` whose generator yields cases
        return sweeps._sweep(name)(lambda: cases)()

    rep = run("demo", cases())
    assert (rep.ok, rep.checked, rep.detail) == (False, 2, "broken at case b")
    assert run("demo", iter([("a", None)] * 3)).line() == "PASS demo: 3 checks"
    assert run("demo", iter(())).line() == "PASS demo: 0 checks"


def test_identity_failure_names_its_case(monkeypatch):
    real = sweeps.matrix_of

    def wrong_at_d4_k3(spec, d, g):
        if (d == 4 and spec.name == "Tij"
                and CycInt.from_poly(d, spec.scalar) == one(d) - zeta_pow(d, 3)):
            spec = GenSpec("Tij", spec.indices, (1,))
        return real(spec, d, g)

    before = sweeps.identity_sweep(range(2, 4), range(2, 4)).checked
    monkeypatch.setattr(sweeps, "matrix_of", wrong_at_d4_k3)
    rep = sweeps.identity_sweep(range(2, 7), range(2, 4))
    # (4, 2) has no (i, j); in (4, 3) the first pair is i=1, j=2
    assert not rep.ok
    assert rep.checked == before + 3
    assert rep.detail == "mismatch at d=4 g=3 i=1 j=2 k=3"


def test_soundness_failure_names_its_generator(monkeypatch):
    real = sweeps.matrix_of

    def doubled_twist(spec, d, g):
        m = real(spec, d, g)
        return m * 2 if spec.name == "TwistE" else m

    monkeypatch.setattr(sweeps, "matrix_of", doubled_twist)
    rep = sweeps.soundness_sweep(range(3, 5), range(2, 4))
    # d=3, g=2: T, Zeta(0..2), Ti(1; r) for 3 reals and Ti(-1; r) for the
    # same 3, AH(1), TH(1), then TwistE(1)
    assert not rep.ok
    assert rep.checked == 1 + 3 + 6 + 2 + 1
    assert rep.detail == "form broken at d=3 g=2 TwistE(1)"


def test_delta_emitted_generator_failure_is_counted(monkeypatch):
    real = sweeps.decompose_delta
    monkeypatch.setattr(sweeps, "decompose_delta",
                        lambda b, d, g: real(b, d, g) * parse("T"))
    rep = sweeps.delta_roundtrip_sweep((5,), (3,), count=4)
    assert not rep.ok
    assert rep.checked == 1
    assert rep.detail.startswith("unexpected generator T emitted at d=5 g=3 B=")


def test_oracle_and_remark_failures_name_their_case(monkeypatch):
    real_fox = sweeps.eta_fox
    monkeypatch.setattr(sweeps, "eta_fox", lambda phi, d, g: real_fox(phi, d, g) * 2)
    rep = sweeps.oracle_sweep(range(3, 5), range(2, 4), per_cell=2, pairs_per_cell=1)
    assert (rep.ok, rep.checked) == (False, 1)
    assert rep.detail.startswith("routes disagree at d=3 g=2 phi=Endo(")
    rep = sweeps.deck_scalar_sweep(range(2, 4), range(2, 4))
    assert (rep.ok, rep.checked) == (False, 1)
    assert rep.detail == "eta of the deck conjugation is not zeta Id at d=2 g=2"

    real_matrix_of = sweeps.matrix_of

    def doubled_gamma(spec, d, g):
        m = real_matrix_of(spec, d, g)
        return m * 2 if spec.name == "GammaIK" else m

    monkeypatch.setattr(sweeps, "matrix_of", doubled_gamma)
    rep = sweeps.remark_crosscheck()
    assert (rep.ok, rep.checked) == (False, 1)
    assert rep.detail == "image mismatch at d=5 g=2 T_gamma"


def test_genus2_failure_counts_the_failing_word(monkeypatch):
    real = sweeps.evaluate
    calls = []

    def wrong_third(word, d, g):
        calls.append(word)
        m = real(word, d, g)
        return m * 2 if len(calls) == 3 else m

    monkeypatch.setattr(sweeps, "evaluate", wrong_third)
    rep = sweeps.genus2_sweep(range(2, 6), count=10, theta_pairs=4, seed=1)
    assert (rep.ok, rep.checked) == (False, 3)
    assert f"at d=4 g=2 word={calls[2].render()!r}" in rep.detail


def _from_call(n, real, fault):
    """A stand-in for real that gives fault(*args) from its n-th call on."""
    calls = []

    def stand_in(*args):
        calls.append(args)
        return fault(*args) if len(calls) >= n else real(*args)
    return stand_in, calls


def test_soundness_clauses_name_their_first_failing_generator(monkeypatch):
    # d=3, g=2 runs T, Zeta(0..2), then Ti(1; r) for the sampled reals
    ue, _ = _from_call(5, sweeps.unit_exponent, lambda a: None)
    monkeypatch.setattr(sweeps, "unit_exponent", ue)
    rep = sweeps.soundness_sweep(range(3, 5), range(2, 4))
    assert (rep.ok, rep.checked, rep.detail) == (False, 5, "det not +-zeta^k at d=3 g=2 Ti(1; 1)")
    monkeypatch.undo()

    real = sweeps.is_member
    for tag, checked, detail in ((GroupTag.UrSpZ, 11, "urSp(Z) fails at d=3 g=2 AH(1)"),
                                 (GroupTag.UrU, 1, "UrU fails: forced at d=3 g=2 T")):
        monkeypatch.setattr(sweeps, "is_member", lambda m, t, tag=tag:
                            Verdict(False, "forced") if t is tag else real(m, t))
        rep = sweeps.soundness_sweep(range(3, 5), range(2, 4))
        assert (rep.ok, rep.checked, rep.detail) == (False, checked, detail)


def test_lambda_refusal_is_the_problem(monkeypatch):
    def refuse(m, wd):
        raise ValueError("witness refused")

    rl, calls = _from_call(2, sweeps.reduce_lambda, refuse)
    monkeypatch.setattr(sweeps, "reduce_lambda", rl)
    rep = sweeps.lambda_roundtrip_sweep((5,), (3,), per_cell=3)
    assert (rep.ok, rep.checked) == (False, 2)
    assert rep.detail == f"witness refused at d=5 g=3 word={calls[1][1].render()!r}"


def test_oracle_determinant_failure_names_its_case(monkeypatch):
    # per cell: three eta cases and one pair, so the fourth determinant is
    # the first case of the cell d=3, g=3
    ue, _ = _from_call(4, sweeps.unit_exponent, lambda a: None)
    monkeypatch.setattr(sweeps, "unit_exponent", ue)
    rep = sweeps.oracle_sweep(range(3, 5), range(2, 4), per_cell=3, pairs_per_cell=1)
    assert (rep.ok, rep.checked) == (False, 5)
    assert rep.detail.startswith("det eta not +-zeta^k: CycInt(3, ")
    assert " at d=3 g=3 phi=Endo(images=" in rep.detail


def test_genus2_clauses_name_their_first_failing_word(monkeypatch):
    real_project = sweeps.genus2_real_project
    for name, fault, ds, detail in (
            ("unit_exponent", lambda a: None, range(2, 6), "shape violated: BlockMat(g=2, d=5, "),
            ("genus2_real_project", lambda m: zeta_pow(m.d, 1), (3, 5), "projection not real"),
            ("genus2_real_project", lambda m: real_project(m) + 1, (3, 5),
             "reconstruction failed")):
        words = []
        real_eval = sweeps.evaluate
        monkeypatch.setattr(sweeps, "evaluate",
                            lambda w, d, g: words.append((w, d)) or real_eval(w, d, g))
        stand_in, _ = _from_call(4, getattr(sweeps, name), fault)
        monkeypatch.setattr(sweeps, name, stand_in)
        rep = sweeps.genus2_sweep(ds, count=10, theta_pairs=4, seed=1)
        monkeypatch.undo()
        w, d = words[3]
        assert (rep.ok, rep.checked) == (False, 4)
        assert rep.detail.startswith(detail)
        assert rep.detail.endswith(f" at d={d} g=2 word={w.render()!r}")


def test_remark_failures_name_their_clause(monkeypatch):
    real = sweeps.matrix_of
    monkeypatch.setattr(sweeps, "matrix_of", lambda spec, d, g: real(spec, d, g) * 2
                        if spec.name == "Ti" else real(spec, d, g))
    rep = sweeps.remark_crosscheck()
    assert (rep.ok, rep.checked, rep.detail) == (False, 2, "image mismatch at d=5 g=2 T_delta")
    monkeypatch.undo()

    # diag(z, z^-1) is diagonal with unit product, but its trace is z + z^4
    z = zeta_pow(5, 1)
    monkeypatch.setattr(sweeps, "evaluate", lambda w, d, g:
                        BlockMat(RingMatrix(d, [[z, 0], [0, z ** -1]]), g))
    rep = sweeps.remark_crosscheck()
    assert (rep.ok, rep.checked) == (False, 5)
    assert rep.detail == (f"trace is {z + z ** -1!r}, not +-(2+4z+4z^4)"
                          " at d=5 g=2 7-factor product")
