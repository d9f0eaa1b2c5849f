import hashlib
import random
from time import perf_counter

import pytest

from prymrep.cli import main

from prymrep.cyclotomic import zeta_pow
from prymrep.decompose import decompose_delta, reduce_lambda
from prymrep.generators import GenSpec
from prymrep.predicates import GroupTag, is_member
from prymrep.ringlinalg import BlockMat, RingMatrix, parse_matrix
from prymrep.sweeps import random_lambda_word, random_self_adjoint
from prymrep.wordlang import Word, evaluate, parse


def unipotent(d, g, b):
    n = g - 1
    return BlockMat.from_blocks(g, RingMatrix.identity(d, n), b,
                                RingMatrix.zeros(d, n, n),
                                RingMatrix.identity(d, n))


def test_zero_block_gives_empty_word():
    b = RingMatrix.zeros(5, 2, 2)
    assert decompose_delta(b, 5, 3) == Word(())


def test_single_e11():
    b = parse_matrix("1", 5)
    w = decompose_delta(b, 5, 2)
    assert w.render() == "G1(1)"
    assert evaluate(w, 5, 2) == unipotent(5, 2, b)


def test_offdiagonal_pair():
    z = zeta_pow(5, 1)
    b = RingMatrix(5, [[0, z ** -1], [z, 0]])
    w = decompose_delta(b, 5, 3)
    assert all(spec.name == "G3" for spec, _ in w.factors)
    assert evaluate(w, 5, 3) == unipotent(5, 3, b)


def test_non_self_adjoint_rejected():
    b = RingMatrix(5, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        decompose_delta(b, 5, 3)
    b = parse_matrix("z", 5)  # 1x1, not real
    with pytest.raises(ValueError):
        decompose_delta(b, 5, 2)


def test_emission_order_is_deterministic():
    rng = random.Random(31)
    b = random_self_adjoint(rng, 7, 3)
    w1 = decompose_delta(b, 7, 4)
    w2 = decompose_delta(b, 7, 4)
    assert w1 == w2 and w1.render() == w2.render()


def test_decompose_delta_shares_its_specs():
    # two calls on one B give equal words whose specs are the same objects,
    # and a word rebuilt from fresh GenSpec(...) calls is equal and hashes alike
    b = random_self_adjoint(random.Random(31), 7, 3)
    w1, w2 = decompose_delta(b, 7, 4), decompose_delta(b, 7, 4)
    assert {spec.name for spec, _ in w1.factors} == {"G1", "G2", "G3"}
    assert w1 == w2 and all(s1 is s2 for (s1, _), (s2, _) in zip(w1.factors, w2.factors))
    fresh = Word(tuple((GenSpec(spec.name, spec.indices), e) for spec, e in w1.factors))
    assert fresh == w1 and hash(fresh) == hash(w1)


def test_decompose_random_round_trips():
    rng = random.Random(32)
    for d in (2, 3, 4, 5, 12):
        for g in (2, 3, 5):
            for _ in range(8):
                b = random_self_adjoint(rng, d, g - 1)
                w = decompose_delta(b, d, g)
                assert evaluate(w, d, g) == unipotent(d, g, b)
                for spec, _ in w.factors:
                    assert spec.name in ("G1", "G2", "G3")


def test_huge_coefficients_evaluate_at_once():
    # every factor of a decompose_delta word is a column operation, so an
    # exponent costs one ring multiplication whatever its size
    d, g = 12, 5
    b = random_self_adjoint(random.Random(37), d, g - 1, -10**30, 10**30)
    t0 = perf_counter()
    assert evaluate(decompose_delta(b, d, g), d, g) == unipotent(d, g, b)
    m = evaluate(parse("G1(1)^100000000000000000000"), d, g)
    assert perf_counter() - t0 < 0.25  # by binary powering: 0.5 s on a 2-vCPU Xeon VM
    assert m.upper_right()[0, 0] == 10**20


def test_reduce_lambda_unipotent_case():
    d, g = 5, 3
    b = random_self_adjoint(random.Random(33), d, g - 1)
    m = unipotent(d, g, b)
    out = reduce_lambda(m, Word(()))
    assert out == decompose_delta(b, d, g)
    assert evaluate(out, d, g) == m


def test_reduce_lambda_scalar_case():
    d, g = 7, 2
    m = evaluate(parse("T^3"), d, g)
    out = reduce_lambda(m, parse("T^3"))
    assert out == parse("T^3")  # residual F = 0, nothing appended
    assert evaluate(out, d, g) == m


def test_reduce_lambda_round_trips():
    rng = random.Random(34)
    for d in (3, 5, 8):
        for g in (2, 3, 4):
            for _ in range(6):
                wd = random_lambda_word(rng, d, g, 6)
                f0 = random_self_adjoint(rng, d, g - 1, -3, 3)
                m = evaluate(wd, d, g) * unipotent(d, g, f0)
                out = reduce_lambda(m, wd)
                assert evaluate(out, d, g) == m
                assert is_member(m, GroupTag.Lambda)


def test_reduce_lambda_with_ursp_witness():
    d, g = 5, 3
    wd = parse("UrSp(1, 0, 2, 1 ; 0, 1, 1, 0 ; 0, 0, 1, 0 ; 0, 0, 0, 1) * TH(2)")
    f0 = random_self_adjoint(random.Random(35), d, g - 1, -2, 2)
    m = evaluate(wd, d, g) * unipotent(d, g, f0)
    out = reduce_lambda(m, wd)
    assert evaluate(out, d, g) == m


def test_reduce_lambda_d_block_mismatch():
    d, g = 5, 2
    m = evaluate(parse("T"), d, g)
    with pytest.raises(ValueError):
        reduce_lambda(m, parse("T^2"))


def test_reduce_lambda_rejects_non_lambda():
    d, g = 5, 2
    m = BlockMat(parse_matrix("1, 0 ; 1, 1", d), g)
    with pytest.raises(ValueError):
        reduce_lambda(m, Word(()))


def _refusal_cases():
    d, g = 5, 2
    t = evaluate(parse("T"), d, g)
    b3 = RingMatrix(3, [[1]])
    return [
        (lambda: decompose_delta(RingMatrix.zeros(d, 2, 2), d, g),
         "B is 2x2, expected 1x1 for genus 2"),
        (lambda: decompose_delta(b3, d, g), "modulus mismatch: d=5 vs d=3"),
        (lambda: decompose_delta(RingMatrix(d, [[zeta_pow(d, 1)]]), d, g),
         "B is not self-adjoint"),
        (lambda: reduce_lambda(BlockMat(parse_matrix("1, 0 ; 1, 1", d), g), Word(())),
         "matrix is not in Lambda: lower-left block is nonzero"),
        (lambda: reduce_lambda(t, parse("Ti(-1; 1)")),
         "witness word does not evaluate into Lambda: lower-left block is nonzero"),
        (lambda: reduce_lambda(t, parse("T^2")),
         "witness word has a different lower-right block than M"),
        # the genus rule comes first, before any shape check or draw
        (lambda: decompose_delta(RingMatrix.identity(d, 1), d, 1), "genus must be >= 2"),
        (lambda: random_lambda_word(random.Random(0), d, 1, 3), "genus must be >= 2"),
    ]


def test_decompose_refusals():
    # each refusal of the decomposition routines, with its type and message
    for call, message in _refusal_cases():
        with pytest.raises(ValueError) as exc:
            call()
        assert exc.type is ValueError and str(exc.value) == message


# SHA-256 of the rendered decompose_delta words for seeded self-adjoint B,
# and of one `prymrep decompose-delta` stdout, taken before G2/G3 became
# single transvections and the real coordinates were read off the basis;
# the word text must not change.
WORDS_DIGEST = "1aed5651ff5138b9c6e1a02cb74ac035e9495d6bb295fc73bbe23c2a777fa8b8"
CLI_DIGEST = "0fc0aede180258f0212a79f86e24d352bd7def2ffece3b199970033bc8fc0f93"
CLI_ARGV = ["decompose-delta", "--d", "15", "--g", "3", "--B",
            "4 - 2*z^3 - 2*z^12 + z^7 + z^8, 1 + z^2 - 3*z^9 ; "
            "1 + z^13 - 3*z^6, 3*z^5 + 3*z^10 - z - z^14 - 1"]


def pinned_words():
    rng = random.Random(36)
    lines = []
    for d in (2, 3, 4, 5, 6, 7, 8, 9, 12, 15):
        for g in (2, 3, 4):
            for _ in range(3):
                b = random_self_adjoint(rng, d, g - 1, -9, 9)
                lines.append(f"d={d} g={g} {decompose_delta(b, d, g).render()}")
    return "\n".join(lines)


def test_decompose_delta_words_are_pinned():
    assert hashlib.sha256(pinned_words().encode()).hexdigest() == WORDS_DIGEST


def test_decompose_delta_cli_output_is_pinned(capsys):
    assert main(CLI_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGEST
