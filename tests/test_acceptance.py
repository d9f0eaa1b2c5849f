"""Acceptance suite: every criterion is exact (integer arithmetic throughout),
so checks are equalities, not tolerances.  One pass/fail line is printed per
criterion; run `pytest -s tests/test_acceptance.py` to see them all.
"""

from prymrep.cyclotomic import zeta_pow
from prymrep.generators import elem_Ti, gamma_ik
from prymrep.ringlinalg import BlockMat, RingMatrix
from prymrep.sweeps import (
    commutator_sweep,
    deck_scalar_sweep,
    delta_roundtrip_sweep,
    genus2_sweep,
    identity_sweep,
    lambda_roundtrip_sweep,
    oracle_sweep,
    real_basis_sweep,
    remark_crosscheck,
    soundness_sweep,
)

SEED = 0


def report(criterion, rep):
    print(f"criterion {criterion}: {rep.line()}")
    assert rep.ok, rep.line()


def test_criterion_1_identity_sweep():
    # T_{i,j}(1 - zeta^k) = T_H^-k T_H'^k for d in 2..10, g in 2..5, all
    # admissible (i, j) including j = +-1, k in 1..d-1
    rep = identity_sweep(range(2, 11), range(2, 6))
    report(1, rep)
    assert rep.checked == 1800


def test_criterion_2_commutator_sweep():
    # [T_{i,-j}(zeta^k), T_{i,j}(1)] = T_i(zeta^k + zeta^-k) for j > 0 and its
    # inverse for j < 0, same ranges as criterion 1, exact equality
    rep = commutator_sweep(range(2, 11), range(2, 6))
    report(2, rep)
    assert rep.checked == 1800


def test_criterion_3_generator_soundness():
    # every catalogue matrix preserves the form; positive-index transvections
    # pass Lambda; twist generators pass Delta and the full subgroup chain
    rep = soundness_sweep(range(2, 9), range(2, 5), seed=SEED)
    report(3, rep)
    assert rep.checked == 2198


def test_criterion_4_delta_roundtrip():
    # 100 random self-adjoint B per (d, g), coefficients in [-5, 5]
    rep = delta_roundtrip_sweep((2, 3, 4, 5, 12), (2, 3, 5), count=100,
                                seed=SEED)
    report(4, rep)
    assert rep.checked == 1500


def test_criterion_5_lambda_roundtrip():
    # 100+ random witness-word-times-unipotent instances, words of length <= 6;
    # a residual F that is not self-adjoint is refused by decompose_delta
    rep = lambda_roundtrip_sweep((2, 3, 5, 7), (2, 3, 4), per_cell=9,
                                 seed=SEED, max_len=6)
    report(5, rep)
    assert rep.checked == 108


def test_criterion_6_dual_oracle():
    # 200+ random covering-preserving automorphisms (composites of <= 8
    # adapted Nielsen moves) across d in 2..8, g in 2..5: both eta routes
    # agree, det = +-zeta^k, and eta is multiplicative on 50+ pairs
    rep = oracle_sweep(range(2, 9), range(2, 6), per_cell=8, pairs_per_cell=2,
                       seed=SEED, max_moves=8)
    report(6, rep)
    assert rep.checked == 280


def test_criterion_7_deck_scalar():
    rep = deck_scalar_sweep(range(2, 9), range(2, 6))
    report(7, rep)
    assert rep.checked == 28


def test_criterion_8_genus2_d5_crosscheck():
    # the stated twist images and the diagonal 7-factor product; the trace may
    # come out as either sign of 2*sqrt(5), anything else fails
    rep = remark_crosscheck()
    report(8, rep)
    # the stated images, asserted here as well as inside the sweep
    d, g = 5, 2
    z = zeta_pow(d, 1)
    assert gamma_ik(g, d, 1, 1) == BlockMat(
        RingMatrix(d, [[1, z + z ** -1 - 2], [0, 1]]), g)
    assert elem_Ti(g, d, -1, 2 - z - z ** -1) == BlockMat(
        RingMatrix(d, [[1, 0], [2 - z - z ** -1, 1]]), g)


def test_criterion_9_real_basis_solvability():
    # 200 random real elements per d in 2..12 solve over {1, zeta^k+zeta^-k}
    # with exact reconstruction
    rep = real_basis_sweep(range(2, 13), count=200, seed=SEED)
    report(9, rep)
    assert rep.checked == 200 * 11


def test_criterion_10_genus2_shape():
    # 200 random genus-2 catalogue words have the zeta^k(+-1, r'; 0, +-1)
    # shape with r' real; theta is a homomorphism on 100 random pairs (odd d)
    rep = genus2_sweep(range(2, 10), count=200, theta_pairs=100, seed=SEED)
    report(10, rep)
    assert rep.checked == 300
