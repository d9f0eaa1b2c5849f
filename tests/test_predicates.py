import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymrep import ringlinalg
from prymrep.cyclotomic import CycInt, one, zeta_pow
from prymrep.generators import GenSpec, delta_g1, elem_Ti, matrix_of, scalar_zeta
from prymrep.predicates import (
    _CLAUSES,
    GroupTag,
    Verdict,
    genus2_real_project,
    genus2_theta_project,
    is_member,
)
from prymrep.ringlinalg import BlockMat, RingMatrix, parse_matrix, preserves_form
from prymrep.sweeps import _soundness_problem, random_lambda_word, random_self_adjoint
from prymrep.wordlang import evaluate

from matrix_helpers import (
    delta_blocks_by_products,
    galois,
    lambda_blocks_by_products,
    omega,
)


def block(text, d, g):
    return BlockMat(parse_matrix(text, d), g)


def test_identity_in_every_tag():
    m = BlockMat.identity(5, 2)
    for tag in GroupTag:
        assert is_member(m, tag), tag


def test_scalar_zeta_in_delta_and_lambda():
    m = scalar_zeta(2, 5, 1)
    assert is_member(m, GroupTag.Delta)
    assert is_member(m, GroupTag.Lambda)
    assert is_member(m, GroupTag.USharp)


def test_unipotent_example_memberships():
    # [[Id, E11], [0, Id]] at genus 3: integer entries, so also in urSp(Z)
    m = block("1, 0, 1, 0 ; 0, 1, 0, 0 ; 0, 0, 1, 0 ; 0, 0, 0, 1", 5, 3)
    for tag in (GroupTag.Delta, GroupTag.Lambda, GroupTag.UrSpZ, GroupTag.UrU):
        assert is_member(m, tag), tag


def test_lower_left_failure_reason():
    m = block("1, 0 ; 1, 1", 5, 2)
    v = is_member(m, GroupTag.Lambda)
    assert not v and "lower-left" in v.reason


def test_remark_matrix_in_ursharp_but_not_lambda():
    # diag(sqrt5 - 2, sqrt5 + 2) with sqrt5 = 1 + 2z + 2z^4
    m = block("-1+2*z+2*z^4, 0 ; 0, 3+2*z+2*z^4", 5, 2)
    assert is_member(m, GroupTag.UrUSharp)
    assert is_member(m, GroupTag.UrU)
    v = is_member(m, GroupTag.Lambda)
    assert not v and "det(D)" in v.reason


def test_delta_requires_self_adjoint_block():
    m = block("1, z ; 0, 1", 5, 2)  # B = z is not real
    v = is_member(m, GroupTag.Delta)
    assert not v and "self-adjoint" in v.reason
    assert is_member(m, GroupTag.Lambda) is not None  # D*B = B*D fails too
    assert not is_member(m, GroupTag.Lambda)


def test_even_det_clause_for_even_d():
    # at d = 12 the element 1 - z is a unit (norm Phi_12(1) = 1) and
    # (1 - z) / conj(1 - z) = -z = z^7, an odd power of zeta
    u = 1 - zeta_pow(12, 1)
    a = u.conj().inverse()
    m = BlockMat(RingMatrix(12, [[a, 0], [0, u]]), 2)
    assert is_member(m, GroupTag.UrU)
    from prymrep.cyclotomic import unit_exponent
    assert unit_exponent(m.det()) == (1, 7)
    v = is_member(m, GroupTag.USharp)
    assert not v and "odd" in v.reason
    assert not is_member(m, GroupTag.UrUSharp)


def test_usharp_all_powers_for_odd_d():
    for k in range(5):
        m = scalar_zeta(2, 5, k)  # det = zeta^(2k), and for odd d every power is even
        assert is_member(m, GroupTag.USharp)


def test_subgroup_chain_on_random_words():
    rng = random.Random(9)
    chain = (GroupTag.Delta, GroupTag.Lambda, GroupTag.UrUSharp, GroupTag.UrU,
             GroupTag.U)
    for d in (3, 4, 7):
        for g in (2, 3):
            for _ in range(8):
                w = random_lambda_word(rng, d, g, 5)
                m = evaluate(w, d, g)
                assert is_member(m, GroupTag.Lambda), w.render()
                # membership persists under product and inverse
                assert is_member(m * m, GroupTag.Lambda)
                assert is_member(m ** -1, GroupTag.Lambda)
                seen = [tag for tag in chain if is_member(m, tag)]
                # whatever the smallest group containing m is, the chain above
                # it must hold
                for lo, hi in zip(chain, chain[1:]):
                    if is_member(m, lo):
                        assert is_member(m, hi), (lo, hi, w.render())
                assert GroupTag.Lambda in seen


def test_theta_projection_examples():
    assert genus2_theta_project(BlockMat.identity(5, 2)) == (1, CycInt.from_int(5, 0))
    r = CycInt.from_literal(5, "1+z+z^4")
    m = block("z, z+z^2+1 ; 0, z", 5, 2)  # zeta * [[1, 1+z+z^-1], [0, 1]]
    eps, rr = genus2_theta_project(m)
    assert (eps, rr) == (1, r)
    m = block("-1, 1+z+z^4 ; 0, -1", 5, 2)
    eps, rr = genus2_theta_project(m)
    assert eps == -1 and rr == -r


def test_theta_projection_homomorphism():
    rng = random.Random(10)
    for d in (3, 5, 9):
        for _ in range(10):
            a = evaluate(random_lambda_word(rng, d, 2, 6), d, 2)
            b = evaluate(random_lambda_word(rng, d, 2, 6), d, 2)
            ea, ra = genus2_theta_project(a)
            eb, rb = genus2_theta_project(b)
            ep, rp = genus2_theta_project(a * b)
            assert ep == ea * eb
            assert rp == ra + rb


def test_theta_kills_scalars():
    for k in range(5):
        eps, r = genus2_theta_project(scalar_zeta(2, 5, k))
        assert eps == 1 and r.is_zero()


def test_theta_rejections():
    with pytest.raises(ValueError):
        genus2_theta_project(BlockMat.identity(4, 2))  # even d
    with pytest.raises(ValueError):
        genus2_theta_project(BlockMat.identity(5, 3))  # wrong genus
    with pytest.raises(ValueError):
        genus2_theta_project(block("1, 0 ; 1, 1", 5, 2))  # not in Lambda


def test_real_projection_for_even_d():
    m = block("z, 2*z ; 0, z", 4, 2)
    r = genus2_real_project(m)
    assert r == 2
    # flipping the scalar representative does not change the projection
    m2 = m * CycInt.from_int(4, -1)
    assert genus2_real_project(m2) == 2


def test_genus2_lambda_elements_have_equal_diagonal():
    rng = random.Random(11)
    for d in (4, 5):
        for _ in range(10):
            m = evaluate(random_lambda_word(rng, d, 2, 6), d, 2)
            assert m.mat[0, 0] == m.mat[1, 1]


def test_ti_negative_index_not_lambda():
    m = elem_Ti(3, 5, -2, one(5))
    assert not is_member(m, GroupTag.Lambda)
    assert is_member(m, GroupTag.U)


def test_delta_generator_is_delta_member():
    assert is_member(delta_g1(3, 7, 2), GroupTag.Delta)


def _entrywise(m, f):
    return BlockMat(RingMatrix(m.d, [[f(e) for e in row]
                                               for row in m.mat.entries]), m.g)


def _set_entry(m, i, j, f):
    rows = [list(row) for row in m.mat.entries]
    rows[i][j] = f(rows[i][j])
    return BlockMat(RingMatrix(m.d, rows), m.g)


def _variants(m):
    """M, 2M, zeta M, M*, the form inverse, M with a lower-left entry set to
    1, and M with entry (0, 0) plus 1."""
    z = zeta_pow(m.d, 1)
    return (m, m * 2, m * z, BlockMat(m.mat.adjoint(), m.g), m.form_inverse(),
            _set_entry(m, m.n, 0, lambda e: one(m.d)),
            _set_entry(m, 0, 0, lambda e: e + 1))


def _corpus():
    rng = random.Random(20)
    for d in (2, 3, 4, 5, 6, 12):
        for g in (2, 3, 4):
            for _ in range(3):
                yield from _variants(evaluate(random_lambda_word(rng, d, g, 4), d, g))


def _unit_diag(d, u):
    # diag(conj(u)^-1, u) lies in UrU with det u / conj(u)
    return BlockMat(RingMatrix(d, [[u.conj().inverse(), 0], [0, u]]), 2)


# one matrix for each reason the random corpus does not reach
_HAND_BUILT = (
    ("1, z ; 0, 1", 5, 2),  # D*B != B*D; upper-right block not self-adjoint
    ("z, 0 ; 0, 1", 5, 2),  # lower-right block does not match the scalar
    ("2, 0 ; 0, 1", 5, 2),  # upper-left block is not (D*)^-1
    ("-1+2*z+2*z^4, 0 ; 0, 3+2*z+2*z^4", 5, 2),  # det(D) is not +-zeta^k
)


def _hand_built():
    for text, d, g in _HAND_BUILT:
        yield block(text, d, g)
    yield _unit_diag(12, 1 - zeta_pow(12, 1))  # det = zeta^7, k odd with d even
    yield _unit_diag(15, 1 - zeta_pow(15, 1))  # det = -zeta, d odd


def _projection_line(project, m):
    try:
        out = project(m)
    except ValueError as e:
        return f"{project.__name__}|{type(e).__name__}: {e}"
    if isinstance(out, tuple):
        return f"{project.__name__}|{out[0]}|{out[1].literal()}"
    return f"{project.__name__}|{out.literal()}"


def test_pinned_verdict_digest():
    # SHA-256 of every verdict (tag, truth value, reason) and every genus-2
    # projection over a seeded corpus; pinned before is_member became a
    # clause table, so the reasons and their order must not move
    lines = []
    for m in (*_corpus(), *_hand_built()):
        for tag in GroupTag:
            v = is_member(m, tag)
            lines.append(f"{tag.value}|{v.ok}|{v.reason}")
        lines.append(_projection_line(genus2_theta_project, m))
        lines.append(_projection_line(genus2_real_project, m))
    reasons = {line.split("|")[2] for line in lines if "|False|" in line}
    assert len(lines) == 10 * (378 + 6) and len(reasons) == 12
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "131ba78af4dad5d6c8ca22c62a03aa7f3b56d124ae154c1a91d429971a8193c6")


def test_clause_table_covers_every_tag():
    assert set(_CLAUSES) == set(GroupTag)
    m = BlockMat.identity(5, 2)
    with pytest.raises(ValueError) as err:
        is_member(m, "U")
    assert str(err.value) == "unknown group tag 'U'"


def _truths(m):
    return tuple(bool(is_member(m, tag)) for tag in GroupTag)


def test_galois_conjugation_keeps_every_verdict():
    # sigma_k is a ring automorphism commuting with conjugation, so it maps
    # each group onto itself; only the truth values are compared, because the
    # even-det reasons print the exponent, which sigma_k moves
    checked = 0
    for m in (*_corpus(), *_hand_built()):
        truths = _truths(m)
        for k in range(2, m.d):
            if math.gcd(k, m.d) == 1:
                assert _truths(_entrywise(m, lambda e: galois(e, k))) == truths
                checked += 1
    assert checked > 500


def test_u_closed_under_adjoint():
    for m in (*_corpus(), *_hand_built()):
        adjoint = BlockMat(m.mat.adjoint(), m.g)
        assert bool(is_member(m, GroupTag.U)) == bool(is_member(adjoint, GroupTag.U))


def test_lambda_closed_under_form_inverse():
    members = [m for m in (*_corpus(), *_hand_built()) if is_member(m, GroupTag.Lambda)]
    assert len(members) > 50
    for m in members:
        assert is_member(m.form_inverse(), GroupTag.Lambda)


def test_preserves_form_is_the_literal_form_test():
    # the walk against the literal product M* Omega M: it stops at the first
    # row that differs from Omega's, and form_inverse is -Omega M* Omega for
    # members and non-members alike
    truths = []
    for m in (*_corpus(), *_hand_built()):
        om = omega(m.g, m.d).mat
        product = m.mat.adjoint() * om * m.mat
        differs = [p for p in range(om.rows) if product.coeffs[p] != om.coeffs[p]]
        assert ringlinalg._form_walk(m) == (differs[0] if differs else None), m
        truths.append(preserves_form(m))
        assert truths[-1] == (product == om)
        assert m.form_inverse().mat == om * m.mat.adjoint() * om * -1, m
    assert len(truths) == 384 and 0 < sum(truths) < 384


def test_each_clause_runs_once_per_matrix(monkeypatch):
    # the catalogue's soundness check asks one matrix for its form test, its
    # det and then every group of the chain Lambda <= urU# <= urU <= U; the
    # form walk and the elimination of the full matrix run once between them
    m = matrix_of(GenSpec("TH", (2,)), 5, 3)
    walks, eliminations = [], []
    walk, eliminate = ringlinalg._form_walk, ringlinalg._eliminate
    monkeypatch.setattr(ringlinalg, "_form_walk",
                        lambda x: walks.append(x) or walk(x))
    monkeypatch.setattr(ringlinalg, "_eliminate",
                        lambda d, rows, n, jordan: eliminations.append(n)
                        or eliminate(d, rows, n, jordan))
    assert _soundness_problem(m, "TH", GroupTag.Lambda) is None
    assert _soundness_problem(m, "TH", GroupTag.Lambda) is None
    monkeypatch.undo()
    assert walks == [m]
    # the other elimination is det D, read by the Lambda clause
    assert sorted(eliminations) == [2, 4]


@st.composite
def _checked_matrices(draw):
    """A seeded Lambda member, or one with a single entry moved off it."""
    d = draw(st.sampled_from((2, 3, 4, 5, 12)))
    g = draw(st.sampled_from((2, 3)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    m = evaluate(random_lambda_word(rng, d, g, 4), d, g)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, 2 * g - 3)), draw(st.integers(0, 2 * g - 3))
        z = zeta_pow(d, draw(st.integers(0, d - 1)))
        m = _set_entry(m, i, j, lambda e: e + z)
    return m


def _fresh(m):
    return BlockMat(parse_matrix(m.to_text(), m.d), m.g)


@given(_checked_matrices(), st.permutations(list(GroupTag)))
@settings(max_examples=60, deadline=None)
def test_memo_keeps_every_verdict(m, tags):
    # one matrix asked every group, in any order, answers as a fresh copy
    # asked one group; the answers it keeps leave eq, hash and repr alone
    for tag in tags:
        assert is_member(m, tag) == is_member(_fresh(m), tag), tag
    assert (m.det(), preserves_form(m)) == (_fresh(m).det(), preserves_form(_fresh(m)))
    # and as the routes that keep nothing: a memo shared between matrices
    # would answer the same wrong way on both copies
    om = omega(m.g, m.d).mat
    assert (m.det(), preserves_form(m)) == (m.mat.det(), m.mat.adjoint() * om * m.mat == om)
    twin = _fresh(m)
    assert (m == twin, hash(m), repr(m)) == (True, hash(twin), repr(twin))
    calls = []

    def fails(x):
        calls.append(x)
        raise ArithmeticError("no value")

    for _ in range(2):
        with pytest.raises(ArithmeticError):
            m._once(fails)
    assert calls == [m, m]


def _c_zero_matrix(d, g, seed, kind, where, p):
    """A C = 0 block matrix from seed: an evaluated Lambda word ("word"), the
    same times a random unipotent [[Id, S], [0, Id]] ("unipotent"), or
    zeta^k [[Id, B], [0, Id]] with B self-adjoint ("delta").  where, if set,
    is (block, i, j): entry (i, j) of block A, B or D gets zeta^p added."""
    rng = random.Random(seed)
    n = g - 1
    ident, zeros = RingMatrix.identity(d, n), RingMatrix.zeros(d, n, n)
    if kind == "delta":
        m = BlockMat.from_blocks(g, ident, random_self_adjoint(rng, d, n), zeros, ident)
        m = m * zeta_pow(d, rng.randrange(d))
    else:
        m = evaluate(random_lambda_word(rng, d, g, 4), d, g)
        if kind == "unipotent":
            s = random_self_adjoint(rng, d, n, -3, 3)
            m = m * BlockMat.from_blocks(g, ident, s, zeros, ident)
    if where is not None:
        blk, i, j = where
        row, col = {"A": (0, 0), "B": (0, n), "D": (n, n)}[blk]
        m = _set_entry(m, row + i, col + j, lambda e: e + zeta_pow(d, p))
    return m


@st.composite
def _c_zero_draws(draw):
    d = draw(st.sampled_from((2, 3, 4, 5, 6, 7, 12)))
    g = draw(st.sampled_from((2, 3, 4)))
    kind = draw(st.sampled_from(("word", "unipotent", "delta")))
    where = draw(st.none() | st.tuples(st.sampled_from("ABD"), st.integers(0, g - 2),
                                       st.integers(0, g - 2)))
    return d, g, draw(st.integers(0, 10**6)), kind, where, draw(st.integers(0, d - 1))


_BLOCK_REASONS = {
    "det(D) is not +-zeta^k",
    "upper-left block is not (D*)^-1",
    "D*B != B*D",
    "upper-left block is not zeta^k Id",
    "lower-right block does not match the upper-left scalar",
    "upper-right block is not self-adjoint",
}


def test_block_clauses_match_the_product_oracle():
    # Lambda's and Delta's block clauses read the form walk and compute a
    # block product only to name a failure; they answer as the block products
    # alone did, verdict and reason, and every reason is reached
    reached = set()

    @given(_c_zero_draws())
    @settings(max_examples=150, deadline=None)
    # three draws that reach all six reasons, two by two
    @example((5, 2, 0, "word", ("D", 0, 0), 0))  # det(D); lower-right block
    @example((5, 3, 0, "word", ("A", 0, 1), 0))  # (D*)^-1; zeta^k Id
    @example((5, 3, 0, "unipotent", ("B", 0, 1), 0))  # D*B; self-adjoint
    def check(draw):
        m = _c_zero_matrix(*draw)
        lam, delta = lambda_blocks_by_products(m), delta_blocks_by_products(m)
        theta = lam if m.g == 2 else Verdict(False, "matrix is not genus 2")
        for tag, want in ((GroupTag.Delta, delta), (GroupTag.Lambda, lam),
                          (GroupTag.Genus2Theta, theta)):
            v = is_member(m, tag)
            assert (v.ok, v.reason) == (want.ok, want.reason), (tag, draw)
        reached.update((lam.reason, delta.reason))

    check()
    assert reached - {""} == _BLOCK_REASONS


def test_positive_block_verdicts_compute_no_product(monkeypatch):
    # a Lambda, Delta or Genus2Theta verdict reads the form walk and
    # multiplies no blocks, whether it holds or names the failing block
    # clause; asking one matrix the chain Delta <= Lambda <= urU# <= urU <= U
    # walks the form once
    delta = [_c_zero_matrix(7, 2, 0, "delta", None, 0),
             _c_zero_matrix(12, 3, 1, "delta", None, 0)]
    # -Id is in Lambda but not in Delta for odd d, where -1 is no power of zeta
    lam = [block("-1, 1 ; 0, -1", 5, 2), matrix_of(GenSpec("TH", (2,)), 5, 3)]
    members = [(GroupTag.Delta, m) for m in delta]
    members += [(GroupTag.Lambda, m) for m in delta + lam]
    members += [(GroupTag.Genus2Theta, m) for m in delta + lam if m.g == 2]
    asked = [(tag, _fresh(m)) for tag, m in members]
    failing = {"D*B != B*D": _c_zero_matrix(5, 3, 0, "unipotent", ("B", 0, 1), 0),
               "upper-left block is not (D*)^-1":
                   _c_zero_matrix(5, 3, 0, "unipotent", ("A", 0, 0), 0)}
    chained = [_fresh(m) for m in delta + lam]
    products, walks = [], []
    product, walk = ringlinalg._sparse_product, ringlinalg._form_walk
    monkeypatch.setattr(ringlinalg, "_sparse_product",
                        lambda *a: products.append(a) or product(*a))
    monkeypatch.setattr(ringlinalg, "_form_walk", lambda x: walks.append(x) or walk(x))
    assert all(is_member(m, tag) for tag, m in asked)
    assert products == []
    for reason, m in failing.items():
        assert is_member(m, GroupTag.Lambda).reason == reason
    assert products == []
    # the counter is live: the block-product oracle names the same clauses
    for reason, m in failing.items():
        assert lambda_blocks_by_products(m).reason == reason
    assert len(products) > 0
    walks.clear()
    chain = (GroupTag.Delta, GroupTag.Lambda, GroupTag.UrUSharp, GroupTag.UrU, GroupTag.U)
    for m in chained:
        assert [bool(is_member(m, tag)) for tag in chain] == [m in delta] + [True] * 4
    monkeypatch.undo()
    assert walks == chained


def test_delta_verdicts_copy_no_lower_right_block(monkeypatch):
    # past the upper-left scalar, Delta's clauses are read from the form
    # walk's first failing row, as Lambda's are: a Delta verdict, positive or
    # naming any clause, copies no lower-right block, walks each matrix at
    # most once and answers as the block-product oracle does
    members = [_c_zero_matrix(7, 2, 0, "delta", None, 0),
               _c_zero_matrix(12, 3, 1, "delta", None, 0)]
    failing = {"lower-left block is nonzero": block("1, 0 ; 1, 1", 5, 2),
               "upper-left block is not zeta^k Id":
                   _c_zero_matrix(5, 3, 0, "delta", ("A", 0, 1), 0),
               "lower-right block does not match the upper-left scalar":
                   _c_zero_matrix(5, 3, 0, "delta", ("D", 0, 1), 0),
               "upper-right block is not self-adjoint":
                   _c_zero_matrix(5, 3, 0, "delta", ("B", 0, 1), 0)}
    asked = [_fresh(m) for m in members + list(failing.values())]
    copies, walks = [], []
    lower_right, walk = BlockMat.lower_right, ringlinalg._form_walk
    monkeypatch.setattr(BlockMat, "lower_right", lambda x: copies.append(x) or lower_right(x))
    monkeypatch.setattr(ringlinalg, "_form_walk", lambda x: walks.append(x) or walk(x))
    verdicts = [is_member(m, GroupTag.Delta) for m in asked]
    assert [is_member(m, GroupTag.Delta) for m in asked] == verdicts
    assert copies == []
    assert all(sum(w is m for w in walks) <= 1 for m in asked)
    monkeypatch.undo()
    assert [v.reason for v in verdicts] == [""] * len(members) + list(failing)
    # the oracle takes C = 0, so it is asked from the upper-left case on
    assert [v.reason for v in verdicts[len(members) + 1:]] == [
        delta_blocks_by_products(m).reason for m in asked[len(members) + 1:]]
