import hashlib
import random
import re
from itertools import product
from pathlib import Path

import pytest

from prymrep import generators
from prymrep.cyclotomic import CycInt, one, zeta_pow
from prymrep.generators import (
    FAMILIES,
    GenSpec,
    TH,
    THPrime,
    big_T,
    conj_AH,
    conj_AHPrime,
    delta_g1,
    delta_g2,
    delta_g3,
    elem_Ti,
    elem_Tij,
    gamma_ijk,
    gamma_ik,
    matrix_of,
    scalar_zeta,
    twist_E,
)
from prymrep.predicates import GroupTag, is_member
from prymrep.ringlinalg import BlockMat, RingMatrix, basis_position, parse_matrix, preserves_form
from prymrep.sweeps import random_lambda_word
from prymrep.wordlang import Word, evaluate, parse

from matrix_helpers import (apply, basis_vector, column, disjoint_support, form_eval, omega,
                            signed_indices, zero)


def test_elem_Ti_examples():
    assert elem_Ti(2, 5, 1, one(5)).to_text() == "1, -1 ; 0, 1"
    for i in (1, -1, 2):
        assert elem_Ti(3, 5, i, CycInt.from_int(5, 0)) == BlockMat.identity(5, 3)
    m = elem_Ti(3, 5, -2, one(5))
    # e_2 -> e_2 + e_-2: a +1 entry in the lower-left block
    assert m.lower_left()[1, 1] == 1
    assert not is_member(m, GroupTag.Lambda)


def test_elem_Ti_requires_real():
    with pytest.raises(ValueError):
        elem_Ti(2, 5, 1, zeta_pow(5, 1))
    with pytest.raises(ValueError):
        elem_Ti(3, 5, 3, one(5))  # index out of range
    with pytest.raises(ValueError):
        elem_Ti(3, 5, 0, one(5))


def test_elem_Tij_examples():
    m = elem_Tij(3, 5, 1, 2, one(5))
    ur = m.upper_right()
    assert ur[1, 0] == -1 and ur[0, 1] == -1
    assert ur[0, 0].is_zero() and ur[1, 1].is_zero()
    assert elem_Tij(3, 5, 1, 2, CycInt.from_int(5, 0)) == BlockMat.identity(5, 3)
    # T_{1,-2}(z) at d=4: e_2 -> e_2 + conj(z) e_1 and e_-1 -> e_-1 - z e_-2
    z = zeta_pow(4, 1)
    m = elem_Tij(3, 4, 1, -2, z)
    assert column(m.mat, 1)[0] == z.conj()
    assert column(m.mat, 2)[3] == -z
    for b in (0, 3):
        col = column(m.mat, b)
        assert all(col[r] == (1 if r == b else 0) for r in range(4))


def test_ring_scalar_of_another_modulus_is_refused():
    # a d = 3 scalar has 2 coefficients, a d = 5 entry 4: adding them used to
    # truncate to 2 and give a matrix with the entry 1+z
    for other in (3, 7):
        for build in (lambda r: elem_Ti(3, 5, 1, r), lambda r: elem_Tij(3, 5, 1, 2, r)):
            with pytest.raises(ValueError, match=f"^modulus mismatch: d=5 vs d={other}$"):
                build(zeta_pow(other, 0) + 1)
    assert elem_Tij(3, 5, 1, 2, -1) == elem_Tij(3, 5, 1, 2, -one(5))
    with pytest.raises(ValueError, match="^Ti requires a ring argument$"):
        elem_Ti(3, 5, 1, 1.0)


def test_elem_Tij_index_validation():
    with pytest.raises(ValueError):
        elem_Tij(3, 5, 1, 1, one(5))
    with pytest.raises(ValueError):
        elem_Tij(3, 5, 1, -1, one(5))
    with pytest.raises(ValueError):
        elem_Tij(2, 5, 1, 2, one(5))  # out of range at genus 2


def test_big_T():
    assert big_T(2, 5).to_text() == "z, 0 ; 0, z"
    assert big_T(3, 5).to_text() == "z, 0, 0, 0 ; 0, 1, 0, 0 ; 0, 0, z, 0 ; 0, 0, 0, 1"
    for d in (2, 5, 8):
        assert big_T(4, d) ** d == BlockMat.identity(d, 4)


def test_conj_AH():
    assert conj_AH(3, 5, 1) == BlockMat.identity(5, 3)
    m = conj_AH(3, 5, 2)
    e = lambda i: basis_vector(5, 3, i)
    assert apply(m.mat, e(2)) == e(1)
    assert apply(m.mat, e(1)) == e(2)
    assert apply(m.mat, e(-2)) == e(-1)
    assert apply(m.mat, e(-1)) == e(-2)
    assert is_member(m, GroupTag.UrSpZ)


def test_conj_AHPrime_j_equals_1_case():
    # e_-1 -> e_-i - e_1 in the j = 1 case
    m = conj_AHPrime(3, 5, 2, 1)
    e = lambda i: basis_vector(5, 3, i)
    img = apply(m.mat, e(-1))
    want = [a - b for a, b in zip(e(-2), e(1))]
    assert img == want
    assert is_member(m, GroupTag.UrSpZ)


def test_conj_AHPrime_all_cases_are_integer_symplectic():
    for d in (2, 5):
        for g in (3, 4, 5):
            for i in range(1, g):
                for j in [s * m for m in range(1, g) for s in (1, -1) if m != i]:
                    m = conj_AHPrime(g, d, i, j)
                    assert is_member(m, GroupTag.UrSpZ), (g, i, j)
                    m.mat.inverse()  # invertibility established exactly


def test_conj_AHPrime_maps_Hprime_correctly():
    d = 7
    for g in (3, 4):
        for i in range(1, g):
            for j in [s * m for m in range(1, g) for s in (1, -1) if m != i]:
                m = conj_AHPrime(g, d, i, j)
                e = lambda k: basis_vector(d, g, k)
                assert apply(m.mat, e(i)) == e(1)
                h2 = [a + b for a, b in zip(e(-i), e(j))]
                assert apply(m.mat, h2) == e(-1)


def test_TH():
    for d in (3, 8):
        for g in (2, 3):
            assert TH(g, d, 1) == big_T(g, d)
    m = TH(4, 5, 3)
    z = zeta_pow(5, 1)
    e = lambda i: basis_vector(5, 4, i)
    assert apply(m.mat, e(3)) == [z * c for c in e(3)]
    assert apply(m.mat, e(-3)) == [z * c for c in e(-3)]
    assert apply(m.mat, e(1)) == e(1)


def test_THPrime_eigenvector():
    for d in (4, 5):
        for (g, i, j) in ((3, 1, 2), (3, 2, 1), (3, 2, -1), (4, 1, -3)):
            m = THPrime(g, d, i, j)
            z = zeta_pow(d, 1)
            e = lambda k: basis_vector(d, g, k)
            v = [a + b for a, b in zip(e(-i), e(j))]
            assert apply(m.mat, v) == [z * c for c in v]
            assert apply(m.mat, e(i)) == [z * c for c in e(i)]


@pytest.mark.parametrize("d,g", [(2, 2), (3, 3), (5, 3), (12, 4)])
def test_TH_and_THPrime_equal_their_conjugates(d, g):
    # the oracle is the definition: A^-1 T A from the dense conjugators
    for i in range(1, g):
        ah = conj_AH(g, d, i)
        assert TH(g, d, i) == ah.form_inverse() * big_T(g, d) * ah, i
        for j in range(-(g - 1), g):
            if j and abs(j) != i:
                ahp = conj_AHPrime(g, d, i, j)
                assert THPrime(g, d, i, j) == ahp.form_inverse() * big_T(g, d) * ahp, (i, j)


def test_TH_and_THPrime_reject_bad_indices():
    for build, message in ((lambda: TH(3, 5, 0), "TH requires a positive index"),
                           (lambda: TH(3, 5, 3), "index 3 out of range for genus 3"),
                           (lambda: THPrime(3, 5, -1, 2), "THPrime requires a positive index"),
                           (lambda: THPrime(3, 5, 1, 3), "index 3 out of range for genus 3"),
                           (lambda: THPrime(3, 5, 1, -1), "THPrime requires |i| != |j|")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def _form_row(g, v):
    """The row w with <x, v> = w . x for every x: w[i] = conj(v[n+i]) and
    w[n+i] = -conj(v[i]), n = g - 1."""
    n = g - 1
    return [c.conj() for c in v[n:]] + [-c.conj() for c in v[:n]]


def transvection(g: int, d: int, v, direction: int = 1) -> BlockMat:
    """x -> x + <x, v>v (direction +1) or x -> x - <x, v>v (direction -1),
    for any vector v of length 2(g-1): Id +- v w^T for the form row w of v,
    the oracle of the catalogue's transvection families."""
    if len(v) != 2 * (g - 1):
        raise ValueError("vector length must be 2(g-1)")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    u = v if direction > 0 else [-c for c in v]
    n = RingMatrix(d, [[a * b for b in _form_row(g, v)] for a in u])
    return BlockMat(RingMatrix.identity(d, 2 * (g - 1)) + n, g)


def twist_transvection(g: int, d: int, v, direction: int = 1) -> BlockMat:
    """The lifted-twist transvection for v in the meridian span <e_1..e_(g-1)>.

    Accepts v of length g-1 (coordinates on e_1..e_(g-1)) or of full length
    2(g-1) with vanishing e_- part.  The forward map has upper-right block
    -vv*; direction=-1 gives the inverse twist with block +vv*.
    """
    n = g - 1
    v = list(v)
    if len(v) == n:
        v = v + [zero(d)] * n
    if len(v) != 2 * n:
        raise ValueError("vector length must be g-1 or 2(g-1)")
    if any(not c.is_zero() for c in v[n:]):
        raise ValueError("twist vector must be supported on e_1..e_(g-1)")
    return transvection(g, d, v, direction)


def test_twist_transvection_blocks():
    d, g = 5, 3
    z = zeta_pow(d, 1)
    # v = e_i, inverse twist: upper block E_ii
    m = twist_transvection(g, d, basis_vector(d, g, 1), direction=-1)
    assert m.upper_right().to_text() == "1, 0 ; 0, 0"
    assert m == delta_g1(g, d, 1)
    # v = (1 - z^k) e_i: forward block (z^k + z^-k - 2) E_ii
    for k in range(5):
        m = gamma_ik(g, d, 1, k)
        want = zeta_pow(d, k) + zeta_pow(d, -k) - 2
        assert m.upper_right()[0, 0] == want
    # v = e_i - z^k e_j: the four-entry block
    m = gamma_ijk(g, d, 1, 2, 3)
    ur = m.upper_right()
    assert ur[0, 0] == -1 and ur[1, 1] == -1
    assert ur[0, 1] == zeta_pow(d, -3) and ur[1, 0] == zeta_pow(d, 3)


def test_twist_unit_phase_invariance():
    d, g = 7, 3
    v = [1 - zeta_pow(d, 2), zeta_pow(d, 4)]
    v = [CycInt.from_poly(d, c.coeffs) for c in v]
    base = twist_transvection(g, d, v)
    for m in range(d):
        scaled = [zeta_pow(d, m) * c for c in v]
        assert twist_transvection(g, d, scaled) == base


def test_twist_support_validation():
    d, g = 5, 3
    full = basis_vector(d, g, -1)
    with pytest.raises(ValueError):
        twist_transvection(g, d, full)
    with pytest.raises(ValueError):
        twist_transvection(g, d, [one(d)])  # wrong length


def test_transvection_negative_side():
    # the general transvection handles the e_- side; used by the d=5 example
    d, g = 5, 2
    v = [(1 - zeta_pow(d, 1)) * c for c in basis_vector(d, g, -1)]
    m = transvection(g, d, v)
    assert m.lower_left()[0, 0] == 2 - zeta_pow(d, 1) - zeta_pow(d, 4)
    assert preserves_form(m)


def test_delta_generators():
    assert delta_g1(2, 5, 1).to_text() == "1, 1 ; 0, 1"
    m = delta_g2(2, 5, 1, 1)
    assert m.upper_right()[0, 0] == zeta_pow(5, 1) + zeta_pow(5, 4)
    assert m.mat[0, 0] == 1
    m = delta_g3(3, 5, 1, 2, 1)
    ur = m.upper_right()
    assert ur[1, 0] == zeta_pow(5, 1) and ur[0, 1] == zeta_pow(5, 4)
    assert ur[0, 0].is_zero() and ur[1, 1].is_zero()


def test_delta_unipotent_blocks_add():
    d, g = 7, 4
    gens = [delta_g1(g, d, 2), delta_g2(g, d, 1, 3), delta_g3(g, d, 1, 3, 2)]
    for a in gens:
        for b in gens:
            assert (a * b).upper_right() == a.upper_right() + b.upper_right()


@pytest.mark.parametrize("d,g", [(2, 2), (3, 3), (5, 3), (12, 4)])
def test_delta_closed_forms_equal_product_forms(d, g):
    # G2 and G3 are single transvections; the meridian-twist products stay
    # as their oracle
    for i in range(1, g):
        g1 = delta_g1(g, d, i)
        for k in range(-1, d + 1):
            assert delta_g2(g, d, i, k) == gamma_ik(g, d, i, k) * g1 * g1, (i, k)
            for j in range(1, g):
                if j != i:
                    assert (delta_g3(g, d, i, j, k)
                            == gamma_ijk(g, d, i, j, k) * g1 * delta_g1(g, d, j)), (i, j, k)


def test_delta_generators_reject_bad_indices():
    # T_i and T_ij accept negative indices, G1, G2 and G3 do not
    d, g = 5, 3
    for i in (0, -1, -2):
        with pytest.raises(ValueError, match="G1 requires a positive index"):
            delta_g1(g, d, i)
        with pytest.raises(ValueError, match="G2 requires a positive index"):
            delta_g2(g, d, i, 1)
        for i2, j2 in ((i, 1), (1, i)):
            with pytest.raises(ValueError, match="G3 requires a positive index"):
                delta_g3(g, d, i2, j2, 1)
    for i in (1, 2):
        with pytest.raises(ValueError, match=re.escape("G3 requires |i| != |j|")):
            delta_g3(g, d, i, i, 1)
    for call in (lambda: delta_g1(g, d, 3), lambda: delta_g2(g, d, 3, 1),
                 lambda: delta_g3(g, d, 1, 3, 1)):
        with pytest.raises(ValueError, match="out of range"):
            call()


def test_scalar_zeta():
    m = scalar_zeta(2, 5, 2)
    assert m.to_text() == "z^2, 0 ; 0, z^2"
    assert scalar_zeta(3, 4, 4) == BlockMat.identity(4, 3)


def test_embed_ursp():
    # the UrSp family, the one route into urSp(Z), admits an integer
    # upper-block symplectic matrix as itself and refuses any other
    def ursp(m):
        polys = tuple(tuple(e.coeffs for e in row) for row in m.mat.entries)
        return matrix_of(GenSpec("UrSp", matrix=polys), m.d, m.g)

    m = BlockMat(parse_matrix("1, 1 ; 0, 1", 5), 2)
    assert ursp(m) == m
    assert is_member(m, GroupTag.Lambda)
    ah = conj_AH(3, 5, 2)
    assert ursp(ah) == ah
    refused = "^" + re.escape("matrix is not in urSp_2(g-1)(Z): ")
    with pytest.raises(ValueError, match=refused + "entries are not rational integers$"):
        ursp(BlockMat(parse_matrix("1, z ; 0, 1", 5), 2))
    with pytest.raises(ValueError, match=refused + re.escape("M* Omega M != Omega") + "$"):
        ursp(BlockMat(parse_matrix("2, 0 ; 0, 1", 5), 2))


def test_conjugation_identity_spot_cases():
    # full ranges run in the acceptance sweep; pin a handful here
    for (d, g, i, j, k) in ((5, 3, 1, 2, 1), (4, 3, 2, 1, 3), (6, 3, 2, -1, 2),
                            (5, 4, 1, -2, 2), (3, 5, 2, -4, 1)):
        lhs = elem_Tij(g, d, i, j, one(d) - zeta_pow(d, k))
        rhs = (TH(g, d, i) ** -k) * (THPrime(g, d, i, j) ** k)
        assert lhs == rhs, (d, g, i, j, k)


def test_commutator_identity_spot_cases():
    for (d, g, i, j, k) in ((5, 3, 1, 2, 1), (8, 3, 2, 1, 3), (7, 4, 1, 3, 2)):
        a = elem_Tij(g, d, i, -j, zeta_pow(d, k))
        b = elem_Tij(g, d, i, j, one(d))
        comm = a * b * a ** -1 * b ** -1
        assert comm == elem_Ti(g, d, i, zeta_pow(d, k) + zeta_pow(d, -k))


def test_genus5_product_determinant():
    # an 8x8 catalogue product: det must be the product of factor dets and a
    # root of unity times a sign
    from prymrep.cyclotomic import unit_exponent
    d, g = 7, 5
    factors = [big_T(g, d), TH(g, d, 3), conj_AHPrime(g, d, 2, -4),
               elem_Tij(g, d, 1, 4, zeta_pow(d, 2)), scalar_zeta(g, d, 3)]
    prod = BlockMat.identity(d, g)
    expect = one(d)
    for f in factors:
        prod = prod * f
        expect = expect * f.det()
    assert prod.det() == expect
    assert unit_exponent(prod.det()) is not None


def test_catalogue_d_blocks_of_twists_are_identity():
    # twist-side generators act trivially on the meridian-free quotient
    d, g = 5, 3
    ident = RingMatrix.identity(d, g - 1)
    for m in (twist_E(g, d, 1), gamma_ik(g, d, 2, 3), gamma_ijk(g, d, 1, 2, 1),
              delta_g1(g, d, 1), delta_g2(g, d, 2, 2), delta_g3(g, d, 2, 1, 4)):
        assert m.lower_right() == ident
        assert m.upper_left() == ident


def _catalogue(g, d):
    """Every generator family at (d, g), with a few ring arguments."""
    z = zeta_pow(d, 1)
    yield big_T(g, d)
    for k in range(d):
        yield scalar_zeta(g, d, k)
    for i in range(1, g):
        for r in (one(d), z + z.conj() - 2):
            yield elem_Ti(g, d, i, r)
            yield elem_Ti(g, d, -i, r)
        yield conj_AH(g, d, i)
        yield TH(g, d, i)
        yield twist_E(g, d, i)
        yield delta_g1(g, d, i)
        for k in range(d):
            yield gamma_ik(g, d, i, k)
            yield delta_g2(g, d, i, k)
        for j in [s * m for m in range(1, g) for s in (1, -1) if m != i]:
            for r in (one(d), 1 - 2 * z):
                yield elem_Tij(g, d, i, j, r)
            yield conj_AHPrime(g, d, i, j)
            yield THPrime(g, d, i, j)
        for j in range(1, g):
            if j != i:
                for k in range(d):
                    yield gamma_ijk(g, d, i, j, k)
                    yield delta_g3(g, d, i, j, k)


def test_inverse_matches_form_inverse():
    # a form-preserving M has M^-1 = Omega^-1 M* Omega = (-Omega) M* Omega,
    # which needs no division: an independent oracle for Gauss-Jordan
    for d, g in ((2, 2), (5, 3), (12, 3), (3, 4)):
        om = omega(g, d)
        for m in _catalogue(g, d):
            inv = m.form_inverse()
            assert inv == m ** -1, (d, g, m)
            assert inv == (-1 * om) * BlockMat(m.mat.adjoint(), g) * om, (d, g, m)


def _assert_images(m, d, g, terms):
    """m sends every basis vector x to x + sum of c <x, v> u over the terms
    (c, v, u), with the form taken from its definition, form_eval."""
    for i in signed_indices(g):
        x = basis_vector(d, g, i)
        want = list(x)
        for c, v, u in terms:
            f = c * form_eval(x, v, g)
            want = [a + f * b for a, b in zip(want, u)]
        assert column(m.mat, basis_position(g, i)) == want, (d, g, i, m)


def test_rank_update_builders_match_form_eval():
    for d, g in ((2, 2), (5, 3), (12, 3), (7, 4)):
        z = zeta_pow(d, 1)

        def vec(*pairs):
            """sum of c e_i over the pairs (c, i)"""
            out = [CycInt.from_int(d, 0)] * (2 * (g - 1))
            for c, i in pairs:
                p = basis_position(g, i)
                out[p] = out[p] + c
            return out

        for i in signed_indices(g):
            ei = vec((1, i))
            for r in (one(d), z + z.conj() - 2, CycInt.from_int(d, 0)):
                _assert_images(elem_Ti(g, d, i, r), d, g, [(r, ei, ei)])
            for j in signed_indices(g):
                if abs(j) != abs(i):
                    ej = vec((1, j))
                    for r in (one(d), 1 - 2 * z, 3 * z * z):
                        _assert_images(elem_Tij(g, d, i, j, r), d, g,
                                       [(r, ei, ej), (r.conj(), ej, ei)])
        vectors = [vec((1, 1)), vec((1 - z, 1), (2, -1)), vec((z, g - 1), (-3, 1 - g))]
        if g > 2:
            vectors.append(vec((1, 1), (-z * z, 2), (1 + z, -2)))
        for v in vectors:
            for c in (1, -1):
                _assert_images(transvection(g, d, v, direction=c), d, g, [(c, v, v)])
        for i in range(1, g):
            ei = vec((1, i))
            _assert_images(twist_E(g, d, i), d, g, [(1, ei, ei)])
            _assert_images(delta_g1(g, d, i), d, g, [(-1, ei, ei)])
            for k in range(d):
                # G2 and G3 equal products of commuting meridian transvections
                v = vec((1 - zeta_pow(d, k), i))
                _assert_images(delta_g2(g, d, i, k), d, g,
                               [(1, v, v), (-1, ei, ei), (-1, ei, ei)])
                for j in range(1, g):
                    if j != i:
                        ej = vec((1, j))
                        v = vec((1, i), (-zeta_pow(d, k), j))
                        _assert_images(delta_g3(g, d, i, j, k), d, g,
                                       [(1, v, v), (-1, ei, ei), (-1, ej, ej)])


def _registry_cases(d, g):
    """One instance of every family, in table order, at a genus g >= 3:
    (spec, the direct call of its public constructor; for UrSp, which has
    none, the block matrix of the literal)."""
    r = zeta_pow(d, 1) + zeta_pow(d, -1)
    c = 1 - 2 * zeta_pow(d, 1)
    lit = parse_matrix("1, 0, 2, 1 ; 0, 1, 1, 0 ; 0, 0, 1, 0 ; 0, 0, 0, 1", d)
    polys = tuple(tuple(e.coeffs for e in row) for row in lit.entries)
    return [
        (GenSpec("T"), lambda: big_T(g, d)),
        (GenSpec("Zeta", (3,)), lambda: scalar_zeta(g, d, 3)),
        (GenSpec("Ti", (1,), r.coeffs), lambda: elem_Ti(g, d, 1, r)),
        (GenSpec("AH", (2,)), lambda: conj_AH(g, d, 2)),
        (GenSpec("TH", (2,)), lambda: TH(g, d, 2)),
        (GenSpec("TwistE", (1,)), lambda: twist_E(g, d, 1)),
        (GenSpec("GammaIK", (2, 3)), lambda: gamma_ik(g, d, 2, 3)),
        (GenSpec("G1", (2,)), lambda: delta_g1(g, d, 2)),
        (GenSpec("G2", (1, 4)), lambda: delta_g2(g, d, 1, 4)),
        (GenSpec("Tij", (1, -2), c.coeffs), lambda: elem_Tij(g, d, 1, -2, c)),
        (GenSpec("AHPrime", (2, -1)), lambda: conj_AHPrime(g, d, 2, -1)),
        (GenSpec("THPrime", (1, 2)), lambda: THPrime(g, d, 1, 2)),
        (GenSpec("GammaIJK", (1, 2, 3)), lambda: gamma_ijk(g, d, 1, 2, 3)),
        (GenSpec("G3", (2, 1, 4)), lambda: delta_g3(g, d, 2, 1, 4)),
        (GenSpec("UrSp", matrix=polys), lambda: BlockMat(lit, g)),
    ]


def test_registry_drives_parse_render_and_build():
    d, g = 5, 3
    cases = _registry_cases(d, g)
    assert [spec.name for spec, _ in cases] == list(FAMILIES)
    for spec, direct in cases:
        word = Word(((spec, 1),))
        assert parse(word.render()) == word, spec
        m = matrix_of(spec, d, g)
        assert m == direct(), spec
        assert is_member(m, FAMILIES[spec.name].group), spec
    assert Word(((GenSpec("T"), 2),)).render() == "T^2"


@pytest.mark.parametrize("g", [1, 0])
def test_genus_rule_comes_first_on_every_route(g):
    # every family, by its constructor and as a one-factor word, and the
    # identity and the empty word, refuse a genus below 2 with one message,
    # before any index is read against g or any matrix is built
    d = 5
    routes = [lambda: BlockMat.identity(d, g), lambda: evaluate(Word(()), d, g)]
    for spec, direct in _registry_cases(d, g):
        routes += [direct, lambda spec=spec: matrix_of(spec, d, g),
                   lambda spec=spec: evaluate(Word(((spec, 1),)), d, g)]
    assert len(routes) == 2 + 3 * len(FAMILIES)
    for route in routes:
        with pytest.raises(ValueError, match=r"^genus must be >= 2$"):
            route()


@pytest.mark.parametrize("kwargs, message", [
    ({"name": "Foo"}, "unknown generator name 'Foo'"),
    ({"name": "G1", "indices": (1, 2)}, "G1 takes 1 integer argument(s), got 2"),
    ({"name": "G3", "indices": (1, 2)}, "G3 takes 3 integer argument(s), got 2"),
    ({"name": "Ti", "indices": (1,)}, "Ti requires a ring argument"),
    ({"name": "G1", "indices": (1,), "scalar": (1,)}, "G1 does not take a ring argument"),
    ({"name": "UrSp"}, "UrSp requires a matrix argument"),
    ({"name": "T", "matrix": ((1,),)}, "T does not take a matrix argument"),
])
def test_genspec_refusals(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        GenSpec(**kwargs)


_TRANSVECTIONS = {"Ti", "Tij", "TwistE", "GammaIK", "GammaIJK", "G1", "G2", "G3"}


def test_transvection_families_have_disjoint_support():
    # the support rule that wordlang.evaluate reads off each factor: the rows
    # and the columns of N's nonzero entries are disjoint (so N^2 = 0) on
    # every instance of a transvection family, and every other family but
    # UrSp has an instance where they overlap
    overlap = set()
    for d, g in _PIN_CELLS:
        for spec in _pinned_specs(d, g):
            if not disjoint_support(spec, d, g):
                assert spec.name not in _TRANSVECTIONS, (d, g, spec)
                overlap.add(spec.name)
    assert overlap - {"UrSp"} == set(FAMILIES) - _TRANSVECTIONS - {"UrSp"}


# the public constructor of every family that takes indices
_DIRECT = {
    "Zeta": scalar_zeta, "Ti": elem_Ti, "AH": conj_AH, "TH": TH, "TwistE": twist_E,
    "GammaIK": gamma_ik, "G1": delta_g1, "G2": delta_g2, "Tij": elem_Tij,
    "AHPrime": conj_AHPrime, "THPrime": THPrime, "GammaIJK": gamma_ijk, "G3": delta_g3,
}


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("g", [2, 3, 4])
def test_constructors_and_words_share_one_index_rule(g):
    # each index tuple over -g..g, zeros and repeats included, gives the same
    # matrix or the same message from a word's spec and from the direct call
    d = 5
    scalars = {"real": zeta_pow(d, 1) + zeta_pow(d, -1), "ring": 1 - 2 * zeta_pow(d, 1)}
    assert sorted(_DIRECT) == sorted(nm for nm, fam in FAMILIES.items() if fam.slots)
    for name, direct in _DIRECT.items():
        fam = FAMILIES[name]
        extra = (scalars[fam.takes],) if fam.takes else ()
        scalar = extra[0].coeffs if extra else None
        for ix in product(range(-g, g + 1), repeat=len(fam.slots)):
            via_word = _outcome(lambda: matrix_of(GenSpec(name, ix, scalar), d, g))
            assert via_word == _outcome(lambda: direct(g, d, *ix, *extra)), (name, ix)


_PIN_CELLS = [(2, 2), (3, 3), (5, 3), (12, 4)]


def _pinned_specs(d, g):
    """Every positive-index instance of every family, the negative-index Ti,
    and one UrSp literal [[Id, S], [0, Id]] with S[r][c] = r + c + 1."""
    scalars = {"real": (zeta_pow(d, 1) + zeta_pow(d, -1)).coeffs,
               "ring": (1 - 2 * zeta_pow(d, 1)).coeffs}
    n = g - 1
    for name, fam in FAMILIES.items():
        if fam.takes == "matrix":
            rows = [[int(r == c) for c in range(2 * n)] for r in range(2 * n)]
            for r in range(n):
                for c in range(n):
                    rows[r][n + c] = r + c + 1
            yield GenSpec(name, matrix=tuple(tuple((x,) for x in row) for row in rows))
            continue
        for ix in generators._instances(fam.slots, d, g):
            yield GenSpec(name, ix, scalars.get(fam.takes))
    for i in range(1, g):
        yield GenSpec("Ti", (-i,), scalars["real"])


def test_catalogue_matrices_are_pinned():
    # the digest was taken before every family became the entries of Id + N
    texts = [matrix_of(spec, d, g).to_text()
             for d, g in _PIN_CELLS for spec in _pinned_specs(d, g)]
    assert len(texts) == 422
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "daeadb40f4377b31e457e9b9e36d88e5e2c8a94bcd0d26b2917561fb7301df67"


def test_bad_index_messages_are_pinned():
    # the corpus of test_constructors_and_words_share_one_index_rule: both
    # routes share one checked entry point, so the texts are pinned here
    d = 5
    scalars = {"real": zeta_pow(d, 1) + zeta_pow(d, -1), "ring": 1 - 2 * zeta_pow(d, 1)}
    lines = []
    for g in (2, 3, 4):
        for name, direct in _DIRECT.items():
            fam = FAMILIES[name]
            extra = (scalars[fam.takes],) if fam.takes else ()
            for ix in product(range(-g, g + 1), repeat=len(fam.slots)):
                out = _outcome(lambda: direct(g, d, *ix, *extra))
                if isinstance(out, str):
                    lines.append(f"{g} {name}{ix}: {out}")
    assert len(lines) == 2946
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "94037b9e9f9be4808995ed6fdaa9a68d37e8eceefd2d9f6d4733b3cbf979a8d4"


def test_random_lambda_word_draws_are_pinned():
    # the registry order and the draw order (name, i, k, [j], [scalar],
    # exponent) fix the words a seed gives; the digest was taken before the
    # registry replaced the hand-kept choice lists
    lines = []
    for seed in range(40):
        rng = random.Random(seed)
        for d in (2, 3, 5, 12):
            for g in (2, 3, 4, 5):
                lines.append(random_lambda_word(rng, d, g, 6).render())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5be3c7ce133daef825b898ac2d24454d62a284e8d4b3075d1a21f96103ebb5d4"


def test_readme_lists_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = re.findall(r"^\| `([A-Za-z][A-Za-z0-9]*)", readme, re.M)
    assert sorted(names) == sorted(FAMILIES)


def test_readme_lists_the_budgets():
    # every module-level MAX_* constant, as `module.NAME = value`
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    budgets = readme.split("\nInput budgets.", 1)[1].split("\n## ", 1)[0]
    names = []
    for src in sorted((root / "src" / "prymrep").glob("*.py")):
        for name, value in re.findall(r"^(MAX_\w+) = (\S+)", src.read_text(), re.M):
            names.append(name)
            assert f"`{src.stem}.{name} = {value}`" in budgets, (src.stem, name, value)
    assert "MAX_POWER" in names
