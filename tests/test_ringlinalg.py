import random
import sys

import pytest

from prymrep import cyclotomic
from prymrep.cyclotomic import CycInt, euler_phi, zeta_pow
from prymrep.generators import THPrime
from prymrep.ringlinalg import BlockMat, RingMatrix, parse_matrix, preserves_form

from matrix_helpers import apply, basis_vector, det_cofactor, form_eval, omega


def rand_matrix(rng, d, n, lo=-4, hi=4):
    phi = euler_phi(d)
    return RingMatrix(d, [
        [CycInt(d, [rng.randint(lo, hi) for _ in range(phi)]) for _ in range(n)]
        for _ in range(n)
    ])


def test_every_modulus_route_gives_one_message():
    # a matrix or scalar of another modulus is refused with the detailed
    # text by the sum, the product and the scaling; an operand that is not a
    # matrix keeps its own message
    a, b = RingMatrix.identity(5, 2), RingMatrix.identity(3, 2)
    for call in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a * zeta_pow(3, 1),
                 lambda: zeta_pow(5, 1) + zeta_pow(3, 1)):
        with pytest.raises(ValueError, match=r"^modulus mismatch: d=5 vs d=3$"):
            call()
    with pytest.raises(ValueError, match=r"^matrix mismatch$"):
        a + 1


def test_adjoint_examples():
    assert RingMatrix.identity(5, 3).adjoint() == RingMatrix.identity(5, 3)
    z = zeta_pow(3, 1)
    m = RingMatrix(3, [[z, 0], [1, 1]])
    assert m.adjoint() == RingMatrix(3, [[z * z, 1], [0, 1]])


def test_adjoint_antihomomorphism():
    rng = random.Random(2)
    for d in (3, 5, 8):
        for _ in range(10):
            m = rand_matrix(rng, d, 3)
            n = rand_matrix(rng, d, 3)
            assert (m * n).adjoint() == n.adjoint() * m.adjoint()
            assert m.adjoint().adjoint() == m


def test_det_examples():
    for n in (1, 2, 5):
        assert RingMatrix.identity(7, n).det() == 1
    m = RingMatrix(5, [[zeta_pow(5, 1), 0], [0, zeta_pow(5, 2)]])
    assert m.det() == zeta_pow(5, 3)
    # det(Omega) = 1 for g = 3, cross-checked by cofactor expansion
    om = omega(3, 5)
    assert om.mat.det() == 1
    assert det_cofactor(om.mat) == 1


def test_det_bareiss_matches_cofactor():
    rng = random.Random(3)
    for d in (2, 3, 4, 5, 12):
        for n in (1, 2, 3, 4):
            for _ in range(6):
                m = rand_matrix(rng, d, n, -3, 3)
                assert m.det() == det_cofactor(m), (d, n, m)


def test_det_singular():
    z = CycInt.from_int(5, 0)
    m = RingMatrix(5, [[1, 1], [1, 1]])
    assert m.det() == z
    assert det_cofactor(m) == z


def test_det_cofactor_agreement_at_5x5():
    rng = random.Random(7)
    for d in (3, 8):
        for _ in range(3):
            m = rand_matrix(rng, d, 5, -2, 2)
            assert m.det() == det_cofactor(m)


def test_det_skips_rows_that_cannot_change(monkeypatch):
    # a row with a zero in the pivot column is left as it is when the pivot
    # equals the previous one, so the identity needs no division at all
    from prymrep import ringlinalg

    calls = []
    divider = ringlinalg._divider

    def counting(d, b):
        divide = divider(d, b)
        return lambda x: calls.append(1) or divide(x)
    monkeypatch.setattr(ringlinalg, "_divider", counting)
    assert RingMatrix.identity(5, 8).det() == 1
    assert calls == []
    rng = random.Random(9)
    for d in (2, 5, 12):
        phi = euler_phi(d)
        for n in (3, 4, 5, 6):
            for _ in range(4):
                m = RingMatrix(d, [
                    [CycInt(d, [rng.randint(-3, 3) for _ in range(phi)])
                     if rng.random() < 0.35 else CycInt.from_int(d, 0)
                     for _ in range(n)] for _ in range(n)])
                assert m.det() == det_cofactor(m), (d, n, m)


def test_det_builds_one_cofactor_per_dividing_pivot(monkeypatch):
    # at n = 5 Bareiss divides 14 entries by the pivots of its first three
    # steps; for a pivot b that is not +-zeta^k the cofactor b' is a product
    # of the phi(d) - 2 conjugates sigma_k(b), 1 < k < d, and is built once
    # per pivot, not once per entry
    d, n = 31, 5
    m = rand_matrix(random.Random(17), d, n, -2, 2)
    conjugates = []
    monomial_map = cyclotomic._monomial_map

    def counting(d, coeffs, k, j=0):
        if k % d not in (1, d - 1):  # not a rotation and not conj
            conjugates.append(k)
        return monomial_map(d, coeffs, k, j)
    monkeypatch.setattr(cyclotomic, "_monomial_map", counting)
    assert m.det() == det_cofactor(m)
    assert 0 < len(conjugates) <= (n - 2) * (euler_phi(d) - 2)


def test_matrix_operations_build_no_ring_elements(monkeypatch):
    # entries stay coefficient tuples: on a catalogue matrix, the form test,
    # the product, ==, the adjoint and det build one CycInt, det's result
    m, zeta2 = THPrime(5, 12, 2, -3), zeta_pow(12, 2)
    built = []
    new, init = cyclotomic._new, CycInt.__init__

    def counting_new(d, coeffs):
        built.append(coeffs)
        return new(d, coeffs)

    def counting_init(self, d, coeffs):
        built.append(coeffs)
        init(self, d, coeffs)

    for name, module in list(sys.modules.items()):
        if name.startswith("prymrep") and getattr(module, "_new", None) is new:
            monkeypatch.setattr(module, "_new", counting_new)
    monkeypatch.setattr(CycInt, "__init__", counting_init)
    assert preserves_form(m)
    assert m.mat * m.mat == (m * m).mat
    assert m.mat.adjoint() * m.mat != m.mat
    assert m.det() == zeta2  # zeta on a plane
    assert len(built) <= 1, built


def test_det_multiplicative():
    rng = random.Random(8)
    for d in (2, 5, 12):
        for n in (2, 4, 6):
            a = rand_matrix(rng, d, n, -2, 2)
            b = rand_matrix(rng, d, n, -2, 2)
            assert (a * b).det() == a.det() * b.det()


def test_omega():
    assert omega(2, 5).to_text() == "0, 1 ; -1, 0"
    om3 = omega(3, 5)
    assert om3.to_text() == "0, 0, 1, 0 ; 0, 0, 0, 1 ; -1, 0, 0, 0 ; 0, -1, 0, 0"
    for g in (2, 3, 4, 5):
        om = omega(g, 7)
        n = 2 * (g - 1)
        assert om.mat * om.mat == RingMatrix.identity(7, n) * CycInt.from_int(7, -1)


def test_form_eval_basis_pairs():
    for g in (2, 3, 4):
        d = 5
        for i in range(1, g):
            ei = basis_vector(d, g, i)
            emi = basis_vector(d, g, -i)
            assert form_eval(ei, emi, g) == 1
            assert form_eval(emi, ei, g) == -1
            assert form_eval(ei, ei, g).is_zero()


def test_form_sesquilinearity_and_antisymmetry():
    rng = random.Random(4)
    d, g = 5, 3
    phi = euler_phi(d)
    z = zeta_pow(d, 1)
    for _ in range(20):
        u = [CycInt(d, [rng.randint(-4, 4) for _ in range(phi)]) for _ in range(4)]
        v = [CycInt(d, [rng.randint(-4, 4) for _ in range(phi)]) for _ in range(4)]
        assert form_eval([z * x for x in u], v, g) == z * form_eval(u, v, g)
        assert form_eval(u, [z * x for x in v], g) == z.conj() * form_eval(u, v, g)
        assert form_eval(u, v, g) == -form_eval(v, u, g).conj()


def test_preserves_form():
    assert preserves_form(BlockMat.identity(5, 3))
    z = zeta_pow(5, 1)
    scalar = BlockMat(RingMatrix.identity(5, 4) * z, 3)
    assert preserves_form(scalar)
    bad = BlockMat(RingMatrix.identity(5, 4) * CycInt.from_int(5, 2), 3)
    assert not preserves_form(bad)


def test_preservation_matches_random_vector_spotcheck():
    # full matrix identity vs 20 random evaluation pairs
    rng = random.Random(5)
    d, g = 4, 3
    phi = euler_phi(d)
    z = zeta_pow(d, 1)
    mats = [
        BlockMat.identity(d, g),
        BlockMat(RingMatrix.identity(d, 4) * z, g),
        BlockMat(RingMatrix(d, [[1, 0, 2, 0], [0, 1, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]]), g),
        BlockMat(RingMatrix(d, [[2, 0, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]]), g),
    ]
    for m in mats:
        spot = True
        for _ in range(20):
            u = [CycInt(d, [rng.randint(-3, 3) for _ in range(phi)]) for _ in range(4)]
            v = [CycInt(d, [rng.randint(-3, 3) for _ in range(phi)]) for _ in range(4)]
            if form_eval(apply(m.mat, u), apply(m.mat, v), g) != form_eval(u, v, g):
                spot = False
                break
        assert spot == preserves_form(m)


def rand_unit_det_matrix(rng, d, n):
    # product of elementary row additions and unit scalings: determinant
    # stays +-zeta^k, so the inverse exists over the ring
    phi = euler_phi(d)
    m = RingMatrix.identity(d, n)
    for _ in range(8):
        kind = rng.randrange(3)
        rows = [list(r) for r in m.entries]
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            c = CycInt(d, [rng.randint(-2, 2) for _ in range(phi)])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            i = rng.randrange(n)
            u = zeta_pow(d, rng.randrange(d)) * rng.choice((1, -1))
            rows[i] = [u * a for a in rows[i]]
        else:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        m = RingMatrix(d, rows)
    return m


def test_inverse_round_trip():
    rng = random.Random(6)
    for d in (2, 3, 5, 8, 12):
        ident = RingMatrix.identity(d, 3)
        for _ in range(5):
            m = rand_unit_det_matrix(rng, d, 3)
            inv = m.inverse()
            assert m * inv == ident
            assert inv * m == ident


def test_inverse_failures():
    m = RingMatrix(5, [[1, 1], [1, 1]])
    with pytest.raises(ZeroDivisionError):
        m.inverse()
    m = RingMatrix(5, [[2, 0], [0, 1]])
    with pytest.raises(ArithmeticError):
        m.inverse()  # invertible over Q(zeta) but not over the ring


def test_matrix_pow():
    z = zeta_pow(6, 1)
    m = RingMatrix(6, [[z, 1], [0, 1]])
    assert m ** 0 == RingMatrix.identity(6, 2)
    assert m ** 3 == m * m * m
    assert m ** -2 == (m * m).inverse()


def test_matrix_text_round_trip():
    m = parse_matrix("1, 1-z ; 0, 1", 5)
    assert m.to_text() == "1, 1-z ; 0, 1"
    assert m[0, 1] == 1 - zeta_pow(5, 1)
    again = parse_matrix(m.to_text(), 5)
    assert again == m


def test_matrix_parse_errors():
    from prymrep.cyclotomic import ParseError
    with pytest.raises(ParseError):
        parse_matrix("1, z ; 0", 5)
    with pytest.raises(ParseError):
        parse_matrix("1, q ; 0, 1", 5)


def test_blockmat_size_validation():
    with pytest.raises(ValueError):
        BlockMat(RingMatrix.identity(5, 3), 2)
    with pytest.raises(ValueError):
        BlockMat(RingMatrix.identity(5, 2), 1)


def test_shape_refusals():
    # each shape rule of a sum, a product, a power, det(), inverse() and a
    # block product keeps its own message
    sq, wide = RingMatrix.identity(5, 2), RingMatrix.zeros(5, 2, 3)
    for call, message in ((lambda: sq + wide, "shape mismatch"),
                          (lambda: wide * wide, "dimension mismatch in matrix product"),
                          (lambda: wide ** 2, "only square matrices can be raised to powers"),
                          (lambda: wide.det(), "determinant of a non-square matrix"),
                          (lambda: wide.inverse(), "inverse of a non-square matrix"),
                          (lambda: BlockMat.identity(5, 2) * BlockMat.identity(5, 3),
                           "genus mismatch")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_blockmat_blocks():
    m = parse_matrix("1, 2, 3, 4 ; 5, 6, 7, 8 ; 9, 10, 11, 12 ; 13, 14, 15, 16", 5)
    b = BlockMat(m, 3)
    ul, ur, ll, lr = b.blocks()
    assert ul.to_text() == "1, 2 ; 5, 6"
    assert ur.to_text() == "3, 4 ; 7, 8"
    assert ll.to_text() == "9, 10 ; 13, 14"
    assert lr.to_text() == "11, 12 ; 15, 16"


def _naive_product(a, b):
    """Entrywise sum_k a_ik * b_kj in CycInt arithmetic: the oracle for the
    sparse product kernel."""
    z = CycInt.from_int(a.d, 0)
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), z)
             for j in range(b.cols)] for i in range(a.rows)]


def test_product_matches_naive_reference():
    rng = random.Random(9)
    big = 10 ** 6
    for d in (2, 5, 12):
        phi = euler_phi(d)

        def entry(density, bound):
            if rng.random() >= density:
                return CycInt(d, [0] * phi)
            return CycInt(d, [rng.randint(-bound, bound) for _ in range(phi)])

        for rows, inner, cols in ((1, 1, 1), (2, 3, 4), (4, 1, 3), (3, 5, 2), (6, 6, 6)):
            for density, bound in ((1.0, 4), (0.4, big), (0.15, 3)):
                a = [[entry(density, bound) for _ in range(inner)] for _ in range(rows)]
                b = [[entry(density, bound) for _ in range(cols)] for _ in range(inner)]
                # an all-zero row of A and an all-zero column of B
                a[rng.randrange(rows)] = [CycInt(d, [0] * phi)] * inner
                zc = rng.randrange(cols)
                for row in b:
                    row[zc] = CycInt(d, [0] * phi)
                ma, mb = RingMatrix(d, a), RingMatrix(d, b)
                prod = ma * mb
                assert (prod.rows, prod.cols) == (rows, cols)
                assert [list(r) for r in prod.entries] == _naive_product(ma, mb), \
                    (d, rows, inner, cols, density)


def test_public_constructors_validate():
    with pytest.raises(ValueError):
        CycInt(5, [1, 2, 3])  # phi(5) = 4 coefficients needed
    with pytest.raises(ValueError):
        CycInt(1, [1])
    one5, one7 = CycInt.from_int(5, 1), CycInt.from_int(7, 1)
    with pytest.raises(ValueError):
        RingMatrix(5, [[one5, one5], [one5]])  # ragged
    with pytest.raises(ValueError):
        RingMatrix(5, [[one5, one7]])  # an entry at another modulus
    with pytest.raises(ValueError):
        RingMatrix(7, [[one5]])
    # an int entry is the ring integer, as a scalar of CycInt arithmetic is
    assert RingMatrix(5, [[one5, 1]]) == RingMatrix(5, [[1, one5]])
    with pytest.raises(ValueError):
        RingMatrix(5, [])


def _count_calls(monkeypatch, cls):
    calls = []
    original = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


def test_pow_wastes_no_products(monkeypatch):
    from prymrep.decompose import decompose_delta
    from prymrep.sweeps import random_self_adjoint
    from prymrep.wordlang import evaluate, parse

    m = rand_unit_det_matrix(random.Random(10), 5, 3)
    z = zeta_pow(7, 1) + 2
    expected_m = {0: RingMatrix.identity(5, 3), 1: m, 2: m * m, 3: m * m * m,
                  -1: m.inverse()}
    expected_z = {0: CycInt.from_int(7, 1), 1: z, 2: z * z, 3: z * z * z}
    word = parse("TwistE(1) * Ti(1; 2)^-1 * AH(2)^2")
    expected_w = evaluate(parse("TwistE(1)"), 5, 3).mat \
        * evaluate(parse("Ti(1; 2)"), 5, 3).mat.inverse() \
        * evaluate(parse("AH(2)"), 5, 3).mat * evaluate(parse("AH(2)"), 5, 3).mat
    calls = _count_calls(monkeypatch, RingMatrix)
    for e, products in ((0, 0), (1, 0), (2, 1), (3, 2), (-1, 0)):
        calls.clear()
        assert m ** e == expected_m[e]
        assert len(calls) == products, e
    # TwistE and Ti^-1 are column operations on the rows of the product and
    # cost no matrix product; AH^2 costs one, and one more joins it
    calls.clear()
    assert evaluate(word, 5, 3).mat == expected_w
    assert len(calls) == 2
    # a decompose_delta word has only column-op factors, so none at all
    b = random_self_adjoint(random.Random(11), 7, 3)
    calls.clear()
    assert evaluate(decompose_delta(b, 7, 4), 7, 4).upper_right() == b
    assert len(calls) == 0
    calls = _count_calls(monkeypatch, CycInt)
    for e, products in ((0, 0), (1, 0), (2, 1), (3, 2)):
        calls.clear()
        assert z ** e == expected_z[e]
        assert len(calls) == products, e


def _corpus_matrices(rng, d):
    """Square matrices of size 1 to 5 at modulus d: dense, sparse, with a
    zero leading pivot (so Bareiss swaps rows), singular (a repeated row or
    a zero column), of a unit determinant (rows swapped), and catalogue
    generators; coefficients in [-2, 2], so most dense determinants are not
    units."""
    from prymrep.wordlang import evaluate, parse

    phi = euler_phi(d)

    def elem(density=1.0):
        if rng.random() >= density:
            return CycInt(d, [0] * phi)
        return CycInt(d, [rng.randint(-2, 2) for _ in range(phi)])

    sizes = (1, 2, 3, 4) if d == 31 else (1, 2, 3, 4, 5)
    for n in sizes:
        yield RingMatrix(d, [[elem() for _ in range(n)] for _ in range(n)])
        yield RingMatrix(d, [[elem(0.4) for _ in range(n)] for _ in range(n)])
        rows = [[elem() for _ in range(n)] for _ in range(n)]
        rows[0][0] = CycInt(d, [0] * phi)
        yield RingMatrix(d, rows)
        rows = [[elem() for _ in range(n)] for _ in range(n)]
        rows[-1] = rows[0]
        yield RingMatrix(d, rows)
        rows = [[elem() for _ in range(n)] for _ in range(n)]
        for row in rows:
            row[n // 2] = CycInt(d, [0] * phi)
        yield RingMatrix(d, rows)
        if n > 1:
            yield rand_unit_det_matrix(rng, d, n)
    if d <= 15:
        for text in ("T", "TH(2)^3 * AH(2)", "THPrime(1,-2) * T^-1", "Zeta(1) * AHPrime(2,1)",
                     "Tij(1,-2; 1+z) * TH(1)^-2", "UrSp(1, 1, 0, 0 ; 0, 1, 0, 0 ; "
                     "0, 0, 1, 0 ; 0, 0, -1, 1) * Ti(2; 2)"):
            yield evaluate(parse(text), d, 3).mat
        yield evaluate(parse("TH(1) * T"), d, 2).mat * 2


def test_det_and_inverse_corpus_digest():
    # every det and every inverse (or its error type and text) of a seeded
    # corpus, pinned before det and inverse shared one elimination kernel
    import hashlib

    rng = random.Random(2018)
    lines = []
    for d in (2, 3, 5, 7, 9, 12, 15, 31):
        for m in _corpus_matrices(rng, d):
            lines.append(f"{d} {m!r} det {m.det()!r}")
            try:
                lines.append(f"inverse {m.inverse()!r}")
            except ArithmeticError as exc:
                lines.append(f"inverse {type(exc).__name__}: {exc}")
    assert len(lines) == 2 * 275
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "42dd44eb9e140e7dbf8f06734967af8b0b54759ef3168f456dfb4d63f3f9f438"


@pytest.mark.parametrize("build", [lambda: RingMatrix.identity(5, 0),
                                   lambda: RingMatrix.zeros(5, 2, 0),
                                   lambda: RingMatrix.zeros(5, 0, 2),
                                   lambda: RingMatrix(5, []),
                                   lambda: RingMatrix(5, [[]])])
def test_every_constructor_states_the_shape_rule_once(build):
    # the validating and the trusted constructor share one shape check
    with pytest.raises(ValueError, match=r"^matrix dimensions must be positive$"):
        build()


def test_scalar_product_is_the_entrywise_product():
    # a scalar is coerced as CycInt arithmetic coerces it; the product is
    # each entry times the scalar, from either side
    rng = random.Random(17)
    for d in (2, 3, 5, 12):
        m = rand_matrix(rng, d, 3)
        for c in (0, 1, -3, 7, zeta_pow(d, 1), CycInt(d, [rng.randint(-4, 4)
                                                          for _ in range(euler_phi(d))])):
            want = RingMatrix(d, [[e * c for e in row] for row in m.entries])
            assert m * c == want and c * m == want
    assert not hasattr(RingMatrix, "scale")
    m = RingMatrix.identity(5, 2)
    with pytest.raises(ValueError, match=r"^modulus mismatch: d=5 vs d=3$"):
        zeta_pow(3, 1) * m
    with pytest.raises(ValueError, match=r"^polynomial coefficients must be integers$"):
        m * True


def test_operators_defer_on_a_foreign_operand():
    # == and * return NotImplemented for an operand they do not take, so
    # Python falls back to the other side or raises TypeError
    m, b = RingMatrix.identity(5, 2), BlockMat.identity(5, 2)
    assert RingMatrix.__eq__(m, "m") is NotImplemented
    assert m != "m" and not (m == 1)
    for x in (m, b):
        for other in ("m", 1.5, None):
            assert type(x).__mul__(x, other) is NotImplemented
            with pytest.raises(TypeError):
                x * other
        with pytest.raises(TypeError):
            "m" * x
