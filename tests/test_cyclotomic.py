import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymrep import cyclotomic
from prymrep.cyclotomic import (
    MAX_D,
    MAX_DIGITS,
    MAX_EXPONENT,
    CycInt,
    ParseError,
    _reduce_poly,
    cyclotomic_poly,
    divide_exact,
    euler_phi,
    eval_real_basis,
    one,
    parse_ring_literal,
    render_poly,
    solve_real_basis,
    unit_exponent,
    zeta_pow,
)
from prymrep.ringlinalg import parse_matrix

from matrix_helpers import galois, zero


def test_cyclotomic_polynomials():
    # constant-first coefficient tuples
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zeta_pow_examples():
    assert zeta_pow(5, 0).coeffs == (1, 0, 0, 0)
    # x^4 mod (1 + x + x^2 + x^3 + x^4), by polynomial division
    assert zeta_pow(5, 4).coeffs == (-1, -1, -1, -1)
    # x^2 mod (x^2 + 1)
    assert zeta_pow(4, 2).coeffs == (-1, 0)


def test_zeta_pow_reduces_mod_d():
    for d in (2, 3, 5, 8, 12):
        for k in range(-2 * d, 2 * d):
            assert zeta_pow(d, k) == zeta_pow(d, k % d)
            assert zeta_pow(d, k).coeffs == zeta_pow(d, k % d).coeffs


def test_d_below_two_rejected():
    # one statement of the rule, in euler_phi, whatever route asks first
    from prymrep.ringlinalg import RingMatrix, parse_matrix

    for d in (1, 0, -3):
        for build in (lambda: euler_phi(d), lambda: zeta_pow(d, 0),
                      lambda: CycInt(d, ()), lambda: CycInt(d, [1]),
                      lambda: CycInt.from_poly(d, [1, 2, 3, 4, 5]),
                      lambda: CycInt.from_literal(d, "1+z"),
                      lambda: RingMatrix.identity(d, 2),
                      lambda: parse_matrix("1, z ; 0, 1", d)):
            with pytest.raises(ValueError, match="^modulus d must be >= 2$"):
                build()


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        zeta_pow(5, 1) + zeta_pow(7, 1)
    with pytest.raises(ValueError):
        zeta_pow(5, 1) * zeta_pow(4, 1)


def test_ring_elements_take_integers_only():
    # a float, a bool or a string is refused, not truncated or read as 0 or
    # 1, by the constructor, from_poly, from_int and so by a matrix built
    # from rows of plain numbers; from_poly checks a long input before its
    # fold, which would sum a bool as an int
    from prymrep.ringlinalg import RingMatrix

    for build, what in ((lambda: CycInt(5, [1.9, 0, 0, 0]), "coefficients"),
                        (lambda: CycInt(5, ["7", True, 0, 0]), "coefficients"),
                        (lambda: CycInt(5, [0, True, 0, 0]), "coefficients"),
                        (lambda: CycInt.from_poly(5, [0.5]), "polynomial coefficients"),
                        (lambda: CycInt.from_poly(5, [1] * 12 + [0.0]),
                         "polynomial coefficients"),
                        (lambda: CycInt.from_poly(5, [0] * 6 + [True]),
                         "polynomial coefficients"),
                        (lambda: CycInt.from_poly(5, [0] * 6 + ["1"]),
                         "polynomial coefficients"),
                        (lambda: CycInt.from_int(5, 2.5), "polynomial coefficients"),
                        (lambda: CycInt.from_int(5, True), "polynomial coefficients"),
                        (lambda: RingMatrix(5, [[1.5, 0], [0, 1]]).det(),
                         "polynomial coefficients"),
                        (lambda: RingMatrix(5, [[0, "x"]]), "polynomial coefficients"),
                        (lambda: RingMatrix(5, [[zeta_pow(5, 1), True]]),
                         "polynomial coefficients")):
        with pytest.raises(ValueError, match=f"^{what} must be integers$"):
            build()
    assert CycInt(5, [7, 1, 0, 0]) == CycInt.from_poly(5, [7, 1]) == 7 + zeta_pow(5, 1)


def test_mul_examples():
    z = zeta_pow(4, 1)
    assert (1 + z) * (1 - z) == 2
    z = zeta_pow(3, 1)
    assert z * z == -1 - z


def test_unit_law():
    for d in (2, 5, 9):
        phi = euler_phi(d)
        for k in range(phi):
            x = CycInt(d, [1 if m == k else -2 for m in range(phi)])
            assert one(d) * x == x
            assert x * one(d) == x


def test_conj_examples():
    assert zeta_pow(5, 1).conj() == zeta_pow(5, 4)
    assert CycInt.from_int(7, 5).conj() == 5
    assert CycInt.from_literal(4, "1+z").conj() == CycInt.from_literal(4, "1-z")


def test_is_real():
    for d in (3, 5, 8):
        assert (zeta_pow(d, 1) + zeta_pow(d, -1)).is_real()
        assert not zeta_pow(d, 1).is_real()
    assert CycInt.from_int(5, 5).is_real()


def test_unit_exponent_examples():
    assert unit_exponent(zeta_pow(7, 3)) == (1, 3)
    assert unit_exponent(-zeta_pow(5, 2)) == (-1, 2)
    assert unit_exponent(1 + zeta_pow(5, 1)) is None


def test_unit_exponent_shift():
    for d in (4, 5, 12):
        phi = euler_phi(d)
        a = CycInt(d, [2] + [1] * (phi - 1))
        for j in range(d):
            shifted = zeta_pow(d, j) * a
            assert (unit_exponent(shifted) is None) == (unit_exponent(a) is None)
        u = -zeta_pow(d, 1)
        for j in range(d):
            assert unit_exponent(zeta_pow(d, j) * u) is not None


coeff_lists = st.integers(-8, 8)


@st.composite
def cycints(draw, ds=(3, 4, 5, 7, 12)):
    d = draw(st.sampled_from(ds))
    coeffs = draw(st.lists(coeff_lists, min_size=euler_phi(d), max_size=euler_phi(d)))
    return CycInt(d, coeffs)


@st.composite
def cycint_pairs(draw):
    a = draw(cycints())
    coeffs = draw(st.lists(coeff_lists, min_size=len(a.coeffs), max_size=len(a.coeffs)))
    return a, CycInt(a.d, coeffs)


@given(cycint_pairs())
def test_conj_is_a_ring_involution(pair):
    a, b = pair
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()


@given(cycints())
def test_conj_fixes_exactly_the_reals(a):
    r = a + a.conj()
    assert r.is_real()
    assert r.conj() == r


@given(cycints())
@settings(max_examples=60)
def test_solve_real_basis_reconstructs(a):
    for r in (a + a.conj(), a * a.conj()):
        n0, nk = solve_real_basis(r)
        assert eval_real_basis(r.d, n0, nk) == r


def test_solve_real_basis_examples():
    n0, nk = solve_real_basis(one(5))
    assert eval_real_basis(5, n0, nk) == 1
    r = zeta_pow(5, 1) + zeta_pow(5, 4)
    n0, nk = solve_real_basis(r)
    assert eval_real_basis(5, n0, nk) == r
    # (z + z^4)^2 expands to 2 + (z^2 + z^-2)
    r2 = r * r
    assert r2 == CycInt.from_int(5, 2) + zeta_pow(5, 2) + zeta_pow(5, 3)
    n0, nk = solve_real_basis(r2)
    assert eval_real_basis(5, n0, nk) == r2


def test_solve_real_basis_rejects_non_real():
    with pytest.raises(ValueError):
        solve_real_basis(zeta_pow(5, 1))


def _real_rank(d):
    return max(euler_phi(d) // 2, 1)


def test_solve_real_basis_coordinates_are_canonical():
    # {1} u {zeta^k + zeta^-k : 0 < k < phi(d)/2} is a Z-basis of the real
    # integers, so the coordinates of an element built on it come back exactly
    rng = random.Random(7)
    for d in range(2, 31):
        for _ in range(20):
            n0 = rng.randint(-50, 50)
            nk = tuple(rng.randint(-50, 50) for _ in range(_real_rank(d) - 1))
            assert solve_real_basis(eval_real_basis(d, n0, nk)) == (n0, nk), d


def test_solve_real_basis_reduces_redundant_indices():
    # zeta^k + zeta^-k for k >= phi(d)/2 is rewritten on the basis
    assert solve_real_basis(zeta_pow(5, 2) + zeta_pow(5, 3)) == (-1, (-1,))
    assert solve_real_basis(zeta_pow(7, 3) + zeta_pow(7, 4)) == (-1, (-1, -1))
    assert solve_real_basis(zeta_pow(8, 2) + zeta_pow(8, 6)) == (0, (0,))
    assert solve_real_basis(zeta_pow(12, 6) + zeta_pow(12, 6)) == (-2, (0,))
    rng = random.Random(8)
    for d in range(2, 31):
        for _ in range(10):
            nk = [rng.randint(-9, 9) for _ in range(2 * d)]
            r = eval_real_basis(d, rng.randint(-9, 9), nk)
            n0, got = solve_real_basis(r)
            assert len(got) == _real_rank(d) - 1
            assert eval_real_basis(d, n0, got) == r, d


def test_solve_real_basis_where_the_real_ring_is_z():
    # phi(d) <= 2: zeta + zeta^-1 is a rational integer and nk is empty
    for d, trace in ((2, -2), (3, -1), (4, 0), (6, 1)):
        assert solve_real_basis(zeta_pow(d, 1) + zeta_pow(d, -1)) == (trace, ())
        for n in (-7, 0, 1, 12):
            assert solve_real_basis(CycInt.from_int(d, n)) == (n, ())


def test_inverse():
    for d in (3, 5, 7, 12):
        for k in range(d):
            for s in (1, -1):
                u = zeta_pow(d, k) * s
                assert u * u.inverse() == 1
    u = 1 + zeta_pow(5, 1)  # a non-torsion unit: (1+z)(-z-z^3) = 1
    assert u * u.inverse() == 1
    with pytest.raises(ValueError):
        (1 + zeta_pow(4, 1)).inverse()  # norm 2, not a unit


def _rand_nonzero(rng, d):
    while True:
        b = CycInt(d, [rng.randint(-4, 4) for _ in range(euler_phi(d))])
        if not b.is_zero():
            return b


def test_divide_exact_recovers_products():
    rng = random.Random(11)
    for d in range(2, 13):
        units = [s * zeta_pow(d, k) for k in range(d) for s in (1, -1)]
        for _ in range(15):
            a = CycInt(d, [rng.randint(-6, 6) for _ in range(euler_phi(d))])
            for b in (_rand_nonzero(rng, d), rng.choice(units)):
                assert divide_exact(a * b, b) == a, (d, a, b)
    # d = 2: Z[zeta_2] = Z, with a trivial Galois group and signed norms
    assert divide_exact(CycInt(2, [12]), CycInt(2, [-3])) == CycInt(2, [-4])
    u = 1 + zeta_pow(5, 1)  # a unit that is not +-zeta^k
    assert divide_exact(1, u) * u == 1


def test_divide_exact_errors():
    with pytest.raises(ArithmeticError) as exc:
        divide_exact(one(5), 1 - zeta_pow(5, 1))
    assert exc.type is ArithmeticError
    with pytest.raises(ZeroDivisionError):
        divide_exact(one(5), zero(5))
    with pytest.raises(ZeroDivisionError):
        zero(7).inverse()
    with pytest.raises(ValueError):
        divide_exact(one(5), zeta_pow(7, 1))


def test_norm_matches_resultant():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(12)
    for d in range(2, 13):
        phi_d = sympy.cyclotomic_poly(d, x)
        for _ in range(6):
            b = _rand_nonzero(rng, d)
            norm = one(d)
            for k in range(1, d):
                if gcd(k, d) == 1:
                    norm = norm * galois(b, k)
            poly = sum(c * x ** m for m, c in enumerate(b.coeffs))
            assert norm == int(sympy.resultant(phi_d, poly, x)), (d, b)
            assert divide_exact(norm, b) * b == norm


ORACLE_DS = (2, 3, 4, 5, 7, 8, 9, 12, 15)


@st.composite
def oracle_cases(draw):
    """(d, a, b, (s, k)): two coefficient lists of length phi(d), b nonzero,
    and a sign and exponent for a unit s*zeta^k."""
    d = draw(st.sampled_from(ORACLE_DS))
    phi = euler_phi(d)
    a = draw(st.lists(coeff_lists, min_size=phi, max_size=phi))
    b = draw(st.lists(coeff_lists, min_size=phi, max_size=phi).filter(any))
    return d, a, b, (draw(st.sampled_from((1, -1))), draw(st.integers(0, d - 1)))


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_ring_layer_agrees_with_sympy(case):
    """mul, add, conj, unit_exponent and divide_exact against polynomial
    remainders mod Phi_d computed by sympy, which shares no code with the
    ring layer."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    d, a, b, (s, k) = case
    phi_d = sympy.Poly(sympy.cyclotomic_poly(d, x), x)

    def poly(coeffs):
        return sympy.Poly(list(reversed(coeffs)), x)

    def reduced(p):
        """The reduced coefficient tuple of p mod Phi_d, by sympy."""
        coeffs = [int(c) for c in reversed(sympy.rem(p, phi_d).all_coeffs())]
        return tuple(coeffs + [0] * (euler_phi(d) - len(coeffs)))

    ca, cb = CycInt(d, a), CycInt(d, b)
    pa, pb, pu = poly(a), poly(b), sympy.Poly(s * x ** k, x)
    assert (ca * cb).coeffs == reduced(pa * pb)
    assert (ca + cb).coeffs == reduced(pa + pb)
    assert ca.conj().coeffs == reduced(pa.compose(sympy.Poly(x ** (d - 1), x)))
    # divide_exact on a product, by a nonzero b and by a unit
    unit = CycInt(d, reduced(pu))
    assert divide_exact(CycInt(d, reduced(pa * pb)), cb) == ca
    assert divide_exact(CycInt(d, reduced(pa * pu)), unit) == ca
    # unit_exponent: the candidates (t, m) with t*x^m = a mod Phi_d; for even
    # d it prefers the sign +1
    powers = [reduced(sympy.Poly(x ** m, x)) for m in range(d)]
    for elem, p in ((ca, pa), (cb, pb), (unit, pu)):
        r = reduced(p)
        found = {(t, m) for t in (1, -1) for m in range(d)
                 if r == tuple(t * c for c in powers[m])}
        ue = unit_exponent(elem)
        assert (ue is None) == (not found), (d, elem)
        assert ue is None or (ue in found and (ue[0] == 1 or (1, (ue[1] + d // 2) % d) not in found))


def _divide_by_products(a, b):
    """a / b by the per-call product route, the oracle of divide_exact:
    a*b' / N(b), where b' is the product of sigma_k(b) over 1 < k < d coprime
    to d and N(b) = b*b', with divide_exact's errors and messages."""
    d = b.d
    if b.is_zero():
        raise ZeroDivisionError(f"division by zero in Z[zeta_{d}]")
    b_prime = one(d)
    for k in range(2, d):
        if gcd(k, d) == 1:
            b_prime = b_prime * galois(b, k)
    norm = (b * b_prime).coeffs[0]
    num = (a * b_prime).coeffs
    if any(c % norm for c in num):
        raise ArithmeticError(f"{a!r} / {b!r} is not in Z[zeta_{d}]")
    return CycInt(d, [c // norm for c in num])


def _outcome(divide, a, b):
    """The quotient's coefficients, or the error's type and text."""
    try:
        return divide(a, b).coeffs
    except ArithmeticError as exc:  # ZeroDivisionError is one too
        return type(exc), str(exc)


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_divide_exact_agrees_with_the_product_route(case):
    # products by a nonzero b and by a unit, non-multiples (a*b + 1 is one
    # unless b is a unit) and the zero divisor: the same quotient, or the
    # same error with the same text
    d, a, b, (s, k) = case
    ca, cb, unit, z = CycInt(d, a), CycInt(d, b), s * zeta_pow(d, k), zero(d)
    for x, y in ((ca * cb, cb), (ca * unit, unit), (ca * cb + 1, cb), (ca, cb),
                 (one(d), cb), (one(d), unit), (ca, z), (z, cb)):
        assert _outcome(divide_exact, x, y) == _outcome(_divide_by_products, x, y), (x, y)
    assert _outcome(divide_exact, 1, cb) == _outcome(_divide_by_products, one(d), cb)
    assert divide_exact(ca * cb, cb) == ca and divide_exact(ca * unit, unit) == ca
    with pytest.raises(ZeroDivisionError):
        divide_exact(ca, z)


def test_pow():
    z = zeta_pow(7, 1)
    assert z ** 7 == 1
    assert z ** -1 == zeta_pow(7, 6)
    assert (1 + z) ** 0 == 1


def test_ring_literals():
    assert parse_ring_literal("1 - z^3 + 2*z") == (1, 2, 0, -1)
    assert parse_ring_literal("0") == (0,)
    assert parse_ring_literal("-z^2") == (0, 0, -1)
    assert parse_ring_literal("  2*z + 1 ") == (1, 2)
    assert CycInt.from_literal(5, "z^5") == 1
    for text in ("", "z +", "z^", "q", "1 1"):
        with pytest.raises(ParseError):
            parse_ring_literal(text)


@given(cycints())
def test_literal_round_trip(a):
    assert CycInt.from_literal(a.d, a.literal()) == a


def test_budgets():
    assert parse_ring_literal("z^100000") == (0,) * 100000 + (1,)
    with pytest.raises(ParseError, match="budget") as exc:
        parse_ring_literal("1 + z ^ 100001")
    assert exc.value.pos == 8
    assert euler_phi(MAX_D) == 400
    for build in (euler_phi, lambda d: zeta_pow(d, 1), lambda d: CycInt.from_int(d, 1)):
        with pytest.raises(ValueError, match="budget MAX_D = 1000"):
            build(MAX_D + 1)


def test_digit_budget():
    big = "9" * MAX_DIGITS
    assert parse_ring_literal(f"{big}*z^{'0' * (MAX_DIGITS - 1)}1") == (0, int(big))
    for text, pos in ((f"1 + {big}9*z", 4), (f"z^{big}9", 2)):
        with pytest.raises(ParseError, match=f"budget MAX_DIGITS = {MAX_DIGITS}") as exc:
            parse_ring_literal(text)
        assert exc.value.pos == pos


def test_valid_literals_skip_the_scanner(monkeypatch):
    # the scanner only reports errors: a valid literal is read in one match,
    # unless an exponent is over MAX_EXPONENT or padded past six digits
    from test_grammar import _literal_cases

    valid = {}
    for _, text in _literal_cases():
        try:
            valid[text] = parse_ring_literal(text)
        except ParseError:
            pass
    scanned, scanner = [], cyclotomic._scanned_terms
    monkeypatch.setattr(cyclotomic, "_scanned_terms",
                        lambda text: scanned.append(text) or scanner(text))
    assert len(valid) > 10000
    assert {text: parse_ring_literal(text) for text in valid} == valid and scanned == []
    assert parse_ring_literal("1 + z^0000001") == (1, 1) and scanned == ["1 + z^0000001"]
    with pytest.raises(ParseError, match="budget MAX_EXPONENT") as exc:
        CycInt.from_literal(5, "z^100001")
    assert exc.value.pos == 2 and scanned[1:] == ["z^100001"]


@st.composite
def sparse_polys(draw):
    """(d, a dense tuple with a few nonzero terms of degree <= MAX_EXPONENT)."""
    d = draw(st.sampled_from((2, 3, 5, 7, 12, 997)))
    terms = draw(st.dictionaries(st.integers(0, MAX_EXPONENT), st.integers(-10**6, 10**6),
                                 max_size=6))
    poly = [0] * (max(terms, default=0) + 1)
    for m, c in terms.items():
        poly[m] = c
    return d, tuple(poly)


@given(sparse_polys())
@settings(max_examples=120, deadline=None)
def test_from_poly_folds_like_the_reduction(case):
    d, poly = case
    assert CycInt.from_poly(d, poly).coeffs == _reduce_poly(d, poly)
    assert CycInt.from_literal(d, render_poly(poly)).coeffs == _reduce_poly(d, poly)


def test_literals_fold_without_a_dense_polynomial():
    # a dense polynomial of z^100000 holds 100001 ints, about 1.6 MB
    for build in (lambda: CycInt.from_literal(3, "1 + z^100000"),
                  lambda: parse_matrix("z^100000, 0 ; 0, 1 - 2*z^99999", 5)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


def test_render_poly():
    assert render_poly((0,)) == "0"
    assert render_poly((1, 0, -1)) == "1-z^2"
    assert render_poly((0, 1)) == "z"
    assert render_poly((-2, 3)) == "-2+3*z"


def test_arithmetic_defers_on_a_foreign_operand():
    # each operator returns NotImplemented for an operand that is neither an
    # int nor a CycInt, so Python raises TypeError (or, for ==, compares false)
    a = zeta_pow(5, 1)
    for op in (CycInt.__add__, CycInt.__sub__, CycInt.__rsub__, CycInt.__mul__,
               CycInt.__pow__, CycInt.__eq__):
        assert op(a, "z") is NotImplemented
    for call in (lambda: a + "z", lambda: a - "z", lambda: "z" - a, lambda: a * 1.5,
                 lambda: a ** "2", lambda: a ** 1.0):
        with pytest.raises(TypeError):
            call()
    assert a != "z" and not (a == 1.0) and a == zeta_pow(5, 6)
