import ast
import inspect
import random
import re
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prymrep.cyclotomic import MAX_DIGITS, MAX_EXPONENT, CycInt, ParseError, euler_phi
from prymrep.generators import (FAMILIES, GenSpec, TH, _entries, _instances, conj_AH, delta_g1,
                                 delta_g3, matrix_of, scalar_zeta)
from prymrep.ringlinalg import BlockMat, _rank_update
from prymrep.sweeps import random_lambda_word
from prymrep.wordlang import MAX_POWER, Word, _factor, evaluate, parse

from matrix_helpers import disjoint_support


def test_empty_word_is_identity():
    w = parse("")
    assert len(w) == 0
    assert evaluate(w, 5, 2) == BlockMat.identity(5, 2)
    assert parse("   ") == w


def test_two_factor_word():
    w = parse("Ti(1; 1+z) * Tij(1,-2; z)^-1")
    assert len(w) == 2
    (s1, e1), (s2, e2) = w.factors
    assert s1 == GenSpec("Ti", (1,), scalar=(1, 1)) and e1 == 1
    assert s2 == GenSpec("Tij", (1, -2), scalar=(0, 1)) and e2 == -1


def test_g3_recipe_word():
    w = parse("GammaIJK(1,2,3) * TwistE(1)^-1 * TwistE(2)^-1")
    assert len(w) == 3
    assert evaluate(w, 5, 3) == delta_g3(3, 5, 1, 2, 3)


def test_bare_T_and_powers():
    assert evaluate(parse("T"), 5, 2).to_text() == "z, 0 ; 0, z"
    assert evaluate(parse("T"), 5, 2) ** 5 == BlockMat.identity(5, 2)
    assert evaluate(parse("T^-1 * T"), 7, 3) == BlockMat.identity(7, 3)


def test_conjugate_definition_matches():
    assert evaluate(parse("TH(2)"), 4, 3) == evaluate(parse("AH(2)^-1 * T * AH(2)"), 4, 3)
    assert evaluate(parse("TH(2)"), 4, 3) == TH(3, 4, 2)


def test_ursp_literal():
    w = parse("UrSp(1, 1 ; 0, 1)")
    m = evaluate(w, 5, 2)
    assert m.to_text() == "1, 1 ; 0, 1"
    w = parse("UrSp(1, 0, 2, 1 ; 0, 1, 1, 0 ; 0, 0, 1, 0 ; 0, 0, 0, 1)")
    m = evaluate(w, 3, 3)
    assert m.upper_right().to_text() == "2, 1 ; 1, 0"
    with pytest.raises(ValueError):
        evaluate(parse("UrSp(2, 0 ; 0, 1)"), 5, 2)  # fails the predicate
    with pytest.raises(ValueError):
        evaluate(parse("UrSp(1, z ; 0, 1)"), 5, 2)  # not integer


def _inverse(w):
    return Word(tuple((spec, -e) for spec, e in reversed(w.factors)))


def test_word_algebra():
    rng = random.Random(21)
    for d, g in ((3, 2), (5, 3)):
        w1 = random_lambda_word(rng, d, g, 4)
        w2 = random_lambda_word(rng, d, g, 4)
        assert evaluate(w1 * w2, d, g) == evaluate(w1, d, g) * evaluate(w2, d, g)
        assert evaluate(_inverse(w1), d, g) == evaluate(w1, d, g) ** -1


def test_evaluate_is_left_to_right():
    a, b = GenSpec("Ti", (1,), scalar=(1,)), GenSpec("Ti", (-1,), scalar=(1,))
    ma, mb = matrix_of(a, 5, 2), matrix_of(b, 5, 2)
    assert ma * mb != mb * ma
    assert evaluate(Word(((a, 1), (b, 1))), 5, 2) == ma * mb
    assert evaluate(Word(((a, -1), (b, 2))), 5, 2) == ma ** -1 * mb * mb


def test_inverse_word_cancels():
    # evaluate inverts negative-exponent factors by the form inverse; the
    # inverse word must cancel the word exactly, at every exponent +-1, +-2
    rng = random.Random(22)
    for d, g in ((2, 2), (3, 3), (5, 4), (12, 3), (7, 2)):
        ident = BlockMat.identity(d, g)
        for _ in range(6):
            w = random_lambda_word(rng, d, g, 6)
            assert evaluate(_inverse(w), d, g) * evaluate(w, d, g) == ident, (d, g, w)
            assert evaluate(w * _inverse(w), d, g) == ident, (d, g, w)


def test_render_parse_round_trip():
    rng = random.Random(22)
    samples = [
        "",
        "T",
        "Ti(1; 1+z) * Tij(1,-2; z)^-1",
        "GammaIJK(1,2,3) * TwistE(1)^-1 * TwistE(2)^-1",
        "UrSp(1, 1 ; 0, 1)^2 * Zeta(3)",
        "G1(1) * G2(1,2)^-3 * G3(2,1,0)",
        "AHPrime(2,-1)^2 * THPrime(2,1)^-1",
    ]
    for text in samples:
        w = parse(text)
        assert parse(w.render()) == w
    for d, g in ((4, 2), (5, 4)):
        for _ in range(20):
            w = random_lambda_word(rng, d, g, 6)
            assert parse(w.render()) == w


def test_zero_exponent_factors_drop():
    w = parse("T^0")
    assert len(w) == 0
    assert parse("Ti(1; 1)^0 * T") == parse("T")


def test_parse_errors_carry_position():
    for text, pos_lo in (("Q(1)", 0), ("Ti(1)", 4), ("Ti(1; z", 5),
                         ("T * ", 4), ("Tij(1,1; z)", 0), ("TH(2", 4),
                         ("T T", 2), ("G1(0)", 0), ("TH(-1)", 0),
                         ("Tij(1,0; 1)", 0), ("AHPrime(1,0)", 0),
                         ("THPrime(1,0)", 0)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.pos >= pos_lo - 1, (text, exc.value.pos)
    # index rules that need no (d, g) are parse errors naming the generator
    for text in ("TH(-1)", "Tij(1,0; 1)", "AHPrime(1,0)", "THPrime(1,0)"):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value).startswith(text.split("(")[0] + " "), (text, exc.value)


def test_word_integers_have_a_digit_budget():
    big = "9" * (MAX_DIGITS + 1)
    for text, pos in ((f"G1(1)^{big}", 6), (f"G1(1)^-{big}", 6), (f"Ti({big}; 1)", 3),
                      (f"Ti(1; {big})", 5)):
        with pytest.raises(ParseError, match=f"budget MAX_DIGITS = {MAX_DIGITS}") as exc:
            parse(text)
        assert exc.value.pos == pos, text[:8]
    assert parse("G1(1)^" + "9" * MAX_DIGITS).factors[0][1] == int("9" * MAX_DIGITS)


def test_power_budget_binds_dense_factors_only():
    ursp = "UrSp(2,1,0,0 ; 1,1,0,0 ; 0,0,1,-1 ; 0,0,-1,2)"
    for e in (MAX_POWER + 1, -MAX_POWER - 1, 10**8):
        for name in (ursp, "T", "AHPrime(1,2)"):
            with pytest.raises(ValueError, match=f"budget MAX_POWER = {MAX_POWER}$"):
                evaluate(parse(f"G1(1) * {name}^{e}"), 3, 3)
    assert evaluate(parse(f"T^{MAX_POWER}"), 3, 3) == evaluate(parse(f"T^{MAX_POWER % 3}"), 3, 3)
    # column-op factors take any exponent, in no time
    start = perf_counter()
    m = evaluate(parse(f"G1(1)^{10**20} * Tij(1,-2; z)^-{10**30}"), 3, 3)
    assert perf_counter() - start < 0.25
    assert m.upper_right()[0, 0] == CycInt.from_int(3, 10**20)


def test_arity_mismatch():
    with pytest.raises(ParseError):
        parse("Ti(1,2; z)")
    with pytest.raises(ParseError):
        parse("GammaIK(1)")
    with pytest.raises(ParseError):
        parse("T(1)")


def test_range_errors_surface_at_evaluate():
    w = parse("Ti(3; 1)")
    with pytest.raises(ValueError):
        evaluate(w, 5, 2)
    w = parse("Ti(1; z)")  # not real
    with pytest.raises(ValueError):
        evaluate(w, 5, 2)
    # after column-op factors the bad factor raises the text it raises alone
    for text, message in (("G1(1) * Ti(1; z)", "Ti requires a real ring element r'"),
                          ("G1(1) * Tij(1,-2; z) * G3(1,3,1)",
                           "index 3 out of range for genus 3"),
                          ("TwistE(1)^7 * Ti(-1; 1) * GammaIK(3,1)",
                           "index 3 out of range for genus 3")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(parse(text), 5, 3)


def _dense_product(word, d, g, invert=BlockMat.form_inverse):
    """The oracle: the left-to-right product of matrix_of(spec), inverted
    by invert (form_inverse unless given) for a negative exponent, raised
    to |e|."""
    acc = BlockMat.identity(d, g)
    for spec, e in word.factors:
        m = matrix_of(spec, d, g)
        if e < 0:
            m = invert(m)
        acc = acc * m ** abs(e)
    return acc


def _bareiss_inverse(m):
    """The generic inverse, by Bareiss elimination: no form is assumed."""
    return BlockMat(m.mat.inverse(), m.g)


@st.composite
def _words(draw, memoized=False, at=None):
    """(d, g, word) over all the families of FAMILIES whose indices fit g;
    exponents +-10^6 and +-10^20 only on the factors of disjoint support.
    memoized: only the families that evaluate's memo keeps (all but UrSp),
    with exponents +-1, +-2 and +-7.  at: a fixed (d, g)."""
    d, g = at or (draw(st.sampled_from((2, 3, 4, 5, 7, 12))), draw(st.integers(2, 5)))
    names = [nm for nm, fam in FAMILIES.items() if len(fam.slots.replace("k", "")) < g
             and not (memoized and fam.takes == "matrix")]
    n = g - 1
    factors = []
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from(names))
        fam = FAMILIES[name]
        free = iter(draw(st.permutations(range(1, g))))
        indices = []
        for slot in fam.slots:
            if slot == "k":
                indices.append(draw(st.integers(-d, 2 * d)))
            else:
                i = next(free)
                indices.append(-i if slot == "s" and draw(st.booleans()) else i)
        scalar = matrix = None
        if fam.takes == "real":  # a + b (z + z^-1)
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            poly = [0] * d
            poly[0] += a
            poly[1] += b
            poly[d - 1] += b
            scalar = tuple(poly)
        elif fam.takes == "ring":
            scalar = tuple(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=d)))
        elif fam.takes == "matrix":  # [[Id, S], [0, Id]] with S = S^T integral
            rows = [[int(r == c) for c in range(2 * n)] for r in range(2 * n)]
            for r in range(n):
                for c in range(r, n):
                    rows[r][n + c] = rows[c][n + r] = draw(st.integers(-2, 2))
            matrix = tuple(tuple((x,) for x in row) for row in rows)
        spec = GenSpec(name, tuple(indices), scalar, matrix)
        large = not memoized and disjoint_support(spec, d, g)
        sizes = (1, 2, 7) + ((10**6, 10**20) if large else ())
        e = draw(st.sampled_from(sizes)) * draw(st.sampled_from((1, -1)))
        factors.append((spec, e))
    return d, g, Word(tuple(factors))


# factors whose N reads columns that it writes: THPrime(1,-2) has N's
# rows and columns meeting, and so has the full urSp(Z) matrix
# [[A, AS], [0, A^-T]] with A = [[2, 1], [1, 1]] and S = [[1, 1], [1, 0]]
_FULL_URSP = "UrSp(2,1,3,2 ; 1,1,2,1 ; 0,0,1,-1 ; 0,0,-1,2)"


@given(_words())
@example((5, 3, parse("THPrime(1,-2)^-1")))
@example((5, 3, parse(f"{_FULL_URSP} * THPrime(1,-2)^-1 * {_FULL_URSP}^-1")))
@example((12, 3, parse(f"T^3 * {_FULL_URSP}^2 * THPrime(2,-1) * {_FULL_URSP}^-2")))
@settings(max_examples=120, deadline=None)
def test_column_ops_equal_the_dense_product(case):
    d, g, word = case
    assert evaluate(word, d, g) == _dense_product(word, d, g), (d, g, word)


@given(_words())
@settings(max_examples=80, deadline=None)
def test_negative_exponents_equal_the_generic_inverse(case):
    # evaluate inverts through N' = -Omega N* Omega, the formula of
    # form_inverse; the Bareiss inverse shares nothing with it
    d, g, word = case
    assert evaluate(word, d, g) == _dense_product(word, d, g, _bareiss_inverse), (d, g, word)


def _family_instances(d, g):
    """A GenSpec of every positive-index instance of every family at (d, g):
    Ti with the real scalar 2 + z + z^-1, Tij with 1 - 2z + z^2, and UrSp
    the non-unipotent [[-Id, E_11], [0, -Id]]."""
    n, real = g - 1, (2, 1) + (0,) * (d - 3) + (1,)
    ursp = tuple(tuple((-1,) if r == c else (1,) if (r, c) == (0, n) else (0,)
                       for c in range(2 * n)) for r in range(2 * n))
    for name, fam in FAMILIES.items():
        scalar = {"real": real, "ring": (1, -2, 1)}.get(fam.takes)
        for ix in _instances(fam.slots, d, g):
            yield GenSpec(name, ix, scalar, ursp if fam.takes == "matrix" else None)


def test_every_factor_is_coefficient_triples_joined_by_rank_update():
    # one entry format from the family to the product: every instance of
    # every family gives its entries (p, q, c), c a tuple of phi(d) ints, and
    # matrix_of is _rank_update of them; neither matrix_of nor the memo
    # _factor converts an entry (reads a CycInt's coeffs)
    names = set()
    for d, g in ((3, 2), (5, 3), (12, 4)):
        phi = euler_phi(d)
        for spec in _family_instances(d, g):
            names.add(spec.name)
            entries = list(_entries(spec.name, g, d, *spec._args(d)))
            assert all(len(entry) == 3 and type(entry[2]) is tuple and len(entry[2]) == phi
                       and {*map(type, entry[2])} == {int} for entry in entries), (d, g, spec)
            assert matrix_of(spec, d, g) == _rank_update(d, g, entries), (d, g, spec)
    assert names == set(FAMILIES)
    for fn in (_factor.__wrapped__, matrix_of):
        reads = [node for node in ast.walk(ast.parse(inspect.getsource(fn)))
                 if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
        assert reads == [], fn.__name__


def test_every_instance_times_its_inverse_word_is_the_identity():
    for d in (3, 5, 12):
        for g in range(2, 6):
            ident = BlockMat.identity(d, g)
            for spec in _family_instances(d, g):
                inverse, m = evaluate(Word(((spec, -1),)), d, g), matrix_of(spec, d, g)
                assert inverse * m == ident and inverse == m.form_inverse(), (d, g, spec)


@st.composite
def _word_pairs(draw):
    """(d, g, a, b): two _words draws at one (d, g)."""
    d, g, a = draw(_words())
    return d, g, a, draw(_words(at=(d, g)))[2]


@given(_word_pairs())
@settings(max_examples=60, deadline=None)
def test_word_product_joins_the_factors(case):
    # a * b joins two clean words unchecked: it is the word built from the
    # joined factors and hashes alike, and it evaluates to the product.  The
    # dense product is the generic route, so it also checks the column-op
    # step that adds e*c as it stands where the column entry is 1
    d, g, a, b = case
    ab, built = a * b, Word(a.factors + b.factors)
    assert ab == built and hash(ab) == hash(built)
    assert evaluate(ab, d, g) == evaluate(a, d, g) * evaluate(b, d, g) == _dense_product(ab, d, g)


@given(_words(memoized=True))
@settings(max_examples=120, deadline=None)
def test_the_factor_memo_is_transparent(case):
    # the second evaluation reads every factor from the memo; a cleared memo
    # and the dense matrix_of product give the same matrix
    d, g, word = case
    evaluate(word, d, g)
    hits = _factor.cache_info().hits
    warm = evaluate(word, d, g)
    assert _factor.cache_info().hits == hits + len(word)
    _factor.cache_clear()
    assert evaluate(word, d, g) == warm == _dense_product(word, d, g), (d, g, word)


def test_refusals_are_never_memoized():
    for _ in range(2):
        for text, message in (("Ti(1; z)", "Ti requires a real ring element r'"),
                              ("G1(3)", "index 3 out of range for genus 3")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                evaluate(parse(text), 5, 3)
    # g and d are part of the key: G1(2), kept at g = 3, is refused at g = 2,
    # and the float 5.0 does not find the entries kept for the int 5
    w = parse("G1(2)")
    assert evaluate(w, 5, 3) == delta_g1(3, 5, 2)
    with pytest.raises(ValueError, match="^index 2 out of range for genus 2$"):
        evaluate(w, 5, 2)
    _factor.cache_clear()
    with pytest.raises(Exception) as cold:
        evaluate(w, 5.0, 3)
    evaluate(w, 5, 3)
    with pytest.raises(cold.type, match=f"^{re.escape(str(cold.value))}$"):
        evaluate(w, 5.0, 3)


def test_the_factor_memo_keeps_no_dense_literal():
    # z^k for k near MAX_EXPONENT is a dense polynomial of ~10^5 ints in its
    # GenSpec, but the memo's key holds the phi(d) ints of its reduction
    _factor.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(MAX_EXPONENT - 199, MAX_EXPONENT + 1):
            evaluate(parse(f"Tij(1,2; z^{k})"), 5, 3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20, held
    assert _factor.cache_info().currsize == 5  # z^k and z^(k mod 5) share a key


def test_disjoint_support_outside_the_transvections_takes_any_exponent():
    # N = 0 for AH(1) and Zeta(d), N = [[0, S], [0, 0]] for a unipotent UrSp:
    # each is a column operation, so 10^20 costs nothing and MAX_POWER does
    # not apply
    d, g = 3, 3
    for text in ("AH(1)", f"Zeta({d})", "UrSp(1,0,2,1 ; 0,1,1,-3 ; 0,0,1,0 ; 0,0,0,1)"):
        (spec, _), = parse(text).factors
        assert disjoint_support(spec, d, g), text
        word = parse(f"{text}^{10**20}")
        start = perf_counter()
        m = evaluate(word, d, g)
        assert perf_counter() - start < 0.25, text
        assert m == _dense_product(word, d, g), text
        for e in (7, -7):
            word = parse(f"{text}^{e}")
            assert evaluate(word, d, g) == _dense_product(word, d, g), (text, e)


@pytest.mark.parametrize("bad", [1.9, 0.4, 1.0, "1", None, True])
def test_non_integral_arguments_are_refused(bad):
    # refused with a message, never truncated by int(): G1(1.9) is not G1(1)
    # and an exponent 0.4 does not drop its factor; nor is True read as 1, by
    # a GenSpec, a Word or a public constructor
    for build, name in ((delta_g1, "G1"), (conj_AH, "AH"), (TH, "TH"), (scalar_zeta, "Zeta")):
        with pytest.raises(ValueError, match=f"^{name} indices must be integers$"):
            build(3, 5, bad)
    with pytest.raises(ValueError, match="^G1 indices must be integers$"):
        GenSpec("G1", (bad,))
    with pytest.raises(ValueError, match="^polynomial coefficients must be integers$"):
        GenSpec("Ti", (1,), (2, bad))
    with pytest.raises(ValueError, match="^polynomial coefficients must be integers$"):
        GenSpec("UrSp", matrix=(((1,), (bad,)), ((0,), (1,))))
    with pytest.raises(ValueError, match="^word exponents must be integers$"):
        Word(((GenSpec("G1", (1,)), bad),))


def test_word_factors_are_genspec_pairs():
    # each malformed factor gets the one message, before any unpacking: a
    # bare GenSpec, a 3-tuple, and a 2-letter string that would unpack
    spec = GenSpec("G1", (1,))
    for factor in (("G1", 1), spec, (spec, 1, 1), "ab"):
        with pytest.raises(ValueError, match=r"^word factors must be \(GenSpec, int\) pairs$"):
            Word((factor,))


def test_matrix_of_matches_evaluate():
    spec = GenSpec("GammaIK", (1, 2))
    assert matrix_of(spec, 7, 2) == evaluate(Word(((spec, 1),)), 7, 2)


@given(st.text(alphabet="TiZeta AHPrimeGK123UrSp()*^;,-+z ", max_size=40))
@settings(max_examples=300)
def test_parser_never_crashes(text):
    # arbitrary input either parses or raises ParseError, nothing else
    try:
        w = parse(text)
    except ParseError:
        return
    assert parse(w.render()) == w


@given(st.text(max_size=30))
@settings(max_examples=200)
def test_parser_handles_arbitrary_unicode(text):
    try:
        parse(text)
    except ParseError:
        pass


def test_word_operators_defer_and_hash_agrees_with_eq():
    w = parse("G1(1)^2 * Ti(-1; 1+z)")
    assert Word.__mul__(w, "G1(1)") is NotImplemented
    assert Word.__eq__(w, "G1(1)") is NotImplemented
    with pytest.raises(TypeError):
        w * "G1(1)"
    assert w != w.render() and w != 1
    # equal words built apart hash alike, and a set keeps one of them
    twin = Word(((GenSpec("G1", (1,)), 2),)) * Word(((GenSpec("Ti", (-1,), (1, 1)), 1),))
    assert twin == w and hash(twin) == hash(w) and len({w, twin, parse("G1(1)")}) == 2
    assert str(w) == w.render() == "G1(1)^2 * Ti(-1; 1+z)"
    assert repr(w) == "Word('G1(1)^2 * Ti(-1; 1+z)')"
